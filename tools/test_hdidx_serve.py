#!/usr/bin/env python3
"""hdidx_client runs a healthy session against a spawned hdidx_serve.

  python3 tools/test_hdidx_serve.py --gen build/tools/hdidx_gen \
      --serve build/tools/hdidx_serve --client build/tools/hdidx_client

Generates a clustered 20000 x 16 dataset (an index of height >= 3 at 8 KB
pages), then has hdidx_client spawn hdidx_serve and drive one session over
the loopback wire protocol: load, 4 cold predicts, the same 4 again (all
cache hits), stats, shutdown. With --repeat 0 the warm pass is skipped.
A 65,000-byte --data path fails the load and nothing else: the session
runs on to a clean shutdown and exits 1. A session that fails before its
shutdown exchange (--dataset "", which the server refuses as malformed)
stops the server and exits 1 instead of waiting on it.
Flags the server cannot honour (a --port above 65535, a --retry-after-ms
above 2^32 - 1, --shards or --threads above 1024) and the removed --json
flag must exit 2 before anything is bound or spawned. Exits 0 when every
case holds, 1 otherwise.
"""

import argparse
import os
import shlex
import signal
import subprocess
import sys
import tempfile


def run(cmd, timeout=120):
    """Runs `cmd` in its own process group; on timeout kills the group (the
    client's spawned server included) and reports exit status None."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + f"\n(timed out after {timeout} s)"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--gen", required=True)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--client", required=True)
    args = parser.parse_args()

    failures = []
    cases = 0

    def expect(name, result, status, stdout_fragment="", stderr_fragment=""):
        nonlocal cases
        cases += 1
        code, out, err = result
        if (code != status or stdout_fragment not in out
                or stderr_fragment not in err):
            failures.append(f"{name}: exit {code}, stdout {out.strip()!r}, "
                            f"stderr {err.strip()!r}")

    with tempfile.TemporaryDirectory() as tmp:
        data = f"{tmp}/c16.hdx"
        code, _, err = run([args.gen, "--out", data, "--kind", "clustered",
                            "--n", "20000", "--dim", "16", "--seed", "7"])
        if code != 0:
            print(f"hdidx_gen failed: {err}")
            return 1

        serve = f"{shlex.quote(args.serve)} --shards 2 --threads 4"
        session = [args.client, "--serve", serve, "--data", data,
                   "--method", "resampled", "--memory", "1000", "--k", "5",
                   "--queries", "50", "--requests", "4"]
        expect("session", run(session), 0,
               "session: 8/8 predictions ok, 4 cache hits, load ok, "
               "shutdown clean")
        expect("session --repeat 0", run(session + ["--repeat", "0"]), 0,
               "session: 4/4 predictions ok, 0 cache hits")
        long_path = os.path.join(tmp, "p" * (65000 - len(tmp) - 1))
        long_session = list(session)
        long_session[long_session.index(data)] = long_path
        expect("session with a 65,000-byte --data path", run(long_session),
               1, "load FAILED, shutdown clean")
        expect("session --dataset ''", run(session + ["--dataset", ""], 30),
               1, "shutdown clean", "bad load response")

        # A server that accepts one of these flags serves until killed, so
        # these cases get a short timeout.
        expect("hdidx_serve --port 70000",
               run([args.serve, "--port", "70000"], 20), 2, "",
               "--port must be at most 65535")
        expect("hdidx_serve --retry-after-ms 4294967296",
               run([args.serve, "--retry-after-ms", "4294967296"], 20), 2, "",
               "--retry-after-ms must be at most 4294967295")
        # --port 70000 rides along so that a server which took the oversized
        # count would still exit 2 (with the port's message) before starting
        # a thread.
        for flag in ("--shards", "--threads"):
            expect(f"hdidx_serve {flag} 1025",
                   run([args.serve, flag, "1025", "--port", "70000"], 20), 2,
                   "", f"{flag} must be at most 1024")
        expect("hdidx_serve --json", run([args.serve, "--json"], 20), 2, "",
               "unknown flag: --json")
        expect("hdidx_client --json", run(session + ["--json"], 20), 2, "",
               "unknown flag: --json")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"test_hdidx_serve: {cases - len(failures)}/{cases} cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
