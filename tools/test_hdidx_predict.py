#!/usr/bin/env python3
"""hdidx_predict refuses what the prediction service refuses.

  python3 tools/test_hdidx_predict.py --gen build/tools/hdidx_gen \
      --predict build/tools/hdidx_predict

Generates a 300 x 8 uniform dataset (an index of height 2 at 8 KB pages),
then runs hdidx_predict with each request the service answers with an
error, and with an --h-upper outside [1, height - 1]. Every one must exit with status 2 and print the service's message
on stderr, before any prediction runs. A valid mini-index request must
still succeed. A --threads value above 1024 exits 2, and a dataset file
whose header claims 2^40 points in a 24-byte file exits 1 with the
reader's error (it used to abort in the allocation). Exits 0 when every
case holds, 1 otherwise.
"""

import argparse
import struct
import subprocess
import sys
import tempfile

TOO_SMALL = "(index height < 3); use method=mini"
ZERO = "num_queries, k, memory, and page_bytes must be > 0"

# (extra flags, expected stderr fragment)
REJECTED = [
    (["--method", "resampled"],
     "too small for the resampled method " + TOO_SMALL),
    (["--method", "cutoff"],
     "too small for the cutoff method " + TOO_SMALL),
    (["--method", "mini", "--k", "0"], ZERO),
    (["--method", "mini", "--memory", "0"], ZERO),
    (["--method", "mini", "--queries", "0"], ZERO),
    (["--method", "mini", "--k", "400"],
     "k must be < the dataset's 300 points"),
    (["--method", "mini", "--k", "300"],
     "k must be < the dataset's 300 points"),
    (["--method", "mini", "--queries", "301"],
     "num_queries must be <= the dataset's 300 points"),
    (["--method", "mini", "--page-bytes", "16"],
     "page_bytes must be >= 72 (two data records at this dimensionality)"),
    (["--method", "bogus"], "unknown method: bogus"),
    (["--method", "mini", "--h-upper", "0"], "--h-upper must be in [1, 1]"),
    (["--method", "mini", "--h-upper", "2"], "--h-upper must be in [1, 1]"),
]


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--gen", required=True)
    parser.add_argument("--predict", required=True)
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        data = f"{tmp}/u300.hdx"
        gen = run([args.gen, "--out", data, "--kind", "uniform", "--n", "300",
                   "--dim", "8"])
        if gen.returncode != 0:
            print(f"hdidx_gen failed: {gen.stderr}")
            return 1
        # 50 queries fit the dataset; a case's own --queries overrides it.
        base = [args.predict, "--data", data, "--queries", "50"]
        for flags, message in REJECTED:
            result = run(base + flags)
            ok = (result.returncode == 2 and message in result.stderr
                  and "predicted:" not in result.stdout)
            if not ok:
                failures.append(
                    f"{' '.join(flags)}: exit {result.returncode}, "
                    f"stderr {result.stderr.strip()!r}, expected {message!r}")
        valid = run(base + ["--method", "mini", "--k", "5", "--h-upper", "1"])
        if valid.returncode != 0 or "predicted:" not in valid.stdout:
            failures.append(f"valid mini request: exit {valid.returncode}, "
                            f"stderr {valid.stderr.strip()!r}")
        # Rejected before the pool exists: without --data nothing would run
        # even if the flag were taken.
        threads = run([args.predict, "--threads", "1025"])
        if (threads.returncode != 2
                or "--threads must be at most 1024" not in threads.stderr):
            failures.append(f"--threads 1025: exit {threads.returncode}, "
                            f"stderr {threads.stderr.strip()!r}")
        crafted = f"{tmp}/crafted.hdx"
        with open(crafted, "wb") as out:
            out.write(b"HDIX" + struct.pack("<IQQ", 1, 1 << 40, 1))
        bad = run(base[:1] + ["--data", crafted])
        if (bad.returncode != 1
                or "exceeds the 32-bit row id limit" not in bad.stderr):
            failures.append(f"crafted header: exit {bad.returncode}, "
                            f"stderr {bad.stderr.strip()!r}")

    for failure in failures:
        print(f"FAIL {failure}")
    total = len(REJECTED) + 3
    print(f"test_hdidx_predict: {total - len(failures)}/{total} cases ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
