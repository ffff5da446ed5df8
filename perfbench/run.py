#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command per workload run.

  python3 perfbench/run.py --workload cold-d60 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the hdidx library from src/ plus the hdidx_perfbench
workload binary) under $CARGO_TARGET_DIR (default .bench_build), runs the
workload in its own process, checks the outputs, prints a report naming
every metric with its unit and sample count, and prints one JSON object as
the last line of stdout. With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. Exits 1 when an output
check fails (after printing the result) and 2 when it cannot build or run.
See perfbench/README.md for the workloads, the metrics and the noise model.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-d60", "mixed-d16", "ooc-build")
# The seed whose output digests are pinned in golden.json, and the held-out
# seed later performance claims must also hold on (checked for
# self-consistency only, like every other non-default seed).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# Candidate tail percentiles: the report uses the highest one with at least
# ten samples beyond it.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999)
# trace.unattributed_*: this percentile over traced ops of the share of an
# op's time that no layer span covers.
COVERAGE_RANK = 0.9
# The whole run must end within 180 s.
CHILD_TIMEOUT_S = 170.0

# Per-layer metric -> (span name, unit, scale from ns).
SPAN_METRICS = {
    "workload.create_ms": ("workload.create", "ms", 1e-6),
    "io.copy_ms": ("io.copy", "ms", 1e-6),
    "core.resampled_ms": ("core.resampled", "ms", 1e-6),
    "core.cutoff_ms": ("core.cutoff", "ms", 1e-6),
    "core.mini_ms": ("core.mini", "ms", 1e-6),
    "service.serve_hit_ms": ("service.serve_hit", "ms", 1e-6),
    "service.serve_miss_ms": ("service.serve_miss", "ms", 1e-6),
    "wire.decode_us": ("wire.decode", "us", 1e-3),
    "wire.encode_us": ("wire.encode", "us", 1e-3),
    "service.metrics_ms": ("service.metrics", "ms", 1e-6),
    "index.build_ms": ("index.build", "ms", 1e-6),
}
# Per-layer counters hdidx_perfbench computes itself -> unit.
COUNTER_METRICS = {
    "service.result_hit_rate": "frac",
    "service.workload_hit_rate": "frac",
    "service.result_evictions": "count",
    "index.data_passes": "passes",
    "index.pages_read": "count",
    "index.io_sample_s": "sim_s",
    "index.io_partition_s": "sim_s",
    "index.io_finish_s": "sim_s",
    "index.io_directory_s": "sim_s",
    "io.readahead_overlap": "frac",
}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# --- statistics --------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rank(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p) >= 10.0 - 1e-9:
            best = p
    return best


def tail_label(p):
    return "p%g" % (100.0 * p)


def median(values):
    return statistics.median(values) if values else 0.0


def relative_errors(pairs):
    return [abs(p - m) / m for p, m in pairs if m > 0]


# --- build and run -----------------------------------------------------------

def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build():
    """Configures (once) and builds hdidx_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no hdidx sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "hdidx_perfbench"


def run_child(cmd, timeout_s=CHILD_TIMEOUT_S):
    """Runs cmd to completion (killed after timeout_s); returns (exit code,
    stdout)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return -1, ""
    return proc.returncode, proc.stdout


# --- evaluation --------------------------------------------------------------

def load_golden():
    with open(HERE / "golden.json") as f:
        return json.load(f)


def check_outputs(raw, workload, seed, golden):
    """Returns (failed, notes): the failures hdidx_perfbench found plus a
    pinned-digest mismatch on the default seed, each counted as one failed
    op."""
    failed = int(raw["failed"])
    notes = list(raw["failures"])
    if seed == DEFAULT_SEED:
        pinned = golden["digests"].get(workload)
        if raw["digest"] != pinned:
            failed += 1
            notes.append(f"digest {raw['digest']} over {raw['digest_ops']} "
                         f"ops differs from the pinned {pinned}")
    return failed, notes


def end_to_end(raw):
    """name -> (value, unit, sample count, note)."""
    ops = raw["op_ms"]
    tail = tail_rank(len(ops))
    errors = relative_errors(raw["accuracy"])
    io_ops = max(1, raw["io_ops"])
    return {
        "latency_ms_p50": (percentile(ops, 0.5), "ms", len(ops), "p50"),
        "latency_ms_tail": (percentile(ops, tail), "ms", len(ops),
                            tail_label(tail)),
        "sim_io_s": (raw["sim_io_s"] / io_ops, "sim_s", raw["io_ops"],
                     "mean simulated disk seconds per op"),
        "pred_accuracy_pct": (100.0 * (1.0 - statistics.fmean(errors))
                              if errors else 0.0, "%", len(errors),
                              "100 - mean |predicted-measured|/measured %"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB", 1,
                        "VmHWM of the workload process after the timed loop"),
        "setup_s": (median(raw["setup_s"]), "s", len(raw["setup_s"]),
                    "median of set-ups"),
    }


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_summary(spans):
    """(per-name durations in ns, per-kind unattributed shares of each root
    span). A root's unattributed share is the part of its time that no
    child span covers; its kind is "hit" or "miss" when it holds a
    service.serve_hit or service.serve_miss span, else "other"."""
    durations = {}
    covered = [0] * len(spans)
    kinds = ["other"] * len(spans)
    for s in spans:
        d = s["end_ns"] - s["start_ns"]
        durations.setdefault(s["name"], []).append(d)
        parent = s["parent"]
        if parent >= 0:
            covered[parent] += d
            if s["name"] in ("service.serve_hit", "service.serve_miss"):
                kinds[parent] = s["name"][len("service.serve_"):]
    shares = {"all": [], "hit": [], "miss": []}
    for i, s in enumerate(spans):
        d = s["end_ns"] - s["start_ns"]
        if s["parent"] < 0 and d > 0:
            share = max(0, d - covered[i]) / d
            shares["all"].append(share)
            if kinds[i] in shares:
                shares[kinds[i]].append(share)
    return durations, shares


def per_layer(raw, spans):
    """name -> (value, unit, sample count, note)."""
    durations, shares = span_summary(spans)
    m = {}
    for name, (span, unit, scale) in SPAN_METRICS.items():
        d = durations.get(span, [])
        m[name] = (median(d) * scale, unit, len(d), f"median '{span}' span")
    io_ops = max(1, raw["io_ops"])
    m["io.sim_seeks"] = (raw["sim_seeks"] / io_ops, "count", raw["io_ops"],
                         "mean per op")
    m["io.sim_transfers"] = (raw["sim_transfers"] / io_ops, "count",
                             raw["io_ops"], "mean per op")
    sock, inproc = raw["socket_hit_ms"], raw["inproc_hit_ms"]
    m["service.transport_ms"] = (
        median(sock) - median(inproc) if sock and inproc else 0.0, "ms",
        min(len(sock), len(inproc)), "socket hit p50 - in-process hit p50")
    m["service.stats_ms_p50"] = (median(raw["stats_ms"]), "ms",
                                 len(raw["stats_ms"]), "stats op over socket")
    for name, unit in COUNTER_METRICS.items():
        m[name] = (raw["counters"].get(name, 0.0), unit, raw["io_ops"],
                   "counter")
    m["data.generate_s"] = (median(raw["generate_s"]), "s",
                            len(raw["generate_s"]), "median of set-ups")
    m["service.register_s"] = (median(raw["register_s"]), "s",
                               len(raw["register_s"]), "median of set-ups")
    errors = relative_errors(raw["accuracy"])
    m["pred_error_pct"] = (100.0 * statistics.fmean(errors) if errors else 0.0,
                           "%", len(errors), "mean |pred-meas|/meas")
    for name, kind in (("trace.unattributed_frac", "all"),
                       ("trace.unattributed_hit_frac", "hit"),
                       ("trace.unattributed_miss_frac", "miss")):
        m[name] = (percentile(shares[kind], COVERAGE_RANK), "frac",
                   len(shares[kind]),
                   f"p{100 * COVERAGE_RANK:g} over traced ops ({kind}) of "
                   "the op's time outside child spans")
    traced, untraced = raw["traced_ms"], raw["untraced_ms"]
    m["trace.overhead_frac"] = (
        median(traced) / median(untraced) - 1.0 if traced and untraced
        else 0.0, "frac", len(traced), "traced p50 / untraced p50 - 1")
    return m


def report(workload, seed, metrics, attempted, failed, notes, digest):
    kind = ("default seed: digest pinned" if seed == DEFAULT_SEED
            else "self-consistency checks only")
    print(f"workload {workload}  seed {seed} ({kind})")
    for name, (value, unit, n, note) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} n={n:<7} {note}")
    frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':<26} {frac:>14.6g} {'frac':<6} "
          f"n={attempted:<7} failed ops / attempted")
    print(f"  output digest {digest}")
    for note in notes:
        print(f"  FAILED: {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    binary = build()
    spans_path = build_dir() / f"spans-{args.workload}-{args.seed}.jsonl"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    code, out = run_child(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{args.workload} run exited with code {code}")
    raw = json.loads(lines[-1])

    failed, notes = check_outputs(raw, args.workload, args.seed,
                                  load_golden())
    attempted = max(1, int(raw["attempted"]))
    metrics = (per_layer(raw, load_spans(spans_path)) if args.trace
               else end_to_end(raw))
    report(args.workload, args.seed, metrics, attempted, failed, notes,
           raw["digest"])
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
