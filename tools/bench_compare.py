#!/usr/bin/env python3
"""Compares a google-benchmark JSON run against BENCH_BASELINE.json.

The baseline pins the PR 6 kernel-layer numbers (BM_CountLeafIntersections,
BM_ExactKthScan, BM_SlabBuild) with their custom counters:

  speedup_vs_pr5 — how much faster this mode is than the PR 5 generic
      batched lane on the same shape (0 for the scalar oracle rows).
  bytes_touched — bytes the kernel streams per iteration; a pure function
      of the input shape, so any drift means the kernel started reading a
      different working set, not that the machine got slower.

BM_WorkloadCreate/{16,60} pins bytes_touched = N·d·4 per iteration: the
cost model's bytes for one query tile of the workload scan (one tile on one
thread). Like BM_ExactKthScan's, it is a constant of the benchmark's shape;
it records the model's prediction and does not observe the tiling itself.

BM_MaxVarianceDim/{mode}/{16,60} pins bytes_touched = N·(d·4 + 4) per
iteration: the 10k rows of the moments kernel plus their shuffled index
list, once per split-dimension choice. A constant of the shape, like the
scan rows; the rows carry speedup_vs_pr5 like the other kernel sweeps.

BM_NearestBox/{mode}/{16,60} pins bytes_touched = P·4·(d + 2·d·L + 2·S·k)
per iteration: P = 10k points assigned over a grown upper layout of k
leaves, each point's d floats plus one pass over both box layouts (the
slab's two planes of L padded lanes, and the two box-major rows of stride
S per leaf) — the upper bound, since containment stops at the first box.
The rows carry speedup_vs_pr5 like the other kernel sweeps.

BM_GatherRows/60 pins bytes_touched = 10k·d·4 per iteration: the rows
Dataset::AppendRows copies, a constant of the shape.

It also pins the external-build I/O counters (BM_ExternalBuild):

  data_passes / pages_read — the simulated page transfers of an on-disk
      bulk load, normalized and raw. Deterministic functions of the build
      pipeline, so they gate exactly like bytes_touched.

and the resampled prediction's own simulated I/O (BM_ResampledPredict):

  page_seeks / page_transfers — Equation 5's seeks and transfers of one
      cold resampled prediction; exact like the build counters.

Timings move with the host, so the timing gate is advisory by default
(--max-regression inf): CI prints the table and warns. Drift in any exact
counter (bytes_touched, data_passes, pages_read, page_seeks,
page_transfers) is always an error — they are machine-independent.
speedup_vs_vamsplit is wall-clock and therefore never gated.

Usage:
  bench_micro --benchmark_filter='...' --benchmark_format=json > run.json
  tools/bench_compare.py --baseline BENCH_BASELINE.json run.json
  tools/bench_compare.py --baseline ... run.json --max-regression 0.5
      # fail when speedup_vs_pr5 drops more than 50% below baseline

Exit status: 0 clean/warn-only, 1 hard failure (bytes drift, or a speedup
regression beyond --max-regression), 2 usage/format error.

`--selftest` runs a built-in fixture check (no benchmark binary needed).
"""

import argparse
import json
import math
import pathlib
import sys

# Rows whose benchmark errored (e.g. "avx512 not supported on this host")
# are skipped: availability depends on the machine, not the code.
# Machine-independent counters: any drift is a hard error.
EXACT_COUNTERS = ("bytes_touched", "data_passes", "pages_read", "page_seeks",
                  "page_transfers")


def load_rows(path_or_obj):
    if isinstance(path_or_obj, (str, pathlib.Path)):
        with open(path_or_obj, encoding="utf-8") as f:
            doc = json.load(f)
    else:
        doc = path_or_obj
    rows = {}
    for bench in doc.get("benchmarks", ()):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            continue
        rows[bench["name"]] = bench
    return rows


def compare(baseline_rows, run_rows, max_regression):
    """Returns (report lines, warnings, errors)."""
    lines, warnings, errors = [], [], []
    common = sorted(set(baseline_rows) & set(run_rows))
    if not common:
        errors.append("no common benchmark rows between baseline and run")
        return lines, warnings, errors
    only_base = sorted(set(baseline_rows) - set(run_rows))
    only_run = sorted(set(run_rows) - set(baseline_rows))
    for name in only_base:
        warnings.append(f"baseline row missing from run: {name}")
    for name in only_run:
        warnings.append(f"run row not in baseline: {name}")

    lines.append(f"{'benchmark':<48} {'speedup_vs_pr5':>18} "
                 f"{'exact counters':>22}")
    for name in common:
        base, run = baseline_rows[name], run_rows[name]

        exact_notes = []
        compared = 0
        for counter in EXACT_COUNTERS:
            base_value = base.get(counter)
            run_value = run.get(counter)
            if base_value is None or run_value is None:
                continue
            compared += 1
            if run_value != base_value:
                exact_notes.append(
                    f"{counter} {base_value:g} -> {run_value:g}")
                errors.append(
                    f"{name}: {counter} drifted "
                    f"{base_value:g} -> {run_value:g}; the code touches "
                    f"different pages/bytes than the baseline")
        if exact_notes:
            bytes_note = ", ".join(exact_notes)
        else:
            bytes_note = "=" if compared else "-"

        base_speed = base.get("speedup_vs_pr5")
        run_speed = run.get("speedup_vs_pr5")
        speed_note = "-"
        if base_speed is not None and run_speed is not None:
            speed_note = f"{base_speed:.2f} -> {run_speed:.2f}"
            # Scalar-oracle rows carry 0 by construction; nothing to gate.
            if base_speed > 0:
                ratio = run_speed / base_speed
                if ratio < 1.0 - max_regression:
                    errors.append(
                        f"{name}: speedup_vs_pr5 regressed "
                        f"{base_speed:.2f} -> {run_speed:.2f} "
                        f"(more than {max_regression:.0%} below baseline)")
                elif ratio < 0.8:
                    warnings.append(
                        f"{name}: speedup_vs_pr5 {base_speed:.2f} -> "
                        f"{run_speed:.2f} (timing-sensitive; check the "
                        f"host before reading much into it)")
        lines.append(f"{name:<48} {speed_note:>18} {bytes_note:>16}")
    return lines, warnings, errors


def selftest():
    def doc(rows):
        return {"benchmarks": rows}

    base = doc([
        {"name": "BM_X/1", "speedup_vs_pr5": 4.0, "bytes_touched": 100.0},
        {"name": "BM_X/2", "speedup_vs_pr5": 0.0, "bytes_touched": 100.0},
        {"name": "BM_Gone", "speedup_vs_pr5": 1.0, "bytes_touched": 1.0},
        {"name": "BM_Err", "error_occurred": True,
         "error_message": "unsupported"},
    ])

    # Identical run: clean.
    _, warnings, errors = compare(load_rows(base), load_rows(base),
                                  max_regression=math.inf)
    assert not errors, errors
    assert len(warnings) == 0, warnings

    # bytes drift: always an error; missing rows warn.
    run = doc([
        {"name": "BM_X/1", "speedup_vs_pr5": 4.1, "bytes_touched": 128.0},
        {"name": "BM_X/2", "speedup_vs_pr5": 0.0, "bytes_touched": 100.0},
        {"name": "BM_New", "speedup_vs_pr5": 9.0, "bytes_touched": 5.0},
    ])
    _, warnings, errors = compare(load_rows(base), load_rows(run),
                                  max_regression=math.inf)
    assert any("bytes_touched drifted" in e for e in errors), errors
    assert any("BM_Gone" in w for w in warnings), warnings
    assert any("BM_New" in w for w in warnings), warnings

    # External-build I/O counters gate exactly; wall-clock speedup does not.
    ext_base = doc([
        {"name": "BM_Ext/1", "data_passes": 5.5, "pages_read": 2200.0,
         "speedup_vs_vamsplit": 1.9},
    ])
    ext_run = doc([
        {"name": "BM_Ext/1", "data_passes": 7.5, "pages_read": 3000.0,
         "speedup_vs_vamsplit": 0.4},
    ])
    _, _, errors = compare(load_rows(ext_base), load_rows(ext_run),
                           max_regression=math.inf)
    assert any("data_passes drifted" in e for e in errors), errors
    assert any("pages_read drifted" in e for e in errors), errors
    assert not any("speedup_vs_vamsplit" in e for e in errors), errors

    # Prediction I/O counters gate exactly too.
    io_base = doc([{"name": "BM_Pred/60", "page_seeks": 149.0,
                    "page_transfers": 4817.0}])
    io_run = doc([{"name": "BM_Pred/60", "page_seeks": 150.0,
                   "page_transfers": 4817.0}])
    _, _, errors = compare(load_rows(io_base), load_rows(io_run),
                           max_regression=math.inf)
    assert any("page_seeks drifted" in e for e in errors), errors
    assert not any("page_transfers" in e for e in errors), errors

    # Speedup collapse: warn when advisory, error when gated.
    run = doc([
        {"name": "BM_X/1", "speedup_vs_pr5": 1.0, "bytes_touched": 100.0},
        {"name": "BM_X/2", "speedup_vs_pr5": 0.0, "bytes_touched": 100.0},
    ])
    _, warnings, errors = compare(load_rows(base), load_rows(run),
                                  max_regression=math.inf)
    assert not errors, errors
    assert any("timing-sensitive" in w for w in warnings), warnings
    _, _, errors = compare(load_rows(base), load_rows(run),
                           max_regression=0.5)
    assert any("regressed" in e for e in errors), errors

    # Errored baseline rows are ignored even if the run reports them.
    assert "BM_Err" not in load_rows(base)

    print("bench_compare selftest: OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Diff benchmark counters against the pinned baseline.")
    parser.add_argument("run", nargs="?", help="benchmark JSON to check")
    parser.add_argument("--baseline",
                        default=str(pathlib.Path(__file__).resolve()
                                    .parent.parent / "BENCH_BASELINE.json"))
    parser.add_argument("--max-regression", type=float, default=math.inf,
                        help="fail when speedup_vs_pr5 falls more than this "
                        "fraction below baseline (default: never — "
                        "warn-only)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.run is None:
        parser.error("a run JSON is required (or --selftest)")

    try:
        baseline_rows = load_rows(args.baseline)
        run_rows = load_rows(args.run)
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2

    lines, warnings, errors = compare(baseline_rows, run_rows,
                                      args.max_regression)
    for line in lines:
        print(line)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
