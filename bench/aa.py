"""A/A check: do two sets of runs of the *same* code agree within the
benchmark's own bounds?

    python3 bench/aa.py            # 2 x 5 full runs of every workload, ~25 min

Runs are interleaved A B A B ... so that slow host drift lands on both
sets, each with another ``--seed``.  For every workload and end-to-end
metric the script prints the two medians, their gap as a share of A's
median, the spread of all runs (inter-quartile range over median, the
driver's steadiness figure) and the bound from ``BENCHMARK.json``.  It
exits non-zero when a gap or a spread exceeds its bound, when any run
was not correct, or when ``sim_makespan_us`` was not bit-equal across
all runs of a workload.  The wall-clock throughput and latency the same
runs report are printed too, without a bound: they are not gated.  The
table in ``README.md`` is this script's output, and the bounds in
``BENCHMARK.json`` are derived from it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Per-layer metrics the untraced run also reports, in its record line.
REPORTED = ("jobs_per_s", "job_latency_p50_ms")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["record"] = json.loads(lines[-2].removeprefix("record "))
    return out


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("an A/A check needs at least 5 runs per set")

    reported = [m for m in spec["per_layer"] if m["name"] in REPORTED]
    metrics = spec["end_to_end"] + reported
    values = {(w, m["name"], s): []
              for w in args.workloads for m in metrics for s in "AB"}
    all_correct = True
    for i in range(2 * args.runs):
        side = "AB"[i % 2]
        for workload in args.workloads:
            out = one_run(workload, seed=i + 1, seconds=args.seconds)
            all_correct = all_correct and out["correct"]
            got = {k: v["value"] for k, v in out["metrics"].items()}
            got.update({name: out["record"][name] for name in REPORTED})
            for m in metrics:
                values[workload, m["name"], side].append(got[m["name"]])
            print(f"# run {i + 1:2d} ({side}) {workload}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in got.items()),
                  file=sys.stderr, flush=True)

    failed = not all_correct
    print("| workload | metric | median A | median B | gap | spread | bound |")
    print("|---|---|---:|---:|---:|---:|---:|")
    for workload in args.workloads:
        for m in metrics:
            a = values[workload, m["name"], "A"]
            b = values[workload, m["name"], "B"]
            med_a, med_b = stats.median(a), stats.median(b)
            gap = abs(stats.worse_by(med_a, med_b, m["better"]))
            spread = stats.spread_share(a + b)
            if "bound" not in m:
                print(f"| {workload} | {m['name']} | {med_a:.6g} | {med_b:.6g} | "
                      f"{gap:.2%} | {spread:.2%} | not gated |")
                continue
            # Set-up time's spread is exempt, as it is for the driver.
            over = gap > m["bound"] or (
                m["name"] != "setup_s" and spread > m["bound"])
            if m["name"] == "sim_makespan_us" and len(set(a + b)) != 1:
                over = True
            failed = failed or over
            print(f"| {workload} | {m['name']} | {med_a:.6g} | {med_b:.6g} | "
                  f"{gap:.2%} | {spread:.2%} | {m['bound']:.1%} |"
                  + (" **over**" if over else ""))
    if not all_correct:
        print("at least one run reported correct=false", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
