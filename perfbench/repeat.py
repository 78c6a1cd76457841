"""Repeat benchmark runs over seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/repeat.py --seeds 10 [--workloads survey ...] [--trace 0 1] [--out FILE]

Each run is a fresh `perfbench/run.py` process with BENCHMARK.json's
run_seconds, on seeds 1..N, once per --trace mode given (alternating which
mode runs first).  For every metric and workload this prints the median, the
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median; an end-to-end spread is marked when it is not below a third
of the metric's bound.  With both modes it also prints the tracing overhead,
the median traced verdict time minus the median untraced one.  --out writes
every run's result and record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One fresh run; returns its result and the parts of its record kept in --out."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    return {
        "seed": seed,
        "inputs": record["inputs"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "parts_median_s": record["parts_median_s"],
        "setup_samples_s": record["setup_samples_s"],
        "details": [call["details"] for call in record["calls"]],
        "environment": record["environment"],
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--out")
    opts = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = opts.workloads or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = {mode: [] for mode in opts.trace}
        for seed in range(1, opts.seeds + 1):
            order = opts.trace if seed % 2 else opts.trace[::-1]
            for mode in order:
                run = run_once(spec, workload, seed, mode)
                report.setdefault("environment", run.pop("environment"))
                runs[mode].append(run)
                print(f"{workload} seed {seed} trace {mode}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()
                    if not mode or k == "trace.verdict_s"), flush=True)
        entry = {}
        for mode, mode_runs in runs.items():
            summary = {}
            for m in spec["per_layer" if mode else "end_to_end"]:
                stats = spread([r["metrics"][m["name"]] for r in mode_runs])
                summary[m["name"]] = stats
                bound = m.get("bound")
                mark = "" if bound is None or stats["spread"] < bound / 3 \
                    else "  <-- not below bound/3"
                if bound is not None or stats["median"]:
                    print(f"  {workload:<15} {m['name']:<45} median {stats['median']:12.4f} "
                          f"{m['unit']:<6} spread {stats['spread']:.3f}{mark}")
            entry[f"trace{mode}"] = {"summary": summary, "runs": mode_runs}
        if len(runs) == 2:
            traced = entry["trace1"]["summary"]["trace.verdict_s"]["median"]
            untraced = entry["trace0"]["summary"]["verdict_s"]["median"]
            entry["tracing_overhead_s"] = traced - untraced
            print(f"  {workload:<15} tracing overhead (traced - untraced verdict_s median) "
                  f"{traced - untraced:+.4f} s of {untraced:.4f} s")
        report["workloads"][workload] = entry
    if opts.out:
        Path(opts.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
