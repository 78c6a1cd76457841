"""Benchmark harness for scrollres: time to a certified verdict, traced per module.

Run from the root of a source checkout (the package is imported from src/):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Every workload runs one pinned input; --seed is recorded but does not change
it, and --input-seed replaces the pinned seed for a check by hand on a
held-out input (see README.md).  One run repeats the workload's timed calls
until --seconds have passed (at least once) and checks every answer against
known_answers.json.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with --trace 1 it wraps scrollres's public functions and
reports the per-layer metrics instead (the median over the run's calls).
Lines before the last one are a human-readable summary on stderr and one
JSON record on stdout (environment, inputs, every call and its checks).  The
last stdout line is the result: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracer import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
#: fresh interpreters started to time set-up, half before and half after the
#: workload, so that the median covers the same stretch of machine time
SETUP_REPEATS = 16
#: no further call starts once a run is this old, so a run stays within 180 s
CALL_BUDGET_S = 100.0


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json in {ROOT}: {exc}")


def import_program():
    """Import scrollres from this checkout's src/ and nowhere else."""
    if not (SRC / "scrollres" / "__init__.py").is_file():
        die(f"no scrollres sources under {SRC}; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scrollres.pipeline  # noqa: F401  (loads every module)
    import workloads
    return workloads


def setup_samples(repeats: int) -> list:
    """Wall times of fresh interpreters that import scrollres.pipeline, which
    loads every module of the package and numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import scrollres.pipeline"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "scrollres").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blasThreads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gitCommit": _git_commit(),
        "srcSha256": digest.hexdigest(),
    }


def measure(workloads, workload: str, args: dict, seconds: float, tracer=None):
    """Repeat the workload's calls for `seconds`; returns (outcomes, layer dicts)."""
    seen: dict = {}
    outcomes, layers = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            outcome = workloads.run_op(workload, args, seen)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed call, reported
            traceback.print_exc(file=sys.stderr)
            outcomes.append(workloads.Outcome({}, 1, 1, [f"{type(exc).__name__}: {exc}"]))
            break
        outcomes.append(outcome)
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans, outcome.seconds))
            tracer.spans.clear()
        now = time.perf_counter()
        if now - start >= seconds or now - start + (now - t0) > CALL_BUDGET_S:
            break
    return outcomes, layers


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, input_seed: "int | None" = None) -> dict:
    """One benchmark run; returns its record, result included."""
    workloads = import_program()
    args = workloads.inputs(workload, small, input_seed)
    tracer, setup = None, []
    if trace:
        tracer = Tracer()
        tracer.install()
    else:
        setup = setup_samples(1 if small else SETUP_REPEATS // 2)
    try:
        outcomes, layers = measure(workloads, workload, args, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not trace and not small:
        setup += setup_samples(SETUP_REPEATS - len(setup))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    crashed = not outcomes[-1].parts
    timed = outcomes[:-1] if crashed else outcomes

    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values = {m: statistics.median(d[m] for d in layers) for m in layers[0]} if layers else {}
    elif timed:
        values = {
            "setup_s": statistics.median(setup),
            "verdict_s": statistics.median(o.seconds for o in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        values = {}
    missing = {m["name"] for m in declared} - set(values)
    unknown = set(values) - {m["name"] for m in declared}
    if unknown or (missing and not crashed):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {sorted(missing)}, undeclared {sorted(unknown)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    parts: dict = {}
    for o in timed:
        for name, value in o.parts.items():
            parts.setdefault(name, []).append(value)
    return {
        "workload": workload,
        "seed": seed,
        "inputs": args,
        "trace": trace,
        "environment": environment(),
        "calls": [
            {"parts": o.parts, "attempted": o.attempted, "failed": o.failed,
             "problems": o.problems, "details": o.details} for o in outcomes
        ],
        "parts_median_s": {k: statistics.median(v) for k, v in parts.items()},
        "setup_samples_s": setup,
        "failed_share": failed / attempted,
        "result": {
            "correct": failed == 0 and not crashed and not missing,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def summarize(record: dict):
    err = sys.stderr
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {int(record['trace'])} inputs {json.dumps(record['inputs'])}", file=err)
    for call in record["calls"]:
        for problem in call["problems"]:
            print(f"  WRONG: {problem}", file=err)
    for name, value in record["parts_median_s"].items():
        print(f"  {name:<40} {value:12.4f} s", file=err)
    if "survey_s" in record["parts_median_s"]:
        rate = record["inputs"]["count"] / record["parts_median_s"]["survey_s"]
        print(f"  {'seeds_per_s':<40} {rate:12.4f} 1/s", file=err)
    print(f"  {'failed_share':<40} {record['failed_share']:12.4f} "
          f"({record['result']['failed']}/{record['result']['attempted']})", file=err)
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<40} {m['value']:12.4f} {m['unit']}", file=err)


def self_check(spec: dict) -> int:
    """Every workload once at reduced size with tracing on, then the cheapest
    one (a one-seed survey) with tracing off for the end-to-end metrics."""
    status = 0
    for name, trace in [(w["name"], True) for w in spec["workloads"]] + [("survey", False)]:
        record = run(spec, name, 1, 0, trace, small=True)
        summarize(record)
        ok = record["result"]["correct"]
        print(f"self-check {name} trace {int(trace)}: {'ok' if ok else 'FAILED'}")
        status |= not ok
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="recorded only: every workload runs a pinned input")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int,
                        help="run this seed instead of the pinned one (a held-out input)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at reduced size")
    opts = parser.parse_args(argv)
    spec = load_spec()
    if opts.self_check:
        return self_check(spec)
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        parser.error(f"--workload must be one of {names}")
    record = run(spec, opts.workload, opts.seed, opts.seconds, bool(opts.trace),
                 input_seed=opts.input_seed)
    summarize(record)
    result = record.pop("result")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
