"""Splitting-type survey: Betti-only chains over many seeds.

sample_survey runs chain.survey_seed for each seed, in this process or in
worker processes (python -m scrollres.survey_worker), and tabulates how
many second syzygy bundles are unbalanced.  A survey chain draws the
stream of a pipeline chain, so the survey passes the pipeline's one gate.
"""

from __future__ import annotations

import contextlib
import json
import os
import selectors
import subprocess
import sys
from pathlib import Path

from . import DEFAULT_PRIME, SCHEMA_VERSION
from .chain import require_sampling_prime, survey_seed
from .resolution import point_demand

#: the survey worker module, run as `python -m SURVEY_WORKER prime`
SURVEY_WORKER = "scrollres.survey_worker"
#: set in each survey worker's environment: one BLAS thread per process
ONE_BLAS_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class SurveyWorkerError(RuntimeError):
    """A survey worker exited non-zero or sent a malformed line.  This is a
    bug, not a chain outcome, so it is never tallied as a failed seed."""


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _worker_env() -> dict:
    """The parent's environment with one BLAS thread, and the directory
    holding this package first on PYTHONPATH, so a worker loads these very
    sources."""
    env = dict(os.environ, **ONE_BLAS_THREAD)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _worker_result(proc, line: bytes, seed) -> dict:
    """The survey_seed result for seed in one line from proc."""
    if not line:
        raise SurveyWorkerError(f"survey worker exited with status {proc.wait()} "
                                f"before answering seed {seed}")
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    if seed is None or not isinstance(result, dict) or result.get("seed") != seed:
        raise SurveyWorkerError(f"survey worker sent a malformed line for seed {seed}: "
                                f"{line[:200]!r}")
    return result


def _survey_in_workers(prime: int, seeds, processes: int) -> list:
    """survey_seed(prime, seed) for every seed, in seed order, computed by
    `processes` fresh interpreters that each hold one seed at a time: a seed
    goes in as a line on stdin, its result comes back as one JSON line.  A
    failed worker kills the others and raises SurveyWorkerError; every
    worker is reaped and every pipe closed before this returns or raises."""
    command = [sys.executable, "-m", SURVEY_WORKER, str(prime)]
    todo, owed, results, procs = iter(seeds), {}, {}, []

    def send_next(proc):
        seed = next(todo, None)
        with contextlib.suppress(BrokenPipeError):  # its stdout tells how it ended
            if seed is None:
                proc.stdin.close()  # the worker ends
            else:
                owed[proc] = seed
                proc.stdin.write(b"%d\n" % seed)
                proc.stdin.flush()

    try:
        with selectors.DefaultSelector() as selector:
            for _ in range(processes):
                proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=_worker_env())
                procs.append(proc)
                selector.register(proc.stdout, selectors.EVENT_READ, proc)
                send_next(proc)
            while selector.get_map():
                for key, _events in selector.select():
                    proc, line = key.data, key.fileobj.readline()
                    seed = owed.pop(proc, None)
                    if not line and seed is None:  # it ended after its last seed
                        selector.unregister(key.fileobj)
                        continue
                    results[seed] = _worker_result(proc, line, seed)
                    send_next(proc)
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.stdout.close()
            proc.wait()
    for proc in procs:
        if proc.returncode:
            raise SurveyWorkerError(f"survey worker exited with status {proc.returncode}")
    return [results[seed] for seed in seeds]


def sample_survey(prime: int = DEFAULT_PRIME, count: int = 20, base_seed: int = 1,
                  workers: int = 1) -> dict:
    """Splitting-type survey over the seeds base_seed .. base_seed + count - 1.

    Tabulates the fraction of unbalanced second syzygy bundles (expected
    100 percent) and the fraction matching the generic splitting exactly.
    A prime too small for point sampling raises PipelineError before any
    chain is built; the bound is point_demand(), the stream every chain
    draws, so the survey accepts exactly the primes the pipeline accepts.

    The seeds run in min(workers, count, usable_cpus()) processes.  For one,
    they run here in order; for more, in that many fresh interpreters with
    one BLAS thread each (python -m scrollres.survey_worker), whose results
    come back in seed order, equal to the serial ones.  A worker that fails
    raises SurveyWorkerError.
    """
    require_sampling_prime(prime, point_demand())
    if count < 1:
        raise ValueError("count must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    seeds = range(base_seed, base_seed + count)
    processes = min(workers, count, usable_cpus())
    if processes > 1:
        results = _survey_in_workers(prime, seeds, processes)
    else:
        results = [survey_seed(prime, seed) for seed in seeds]
    succeeded = [r for r in results if r["ok"]]
    unbalanced = sum(1 for r in succeeded if r["unbalanced"])
    generic = sum(1 for r in succeeded if r["matches_generic_table"])
    return {
        "schemaVersion": SCHEMA_VERSION,
        "prime": prime,
        "count": count,
        "succeeded": len(succeeded),
        "unbalanced": unbalanced,
        "matchesGenericTable": generic,
        "fractionUnbalanced": f"{unbalanced}/{len(succeeded) or 1}",
        "results": results,
        "ok": bool(succeeded) and unbalanced == len(succeeded) == count,
    }
