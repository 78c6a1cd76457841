"""The benchmark's workloads: their inputs, the timed calls, and the checks
of every answer against the paper's known values (known_answers.json).

Each workload runs one pinned input, whatever the benchmark's ``--seed``:
the cost of a run_pipeline call depends on its seed (one more curve chain
costs as much as the rest of the call), so drawing inputs from a pool would
mix runs of different cost into one figure.  Other inputs that behave like
the pinned one are held out (README.md names them); no benchmark run uses
them, and ``--input-seed`` runs one of them by hand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from scrollres import pipeline
from scrollres.resolution import is_balanced, splitting_type

KNOWN = json.loads(Path(__file__).with_name("known_answers.json").read_text())

PRIME = 10007
#: run_pipeline seed that builds one chain at p = 10007
PIPELINE_SEED = 1
#: run_pipeline seed whose first chain fails with GammaError and whose second is accepted
RETRY_SEED = 2
#: the survey covers base_seed .. base_seed + count - 1
SURVEY_BASE = 101
SURVEY_COUNT = 4
SURVEY_WORKERS = 2
#: build_chain seed at the large prime
CHAIN_SEED = 1
#: run_pipeline seed at the small prime; known_answers.json records its rejection
REJECT_SEED = 1
LARGE_PRIME = 100003
SMALL_PRIME = 101


@dataclass
class Outcome:
    """One timed operation: its wall time, split into named parts, and the
    verdicts that disagreed with the known answers."""

    parts: dict
    attempted: int
    failed: int
    problems: list
    details: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())


def inputs(workload: str, small: bool = False, input_seed: "int | None" = None) -> dict:
    """The workload's input; ``small`` is the self-check size, and
    ``input_seed`` replaces the pinned seed (a held-out input, for example)."""
    def pick(pinned):
        return pinned if input_seed is None else input_seed

    if workload in ("pipeline", "pipeline_retry"):
        return {"prime": PRIME,
                "seed": pick(PIPELINE_SEED if workload == "pipeline" else RETRY_SEED)}
    if workload == "survey":
        return {
            "prime": PRIME, "count": 1 if small else SURVEY_COUNT,
            "base_seed": pick(SURVEY_BASE), "workers": SURVEY_WORKERS,
        }
    if workload == "prime_range":
        return {
            "chain_prime": PRIME if small else LARGE_PRIME,
            "chain_seed": pick(CHAIN_SEED),
            "reject_prime": SMALL_PRIME, "reject_seed": REJECT_SEED,
            "reject_attempts": 1 if small else None,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _entries(entry_list) -> dict:
    return {(e["i"], e["a"], e["b"]): e["multiplicity"] for e in entry_list}


def _known_table(key: str) -> dict:
    return {(i, a, b): m for i, a, b, m in KNOWN[key]}


def check_pipeline_report(report: dict, prime: int, seed: int, seen: dict) -> list:
    """Problems with an accepted run_pipeline report; empty when all agree."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")

    expect("ok", report.get("ok"), True)
    if "error" in report:
        return problems + [f"error: {report['error']}"]
    expect("betti table", _entries(report["bettiTable"]["entries"]), _known_table("bettiTable"))
    expect("second syzygy balanced", report["bettiTable"]["balanced"], False)
    expect("k3 shape", _entries(report["k3"]["shape"]), _known_table("k3Shape"))
    numbers = report["k3"]["intersectionNumbers"]
    expect("(H2, HN, N2, chi)", [numbers[k] for k in ("H2", "HN", "N2", "chi")],
           KNOWN["intersectionNumbers"])
    expect("gamma degree", report["gamma"]["gammaDegree"], KNOWN["gammaDegree"])
    expect("fiber parameters", len(report["gamma"]["fiberParameters"]),
           KNOWN["fiberParameterCount"])
    expect("smoothness verdict", report["gamma"]["smoothnessVerdict"],
           KNOWN["smoothnessVerdict"])
    lattices = report["latticeCertificates"]
    expect("discriminants", [lattices["h"]["discriminant"], lattices["hPrime"]["discriminant"]],
           KNOWN["discriminants"])

    text = pipeline.canonical_json(report)
    key = f"{prime}/{seed}"
    if seen.setdefault(key, text) != text:
        problems.append(f"canonical JSON of {key} differs between repetitions")
    recorded = KNOWN["canonicalSha256"].get(key)
    if report["schemaVersion"] == KNOWN["schemaVersion"] and recorded:
        expect(f"canonical JSON sha256 of {key}",
               hashlib.sha256(text.encode()).hexdigest(), recorded)
    return problems


def _chain_problems(table, label: str) -> list:
    problems = []
    if table.entries != _known_table("bettiTable"):
        problems.append(f"{label}: Betti table differs from the generic table")
    if is_balanced(splitting_type(table, 2)):
        problems.append(f"{label}: second syzygy bundle is balanced")
    return problems


def run_pipeline_op(prime: int, seed: int, seen: dict) -> Outcome:
    t0 = perf_counter()
    report = pipeline.run_pipeline(prime, seed)
    elapsed = perf_counter() - t0
    problems = check_pipeline_report(report, prime, seed, seen)
    return Outcome(
        {"pipeline_s": elapsed}, 1, int(bool(problems)), problems,
        {"curveAttempts": len(report["curveAttempts"]) if "curveAttempts" in report else None,
         "canonicalSha256": hashlib.sha256(pipeline.canonical_json(report).encode()).hexdigest()},
    )


def survey_op(prime: int, count: int, base_seed: int, workers: int) -> Outcome:
    t0 = perf_counter()
    survey = pipeline.sample_survey(prime, count=count, base_seed=base_seed, workers=workers)
    elapsed = perf_counter() - t0
    problems = []
    for r in survey["results"]:
        label = f"survey seed {r['seed']}"
        if not r["ok"]:
            problems.append(f"{label}: {r['error']}")
        elif not r["unbalanced"] or not r["matches_generic_table"] \
                or _entries(r["tableEntries"]) != _known_table("bettiTable"):
            problems.append(f"{label}: not the generic unbalanced table")
    failed = len(problems) + count - len(survey["results"])
    if not survey["ok"] or failed:
        problems.append(f"survey not ok: {survey['fractionUnbalanced']} unbalanced")
        failed = max(failed, 1)
    return Outcome({"survey_s": elapsed}, count, failed, problems,
                   {"seeds_per_s": count / elapsed})


def check_rejection(report: dict, key: str, max_attempts: "int | None") -> list:
    """Problems with a rejected run_pipeline report, against the rejection
    recorded for ``key``; ``max_attempts`` shortens the recorded attempts."""
    known = KNOWN["rejections"][key]
    expected = known["attempts"][:max_attempts]
    got = [
        {"seed": a["seed"], "outcome": a["outcome"].split(":", 1)[0]}
        for a in report.get("curveAttempts", [])
    ]
    problems = []
    if report.get("ok") or report.get("error") != known["error"]:
        problems.append(f"run_pipeline {key}: expected the rejection {known['error']!r}, "
                        f"got ok={report.get('ok')!r} error={report.get('error')!r}")
    if got != expected:
        problems.append(f"run_pipeline {key}: curve attempts {got} differ from the recorded {expected}")
    return problems


def prime_range_op(chain_prime: int, chain_seed: int, reject_prime: int,
                   reject_seed: int, reject_attempts: "int | None") -> Outcome:
    # reject_attempts shortens the rejection for the self-check; the
    # workload itself calls run_pipeline with its defaults.
    limit = {} if reject_attempts is None else {"max_curve_attempts": reject_attempts}
    t0 = perf_counter()
    chain = pipeline.build_chain(chain_prime, chain_seed)
    chain_s = perf_counter() - t0
    problems = _chain_problems(chain.table, f"chain at p={chain_prime}")
    failed = int(bool(problems))

    # The expected outcome at the small prime is a rejection: either a
    # PipelineError raised up front, or a report whose curve attempts failed
    # exactly as recorded in known_answers.json.  An attempt that failed in
    # another way (a programming error swallowed by the retry loop) is wrong.
    t0 = perf_counter()
    try:
        report = pipeline.run_pipeline(reject_prime, reject_seed, **limit)
    except pipeline.PipelineError as exc:
        reject_s = perf_counter() - t0
        details = {"rejection": f"PipelineError: {exc}"}
    else:
        reject_s = perf_counter() - t0
        attempts = report.get("curveAttempts", [])
        details = {"rejection": report.get("error"), "curveAttempts": len(attempts)}
        rejection = check_rejection(report, f"{reject_prime}/{reject_seed}", reject_attempts)
        problems += rejection
        failed += int(bool(rejection))
    return Outcome({"chain_s": chain_s, "reject_s": reject_s}, 2, failed, problems, details)


def run_op(workload: str, args: dict, seen: dict) -> Outcome:
    if workload in ("pipeline", "pipeline_retry"):
        return run_pipeline_op(args["prime"], args["seed"], seen)
    if workload == "survey":
        return survey_op(**args)
    return prime_range_op(**args)
