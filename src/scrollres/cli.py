"""Command-line entry point: batch runs with machine-readable JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import DEFAULT_PRIME
from .chain import PipelineError, build_chain
from .ffield import FieldError
from .lattice import (
    GramLattice,
    LatticeError,
    dimension_audit,
    discriminant,
    is_ample,
    is_basepoint_free,
    is_nef,
    signature,
)
from .pipeline import CHAIN_ERRORS, canonical_json, lattice_suite, run_pipeline, run_stages
from .plane_curve import (
    construct_nodal_nonic,
    construct_nodal_octic,
    verify_model_report,
)
from .resolution import GENERIC_BETTI_TABLE
from .survey import sample_survey, usable_cpus


def _write_json(args, payload: dict):
    if isinstance(payload, dict) and "timings" in payload:
        text = canonical_json(payload)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    elif args.verbose:
        print(text)


def cmd_construct(args) -> int:
    if args.plane_model == "octic":
        model = construct_nodal_octic(args.prime, args.seed)
    else:
        model = construct_nodal_nonic(args.prime, args.seed)
    report = verify_model_report(model)
    print(
        f"model: degree {report['degree']}, genus {report['genus']}, "
        f"{report['node_count']} nodes, pencil point multiplicity {report['q_multiplicity']}"
    )
    payload = {"model": json.loads(model.to_json()), "report": report}
    _write_json(args, payload)
    return 0 if report["ok"] else 1


def cmd_betti(args) -> int:
    chain = build_chain(args.prime, args.seed)
    entries = chain.table.to_json_entries()
    for e in entries:
        print(f"  index {e['i']}: O(-{e['a']}H+{e['b']}R)^{e['multiplicity']}")
    ok = chain.table.entries == GENERIC_BETTI_TABLE
    print(f"matches generic table: {ok}; self-dual: {chain.table.is_self_dual()}")
    _write_json(args, {"prime": args.prime, "seed": args.seed, "entries": entries})
    return 0 if ok else 1


def _report_error(report: dict) -> bool:
    """Print a failed run's chain error as one line; True when there was one."""
    error = report.get("error")
    if error:
        print(f"error: {error['type']}: {error['message']} (stage {error['stage']})",
              file=sys.stderr)
    return bool(error)


def cmd_k3(args) -> int:
    report = run_stages(args.prime, args.seed, last="k3")
    if _report_error(report):
        return 1
    section = report["k3"]
    print(f"surface shape: {section['shape']}")
    print(f"intersection numbers: {section['intersectionNumbers']}")
    print(f"all checks passed: {report['ok']}")
    _write_json(args, {"prime": args.prime, "seed": args.seed, "k3": section})
    return 0 if report["ok"] else 1


def cmd_gamma(args) -> int:
    report = run_stages(args.prime, args.seed, last="net_and_gamma")
    if _report_error(report):
        return 1
    net_report, gamma = report["net"], report["gamma"]
    print(f"net dimension: {net_report['netDim']}; residual degree: "
          f"{net_report['residualModelDegree']}")
    print(f"singular point: {gamma['singularPoint']}; fibers: {gamma['fiberParameters']}")
    print(f"smoothness verdict: {gamma['smoothnessVerdict']}")
    _write_json(args, {"prime": args.prime, "seed": args.seed,
                       "net": net_report, "gamma": gamma})
    return 0 if report["ok"] else 1


def cmd_lattice(args) -> int:
    if args.gram_file:
        try:
            with open(args.gram_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise LatticeError(f"cannot read {args.gram_file}: {exc.strerror}") from None
        except ValueError as exc:
            raise LatticeError(f"{args.gram_file} is not JSON: {exc}") from None
        if not (isinstance(data, dict) and isinstance(data.get("gram"), list)
                and all(isinstance(row, list) for row in data["gram"])):
            raise LatticeError(f"{args.gram_file} needs a \"gram\" key holding a list of rows")
        labels = data.get("labels", [f"v{i}" for i in range(len(data["gram"]))])
        if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
            raise LatticeError(f"{args.gram_file}: \"labels\" must be a list of strings")
        lat = GramLattice(tuple(tuple(row) for row in data["gram"]), tuple(labels))
        out = {
            "signature": signature(lat),
            "discriminant": discriminant(lat),
        }
        if args.ample_class:
            try:
                cls = tuple(int(v) for v in args.ample_class.split(","))
            except ValueError:
                raise LatticeError(
                    f"--ample-class needs comma-separated integers, not {args.ample_class!r}") from None
            verdict, cert = is_ample(lat, cls)
            out["ample"] = {"class": list(cls), "verdict": verdict, "certificate": cert}
            if verdict:
                out["nef_self"] = is_nef(lat, cls, cls)[0]
                out["bpf_self"] = is_basepoint_free(lat, cls, cls)[0]
        print(json.dumps(out, default=str))
        _write_json(args, out)
        return 0
    checks: dict = {}
    suite = lattice_suite(checks, box=args.bound)
    ok = all(bool(v) for v in checks.values())
    print(f"signature(h) = {suite['h']['signature']}, disc = {suite['h']['discriminant']}")
    print(f"signature(h') = {suite['hPrime']['signature']}, disc = {suite['hPrime']['discriminant']}")
    print(f"positivity table: {suite['positivity']}")
    print(f"all lattice checks passed: {ok}")
    _write_json(args, suite)
    return 0 if ok else 1


def cmd_audit(args) -> int:
    report = dimension_audit()
    for name, value in report["checks"].items():
        print(f"  {name}: {'ok' if value else 'FAIL'}")
    _write_json(args, report)
    return 0 if report["ok"] else 1


def cmd_pipeline(args) -> int:
    t0 = time.time()
    report = run_pipeline(args.prime, args.seed)
    elapsed = time.time() - t0
    _report_error(report)
    failed = [k for k, v in report["checks"].items() if not v]
    print(f"pipeline({args.prime}, {args.seed}): "
          f"{'ok' if report['ok'] else 'FAILED'} in {elapsed:.1f}s")
    if failed:
        for name in failed:
            print(f"  failed: {name}")
    _write_json(args, report)
    return 0 if report["ok"] else 1


def cmd_survey(args) -> int:
    if args.count < 1:
        print("survey count must be at least 1", file=sys.stderr)
        return 2
    summary = sample_survey(args.prime, args.count, base_seed=args.seed, workers=usable_cpus())
    print(f"survey: {summary['fractionUnbalanced']} unbalanced second syzygy bundles; "
          f"{summary['matchesGenericTable']}/{summary['succeeded']} match the generic table")
    _write_json(args, summary)
    return 0 if summary["ok"] else 1


def _add_common_options(parser, suppress: bool):
    """Options accepted before and after the command.  The copies after it
    default to SUPPRESS, so they never reset a value given before it."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--prime", type=int, default=default(DEFAULT_PRIME))
    parser.add_argument("--seed", type=int, default=default(1))
    parser.add_argument("--bound", type=int, default=default(100),
                        help="search box for the rank-4 lattice entry derivation")
    parser.add_argument("--json", metavar="PATH", default=default(None),
                        help="write the JSON report here")
    parser.add_argument("--verbose", action="store_true", default=default(False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollres",
        description="Exact computations for genus-9 curves with a degree-6 pencil: "
                    "relative canonical resolutions, syzygy-scheme K3 surfaces, and "
                    "certified lattice checks.",
    )
    _add_common_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        cmd.set_defaults(func=func)
        return cmd

    p = command("construct", cmd_construct, "build and verify a plane curve model")
    p.add_argument("--plane-model", choices=("nonic", "octic"), default="nonic")
    command("betti", cmd_betti, "relative canonical resolution table")
    command("k3", cmd_k3, "syzygy-scheme K3 surface and its shape")
    command("gamma", cmd_gamma, "quartic net, the cubic of surfaces, smoothness")
    p = command("lattice", cmd_lattice, "lattice certificates")
    p.add_argument("--gram-file", help="JSON file with a gram matrix for ad-hoc queries")
    p.add_argument("--ample-class", help="comma-separated class to test, e.g. 1,0,0")
    command("audit", cmd_audit, "moduli dimension bookkeeping")
    command("pipeline", cmd_pipeline, "full pipeline with all checks")
    p = command("survey", cmd_survey, "splitting-type survey over many seeds")
    p.add_argument("--count", type=int, default=20)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FieldError, *CHAIN_ERRORS) as exc:
        # a bad modulus or a failed chain stage; any other exception is a bug
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
