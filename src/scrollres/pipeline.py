"""End-to-end pipeline: curve model to Betti table to K3 data to lattice audit.

run_stages executes the stages of one curve chain in a straight line,
records one report section per stage, and tracks the assertions whose
failure makes the run unacceptable; run_pipeline runs all of them.  A chain
that fails mathematically is reported once, with its stage and exception
type, and never re-seeded.  Reports are reproducible bit for bit for a fixed
(prime, seed, version) once the timing section is stripped; canonical_json
does that stripping.  The chain itself (build_chain) is built in
scrollres.chain, and the Betti-only survey runs in scrollres.survey.
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import DEFAULT_PRIME, SCHEMA_VERSION, __version__

# The benchmark harness reads build_chain, survey_seed, sample_survey and
# PipelineError from this module; survey_seed and sample_survey are imported
# only for it, and go with the rename of its TARGETS (ROADMAP item 0).
from .chain import (
    BUILD_ERRORS,
    CurveChain,
    PipelineError,
    build_chain,
    require_sampling_prime,
    survey_seed,
)
from .ffield import mul_mod, solve_mod
from .k3_syzygy import (
    K3_SHAPE_TABLE,
    K3Error,
    intersection_numbers_from_resolution,
    k3_betti_shape,
    linear_syzygy_space,
    surface_pencil,
    verify_containment,
)
from .lattice import (
    det_cofactor,
    dimension_audit,
    discriminant,
    hprime_consistency_report,
    hprime_from_basis_change,
    is_ample,
    is_basepoint_free,
    is_nef,
    lattice_h,
    lattice_h_prime,
    lattice_n,
    second_polarization_entries,
    signature,
    stated_embedding_columns,
    unique_polarization_classes,
    verify_primitive_embedding,
)
from .plane_curve import evaluate_form, verify_model_report
from .quartic_net import (
    GAMMA_FIT,
    GAMMA_HOLDOUT,
    GammaError,
    NetError,
    certify_fiber,
    fit_gamma,
    gamma_singular_point,
    image_quartic,
    macaulay_resultant_smooth,
    normalize_point,
    plane_forms_through,
    quartic_net,
    residual_degree,
    residual_image,
    singular_fiber_parameters,
    verify_net_on_points,
)
from .resolution import (
    GENERIC_BETTI_TABLE,
    is_balanced,
    slice_point_demand,
    splitting_type,
)
from .scroll import GENERIC_E
from .survey import sample_survey

#: pencil parameters of the gamma members, tried in order until
#: GAMMA_FIT + GAMMA_HOLDOUT of them have rank 4
GAMMA_PARAMETERS = [(1, mu) for mu in range(16)] + [(0, 1)]
K3_MEMBER_CHOICES = [(1, 7), (1, 3), (1, 11), (1, 13), (0, 1), (1, 0)]

#: the first curve samples, which the K3 surface must contain
K3_CHECK_POINTS = 100
#: the first curve samples, whose residual images fit the quartic net
NET_FIT_POINTS = 60
#: the curve samples after the fit's, which verify the net
NET_CHECK_POINTS = 50


# Mathematical outcomes of one curve chain: a run reports them (run_stages).
# Anything else is a bug and propagates.
CHAIN_ERRORS = BUILD_ERRORS + (K3Error, NetError, GammaError)


def point_demand() -> int:
    """Most points the stages of one chain draw from its sample stream
    (SliceContext.points): the K3 check's, the net's fit and check points
    together, and the slice kernels'."""
    return max(K3_CHECK_POINTS, NET_FIT_POINTS + NET_CHECK_POINTS, slice_point_demand())


def _betti_section(chain: CurveChain, checks: dict) -> dict:
    table = chain.table
    checks["betti_table_matches_generic"] = table.entries == GENERIC_BETTI_TABLE
    checks["betti_self_dual"] = table.is_self_dual()
    checks["rank_sums"] = (table.rank(1), table.rank(2), table.rank(3)) == (9, 16, 9)
    checks["degree_sums"] = (
        table.degree(1), table.degree(2), table.degree(3)
    ) == (6, 16, 12)
    n2 = splitting_type(table, 2)
    checks["second_syzygy_unbalanced"] = not is_balanced(n2)
    return {
        "entries": table.to_json_entries(),
        "secondSyzygySplitting": {str(k): v for k, v in sorted(n2.items())},
        "balanced": is_balanced(n2),
    }


def k3_section(chain: CurveChain, checks: dict):
    """The surface pencil of the chain and the K3 data of its first rank-4
    member among K3_MEMBER_CHOICES; returns (section, pencil, basis)."""
    p = chain.ctx.prime
    basis = linear_syzygy_space(chain.steps, p)
    checks["linear_syzygy_space_dim_2"] = len(basis) == 2
    pencil = surface_pencil(basis[0], basis[1], chain.steps[0].gens[:6])
    for lam, mu in K3_MEMBER_CHOICES:
        rank = pencil.syzygy_rank(lam, mu)
        if rank == 4:
            break
    else:
        raise PipelineError("no rank-4 member found in the syzygy pencil")
    checks["generic_syzygy_rank_4"] = rank == 4
    surface = pencil.member(lam, mu)
    checks["surface_contains_curve"] = verify_containment(
        surface, chain.ctx.values(K3_CHECK_POINTS))
    q5v = surface.q5.vector(GENERIC_E, 2, 0)
    checks["q5_in_curve_ideal"] = (
        solve_mod(chain.ctx.ideal_slice(2, 0).T, q5v, p) is not None
    )
    shape = k3_betti_shape(chain.ctx, surface)
    checks["k3_shape_matches"] = shape.entries == K3_SHAPE_TABLE
    numbers = intersection_numbers_from_resolution(shape)
    checks["intersection_numbers"] = (
        numbers["H2"], numbers["HN"], numbers["N2"], numbers["chi"]
    ) == (14, 5, 0, 2)
    section = {
        "parametersUsed": [lam, mu],
        "shape": shape.to_json_entries(),
        "intersectionNumbers": numbers,
        "pfaffianAmbiguityDim": surface.ambiguity_dim,
        "notes": {
            "vertexSaturation": "not needed: all slices are computed on the "
                                "projective bundle, away from the scroll vertex",
            "cliffordGenerality": "not certified: no desk-scale criterion; "
                                  "resolution shape and lattice data are the evidence",
        },
    }
    return section, pencil, basis


def net_section(chain: CurveChain, checks: dict):
    model, coords, ctx = chain.model, chain.coords, chain.ctx
    img = residual_image(model, coords, ctx.points(NET_FIT_POINTS))
    net = quartic_net(img, ctx.prime)
    checks["net_dimension_3"] = net.basis.shape[0] == 3
    fresh = residual_image(model, coords,
                           ctx.points(NET_FIT_POINTS + NET_CHECK_POINTS)[NET_FIT_POINTS:])
    checks["net_verified_on_fresh_sample"] = verify_net_on_points(net, fresh)
    degree = residual_degree(model, coords)
    checks["residual_degree_10"] = degree == 10
    return {"netDim": net.basis.shape[0], "residualModelDegree": degree}, net


def _fiber_report(fibers, p: int) -> tuple:
    """fiberParameters and fiberModulus: two rational parameters (lam, mu),
    or for a conjugate pair lam = a + b*t and its conjugate (mu = 1), t a
    root of h = t^2 + c1 t + c0, written [[a, b], [1, 0]], and h as
    [1, c1, c0]."""
    if len(fibers) == 2:
        return [[lam[0], mu[0]] for _h, lam, mu in fibers], None
    [((c0, c1), lam, mu)] = fibers
    # a + b*t has the conjugate a + b*(-c1 - t)
    def conjugate(x):
        return [(x[0] - c1 * x[1]) % p, (-x[1]) % p]

    return [[list(lam), list(mu)], [conjugate(lam), conjugate(mu)]], [1, c1, c0]


def gamma_section(chain: CurveChain, pencil, net, checks: dict):
    p = chain.ctx.prime
    samples = []
    skipped = []
    for lam, mu in GAMMA_PARAMETERS:
        if len(samples) == GAMMA_FIT + GAMMA_HOLDOUT:
            break
        if pencil.syzygy_rank(lam, mu) != 4:
            skipped.append((lam, mu))
            continue
        _fvec, coords3 = image_quartic(pencil.member(lam, mu), net)
        samples.append(((lam, mu), tuple(int(v) for v in coords3)))
    gamma = fit_gamma(samples, p)
    sample_points = np.array([c for _par, c in samples], dtype=np.int64)
    checks["gamma_is_cubic_not_conic"] = (
        not np.any(evaluate_form(gamma.cubic, gamma.degree, sample_points, p))
        and len(plane_forms_through(sample_points.T, 2, p)) == 0
    )
    sing = gamma_singular_point(gamma)
    checks["unique_singular_point"] = sing["singular_count"] == 1
    checks["singular_point_is_node"] = sing["is_node"]
    fibers = singular_fiber_parameters(gamma.gmap, sing["point"], p)
    checks["two_singular_fiber_parameters"] = sum(len(h) for h, _lam, _mu in fibers) == 2
    # both parameters map to the singular quartic (a conjugate pair at once,
    # over F_p[t]/(h)); a third one does not
    target = normalize_point(sing["point"], p)
    for modulus, lam, mu in fibers:
        certify_fiber(gamma.gmap, (modulus, lam, mu), target, pencil.member(lam, mu, modulus), net)
    rational = {normalize_point((lam[0], mu[0]), p) for h, lam, mu in fibers if len(h) == 1}
    spare = next(s for s in samples if normalize_point(s[0], p) not in rational)
    checks["third_parameter_maps_elsewhere"] = (
        normalize_point(spare[1], p) != target
    )
    smooth = macaulay_resultant_smooth(mul_mod(sing["point"], net.basis, p), p)
    checks["singular_fiber_quartic_smooth"] = smooth
    parameters, modulus = _fiber_report(fibers, p)
    return {
        "sampleCount": len(samples),
        "skippedParameters": skipped,
        "cubic": [int(c) for c in gamma.cubic],
        "gammaDegree": gamma.degree,
        "singularPoint": list(sing["point"]),
        "quadraticRank": sing["quadratic_rank"],
        "fiberParameters": parameters,
        "fiberModulus": modulus,
        "smoothnessVerdict": bool(smooth),
    }


def lattice_suite(checks: dict) -> dict:
    """Model-independent lattice certificates for the three lattices, verdicts in checks."""
    h_lat, hp_lat, n_lat = lattice_h(), lattice_h_prime(), lattice_n()
    h, c, n, h_minus_n = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1)
    hp = (1, 0, 0, 0)
    sig_h, sig_hp, sig_n = signature(h_lat), signature(hp_lat), signature(n_lat)
    checks["signatures"] = (sig_h, sig_hp) == ((1, 2, 0), (1, 3, 0))
    disc_h, disc_hp = discriminant(h_lat), discriminant(hp_lat)
    checks["discriminants"] = (disc_h, disc_hp) == (56, -80)
    checks["discriminant_cofactor_oracle"] = (
        det_cofactor(h_lat.gram) == disc_h and det_cofactor(hp_lat.gram) == disc_hp
    )
    ample_h, cert_h = is_ample(h_lat, h)
    ample_hp, cert_hp = is_ample(hp_lat, hp)
    checks["ample_h_and_hprime"] = ample_h and ample_hp
    positivity = {}
    expected = {
        "H": {"ample": True, "nef": True, "bpf": True},
        "C": {"ample": False, "nef": True, "bpf": True},
        "N": {"ample": False, "nef": True, "bpf": True},
        "H-N": {"ample": True, "nef": True, "bpf": True},
    }
    table_ok = True
    for label, cls in (("H", h), ("C", c), ("N", n), ("H-N", h_minus_n)):
        verdicts = {
            "ample": is_ample(h_lat, cls)[0],
            "nef": is_nef(h_lat, h, cls)[0],
            "bpf": is_basepoint_free(h_lat, h, cls)[0],
        }
        positivity[label] = verdicts
        table_ok &= verdicts == expected[label]
    checks["positivity_table"] = table_ok
    unique_c = unique_polarization_classes(h_lat, h, 16, 16)
    unique_n = unique_polarization_classes(h_lat, h, 0, 5)
    checks["h_determines_c_and_n"] = unique_c == [c] and unique_n == [n]
    roots_hp = unique_polarization_classes(hp_lat, hp, -2, 1)
    checks["hprime_determines_q1_q2"] = roots_hp == [(0, 0, 0, 1), (0, 0, 1, 0)]
    # the second-polarisation entries serve both the report and the basis change
    entries = second_polarization_entries()
    consistency = hprime_consistency_report(entries)
    checks["derive_entries_literal"] = consistency["literal_inequalities"] == (16, 6)
    checks["basis_change_reproduces_hprime"] = (
        hprime_from_basis_change(entries).gram == hp_lat.gram
    )
    embed_ok, embed_cert = verify_primitive_embedding(
        h_lat, hp_lat, stated_embedding_columns()
    )
    checks["h_embeds_primitively"] = embed_ok
    return {
        "h": {
            "gram": h_lat.to_json(), "signature": sig_h, "discriminant": disc_h,
            "ampleCertificate": cert_h,
        },
        "hPrime": {
            "gram": hp_lat.to_json(), "signature": sig_hp, "discriminant": disc_hp,
            "ampleCertificate": cert_hp,
        },
        "n": {
            "gram": n_lat.to_json(), "signature": sig_n,
            "discriminant": discriminant(n_lat),
        },
        "positivity": positivity,
        "uniquePolarizations": {
            "C_given_H": [list(v) for v in unique_c],
            "N_given_H": [list(v) for v in unique_n],
            "rootsGivenHPrime": [list(v) for v in roots_hp],
            "cCandidatesGivenHPrime": [
                list(v) for v in unique_polarization_classes(hp_lat, hp, 16, 10)
            ],
        },
        "rank4Entries": consistency,
        "primitiveEmbedding": embed_cert,
    }


def _curve_and_betti(run: dict, report: dict, checks: dict) -> None:
    chain = run["chain"] = build_chain(report["prime"], report["seed"])
    report["model"] = json.loads(chain.model.to_json())
    report["modelReport"] = verify_model_report(chain.model)
    report["scrollType"] = list(chain.ctx.e)
    report["bettiTable"] = _betti_section(chain, checks)


def _k3(run: dict, report: dict, checks: dict) -> None:
    report["k3"], run["pencil"], basis = k3_section(run["chain"], checks)
    report["syzygySpaceDim"] = len(basis)


def _net_and_gamma(run: dict, report: dict, checks: dict) -> None:
    report["net"], net = net_section(run["chain"], checks)
    report["gamma"] = gamma_section(run["chain"], run["pencil"], net, checks)


def _lattice_and_audit(run: dict, report: dict, checks: dict) -> None:
    report["latticeCertificates"] = lattice_suite(checks)
    report["dimensionAudit"] = dimension_audit()
    checks["dimension_audit"] = report["dimensionAudit"]["ok"]


#: the stages of one run, in order; their names key report["timings"] and
#: the stage of a failed run's report["error"]
STAGES = (
    ("curve_and_betti", _curve_and_betti),
    ("k3", _k3),
    ("net_and_gamma", _net_and_gamma),
    ("lattice_and_audit", _lattice_and_audit),
)


def run_stages(prime: int, seed: int, last: str = STAGES[-1][0]) -> dict:
    """Run the stages of the chain of (prime, seed) in order, up to and
    including the stage named last; report["ok"] is the verdict.

    One chain is built.  A chain error (CHAIN_ERRORS) stops the run, which
    is then reported once, not retried: report["error"] is {"stage",
    "type", "message"}, the stage it happened in and the exception's type
    and text; ok is false.  Any other exception is a bug and propagates.  A
    prime too small for point sampling raises PipelineError before any
    chain is built.
    """
    names = [name for name, _stage in STAGES]
    stages = STAGES[: names.index(last) + 1]
    require_sampling_prime(prime, point_demand())
    checks: dict = {}
    timings: dict = {}
    report: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "version": __version__,
        "prime": prime,
        "seed": seed,
    }
    run: dict = {}
    for name, stage in stages:
        t0 = time.perf_counter()
        try:
            stage(run, report, checks)
        except CHAIN_ERRORS as exc:
            report["error"] = {"stage": name, "type": type(exc).__name__, "message": str(exc)}
            break
        timings[name] = round(time.perf_counter() - t0, 3)
    report["checks"] = checks
    report["ok"] = "error" not in report and all(bool(v) for v in checks.values())
    report["timings"] = timings
    return report


def run_pipeline(prime: int = DEFAULT_PRIME, seed: int = 1,
                 max_curve_attempts: int = 1) -> dict:
    """Full pipeline report: every stage of run_stages, on the one chain of
    (prime, seed); report["ok"] is the overall verdict.

    max_curve_attempts must be at least 1 and does nothing else: it remains
    only because perfbench's self-check still passes it, and goes in the
    next change to the benchmark.
    """
    if max_curve_attempts < 1:
        raise ValueError("max_curve_attempts must be at least 1")
    return run_stages(prime, seed)


def canonical_json(report: dict) -> str:
    """Deterministic serialisation: the timing section is volatile and is
    excluded from the byte-for-byte reproducibility contract."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"))
