import functools
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    derivative_row,
    hessian_nondegenerate,
    reference_model_failures,
    reference_sample_points,
)
from scrollres import DEFAULT_PRIME as P
from scrollres import plane_curve
from scrollres.ffield import solve_mod
from scrollres.plane_curve import (
    InsufficientRationalPointsError,
    PlaneCurveModel,
    condition_matrix,
    construct_nodal_nonic,
    construct_nodal_octic,
    derivative_rows,
    evaluate_form,
    linear_system,
    monomial_count,
    monomials,
    multiply_forms,
    power_table,
    sample_smooth_points,
    verify_model_report,
    verify_node_report,
)


def poly_mult(a: dict, b: dict, p: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return out


def coeff_vector(poly: dict, d: int, p: int = P) -> np.ndarray:
    vec = np.zeros(monomial_count(d), dtype=np.int64)
    index = {m: i for i, m in enumerate(monomials(d))}
    for e, c in poly.items():
        vec[index[e]] = c % p
    return vec


def test_construct_dimensions(model):
    report = verify_node_report(model)
    assert report["ok"], report["failures"]
    assert report["condition_rank"] == 36
    assert report["octic_space_dim"] == 45 - 36 == 9
    assert report["genus"] == 9


def test_two_seeds_distinct_octics_same_report(model):
    other = construct_nodal_octic(P, seed=2)
    assert not np.array_equal(model.coeffs, other.coeffs)
    ra, rb = verify_node_report(model), verify_node_report(other)
    for key in ("ok", "genus", "condition_rank", "octic_space_dim", "node_count"):
        assert ra[key] == rb[key]


def test_cuspidal_point_flagged():
    # (y^2 z - x^3) * (z^5 + x^4 y) has a cusp at (0:0:1): double point with
    # rank-1 quadratic part, so the Hessian test must fail.
    cusp_factor = {(0, 2, 1): 1, (3, 0, 0): P - 1}
    unit = {(0, 0, 5): 1, (4, 1, 0): 1}
    octic = coeff_vector(poly_mult(cusp_factor, unit, P), 8)
    assert not hessian_nondegenerate(octic, 8, (0, 0, 1), P)
    fake_nodes = ((0, 0, 1),) + tuple((i + 1, i * i + 3, 1) for i in range(11))
    bad = PlaneCurveModel(P, 8, octic, fake_nodes[0], 2, fake_nodes[1:], 0)
    report = verify_node_report(bad)
    assert not report["ok"]
    assert any("not ordinary" in f for f in report["failures"])


def test_deleted_node_changes_genus(model):
    truncated = PlaneCurveModel(
        P, 8, model.coeffs, model.q, 2, model.nodes[:-1], model.seed
    )
    report = verify_node_report(truncated)
    assert report["genus"] == 10
    assert not report["ok"]


def test_perturbed_octic_fails_vanishing(model):
    octic = model.coeffs.copy()
    octic[0] = (octic[0] + 1) % P
    report = verify_node_report(
        PlaneCurveModel(P, 8, octic, model.q, 2, model.nodes, model.seed)
    )
    assert not report["ok"]


def test_canonical_system_dimension(model):
    basis = linear_system(model, 5, [(n, 1) for n in (model.q,) + model.nodes])
    assert len(basis) == 9  # h^0(omega) = genus


def test_residual_quartics_dimension(model):
    basis = linear_system(model, 4, [(n, 1) for n in model.nodes])
    assert len(basis) == 15 - 11 == 4


def test_line_pencil_dimension(model):
    basis = linear_system(model, 1, [(model.q, 1)])
    assert len(basis) == 2


def test_linear_system_multiplicity_vanishing(model):
    conditions = [(model.q, 2), (model.nodes[0], 1)]
    basis = linear_system(model, 4, conditions)
    assert basis
    for vec in basis:
        for point, mult in conditions:
            for total in range(mult):
                for a in range(total + 1):
                    for b in range(total - a + 1):
                        order = (a, b, total - a - b)
                        row = derivative_row(4, order, point, P)
                        assert int(row @ vec % P) == 0


def test_product_lies_in_canonical_span(model):
    lines = linear_system(model, 1, [(model.q, 1)])
    quartics = linear_system(model, 4, [(n, 1) for n in model.nodes])
    quintics = linear_system(model, 5, [(n, 1) for n in (model.q,) + model.nodes])
    span = np.stack(quintics).T  # columns = canonical basis
    lin = {m: int(c) for m, c in zip(monomials(1), lines[0]) if c}
    qua = {m: int(c) for m, c in zip(monomials(4), quartics[0]) if c}
    product = coeff_vector(poly_mult(lin, qua, P), 5)
    assert solve_mod(span, product, P) is not None


def test_sample_points_on_curve(model, sample_pool):
    assert len(sample_pool) == 200
    assert len(set(sample_pool)) == 200
    values = evaluate_form(model.coeffs, 8, np.array(sample_pool), P)
    assert not np.any(values)
    assert not (set(sample_pool) & model.banned_points())


def test_sample_zero_count(model):
    assert sample_smooth_points(model, 0) == []


def test_condition_matrix_shape():
    cond = condition_matrix(3, [((1, 2, 1), 2)], P)
    assert cond.shape == (4, 10)  # orders 0 and 1


def test_json_roundtrip(model):
    clone = PlaneCurveModel.from_json(model.to_json())
    assert np.array_equal(clone.coeffs, model.coeffs)
    assert clone.nodes == model.nodes
    assert clone.q == model.q


def test_nonic_model_invariants():
    nonic = construct_nodal_nonic(P, seed=1)
    assert nonic.degree == 9
    assert nonic.q_mult == 3
    assert len(nonic.nodes) == 16
    assert nonic.pencil_degree == 6
    report = verify_model_report(nonic)
    assert report["ok"], report["failures"]
    assert report["genus"] == 9
    assert report["arithmetic_genus"] == 28


def test_nonic_adjoint_dimensions():
    nonic = construct_nodal_nonic(P, seed=1)
    canonical = linear_system(
        nonic, 6, [(nonic.q, 2)] + [(n, 1) for n in nonic.nodes]
    )
    assert len(canonical) == 9
    residual = linear_system(
        nonic, 5, [(nonic.q, 1)] + [(n, 1) for n in nonic.nodes]
    )
    assert len(residual) == 4


def test_nonic_sampling():
    nonic = construct_nodal_nonic(P, seed=1)
    pts = sample_smooth_points(nonic, 30, seed=3)
    vals = evaluate_form(nonic.coeffs, 9, np.array(pts), P)
    assert not np.any(vals)
    assert not (set(pts) & nonic.banned_points())


def test_plane_model_json_roundtrip():
    nonic = construct_nodal_nonic(P, seed=2)
    clone = PlaneCurveModel.from_json(nonic.to_json())
    assert np.array_equal(clone.coeffs, nonic.coeffs)
    assert clone.q == nonic.q and clone.q_mult == 3
    assert clone.nodes == nonic.nodes


def test_exhausted_attempts_raise(monkeypatch):
    from scrollres.plane_curve import DegenerateConfigurationError

    monkeypatch.setattr(plane_curve, "NODAL_ATTEMPTS", 0)
    with pytest.raises(DegenerateConfigurationError, match="degenerate configuration"):
        construct_nodal_octic(P, seed=1)
    with pytest.raises(DegenerateConfigurationError):
        construct_nodal_nonic(P, seed=1)


def test_constructors_reject_a_plane_with_too_few_points():
    # F_p^2 holds p^2 points, fewer than the nonic's 17 or the octic's 12
    # distinct singular points at p <= 3: the draw of them could never end.
    # A fresh interpreter with a timeout makes a hang fail, not stall.
    probe = """
from scrollres.plane_curve import DegenerateConfigurationError, construct_nodal_nonic, construct_nodal_octic
for construct in (construct_nodal_nonic, construct_nodal_octic):
    for p in (2, 3):
        try:
            construct(p, 1)
        except DegenerateConfigurationError as exc:
            print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=30,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [
        f"degenerate configuration: F_{p}^2 has {p * p} points, fewer than the {count} "
        "singular points" for count in (17, 12) for p in (2, 3)
    ]


def _scan_sample_smooth_points(model, count, seed=0, max_batches=40):
    """The sampler before exact root finding: each random line y = m*x + c is
    intersected with the curve by evaluating it at every x in F_p."""
    p, d = model.prime, model.degree
    rng = random.Random(model.seed * 7919 + seed * 104729 + p)
    banned = model.banned_points()
    found, seen = [], set()
    u = np.arange(p, dtype=np.int64)
    xpow = power_table(u, d, p)
    coeffs = model.coeffs % p
    for _ in range(max_batches):
        for _ in range(max(8, count // 2)):
            m, c = rng.randrange(p), rng.randrange(p)
            y = (m * u + c) % p
            ypow = power_table(y, d, p)
            vals = np.zeros(p, dtype=np.int64)
            for coef, (i, j, _k) in zip(coeffs, monomials(d)):
                if coef:
                    vals = (vals + coef * (xpow[i] * ypow[j] % p)) % p
            for x0 in np.nonzero(vals == 0)[0]:
                pt = (int(x0), int(y[x0]), 1)
                if pt not in banned and pt not in seen:
                    seen.add(pt)
                    found.append(pt)
        if len(found) >= count:
            return found[:count]
    raise InsufficientRationalPointsError(
        f"insufficient rational points: found {len(found)} of {count} at p={p}"
    )


def _outcome(sampler, *args, **kwargs):
    try:
        return sampler(*args, **kwargs)
    except InsufficientRationalPointsError as exc:
        return f"InsufficientRationalPointsError: {exc}"


@pytest.mark.parametrize("p", [101, 1009, 10007])
def test_sampling_matches_full_scan(p):
    # same draws, same points in the same order, same failures
    nonic = construct_nodal_nonic(p, seed=1)
    octic = construct_nodal_octic(p, seed=2)
    batches = plane_curve.SAMPLING_BATCHES
    cases = [
        (nonic, 40, {"seed": 900}, batches),
        (nonic, 25, {"seed": 937}, batches),
        (octic, 30, {"seed": 3}, batches),
        (nonic, 60, {"seed": 5}, 2),
    ]
    for model, count, kwargs, max_batches in cases:
        with mock.patch.object(plane_curve, "SAMPLING_BATCHES", max_batches):
            got = _outcome(sample_smooth_points, model, count, **kwargs)
        want = _outcome(_scan_sample_smooth_points, model, count, max_batches=max_batches, **kwargs)
        assert got == want
        if isinstance(got, list):
            assert all(type(v) is int for pt in got for v in pt)


SAMPLER_PRIMES = (10007, 94906249, 2147483629)


@functools.lru_cache(maxsize=None)
def _nonic(p: int) -> PlaneCurveModel:
    return construct_nodal_nonic(p, seed=1)


@pytest.mark.parametrize("p", SAMPLER_PRIMES)
@settings(max_examples=6, deadline=None)
@given(count=st.integers(1, 60), seed=st.integers(0, 10**6), max_batches=st.integers(1, 3))
@example(count=60, seed=5, max_batches=1)  # fails: 30 lines, too few points
@example(count=110, seed=900, max_batches=3)  # one chain's stream
def test_sampling_matches_reference_sampler(p, count, seed, max_batches):
    # the batched sampler against the one-line-at-a-time one, where no scan
    # of F_p is affordable: the same points in the same order, or the same
    # failure with the same count of points found
    model = _nonic(p)
    # patched per example: a fixture would hold one value for all of them
    with mock.patch.object(plane_curve, "SAMPLING_BATCHES", max_batches):
        got = _outcome(sample_smooth_points, model, count, seed=seed)
    assert got == _outcome(reference_sample_points, model, count, seed=seed,
                           max_batches=max_batches)


# --- the dense-form evaluator against pure-Python pow sums ----------------------

PRIME_BELOW_2_31 = 2147483629


def _pow_sum(coeffs, d: int, point, p: int) -> int:
    """F(point) for the form with the given coefficients over
    monomials(d, len(point)), as a sum of Python-int pow products."""
    total = 0
    for c, expo in zip(coeffs, monomials(d, len(point))):
        term = int(c)
        for v, e in zip(point, expo):
            term = term * pow(int(v), e, p)
        total += term
    return total % p


def _falling(n: int, k: int, p: int) -> int:
    out = 1
    for t in range(k):
        out = out * (n - t) % p
    return out


def _derivative_row_oracle(d: int, order, point, p: int) -> np.ndarray:
    """derivative_row monomial by monomial, with Python-int falling factorials."""
    a, b, c = order
    x, y, z = (int(v) % p for v in point)
    row = np.zeros(monomial_count(d), dtype=np.int64)
    for idx, (i, j, k) in enumerate(monomials(d)):
        if i < a or j < b or k < c:
            continue
        coef = _falling(i, a, p) * _falling(j, b, p) % p * _falling(k, c, p) % p
        val = pow(x, i - a, p) * pow(y, j - b, p) % p * pow(z, k - c, p) % p
        row[idx] = coef * val % p
    return row


def _residues(p: int):
    """F_p elements, with 0, 1 and p - 1 drawn often."""
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


@st.composite
def form_cases(draw, nvars_choices=(3, 4)):
    """(p, nvars, d, coefficients over monomials(d, nvars), list of points)."""
    p = draw(st.sampled_from([10007, PRIME_BELOW_2_31]))
    nvars = draw(st.sampled_from(nvars_choices))
    d = draw(st.integers(0, 9))
    count = len(monomials(d, nvars))
    coeffs = draw(st.lists(_residues(p), min_size=count, max_size=count))
    points = draw(st.lists(st.lists(_residues(p), min_size=nvars, max_size=nvars),
                           min_size=1, max_size=4))
    return p, nvars, d, coeffs, points


def _all_top(nvars: int, d: int = 9, p: int = PRIME_BELOW_2_31):
    # every coefficient and coordinate p - 1: each of the 55 (nvars 3) or
    # 220 (nvars 4) products is (p - 1)^2 near 2^62, so a plain int64 sum
    # of them overflows
    return p, nvars, d, [p - 1] * len(monomials(d, nvars)), [[p - 1] * nvars]


@settings(max_examples=120, deadline=None)
@given(form_cases())
@example(_all_top(3))
@example(_all_top(4))
def test_evaluate_form_matches_pow_sums(case):
    p, nvars, d, coeffs, points = case
    got = evaluate_form(np.array(coeffs, dtype=np.int64), d, np.array(points, dtype=np.int64), p)
    assert [int(v) for v in got] == [_pow_sum(coeffs, d, pt, p) for pt in points]
    # a stack of forms evaluates row by row
    stacked = evaluate_form(np.array([coeffs, coeffs[::-1]], dtype=np.int64), d, points, p)
    assert [int(v) for v in stacked[1]] == [_pow_sum(coeffs[::-1], d, pt, p) for pt in points]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([10007, PRIME_BELOW_2_31]).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, 9),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(_residues(p), _residues(p), _residues(p)),
)))
def test_derivative_row_matches_monomial_formula(case):
    p, d, order, point = case
    assert np.array_equal(derivative_row(d, order, point, p),
                          _derivative_row_oracle(d, order, point, p))
    assert np.array_equal(derivative_rows(d, [(order, point)], p)[0],
                          _derivative_row_oracle(d, order, point, p))


# --- the batched plane-curve layer against its one-row references ---------------

#: at 2**31 - 1 a product of two residues is near 2**62, so one left
#: unreduced overflows int64 at the next product, which numpy does not report
LAYER_PRIMES = (11, 10007, 2147483647)


def _points_with_zeros(rng: random.Random, p: int, count: int) -> list:
    pts = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, rng.randrange(p), rng.randrange(p)),
           (p - 1, p - 1, p - 1)]
    return pts + [tuple(rng.randrange(p) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("p", LAYER_PRIMES)
def test_derivative_rows_match_the_per_row_reference(p):
    rng = random.Random(p)
    orders = [o for total in range(4) for o in monomials(total)]
    for d in (0, 1, 2, 3, 5, 8, 9):
        pairs = [(order, pt) for pt in _points_with_zeros(rng, p, 4) for order in orders]
        rng.shuffle(pairs)
        expected = np.stack([derivative_row(d, order, pt, p) for order, pt in pairs])
        assert np.array_equal(derivative_rows(d, pairs, p), expected)
    assert derivative_rows(4, [], p).shape == (0, monomial_count(4))


def _off_point_form(model, node) -> np.ndarray:
    """x - x0 z (a line through node, which has z = 1) times a random form:
    it vanishes at node, its x-partial there does not (for most draws)."""
    p, d = model.prime, model.degree
    rng = random.Random(d * 31 + p)
    line = np.array([1, 0, -node[0]], dtype=np.int64) % p
    other = np.array([rng.randrange(p) for _ in range(monomial_count(d - 1))])
    return multiply_forms(other, d - 1, line, 1, p)


def _mutated_models(p: int, octic: PlaneCurveModel) -> list:
    """(model, a failure its report must list, or None for a valid model)."""
    nonic = _nonic(p)
    nodes = ((0, 0, 1),) + tuple((i + 1, i * i + 3, 1) for i in range(11))
    # the cuspidal octic of test_cuspidal_point_flagged: a degenerate Hessian
    cusp = coeff_vector(poly_mult({(0, 2, 1): 1, (3, 0, 0): p - 1},
                                  {(0, 0, 5): 1, (4, 1, 0): 1}, p), 8, p)
    # (x - y)^2 (x + y) z^6 + x^9 + y^9: a triple point at (0:0:1) whose
    # tangent cone has a double line, so it is not ordinary; every
    # coefficient of the cone is nonzero, so a misweighted cubic is seen
    unordinary = coeff_vector({(3, 0, 6): 1, (2, 1, 6): -1, (1, 2, 6): -1, (0, 3, 6): 1,
                               (9, 0, 0): 1, (0, 9, 0): 1}, 9, p)
    node, q = nonic.nodes[3], nonic.q
    cases = [
        (nonic, None),
        (PlaneCurveModel(p, 9, (nonic.coeffs + _off_point_form(nonic, node)) % p, q, 3, nonic.nodes, 1),
         f"partial (1, 0, 0) does not vanish at {node}"),
        (PlaneCurveModel(p, 9, (nonic.coeffs + _off_point_form(nonic, q)) % p, q, 3, nonic.nodes, 1),
         f"partial (1, 0, 0) does not vanish at {q}"),
        (PlaneCurveModel(p, 9, nonic.coeffs, q, 3, nonic.nodes + (nonic.nodes[0],), 1),
         "singular points are not distinct"),
        (PlaneCurveModel(p, 9, unordinary, (0, 0, 1), 3, nonic.nodes, 1),
         "triple point (0, 0, 1) is not ordinary"),
        (PlaneCurveModel(p, 9, np.zeros(55, dtype=np.int64), q, 3, nonic.nodes, 1),
         "curve is identically zero"),
        (PlaneCurveModel(p, 8, cusp, nodes[0], 2, nodes[1:], 0),
         "node (0, 0, 1) is not ordinary (degenerate Hessian)"),
    ]
    if p == P:
        perturbed = octic.coeffs.copy()
        perturbed[0] = (perturbed[0] + 1) % P
        cases += [
            (octic, None),
            (PlaneCurveModel(P, 8, perturbed, octic.q, 2, octic.nodes, octic.seed),
             f"partial (0, 0, 0) does not vanish at {octic.q}"),
            (PlaneCurveModel(P, 8, octic.coeffs, octic.q, 2, octic.nodes[:-1], octic.seed),
             "genus bookkeeping gives 10, expected 9"),
        ]
    return cases


@pytest.mark.parametrize("p", [P, 2147483647])
def test_verify_model_report_matches_the_reference(model, p):
    # the same failures in the same order as the one-partial-at-a-time report
    for mutated, failure in _mutated_models(p, model):
        report = verify_model_report(mutated)
        assert report["failures"] == reference_model_failures(mutated)
        assert report["ok"] is (failure is None)
        assert failure is None or failure in report["failures"]
