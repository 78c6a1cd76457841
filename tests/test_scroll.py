import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollres import DEFAULT_PRIME as P
from scrollres.ffield import kernel_mod, rank_mod
from scrollres.plane_curve import (
    PlaneCurveModel,
    construct_nodal_nonic,
    construct_nodal_octic,
    evaluate_form,
    monomials,
    sample_smooth_points,
)
from scrollres.scroll import (
    GENERIC_E,
    KEY_RADIX,
    CoxPoly,
    ScrollError,
    ScrollType,
    _line_residual_degree_six,
    canonical_coordinates,
    cox_slice,
    euler_scroll,
    monomial_value_matrix,
    pencil_from_node,
    point_values,
    scroll_type,
    slice_keys,
)

from dict_cox import DictPoly, cox_mul, module_terms, monomial
from oracles import (
    canonical_image,
    euler_scroll_sum,
    eval_quadrics,
    partial_at,
    reference_restrict_to_line,
    reference_roots_mod,
    scroll_minor_quadrics,
)


@pytest.fixture(scope="module")
def pencil(model):
    return pencil_from_node(model)


@pytest.fixture(scope="module")
def coords(model, pencil):
    return canonical_coordinates(model, pencil)


def slice_values(model, coords, points, a, b):
    """Values of the slice (a, b) monomials at the points, one row each."""
    values = point_values(model, coords, points)
    return monomial_value_matrix(values, slice_keys(GENERIC_E, a, b), P)


def curve_h0(a, b):
    # Riemann-Roch for omega^a L^b, degree 16a + 6b, in the nonspecial range
    return 16 * a + 6 * b + 1 - 9


def test_pencil_vanishes_at_q(model, pencil):
    for line in pencil:
        assert evaluate_form(line, 1, np.array([model.q]), P)[0] == 0


def test_pencil_residual_degree(model, pencil):
    # generic pencil member: node counts twice, residual has degree 6
    l1, l2 = pencil
    combo = (3 * l1 + 5 * l2) % P
    # find a second point of the combo line
    a, b, c = (int(v) for v in combo)
    x = 1
    y = (-(a * x + c)) * pow(b, -1, P) % P if b else 0
    other = (x, y, 1) if b else ((-c) * pow(a, -1, P) % P, 1, 1)
    coeffs = reference_restrict_to_line(model.coeffs, 8, model.q, other, P)
    assert coeffs[0] == 0 and coeffs[1] == 0
    residual = coeffs[2:]
    assert len(residual) == 7 and any(residual)  # degree-6 binary form


def test_scroll_type_generic(coords):
    st = scroll_type(coords.dims)
    assert st.e == (1, 1, 1, 1, 0)
    assert sum(st.e) == 4


def test_scroll_type_validation():
    with pytest.raises(ScrollError):
        ScrollType((2, 2, 2, 2, 0))


def test_d_vector_values(model):
    from scrollres.plane_curve import linear_system

    assert len(linear_system(model, 5, [(n, 1) for n in (model.q,) + model.nodes])) == 9
    assert len(linear_system(model, 4, [(n, 1) for n in model.nodes])) == 4


def test_cox_monomial_counts():
    assert len(cox_slice(GENERIC_E, 1, 0)) == 9  # 2+2+2+2+1
    assert len(cox_slice(GENERIC_E, 0, 2)) == 3  # t0^2, t0 t1, t1^2
    assert len(cox_slice(GENERIC_E, 2, -1)) == 24  # 10*2 + 4*1
    assert cox_slice(GENERIC_E, 2, -3) == ()


def test_euler_scroll_values():
    assert euler_scroll(GENERIC_E, 0, 5) == 6  # b + 1
    assert euler_scroll(GENERIC_E, 1, 0) == 9
    assert euler_scroll(GENERIC_E, 2, 0) == 39  # 10*3 + 4*2 + 1
    assert euler_scroll(GENERIC_E, 2, -1) == 24
    assert euler_scroll(GENERIC_E, -1, 3) == 0
    with pytest.raises(ScrollError):
        euler_scroll(GENERIC_E, -5, 0)


def test_euler_matches_monomial_count_when_nonnegative():
    for a in range(4):
        for b in range(-2, 3):
            all_nonneg = all(
                b + sum(ai * ei for ai, ei in zip(alpha, GENERIC_E)) >= 0
                for alpha in monomials(a, 5)
            )
            if all_nonneg:
                assert euler_scroll(GENERIC_E, a, b) == len(cox_slice(GENERIC_E, a, b))


@pytest.mark.parametrize("e", [GENERIC_E, (0, 0, 0, 0, 0), (2, 1, 1, 0, 0), (4, 0, 0, 0, 0),
                               (3, 2), (1,), (0, 5, 1)], ids=str)
def test_euler_closed_form_matches_the_monomial_sum(e):
    for a in range(9):
        for b in range(-6, 7):
            assert euler_scroll(e, a, b) == euler_scroll_sum(e, a, b)


def test_canonical_coordinates_invariants(model, coords):
    prod_rank = 8  # asserted inside canonical_coordinates
    quintic_span = np.stack(
        [np.asarray(q) for q in [coords.phi]]
    )
    assert quintic_span.shape[1] == 21
    # every representative vanishes at all 12 nodes
    for q in coords.quartics:
        assert not np.any(evaluate_form(q, 4, np.array(model.nodes), P))
    assert not np.any(evaluate_form(coords.phi, 5, np.array((model.q,) + model.nodes), P))
    assert prod_rank == 8


def test_evaluate_canonical_rank(model, coords, sample_pool):
    m = slice_values(model, coords, sample_pool[:19], 1, 0)
    assert m.shape[0] == 9
    assert rank_mod(m, P) == 9


def test_evaluate_pencil_rank(model, coords, sample_pool):
    m = slice_values(model, coords, sample_pool[:12], 0, 1)
    assert rank_mod(m, P) == 2


def test_evaluate_quadric_slice(model, coords, sample_pool):
    m = slice_values(model, coords, sample_pool[:28], 2, -1)
    assert m.shape[0] == 24
    assert rank_mod(m, P) == 18  # h^0(omega^2 L^-1)
    # relations among the monomials = left kernel = ideal slice, dimension 6
    assert len(kernel_mod(m.T, P)) == 6


@pytest.mark.parametrize("a,b", [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_riemann_roch_ranks(model, coords, sample_pool, a, b):
    npts = curve_h0(a, b) + 10
    m = slice_values(model, coords, sample_pool[:npts], a, b)
    assert rank_mod(m, P) == curve_h0(a, b)


def test_kernel_sample_independence(model, coords, sample_pool):
    pool = set(sample_pool)
    second = [pt for pt in sample_smooth_points(model, 40, seed=77) if pt not in pool]
    assert len(second) >= 30
    m1 = slice_values(model, coords, sample_pool[:30], 2, -1)
    m2 = slice_values(model, coords, second[:30], 2, -1)
    k1 = kernel_mod(m1.T, P)
    k2 = kernel_mod(m2.T, P)
    assert len(k1) and np.array_equal(k1, k2)  # kernel_mod's basis is canonical


def test_scroll_minors_vanish_on_curve(model, coords, sample_pool):
    quadrics = scroll_minor_quadrics(coords)
    assert quadrics.shape == (6, 45)
    assert rank_mod(quadrics, P) == 6  # independent quadrics
    image = canonical_image(model, coords, sample_pool[:50])
    vals = eval_quadrics(quadrics, image, P)
    assert not np.any(vals)


def test_scroll_minors_nonzero_off_scroll(coords):
    rng = np.random.default_rng(5)
    quadrics = scroll_minor_quadrics(coords)
    point = rng.integers(1, P, size=(9, 1))
    vals = eval_quadrics(quadrics, point, P)
    assert np.any(vals)


def test_cox_poly_arithmetic():
    x1 = monomial(P, (1, 0, 0, 0, 0), (0, 0))
    t0 = monomial(P, (0, 0, 0, 0, 0), (1, 0))
    prod = cox_mul(x1, t0)
    assert DictPoly.from_keyed(prod).bidegrees() == {(1, 0)}
    double = prod.add(prod)
    assert double.coefs.tolist() == [2]
    assert prod.sub(prod).is_zero()


PRIME_BELOW_2_31 = 2147483629


def dict_polys(p, gens=1):
    """Up to six terms over exponents 0..1, so that sums and products often
    meet on one key; coefficients 1 and p - 1 are drawn often."""
    term = st.tuples(st.integers(0, gens - 1), st.tuples(*[st.integers(0, 1)] * 7))
    coef = st.one_of(st.sampled_from([1, p - 1]), st.integers(0, p - 1))
    return st.dictionaries(term, coef, max_size=6).map(
        lambda d: DictPoly(p, {(j, (e[:5], e[5:])): c for (j, e), c in d.items()}))


def cox_cases(p):
    return st.tuples(st.just(p), dict_polys(p), dict_polys(p), dict_polys(p),
                     dict_polys(p, gens=2), st.integers(0, p - 1),
                     st.lists(st.integers(0, p - 1), min_size=7, max_size=7))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([P, PRIME_BELOW_2_31]).flatmap(cox_cases))
def test_keyed_cox_poly_matches_dict_oracle(case):
    p, f, g, h, elem, c, point = case
    kf, kg, kh = f.keyed(), g.keyed(), h.keyed()
    pairs = [(kf.add(kg), f.add(g)), (kf.sub(kg), f.sub(g)), (kf.scale(c), f.scale(c)),
             (cox_mul(kf, kg), f.mul(g)), (kf.sub(kf), f.sub(f)),
             (elem.keyed().image([kg, kh]), elem.image([g, h]))]
    for keyed, ref in pairs:
        assert DictPoly.from_keyed(keyed).terms == ref.terms
        assert (np.diff(keyed.keys) > 0).all() and ((keyed.coefs > 0) & (keyed.coefs < p)).all()
    assert kf.sub(kf).is_zero()
    values = np.array(point, dtype=np.int64).reshape(7, 1)
    assert np.array_equal(kf.evaluate(values), f.evaluate(values))


@pytest.mark.parametrize("p", [P, PRIME_BELOW_2_31])
@pytest.mark.parametrize("a,b", [(1, 0), (2, -1), (2, 0)])
def test_keyed_vector_matches_dict_oracle(p, a, b):
    rng = np.random.default_rng(a * 7 + b)
    basis = module_terms([(0, 0)], GENERIC_E, a, b)
    vec = rng.integers(0, p, size=len(basis)) * rng.integers(0, 2, size=len(basis))
    poly = DictPoly(p, dict(zip(basis, vec.tolist())))
    assert np.array_equal(poly.keyed().vector(GENERIC_E, a, b), poly.vector(basis))
    with pytest.raises(ValueError, match="outside the target slice"):
        cox_mul(poly.keyed(), monomial(p, (0, 0, 0, 0, 0), (1, 0))).vector(GENERIC_E, a, b)


def test_keyed_products_at_large_prime():
    p = PRIME_BELOW_2_31
    # three (p - 1)^2 products meet on x1 x2 x3 and would wrap around in
    # int64 if summed unreduced
    assert 3 * (p - 1) ** 2 > 2 ** 63

    def x(*idx):
        return (0, (tuple(int(i in idx) for i in range(5)), (0, 0)))

    f = DictPoly(p, {x(0): p - 1, x(1): p - 1, x(2): p - 1})
    g = DictPoly(p, {x(1, 2): p - 1, x(0, 2): p - 1, x(0, 1): p - 1})
    product = cox_mul(f.keyed(), g.keyed())
    assert DictPoly.from_keyed(product).terms == f.mul(g).terms
    assert product.vector(GENERIC_E, 3, -3)[cox_slice(GENERIC_E, 3, -3).index(x(0, 1, 2)[1])] == 3
    # an exponent that reaches KEY_RADIX is refused, not carried
    half = monomial(p, (KEY_RADIX // 2, 0, 0, 0, 0), (0, 0))
    with pytest.raises(ValueError, match="would carry"):
        cox_mul(half, half)
    with pytest.raises(ValueError, match="cannot be keyed"):
        DictPoly(p, {(0, ((KEY_RADIX, 0, 0, 0, 0), (0, 0))): 1}).keyed()


def test_cox_poly_evaluation_consistency(model, coords, sample_pool):
    monos = slice_keys(GENERIC_E, 2, -1)
    vec = np.zeros(len(monos), dtype=np.int64)
    vec[0] = 3
    vec[5] = 4
    poly = CoxPoly(P, monos, vec)
    values = point_values(model, coords, sample_pool[:10])
    direct = poly.evaluate(values)
    m = monomial_value_matrix(values, monos, P)
    expected = (3 * m[0] + 4 * m[5]) % P
    assert np.array_equal(direct, expected)
    assert np.array_equal(poly.vector(GENERIC_E, 2, -1), vec)


def test_line_residual_second_point_avoids_q():
    # x^3 + y^3 has a triple point at q = (0:0:1); on the lines below the
    # point with x = 0 is q itself, so the second point has x = 1
    coeffs = np.array([1 if m in ((3, 0, 0), (0, 3, 0)) else 0 for m in monomials(3)])
    cubic = PlaneCurveModel(P, 3, coeffs, (0, 0, 1), 3, (), 0)
    assert _line_residual_degree_six(cubic, np.array([1, P - 1, 0]))   # x = y meets it only at q
    assert not _line_residual_degree_six(cubic, np.array([1, 1, 0]))   # x = -y is a component
    assert _line_residual_degree_six(cubic, np.array([1, 0, 0]))       # x = 0: second point (0, 1)


def _multiplicity_at_q(model, line) -> int:
    """Order at q of the curve on the line a x + b y + c z through q, from
    the substitution x -> s*q + t*(b, -a, 0)."""
    a, b, _c = (int(v) for v in line)
    restricted = reference_restrict_to_line(model.coeffs, model.degree, model.q,
                                            (b, -a % model.prime, 0), model.prime)
    return next(k for k, v in enumerate(restricted) if v)


def _rational_tangent_lines(model) -> list:
    """The F_p-rational lines through q in the tangent cone, found from the
    order-q_mult partials of the oracle and the reference root finder."""
    p, m, (x, y, _z) = model.prime, model.q_mult, model.q
    cone = [partial_at(model.coeffs, model.degree, (m - j, j, 0), model.q, p)
            * pow(math.factorial(m - j) * math.factorial(j), -1, p) % p for j in range(m + 1)]
    # the direction (u, 1) and, when the cone has no u^m term, (1, 0)
    directions = [(u, 1) for u in reference_roots_mod(cone, p)] + [(1, 0)] * (cone[0] == 0)
    # the line through q with direction (b, -a, 0)
    return [(-v % p, u, (v * x - u * y) % p) for u, v in directions]


@pytest.mark.parametrize("construct", [construct_nodal_nonic, construct_nodal_octic],
                         ids=["nonic", "octic"])
@pytest.mark.parametrize("p", [593, 10007, 2147483647])
def test_tangent_cone_check_matches_the_restricted_multiplicity(construct, p):
    # the check reads the tangent cone at q; the reference restricts the
    # whole curve to the line and reads the order of its root at q
    rng = random.Random(p)
    tangent = 0
    for seed in range(1, 5):
        model = construct(p, seed)
        x, y, _z = model.q
        lines = [(a, b, -(a * x + b * y) % p) for a, b in
                 ((rng.randrange(p), rng.randrange(1, p)) for _ in range(6))]
        lines += _rational_tangent_lines(model)
        tangent += len(lines) - 6
        got = _line_residual_degree_six(model, np.array(lines, dtype=np.int64))
        want = [_multiplicity_at_q(model, line) == model.q_mult for line in lines]
        assert got.tolist() == want and want[6:] == [False] * (len(lines) - 6)
    assert tangent
