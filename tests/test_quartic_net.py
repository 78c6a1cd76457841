import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollres import DEFAULT_PRIME as P
from scrollres.ffield import rank_mod
from scrollres.k3_syzygy import pencil_member, surface_from_syzygy, syzygy_scheme
from scrollres.plane_curve import evaluate_form, monomials
from scrollres.quartic_net import (
    GammaCurve,
    GammaError,
    NetError,
    _common_quadratic_roots,
    binary_form_divide_linear,
    binary_form_roots,
    fit_gamma,
    fit_gamma_map,
    gamma_singular_point,
    image_quartic,
    interpolate_poly,
    macaulay_resultant_smooth,
    normalize_point,
    quartic_net,
    residual_degree,
    residual_image,
    singular_fiber_parameters,
    sylvester_resultant,
    verify_net_on_points,
)


def cubic_coeffs(terms: dict) -> np.ndarray:
    vec = np.zeros(10, dtype=np.int64)
    index = {m: i for i, m in enumerate(monomials(3, 3))}
    for expo, c in terms.items():
        vec[index[expo]] = c % P
    return vec


def quartic_coeffs4(terms: dict) -> np.ndarray:
    vec = np.zeros(35, dtype=np.int64)
    index = {m: i for i, m in enumerate(monomials(4, 4))}
    for expo, c in terms.items():
        vec[index[expo]] = c % P
    return vec


# --- helpers ------------------------------------------------------------------


def test_sylvester_resultant_linear():
    a, b = 17, 23
    assert sylvester_resultant([1, -a], [1, -b], P) == (a - b) % P
    assert sylvester_resultant([1, -a], [1, -a], P) == 0


def test_interpolate_roundtrip():
    coeffs = [3, 0, 7, 11]  # cubic
    xs = [1, 2, 3, 4]
    ys = [sum(c * pow(x, 3 - k, P) for k, c in enumerate(coeffs)) % P for x in xs]
    assert list(interpolate_poly(xs, ys, 3, P)) == coeffs


def test_binary_form_roots_and_division():
    # (s - 2t)(s - 3t)(s + t) expanded, coefficients by t-degree
    form = [1, -4, 1, 6]
    roots = binary_form_roots(form, P)
    assert (2, 1) in roots and (3, 1) in roots and (P - 1, 1) in roots
    quotient = binary_form_divide_linear(form, (2, 1), P)
    assert binary_form_roots(quotient, P) == sorted([(3, 1), (P - 1, 1)])
    with pytest.raises(NetError):
        binary_form_divide_linear(form, (7, 1), P)  # not a root


def _scan_binary_form_roots(coeffs, p):
    """(1 : 0) when the leading coefficient vanishes, then every (a : 1) found
    by evaluating the form at all a in F_p."""
    roots = [(1, 0)] if coeffs[0] % p == 0 else []
    for a in range(p):
        value = 0
        for c in coeffs:
            value = (value * a + c) % p
        if value == 0:
            roots.append((a, 1))
    return roots


@pytest.mark.parametrize("p", [101, 1009])
def test_binary_form_roots_match_scan(p):
    rng = random.Random(p)
    forms = [
        [0, 0, 1, -5],        # t^2 (s - 5t): (1:0) and (5:1)
        [0, 0, 0],            # zero form: every point
        [0, 3],               # t: only (1:0)
        [2],                  # nonzero constant: no root
        [1, 0, 0, 0, 0],      # s^4: only (0:1)
    ]
    for degree in range(1, 10):
        forms.append([rng.randrange(p) for _ in range(degree + 1)])
        roots = [rng.randrange(p) for _ in range(degree)]
        form = [rng.randrange(1, p)]
        for r in roots:
            form = [(a - r * b) % p for a, b in zip(form + [0], [0] + form)]
        forms.append([0] + form)  # a root at (1:0) as well
    for form in forms:
        assert binary_form_roots(form, p) == _scan_binary_form_roots(form, p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7, 13, 101]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.lists(st.integers(0, p - 1), min_size=6, max_size=6), min_size=3, max_size=3),
    st.integers(0, p - 1), st.integers(0, p - 1),
)))
def test_common_quadratic_roots_match_scan(case):
    # three ternary conics restricted to the line (u0 : v0 : w); a conic that
    # vanishes on the whole line constrains nothing (for p > 2 only the zero
    # quadratic in w vanishes at every w)
    p, conics, u0, v0 = case
    constraining = [q for q in conics if any(
        evaluate_form(q, 2, (u0, v0, w), p)[0] for w in range(p))]
    scan = [w for w in range(p) if all(
        evaluate_form(q, 2, (u0, v0, w), p)[0] == 0 for q in constraining)]
    assert _common_quadratic_roots(conics, u0, v0, p) == (scan if constraining else [])


# --- residual model and the net -------------------------------------------------


def test_residual_images_distinct(nonic_chain):
    img = residual_image(nonic_chain.model, nonic_chain.coords,
                         nonic_chain.ctx.points(0, 60))
    assert img.shape == (4, 60)
    normalized = {normalize_point(tuple(img[:, i]), P) for i in range(60)}
    assert len(normalized) == 60


def test_net_dimension(nonic_net):
    assert nonic_net.basis.shape == (3, 35)
    assert rank_mod(nonic_net.basis, P) == 3


def test_net_requires_enough_points(nonic_chain):
    img = residual_image(nonic_chain.model, nonic_chain.coords,
                         nonic_chain.ctx.points(0, 30))
    with pytest.raises(NetError, match="at least 45"):
        quartic_net(img, P)


def test_net_verified_on_fresh_sample(nonic_chain, nonic_net):
    fresh = residual_image(nonic_chain.model, nonic_chain.coords,
                           nonic_chain.ctx.points(1, 50))
    assert verify_net_on_points(nonic_net, fresh)
    corrupted = nonic_net.basis.copy()
    corrupted[0, 0] = (corrupted[0, 0] + 1) % P
    from scrollres.quartic_net import QuarticNet

    assert not verify_net_on_points(QuarticNet(P, corrupted), fresh)


def test_residual_degree_ten(nonic_chain):
    assert residual_degree(nonic_chain.model, nonic_chain.coords) == 10


# --- quartics of pencil members --------------------------------------------------


def test_image_quartic_in_net(nonic_chain, nonic_k3, nonic_net):
    member = pencil_member(nonic_k3["basis"], 1, 5)
    surface = surface_from_syzygy(syzygy_scheme(member, nonic_k3["gens"]))
    fvec, coords3 = image_quartic(surface, nonic_net)
    assert np.any(fvec)
    reconstructed = sum(
        int(coords3[i]) * nonic_net.basis[i] for i in range(3)
    ) % P
    assert np.array_equal(reconstructed, fvec % P)


def test_distinct_parameters_distinct_quartics(gamma_samples):
    points = {normalize_point(c, P) for _par, c in gamma_samples}
    assert len(points) == len(gamma_samples)


# --- the cubic and its singular point ---------------------------------------------


def test_fit_gamma(gamma_samples):
    gamma = fit_gamma(gamma_samples, P)
    assert np.any(gamma.cubic)
    pts = np.stack([np.array(c) for _par, c in gamma_samples]).T
    assert not np.any(evaluate_form(gamma.cubic, 3, pts.T, P))


def test_fit_gamma_needs_samples(gamma_samples):
    with pytest.raises(GammaError, match="at least 15"):
        fit_gamma(gamma_samples[:10], P)


def test_fit_gamma_rejects_conic_samples():
    samples = [((t, 1), (1, t, t * t % P)) for t in range(2, 20)]
    with pytest.raises(GammaError):
        fit_gamma(samples, P)


def test_gamma_singular_point_synthetic_node():
    # y^2 z - x^2 (x + z): node at (0 : 0 : 1)
    cubic = cubic_coeffs({(0, 2, 1): 1, (3, 0, 0): P - 1, (2, 0, 1): P - 1})
    gamma = GammaCurve(P, cubic, ())
    sing = gamma_singular_point(gamma)
    assert sing["point"] == (0, 0, 1)
    assert sing["is_node"] and sing["quadratic_rank"] == 2


def test_gamma_singular_point_smooth_input_fails():
    fermat = cubic_coeffs({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    gamma = GammaCurve(P, fermat, ())
    with pytest.raises(GammaError, match="unexpected singular count"):
        gamma_singular_point(gamma)


def test_pipeline_gamma_stage(gamma_samples, nonic_k3, nonic_net):
    gamma = fit_gamma(gamma_samples, P)
    sing = gamma_singular_point(gamma)
    assert sing["is_node"]
    gmap = fit_gamma_map(gamma_samples, P)
    fibers = singular_fiber_parameters(gmap, sing["point"], P)
    assert len(fibers) == 2 and fibers[0] != fibers[1]
    # both parameters reproduce the singular quartic, a third one does not
    target = normalize_point(sing["point"], P)
    for lam, mu in fibers:
        member = pencil_member(nonic_k3["basis"], lam, mu)
        surface = surface_from_syzygy(syzygy_scheme(member, nonic_k3["gens"]))
        _f, coords3 = image_quartic(surface, nonic_net)
        assert normalize_point(tuple(int(v) for v in coords3), P) == target
    other = next(s for s in gamma_samples if tuple(s[0]) not in set(map(tuple, fibers)))
    assert normalize_point(other[1], P) != target


def test_singular_quartic_is_smooth(gamma_samples, nonic_net):
    gamma = fit_gamma(gamma_samples, P)
    sing = gamma_singular_point(gamma)
    quartic = sum(
        int(sing["point"][i]) * nonic_net.basis[i] for i in range(3)
    ) % P
    assert macaulay_resultant_smooth(quartic, P)


# --- Macaulay resultant -----------------------------------------------------------


def test_macaulay_fermat_smooth():
    fermat = quartic_coeffs4(
        {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}
    )
    assert macaulay_resultant_smooth(fermat, P)


def test_macaulay_power_of_linear_singular():
    x4 = quartic_coeffs4({(4, 0, 0, 0): 1})
    assert not macaulay_resultant_smooth(x4, P)


def test_macaulay_cone_singular():
    # x^4 + y^4 + z^4 misses w: singular at (0:0:0:1)
    cone = quartic_coeffs4({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1})
    assert not macaulay_resultant_smooth(cone, P)


def test_macaulay_nodal_quartic_singular():
    # w^2 xy + x^4 + y^4 + x z^3: vanishing gradient at (0:0:0:1)
    nodal = quartic_coeffs4(
        {(1, 1, 0, 2): 1, (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (1, 0, 3, 0): 1}
    )
    assert not macaulay_resultant_smooth(nodal, P)


def test_macaulay_rejects_zero():
    with pytest.raises(ValueError):
        macaulay_resultant_smooth(np.zeros(35, dtype=np.int64), P)
