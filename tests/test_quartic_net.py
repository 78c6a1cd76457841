import dataclasses
import random

import numpy as np
import pytest

import scrollres.quartic_net as net_module
from scrollres import k3_syzygy, pipeline
from scrollres import DEFAULT_PRIME as P
from scrollres.ffield import FieldError, kernel_mod, mul_mod, rank_mod
from scrollres.plane_curve import (
    PlaneCurveModel,
    condition_matrix,
    evaluate_form,
    linear_system,
    monomials,
    multiply_forms,
    sample_smooth_points,
)
from scrollres.resolution import point_demand
from scrollres.scroll import CanonicalCoordinates, point_values
from scrollres.quartic_net import (
    GammaCurve,
    GammaError,
    NetError,
    binary_form_gcd,
    binary_form_roots,
    certify_fiber,
    fit_gamma,
    fit_gamma_map,
    gamma_singular_point,
    gamma_image,
    image_quartic,
    is_multiple_of,
    macaulay_resultant_smooth,
    normalize_point,
    plane_forms_through,
    quartic_net,
    residual_degree,
    residual_image,
    singular_fiber_parameters,
    verify_net_on_points,
)

from oracles import partial_derivative, random_gl, reference_macaulay_smooth, substitute_linear


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


def test_binary_form_roots_and_division():
    # (s - 2t)(s - 3t)(s + t) expanded, coefficients by t-degree
    form = [1, -4, 1, 6]
    roots = binary_form_roots(form, P)
    assert (2, 1) in roots and (3, 1) in roots and (P - 1, 1) in roots
    # s - 2t divides the form, s - 7t does not
    assert binary_form_gcd([form, [1, -2]], P) == [1, P - 2]
    assert binary_form_gcd([form, [1, -7]], P) == [1]


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
    # the zero form vanishes at every point: rejected, not scanned
    for zero in ([0, 0, 0], [0], [p, 2 * p]):
        with pytest.raises(FieldError, match="zero binary form"):
            binary_form_roots(zero, p)


# --- residual model and the net -------------------------------------------------


def test_residual_images_distinct(nonic_chain):
    img = residual_image(nonic_chain.ctx.values(60))
    assert img.shape == (4, 60)
    normalized = {normalize_point(tuple(img[:, i]), P) for i in range(60)}
    assert len(normalized) == 60


def test_net_dimension(nonic_net):
    assert nonic_net.basis.shape == (3, 35)
    assert rank_mod(nonic_net.basis, P) == 3


def test_net_requires_enough_points(nonic_chain):
    img = residual_image(nonic_chain.ctx.values(30))
    with pytest.raises(NetError, match="at least 45"):
        quartic_net(img, P)


def test_residual_image_reads_the_stream_values(monkeypatch, nonic_chain):
    # the images are rows Q1..Q4 of the stream's values: nothing is evaluated
    # again; a sample where all four quartics vanish has no image
    monkeypatch.setattr(net_module, "evaluate_form", lambda *args: pytest.fail("evaluated"))
    values = nonic_chain.ctx.values(3)
    assert np.array_equal(residual_image(values), values[:4])
    values = values.copy()
    values[:4, 1] = 0
    with pytest.raises(NetError, match="basepoint hit"):
        residual_image(values)


def test_net_verified_on_fresh_sample(nonic_chain, nonic_net):
    # 50 points outside the chain's stream: drawn at another seed, the
    # stream's points filtered out
    model, coords = nonic_chain.model, nonic_chain.coords
    stream = set(nonic_chain.ctx.points(point_demand()))
    points = [pt for pt in sample_smooth_points(model, 80, seed=901) if pt not in stream][:50]
    assert len(points) == 50
    fresh = residual_image(point_values(model, coords, points))
    assert verify_net_on_points(nonic_net, fresh)
    corrupted = nonic_net.basis.copy()
    corrupted[0, 0] = (corrupted[0, 0] + 1) % P
    from scrollres.quartic_net import QuarticNet

    assert not verify_net_on_points(QuarticNet(P, corrupted), fresh)


def test_residual_degree_ten(nonic_chain):
    assert residual_degree(nonic_chain.model, nonic_chain.coords) == 10


def test_residual_degree_of_the_octic(model, coords):
    # the octic's quartics miss its pencil node q: 8 * 4 - 2 * 11
    assert np.any(evaluate_form(np.stack(coords.quartics), 4, model.q, P))
    assert residual_degree(model, coords) == 10


def test_residual_degree_counts_only_base_points(nonic_chain):
    # a quintic through every base point but one node: that node stops
    # being a base point, and the count goes up by its multiplicity 2
    model, coords = nonic_chain.model, nonic_chain.coords
    kept = [(n, 1) for n in model.nodes[1:]] + [(model.q, 1)]
    missing = next(f for f in linear_system(model, coords.q_degree, kept)
                   if evaluate_form(f, coords.q_degree, model.nodes[0], P)[0])
    moved = dataclasses.replace(coords, quartics=(missing,) + coords.quartics[1:])
    assert residual_degree(model, moved) == 12


def test_residual_degree_rejects_quartics_singular_at_a_node(nonic_chain):
    # quintics through the base points and singular at the first node: the
    # gradients there vanish, so the node's multiplicity is not certified
    model, coords = nonic_chain.model, nonic_chain.coords
    conditions = [(model.nodes[0], 2)] + [(n, 1) for n in model.nodes[1:]] + [(model.q, 1)]
    singular = linear_system(model, coords.q_degree, conditions)
    assert singular
    moved = dataclasses.replace(coords, quartics=tuple(singular[i % len(singular)] for i in range(4)))
    with pytest.raises(NetError, match="gradient rank 0 at the base point"):
        residual_degree(model, moved)


# --- quartics of pencil members --------------------------------------------------


def test_image_quartic_in_net(nonic_chain, nonic_k3, nonic_net):
    fvec, coords3 = image_quartic(nonic_k3["pencil"].member(1, 5), nonic_net)
    assert np.any(fvec)
    reconstructed = sum(
        int(coords3[i]) * nonic_net.basis[i] for i in range(3)
    ) % P
    assert np.array_equal(reconstructed, fvec % P)


def test_distinct_parameters_distinct_quartics(gamma_samples):
    points = {normalize_point(c, P) for _par, c in gamma_samples}
    assert len(points) == len(gamma_samples)


# --- the cubic and its singular point ---------------------------------------------


def samples_of(gmap, count=9):
    """((1, t), gamma(1 : t)) for t = 2, 3, ..: samples of the map gmap."""
    gmap = np.array(gmap, dtype=np.int64) % P
    return [((1, t), tuple(int(v) for v in gamma_image(gmap, ((0,), (1,), (t,)), P)[0]))
            for t in range(2, 2 + count)]


#: y^2 z = x^2 (x + z), parametrised by the lines y = (lam/mu) x through
#: its node (0 : 0 : 1): (lam^2 mu - mu^3 : lam^3 - lam mu^2 : mu^3)
NODAL_MAP = [[0, 1, 0, -1], [1, 0, -1, 0], [0, 0, 0, 1]]
NODAL_CUBIC = {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}
#: y^2 z = x^3, parametrised as (lam^2 mu : lam^3 : mu^3), with a cusp at (0 : 0 : 1)
CUSPIDAL_MAP = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]


def test_fit_gamma(gamma_samples):
    gamma = fit_gamma(gamma_samples, P)
    assert np.any(gamma.cubic)
    pts = np.stack([np.array(c) for _par, c in gamma_samples]).T
    assert not np.any(evaluate_form(gamma.cubic, 3, pts.T, P))
    # the first 7 samples give the map fitted to all 17, and the implicit
    # cubic is the unique cubic through the 17 sample points
    assert np.array_equal(gamma.gmap, fit_gamma_map(gamma_samples, P))
    assert np.array_equal(plane_forms_through(pts, 3, P), gamma.cubic.reshape(1, -1))
    assert len(plane_forms_through(pts, 2, P)) == 0


def test_fit_gamma_needs_samples(gamma_samples):
    with pytest.raises(GammaError, match="at least 9"):
        fit_gamma(gamma_samples[:8], P)
    assert fit_gamma(gamma_samples[:9], P).cubic.shape == (10,)


def test_fit_gamma_rejects_conic_samples():
    samples = [((t, 1), (1, t, t * t % P)) for t in range(2, 20)]
    with pytest.raises(GammaError):
        fit_gamma(samples, P)


def test_fit_gamma_rejects_a_map_onto_a_conic():
    # mu * (lam^2 : lam mu : mu^2) is a map of degree 2 onto x z = y^2
    with pytest.raises(GammaError):
        fit_gamma(samples_of([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), P)
    # (lam^3 : mu^3 : 0) is fitted uniquely, but its image is a line
    line = samples_of([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert fit_gamma_map(line[:7], P).shape == (3, 4)
    with pytest.raises(GammaError, match="a conic vanishes on gamma"):
        fit_gamma(line, P)


def test_fit_gamma_rejects_a_holdout_off_gamma():
    samples = samples_of(NODAL_MAP)
    assert fit_gamma(samples, P).cubic.shape == (10,)
    # the last holdout moved to the point of the first fit sample
    (par, _point), elsewhere = samples[-1], samples[0][1]
    with pytest.raises(GammaError, match="holdout"):
        fit_gamma(samples[:-1] + [(par, elsewhere)], P)


def test_gamma_singular_point_synthetic_node():
    gamma = fit_gamma(samples_of(NODAL_MAP), P)
    # the implicit cubic is y^2 z - x^2 (x + z), up to scale
    assert rank_mod(np.stack([gamma.cubic, cubic_coeffs(NODAL_CUBIC)]), P) == 1
    sing = gamma_singular_point(gamma)
    assert sing["point"] == (0, 0, 1) and sing["singular_count"] == 1
    assert sing["is_node"] and sing["quadratic_rank"] == 2
    # the lines through the node of slope +1 and -1 are its two branches
    assert singular_fiber_parameters(gamma.gmap, sing["point"], P) == [
        ((0,), (1,), (1,)), ((0,), (P - 1,), (1,))]


def test_gamma_singular_point_on_a_cusp():
    gamma = fit_gamma(samples_of(CUSPIDAL_MAP), P)
    assert rank_mod(np.stack([gamma.cubic, cubic_coeffs({(0, 2, 1): 1, (3, 0, 0): -1})]), P) == 1
    sing = gamma_singular_point(gamma)
    assert sing["point"] == (0, 0, 1) and sing["singular_count"] == 1
    assert sing["quadratic_rank"] == 1 and not sing["is_node"]
    # one preimage, lam^2 divides every cross form: g has a double root
    with pytest.raises(GammaError, match="preimage count != 2"):
        singular_fiber_parameters(gamma.gmap, sing["point"], P)


def test_gamma_singular_point_smooth_input_fails():
    # the centre of the nodal map's moving line is no singular point of the
    # smooth Fermat cubic: nothing is certified
    fermat = cubic_coeffs({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    gamma = GammaCurve(P, np.array(NODAL_MAP) % P, fermat)
    sing = gamma_singular_point(gamma)
    assert sing["singular_count"] == 0 and not sing["is_node"]
    # a map onto a line has a fixed moving line: no centre at all
    line = GammaCurve(P, np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]), fermat)
    with pytest.raises(GammaError, match="2 independent moving lines"):
        gamma_singular_point(line)


def test_pipeline_gamma_stage(gamma_samples, nonic_k3, nonic_net):
    gamma = fit_gamma(gamma_samples, P)
    sing = gamma_singular_point(gamma)
    assert sing["is_node"] and sing["singular_count"] == 1
    gmap = gamma.gmap
    fibers = singular_fiber_parameters(gmap, sing["point"], P)
    # the fixture chain's two parameters are F_p-rational and distinct
    assert len(fibers) == 2 and fibers[0] != fibers[1]
    assert [h for h, _lam, _mu in fibers] == [(0,), (0,)]
    # both parameters reproduce the singular quartic, a third one does not
    target = normalize_point(sing["point"], P)
    pencil = nonic_k3["pencil"]
    for modulus, lam, mu in fibers:
        surface = pencil.member(lam, mu, modulus)
        certify_fiber(gmap, (modulus, lam, mu), target, surface, nonic_net)
        _f, coords3 = image_quartic(surface, nonic_net)
        assert normalize_point(tuple(int(v) for v in coords3), P) == target
    fiber_points = {normalize_point((lam[0], mu[0]), P) for _h, lam, mu in fibers}
    other = next(s for s in gamma_samples if normalize_point(s[0], P) not in fiber_points)
    assert normalize_point(other[1], P) != target


def test_one_rank_per_pencil_member(monkeypatch):
    # the K3 member (1 : 7), the gamma parameters (1 : 0) .. (1 : 8), among
    # them (1 : 7) again, and the two fiber members: 11 members, one
    # Weil restriction of lam*S1 + mu*S2 each
    syzygies = []
    restrict = k3_syzygy.weil_restriction

    def recorded(coeffs, modulus, p):
        if np.shape(coeffs[0]) == (6, 4):
            syzygies.append(len(modulus))
        return restrict(coeffs, modulus, p)

    monkeypatch.setattr(k3_syzygy, "weil_restriction", recorded)
    report = pipeline.run_pipeline(P, 1)
    assert report["ok"] and report["gamma"]["skippedParameters"] == []
    assert syzygies == [1] * 11


def test_gamma_degree_is_read_off_the_fit(monkeypatch):
    # a degenerate fit, the cubic times a line: the report's degree follows
    # the equation it was given
    fit = pipeline.fit_gamma

    def times_line(samples, p):
        gamma = fit(samples, p)
        quartic = multiply_forms(gamma.cubic, 3, np.array([1, 2, 5]), 1, p)
        return GammaCurve(p, gamma.gmap, quartic)

    assert pipeline.run_pipeline(P, 1)["gamma"]["gammaDegree"] == 3
    monkeypatch.setattr(pipeline, "fit_gamma", times_line)
    gamma = pipeline.run_pipeline(P, 1)["gamma"]
    assert gamma["gammaDegree"] == 4 and len(gamma["cubic"]) == 15


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


@pytest.mark.parametrize("p", [P, 2147483629])
def test_macaulay_rank_matches_determinant_ratio(p):
    """The rank certificate against the determinant ratio with its
    coordinate-change retry: random quartics (smooth); the cone, the nodal
    quartic above and a quartic with one ordinary node, whose partials span
    all nonics but one, moved by random coordinate changes (singular); and
    the unmoved cone, whose partial by w vanishes identically."""
    rng = random.Random(p)
    cone = quartic_coeffs4({(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1})
    nodal = quartic_coeffs4({(1, 1, 0, 2): 1, (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (1, 0, 3, 0): 1})
    # w^2 (xy + z^2) + w c(x, y, z) + f(x, y, z), c and f random: an
    # ordinary node at (0:0:0:1)
    one_node = np.array([rng.randrange(p) if e[3] < 2 else int(e[:3] in ((1, 1, 0), (0, 0, 2)))
                         for e in monomials(4, 4)])
    cases = [(np.array([rng.randrange(p) for _ in range(35)]), True) for _ in range(3)]
    cases += [(substitute_linear(q, 4, 4, random_gl(4, rng, p), p), False)
              for q in (cone, nodal, one_node) for _ in range(2)]
    cases.append((cone, False))
    for quartic, smooth in cases:
        assert reference_macaulay_smooth(quartic, p) is smooth
        assert macaulay_resultant_smooth(quartic, p) is smooth


# --- a conjugate pair of singular-fiber parameters ---------------------------------


@pytest.fixture(scope="module")
def conjugate_case():
    """Seed 2 at p = 10007: the node's two pencil parameters are conjugate
    over F_p.  The pencil, net, gamma map and node of its one chain."""
    from scrollres.chain import build_chain
    from scrollres.k3_syzygy import linear_syzygy_space, surface_pencil
    from scrollres.pipeline import GAMMA_PARAMETERS

    chain = build_chain(P, 2)
    pencil = surface_pencil(*linear_syzygy_space(chain.steps, P), chain.steps[0].gens[:6])
    net = quartic_net(residual_image(chain.ctx.values(60)), P)
    samples = []
    for lam, mu in GAMMA_PARAMETERS:
        if pencil.syzygy_rank(lam, mu) == 4:
            _f, coords3 = image_quartic(pencil.member(lam, mu), net)
            samples.append(((lam, mu), tuple(int(v) for v in coords3)))
    gmap = fit_gamma_map(samples, P)
    node = gamma_singular_point(fit_gamma(samples, P))["point"]
    return {"pencil": pencil, "net": net, "samples": samples, "gmap": gmap, "node": node}


def _cross_forms(gmap, point, p):
    return [[(int(gmap[i, k]) * point[j] - int(gmap[j, k]) * point[i]) % p for k in range(4)]
            for i, j in ((0, 1), (0, 2), (1, 2))]


def test_conjugate_pair_is_one_irreducible_quadratic(conjugate_case):
    gmap, node = conjugate_case["gmap"], conjugate_case["node"]
    [(modulus, lam, mu)] = singular_fiber_parameters(gmap, node, P)
    c0, c1 = modulus
    assert (lam, mu) == ((0, 1), (1, 0))
    # h = t^2 + c1 t + c0 has no root in F_p and divides every cross form
    assert binary_form_roots([1, c1, c0], P) == []
    assert binary_form_gcd([f for f in _cross_forms(gmap, node, P) if any(f)], P) == [1, c1, c0]
    for form in _cross_forms(gmap, node, P):
        rem = list(form)
        for k in range(len(rem) - 2):  # divide by h, highest degree first
            rem[k + 1] = (rem[k + 1] - c1 * rem[k]) % P
            rem[k + 2] = (rem[k + 2] - c0 * rem[k]) % P
            rem[k] = 0
        assert not any(rem)
    # gamma(t : 1) over F_p[t]/(h) is the node
    assert is_multiple_of(gamma_image(gmap, (modulus, lam, mu), P), node, P)


def test_conjugate_pair_certified_at_the_surface_level(conjugate_case):
    pencil, net, node = conjugate_case["pencil"], conjugate_case["net"], conjugate_case["node"]
    gmap = conjugate_case["gmap"]
    [fiber] = singular_fiber_parameters(gmap, node, P)
    modulus, lam, mu = fiber
    surface = pencil.member(lam, mu, modulus)
    rational = pencil.member(1, 0)
    # the Weil span over F_p[t]/(h) is chi-saturated: twice the rational rank
    assert len(surface.saturated_span(4, -2)[2]) == 2 * len(rational.saturated_span(4, -2)[2])
    # a relation space of F_p-dimension 2, the node quartic times 1 and t
    fvec, coords = image_quartic(surface, net)
    assert fvec.shape == (70,) and coords.shape == (6,)
    assert is_multiple_of(coords.reshape(2, 3), node, P)
    certify_fiber(gmap, fiber, node, surface, net)


def test_certificate_rejects_a_target_that_is_not_the_node(conjugate_case):
    pencil, net, node = conjugate_case["pencil"], conjugate_case["net"], conjugate_case["node"]
    gmap = conjugate_case["gmap"]
    [fiber] = singular_fiber_parameters(gmap, node, P)
    modulus, lam, mu = fiber
    surface = pencil.member(lam, mu, modulus)
    # a rational sample's quartic is a point of gamma, but not the node
    _par, elsewhere = conjugate_case["samples"][0]
    assert normalize_point(elsewhere, P) != normalize_point(node, P)
    with pytest.raises(GammaError):
        certify_fiber(gmap, fiber, elsewhere, surface, net)
    _f, coords = image_quartic(surface, net)
    assert not is_multiple_of(coords.reshape(2, 3), elsewhere, P)
    assert not is_multiple_of(gamma_image(gmap, fiber, P), elsewhere, P)


def test_certificate_rejects_a_quadratic_that_misses_the_cross_forms(conjugate_case):
    pencil, net, node = conjugate_case["pencil"], conjugate_case["net"], conjugate_case["node"]
    gmap = conjugate_case["gmap"]
    [((c0, c1), lam, mu)] = singular_fiber_parameters(gmap, node, P)
    # another irreducible quadratic: it divides no cross form
    other = next((c0 + k) % P for k in range(1, P) if binary_form_roots([1, c1, (c0 + k) % P], P) == [])
    wrong = ((other, c1), lam, mu)
    surface = pencil.member(lam, mu, wrong[0])
    with pytest.raises(GammaError, match="on gamma"):
        certify_fiber(gmap, wrong, node, surface, net)
    # and its surface does not map to the node either
    _f, coords = image_quartic(surface, net)
    assert not is_multiple_of(coords.reshape(2, 3), node, P)


def test_squarefree_quadratic_is_required():
    # gamma(lam : mu) = (lam^3 : lam^2 mu : mu^3); at the point (1 : 0 : 0)
    # the cross forms lam^2 mu and mu^3 share only mu, one preimage: rejected
    gmap = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.int64)
    with pytest.raises(GammaError, match="preimage count != 2"):
        singular_fiber_parameters(gmap, (1, 0, 0), P)
    with pytest.raises(GammaError, match="vanish identically"):
        singular_fiber_parameters(np.zeros((3, 4), dtype=np.int64), (1, 0, 0), P)


# --- derivatives against the per-monomial reference ----------------------------


def _ranked_matrices(monkeypatch, rank=None) -> list:
    """Record every matrix quartic_net passes to rank_mod; answer with rank
    when it is given, else with the true rank."""
    seen = []

    def recorded(mat, p):
        seen.append(np.array(mat) % p)
        return rank_mod(mat, p) if rank is None else rank

    monkeypatch.setattr(net_module, "rank_mod", recorded)
    return seen


def _random_point(rng, p):
    while True:
        point = tuple(rng.randrange(p) for _ in range(3))
        if any(point):
            return point


@pytest.mark.parametrize("p", [11, 10007, 2147483647])
def test_derivatives_match_the_partial_derivative_reference(p, monkeypatch):
    """The gradients of residual_degree, the value, gradient and Hessian of
    gamma_singular_point and the partials of macaulay_resultant_smooth
    equal those of the per-monomial partial_derivative."""
    rng = random.Random(p)

    def at(form, d, point):
        return int(evaluate_form(form, d, point, p)[0])

    def gradient(form, d, point):
        return [at(partial_derivative(form, 3, d, v, p), d - 1, point) for v in range(3)]

    def combination(rows):
        return mul_mod([rng.randrange(p) for _ in rows], rows, p)

    # residual_degree: quintics through the first two of four singular
    # points; rank_mod answers 2, so every base point is visited
    points = [_random_point(rng, p) for _ in range(4)]
    model = PlaneCurveModel(p, 9, np.zeros(55, dtype=np.int64), points[0], 3, tuple(points[1:]), 0)
    through = kernel_mod(condition_matrix(5, [(pt, 1) for pt in points[:2]], p), p)
    quintics = tuple(combination(through) for _ in range(4))
    coords = CanonicalCoordinates(p, (), quintics, np.zeros(28, dtype=np.int64), 5, 6, (9, 4, 0))
    base = [(pt, m) for pt, m in model.singular_points()
            if not any(at(q, 5, pt) for q in quintics)]
    assert len(base) >= 2
    seen = _ranked_matrices(monkeypatch, rank=2)
    assert residual_degree(model, coords) == 9 * 5 - sum(m for _pt, m in base)
    assert [m.tolist() for m in seen] == [[gradient(q, 5, pt) for q in quintics] for pt, _m in base]

    # gamma_singular_point: a random map, a random cubic and a cubic
    # singular at the map's centre
    seen = _ranked_matrices(monkeypatch)
    for _ in range(20):
        gmap = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(3)])
        try:
            point = gamma_singular_point(GammaCurve(p, gmap, np.ones(10, dtype=np.int64)))["point"]
            break
        except GammaError:
            continue
    else:
        pytest.fail("no random map has a centre")
    singular_there = kernel_mod(condition_matrix(3, [(point, 2)], p), p)
    cubics = [np.array([rng.randrange(p) for _ in range(10)]), combination(singular_there)]
    for cubic in cubics:
        seen.clear()
        sing = gamma_singular_point(GammaCurve(p, gmap, cubic))
        first = gradient(cubic, 3, point)
        hessian = [gradient(partial_derivative(cubic, 3, 3, v, p), 2, point) for v in range(3)]
        assert sing["singular_count"] == int(not at(cubic, 3, point) and not any(first))
        assert [m.tolist() for m in seen] == [hessian]
    assert sing["singular_count"] == 1

    # macaulay_resultant_smooth: the partials times every sextic monomial
    seen.clear()
    quartic = np.array([rng.randrange(p) for _ in range(35)])
    macaulay_resultant_smooth(quartic, p)
    sextics = np.eye(len(monomials(6, 4)), dtype=np.int64)
    expected = [multiply_forms(partial_derivative(quartic, 4, 4, v, p), 3, sextic, 6, p, nvars=4)
                for v in range(4) for sextic in sextics]
    assert len(seen) == 1 and np.array_equal(seen[0], np.array(expected))

