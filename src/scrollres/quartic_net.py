"""Residual model in P^3, the net of quartics, and the cubic of K3 surfaces.

The residual map sends a curve point to (Q1 : Q2 : Q3 : Q4); its image is a
degree-10 space curve lying on a 3-dimensional net of quartics.  Each
syzygy-scheme K3 surface determines one quartic of the net (the unique
quartic relation among x1..x4 modulo the surface ideal), the parameter
sweep traces out a plane cubic in the net, and the quartic at the cubic's
unique singular point is certified smooth by a Macaulay resultant of its
partial derivatives.

All elimination here is exact: resultants of univariate specialisations are
Sylvester determinants over F_p, binary forms are recovered by Vandermonde
interpolation, and roots come from ffield.roots_mod (gcd with x^p - x), so
no step scans F_p.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .ffield import det_mod, inverse_mod, kernel_mod, mul_mod, rank_mod, roots_mod, solve_mod
from .k3_syzygy import K3Surface
from .plane_curve import (
    evaluate_form,
    exponents,
    monomial_values,
    monomials,
    product_positions,
    restrict_to_line,
    substitute_linear,
    z_coefficients,
)
from .scroll import GENERIC_E, KeyIndex, add_keys, cox_slice, slice_keys


class NetError(RuntimeError):
    pass


class GammaError(RuntimeError):
    pass


class ResultantDegenerateError(RuntimeError):
    pass


# --- small polynomial helpers ------------------------------------------------


def partial_derivative(coeffs, nvars: int, d: int, var: int, p: int) -> np.ndarray:
    src = monomials(d, nvars)
    dst = {m: i for i, m in enumerate(monomials(d - 1, nvars))}
    out = np.zeros(len(dst), dtype=np.int64)
    for c, expo in zip(coeffs, src):
        c = int(c) % p
        if not c or expo[var] == 0:
            continue
        lowered = tuple(e - 1 if i == var else e for i, e in enumerate(expo))
        out[dst[lowered]] = (out[dst[lowered]] + c * expo[var]) % p
    return out


def random_gl(n: int, rng: random.Random, p: int):
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if det_mod(np.array(t), p):
            return t


def sylvester_resultant(f, g, p: int) -> int:
    """Resultant of univariate f, g (coefficient lists, highest degree first)."""
    f = [int(c) % p for c in f]
    g = [int(c) % p for c in g]
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return 0
    size = m + n
    if size == 0:
        return 1
    mat = np.zeros((size, size), dtype=np.int64)
    for i in range(n):
        mat[i, i: i + m + 1] = f
    for i in range(m):
        mat[n + i, i: i + n + 1] = g
    return det_mod(mat, p)


def interpolate_poly(xs, ys, degree: int, p: int) -> np.ndarray:
    """Coefficients (highest first) of the unique poly of degree <= degree
    through the points."""
    # row r: x_r^degree, ..., x_r, 1, the binary monomials of that degree at (x_r : 1)
    v = monomial_values(exponents(degree, 2), np.array([xs, [1] * len(xs)]), p).T
    sol = solve_mod(v, np.array(ys, dtype=np.int64) % p, p)
    if sol is None:
        raise NetError("interpolation failed")
    return sol


def resultant_z(f, df: int, g, dg: int, p: int):
    """Res_z of two ternary forms as a binary form of degree df * dg in
    (x, y), coefficient k multiplying x^(df*dg - k) y^k: interpolated from
    the Sylvester resultants of F(u, 1, z) and G(u, 1, z) at u = 0, 1, ...

    A specialisation is clean when its z^df and z^dg coefficients are
    nonzero; those are the coefficients of the monomials z^df and z^dg, the
    same for every u.  Returns None when they vanish or p is too small."""
    total = df * dg
    if total >= p:
        return None
    us = np.arange(total + 1)
    fz = z_coefficients(f, df, us, 1, p)
    gz = z_coefficients(g, dg, us, 1, p)
    if not (fz[0, 0] and gz[0, 0]):
        return None
    vals = [sylvester_resultant(a, b, p) for a, b in zip(fz, gz)]
    return list(interpolate_poly(us, vals, total, p))


def binary_form_divide_linear(coeffs, root, p: int):
    """Divide a binary form (coefficient list, highest s-power first, indexed
    by t-degree) by (b*s - a*t) for the projective root (a : b).

    Returns the quotient coefficients; raises if the division has remainder.
    """
    a, b = int(root[0]) % p, int(root[1]) % p
    d = len(coeffs) - 1
    coeffs = [int(c) % p for c in coeffs]
    if b == 0:
        # dividing by t up to scalar: the s^d coefficient must vanish
        if coeffs[0] != 0:
            raise NetError("binary form not divisible: (1:0) is not a root")
        inv = pow((-a) % p, -1, p)
        return [c * inv % p for c in coeffs[1:]]
    # synthetic division viewing the form as a polynomial in s over t
    binv = pow(b, -1, p)
    quot = [0] * d
    rem = 0
    carry = 0
    # f = sum coeffs[k] s^(d-k) t^k; process k = 0..d
    for k in range(d):
        cur = (coeffs[k] + carry) % p
        quot[k] = cur * binv % p
        carry = quot[k] * a % p
    rem = (coeffs[d] + carry) % p
    if rem != 0:
        raise NetError("binary form not divisible: remainder nonzero")
    return quot


def binary_form_roots(coeffs, p: int) -> list:
    """All projective F_p-roots (a : b) of a binary form, without multiplicity:
    (1 : 0) first when the leading coefficient vanishes, then the affine
    roots (a : 1) in ascending a."""
    roots = [(1, 0)] if int(coeffs[0]) % p == 0 else []
    return roots + [(a, 1) for a in roots_mod(coeffs, p)]


# --- residual model and the net ----------------------------------------------


@dataclass(frozen=True)
class QuarticNet:
    """3-dimensional space of quartics through the residual curve model.

    The P^3 coordinate frame identifies y_i with the quartic adjoint Q_i."""

    prime: int
    basis: np.ndarray  # 3 x 35 over monomials(4, 4)


def residual_image(model, coords, points) -> np.ndarray:
    """(4, n) array of images under (Q1 : Q2 : Q3 : Q4)."""
    rows = evaluate_form(np.stack(coords.quartics), coords.q_degree, points, model.prime)
    if np.any(~np.any(rows, axis=0)):
        raise NetError("basepoint hit: a sample maps to (0:0:0:0)")
    return rows


def quartic_net(image_points: np.ndarray, p: int) -> QuarticNet:
    """Kernel of the 35-monomial evaluation matrix; must be 3-dimensional."""
    n = image_points.shape[1]
    if n < 45:
        raise NetError("need at least 45 image points")
    basis = kernel_mod(monomial_values(exponents(4, 4), image_points, p).T, p)
    if len(basis) != 3:
        raise NetError(f"unexpected net dimension {len(basis)}")
    # maximal-rank check one degree down: no cubics through the image
    if len(kernel_mod(monomial_values(exponents(3, 4), image_points, p).T, p)) != 0:
        raise NetError("cubics through the residual model: not maximal rank")
    return QuarticNet(p, np.stack(list(basis)))


def verify_net_on_points(net: QuarticNet, image_points: np.ndarray) -> bool:
    return not np.any(evaluate_form(net.basis, 4, image_points.T, net.prime))


def residual_degree(model, coords, seed: int = 0, tries: int = 8) -> int:
    """Degree of the residual model, by slicing with a random plane.

    Res_z of the plane curve and a pulled-back net member is a binary form
    of degree d*(d-4); every node lying on the member divides it twice, the
    pencil point q divides it q_mult times when the member passes through q,
    and the leftover degree is the plane-section degree of the image."""
    p, d = model.prime, model.degree
    rng = random.Random(model.seed * 65537 + seed + 13)
    q_degree = coords.q_degree
    for _ in range(tries):
        a = [rng.randrange(p) for _ in range(4)]
        combo = np.zeros_like(coords.quartics[0])
        for ai, q in zip(a, coords.quartics):
            combo = (combo + ai * q) % p
        t3 = random_gl(3, rng, p)
        fcur = substitute_linear(model.coeffs, 3, d, t3, p)
        fqua = substitute_linear(combo, 3, q_degree, t3, p)
        tinv = inverse_mod(np.array(t3), p)
        divisions = [(n, 2) for n in model.nodes]
        if model.q_mult > 2:
            # the adjoint system vanishes at q, so the slice picks up q with
            # intersection multiplicity q_mult
            divisions.append((model.q, model.q_mult))
        moved = [
            (tuple(int(v) for v in mul_mod(tinv, pt, p)), mult)
            for pt, mult in divisions
        ]
        projections = [((x, y), mult) for ((x, y, _z), mult) in moved]
        keys = set()
        ok = True
        for ((x, y), _mult) in projections:
            key = (x * pow(y, -1, p) % p, 1) if y else (1, 0)
            if key in keys:
                ok = False
            keys.add(key)
        if not ok:
            continue
        try:
            return _sliced_degree(fcur, d, fqua, q_degree, projections, p)
        except NetError:
            continue
    raise NetError("residual degree check failed on every slicing attempt")


def _sliced_degree(fcur, d: int, fqua, dq: int, projections, p: int) -> int:
    form = resultant_z(fcur, d, fqua, dq, p)
    if form is None:
        raise NetError("not enough clean specialisations for the resultant")
    # exact divisibility by every singular projection is asserted
    for ((x0, y0), mult) in projections:
        root = (x0 * pow(y0, -1, p) % p, 1) if y0 else (1, 0)
        for _ in range(mult):
            form = binary_form_divide_linear(form, (root[0], root[1]), p)
    if not any(c % p for c in form):
        raise NetError("sliced resultant vanished identically")
    return len(form) - 1


# --- the quartic attached to one K3 surface ----------------------------------


def image_quartic(surface: K3Surface, net: QuarticNet) -> tuple:
    """The unique quartic F(y1..y4) with F(x1..x4) in the surface ideal.

    Computed in the saturated slice of bidegree (4, -4): membership is
    decided after pushing with all degree-2 monomials in t into the
    (4, -2) slice, where the generated ideal is certified saturated.
    Returns (coefficients over monomials(4, 4), coordinates in the net).
    """
    p = surface.prime
    _, reduced, pivots = surface.saturated_span(4, -2)
    keys42 = slice_keys(GENERIC_E, 4, -2)
    # row of the RREF whose pivot is column k, or -1
    pivot_row = np.full(len(keys42), -1)
    pivot_row[list(pivots)] = np.arange(len(pivots))
    # slice (4, -4) must be the x-quartics, in the order of monomials(4, 4)
    quartic_monos = monomials(4, 4)
    if cox_slice(GENERIC_E, 4, -4) != tuple((m + (0,), (0, 0)) for m in quartic_monos):
        raise NetError("slice (4,-4) is not the space of x-quartics")
    keys44 = slice_keys(GENERIC_E, 4, -4)
    index42 = KeyIndex(keys42)
    rows = np.arange(len(keys44))
    conditions = []
    for tkey in slice_keys(GENERIC_E, 0, 2):
        # the unit vector e_k reduces modulo the span to e_k - R[i] when k
        # is the pivot of RREF row i, and to itself otherwise
        cols = index42.find(add_keys(keys44, tkey))
        block = np.zeros((len(keys44), len(keys42)), dtype=np.int64)
        block[rows, cols] = 1
        hit = pivot_row[cols] >= 0
        block[hit] = (block[hit] - reduced[pivot_row[cols[hit]]]) % p
        conditions.append(block)
    kernel = kernel_mod(np.concatenate(conditions, axis=1).T, p)
    if len(kernel) != 1:
        raise NetError(f"relation space not 1-dimensional: {len(kernel)}")
    out = kernel[0] % p
    coeffs_in_net = solve_mod(net.basis.T, out, p)
    if coeffs_in_net is None:
        raise NetError("surface quartic does not lie in the net")
    return out, coeffs_in_net % p


# --- the plane cubic of K3 surfaces ------------------------------------------


@dataclass(frozen=True)
class GammaCurve:
    """Cubic in the net plane traced by the pencil of syzygy-scheme surfaces."""

    prime: int
    cubic: np.ndarray      # 10 coefficients over monomials(3, 3)
    samples: tuple         # ((lam, mu), net coordinates) pairs


def fit_gamma(samples, p: int, holdout: int = 3) -> GammaCurve:
    """Unique cubic through the sampled net points; fails if a conic fits,
    if no cubic fits, or if a holdout sample misses the cubic."""
    if len(samples) < 12 + holdout:
        raise GammaError("need at least 15 samples (12 fit + 3 holdout)")
    fit, held = samples[:-holdout], samples[-holdout:]
    pts = np.stack([np.asarray(c) for (_par, c) in fit]).T
    kernel = plane_forms_through(pts, 3, p)
    if len(kernel) == 0:
        raise GammaError("no cubic through the sampled quartics")
    if len(kernel) > 1:
        raise GammaError("cubic through the samples is not unique")
    if len(plane_forms_through(pts, 2, p)) != 0:
        raise GammaError("degree too low: a conic fits the samples")
    cubic = kernel[0]
    if np.any(evaluate_form(cubic, 3, [c for (_par, c) in held], p)):
        raise GammaError("holdout sample violates the fitted cubic")
    gamma = GammaCurve(p, cubic, tuple((tuple(par), tuple(int(v) for v in c)) for par, c in samples))
    if _linear_factor_exists(gamma):
        raise GammaError("cubic has a rational linear factor: not irreducible")
    return gamma


def plane_forms_through(points: np.ndarray, d: int, p: int) -> np.ndarray:
    """Canonical basis of the degree-d ternary forms vanishing at the
    columns of points (a 3 x n array)."""
    return kernel_mod(monomial_values(exponents(d, 3), points, p).T, p)


def _linear_factor_exists(gamma: GammaCurve) -> bool:
    """Search for linear factors over F_p on three independent line pairs.

    If ell divides the cubic then the point of ell on any line m is among
    the cubic's points on m, so candidate factors are lines through pairs of
    such points; a line meeting the cubic in no rational point at all rules
    a rational factor out immediately.
    """
    p = gamma.prime
    rng = random.Random(4242)
    rounds = 0
    for _ in range(10):
        if rounds == 3:
            break
        pts1 = _cubic_points_on_line(gamma, rng, p)
        pts2 = _cubic_points_on_line(gamma, rng, p)
        if pts1 is None or pts2 is None:
            continue
        if not pts1 or not pts2:
            return False
        for a in pts1:
            for b in pts2:
                if a != b and _line_divides_cubic(gamma, a, b, p):
                    return True
        rounds += 1
    if rounds == 0:
        raise GammaError("linear factor search degenerate")
    return False


def _cubic_points_on_line(gamma: GammaCurve, rng: random.Random, p: int):
    a = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
    b = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
    if rank_mod(np.stack([a, b]), p) != 2:
        return None
    coeffs = restrict_to_line(gamma.cubic, 3, a, b, p)
    if not any(coeffs):
        return None
    pts = []
    for (s, t) in binary_form_roots(coeffs, p):
        pts.append(tuple(int(v) for v in (s * a + t * b) % p))
    return pts


def _line_divides_cubic(gamma: GammaCurve, a, b, p: int) -> bool:
    """Does the line through a and b lie on the cubic?  A cubic vanishing at
    4 distinct points of a line contains it."""
    pts = (np.array(a, dtype=np.int64) + np.arange(5)[:, None] * np.array(b)) % p
    pts = pts[pts.any(axis=1)]
    return len(pts) >= 4 and not np.any(evaluate_form(gamma.cubic, 3, pts, p))


def gamma_singular_point(gamma: GammaCurve, tries: int = 8) -> dict:
    """The unique singular point of the cubic, by resultant elimination.

    Raises GammaError when the rational singular count is not exactly one.
    """
    p = gamma.prime
    rng = random.Random(int(gamma.cubic.sum()) % 2**31 + 99)
    for _ in range(tries):
        t3 = random_gl(3, rng, p)
        moved = substitute_linear(gamma.cubic, 3, 3, t3, p)
        parts = [partial_derivative(moved, 3, 3, v, p) for v in range(3)]
        if any(not np.any(q) for q in parts):
            continue
        res = resultant_z(parts[0], 2, parts[1], 2, p)
        if res is None or not any(res):
            continue
        candidates = set()
        for (u0, v0) in binary_form_roots(res, p):
            for w0 in _common_quadratic_roots(parts, u0, v0, p):
                pt = normalize_point((u0, v0, w0), p)
                if pt is not None:
                    candidates.add(pt)
        singular = []
        for pt in sorted(candidates):
            if not np.any(evaluate_form(np.stack(parts), 2, pt, p)):
                if evaluate_form(moved, 3, pt, p)[0] == 0:
                    singular.append(pt)
        if len(singular) != 1:
            raise GammaError(f"unexpected singular count: {len(singular)}")
        moved_pt = singular[0]
        original = normalize_point(mul_mod(t3, moved_pt, p), p)
        mult = _quadratic_part_rank(gamma.cubic, original, p)
        return {
            "point": original, "quadratic_rank": mult, "is_node": mult == 2,
            "singular_count": len(singular),
        }
    raise GammaError("singular point elimination degenerate after retries")


def _common_quadratic_roots(parts, u0, v0, p: int) -> list:
    """w-values solving all three partials at (u0 : v0 : w)."""
    roots = None
    for q in parts:
        poly = z_coefficients(q, 2, u0, v0, p)
        if poly.any():  # the zero polynomial does not constrain w
            cur = set(roots_mod(poly, p))
            roots = cur if roots is None else roots & cur
    return sorted(roots or [])


def normalize_point(pt, p: int):
    vec = [int(v) % p for v in pt]
    last = next((i for i in range(len(vec) - 1, -1, -1) if vec[i]), None)
    if last is None:
        return None
    inv = pow(vec[last], -1, p)
    return tuple(v * inv % p for v in vec)


def _quadratic_part_rank(cubic, point, p: int) -> int:
    """Rank of the quadratic part of the cubic at a singular point, computed
    in an affine chart around the point (2 = ordinary node)."""
    chart = next(i for i in range(2, -1, -1) if point[i])
    t3 = [[0] * 3 for _ in range(3)]
    others = [i for i in range(3) if i != chart]
    # affine chart: x_chart = 1, translated so the point is the origin
    for col, var in enumerate(others):
        t3[var][col] = 1
    for i in range(3):
        t3[i][2] = point[i]
    moved = substitute_linear(cubic, 3, 3, t3, p)
    # now the singular point is (0 : 0 : 1); read the coefficient of z * (quadratic in x, y)
    hess = np.zeros((2, 2), dtype=np.int64)
    index = {m: i for i, m in enumerate(monomials(3, 3))}
    hess[0, 0] = 2 * moved[index[(2, 0, 1)]] % p
    hess[1, 1] = 2 * moved[index[(0, 2, 1)]] % p
    hess[0, 1] = hess[1, 0] = moved[index[(1, 1, 1)]] % p
    return rank_mod(hess, p)


# --- gamma as a parametrised map and the singular fibers ----------------------


def fit_gamma_map(samples, p: int) -> np.ndarray:
    """Binary cubics (g1, g2, g3) with gamma(lam:mu) = (g1 : g2 : g3).

    Fitted from cross relations g_i y_j - g_j y_i = 0 at every sample; the
    solution space must be 1-dimensional.
    """
    rows = []
    params = np.array([par for par, _y in samples], dtype=np.int64).T
    for powers, (_par, y) in zip(monomial_values(exponents(3, 2), params, p).T, samples):
        for i, j in itertools.combinations(range(3), 2):
            row = np.zeros(12, dtype=np.int64)
            row[4 * i: 4 * i + 4] = [int(y[j]) * w % p for w in powers]
            row[4 * j: 4 * j + 4] = [(-int(y[i])) % p * w % p for w in powers]
            rows.append(row)
    kernel = kernel_mod(np.stack(rows), p)
    if len(kernel) != 1:
        raise GammaError(f"gamma parametrisation not unique: {len(kernel)}")
    return kernel[0].reshape(3, 4) % p


def singular_fiber_parameters(gmap: np.ndarray, point, p: int) -> list:
    """The parameters (lam : mu) mapping to the singular point.

    Candidates are roots of the cross forms g_i p_j - g_j p_i; each is
    verified against the parametrisation, and exactly two must survive.
    """
    point = [int(v) % p for v in point]
    cross = []
    for i, j in itertools.combinations(range(3), 2):
        form = [
            (int(gmap[i, k]) * point[j] - int(gmap[j, k]) * point[i]) % p
            for k in range(4)
        ]
        if any(form):
            cross.append(form)
    if not cross:
        raise GammaError("cross forms vanish identically")
    candidates = set(binary_form_roots(cross[0], p))
    for form in cross[1:]:
        candidates &= set(binary_form_roots(form, p))
    verified = []
    for (lam, mu) in sorted(candidates):
        img = evaluate_form(gmap, 3, (lam, mu), p)[:, 0]
        if normalize_point(img, p) == normalize_point(point, p):
            verified.append((lam, mu))
    if len(verified) != 2:
        raise GammaError(f"preimage count != 2: found {len(verified)}")
    return verified


# --- Macaulay resultant smoothness certificate --------------------------------


def macaulay_resultant_smooth(quartic, p: int, seed: int = 0, tries: int = 6) -> bool:
    """True iff the Macaulay resultant of the four cubic partials is nonzero.

    A nonzero resultant certifies that the partials have no common zero over
    the algebraic closure, i.e. the quartic surface is smooth (p does not
    divide 4, so Euler's relation applies).  The resultant is det(M)/det(E)
    for the classical degree-9 Macaulay matrix M and its non-reduced
    submatrix E; when det(E) vanishes the quartic is moved by a random
    coordinate change, which rescales the resultant by a nonzero factor.
    """
    quartic = np.asarray(quartic, dtype=np.int64) % p
    if not np.any(quartic):
        raise ValueError("zero quartic")
    rng = random.Random(seed * 2654435761 % 2**31 + 17)
    for attempt in range(tries):
        moved = quartic if attempt == 0 else substitute_linear(
            quartic, 4, 4, random_gl(4, rng, p), p
        )
        parts = [partial_derivative(moved, 4, 4, v, p) for v in range(4)]
        if any(not np.any(q) for q in parts):
            return False  # a vanishing partial forces a common zero
        verdict = _macaulay_ratio(parts, p)
        if verdict is not None:
            return verdict
    raise ResultantDegenerateError(
        "resultant degenerate: denominator minor vanished for every change of coordinates"
    )


def _macaulay_ratio(cubics, p: int):
    # row r of M is q * cubics[i] for the r-th degree-9 monomial x_i^3 * q,
    # x_i the first variable whose cube divides it (the loop runs downwards,
    # so the first one is written last); monomials divisible by two cubes
    # give the non-reduced rows
    positions = product_positions(6, 3, 4)
    size = len(monomials(9, 4))
    owner = np.zeros(size, dtype=np.int64)
    quotient = np.zeros(size, dtype=np.int64)
    divisors = np.zeros(size, dtype=np.int64)
    for i in range(3, -1, -1):
        rows = positions[:, monomials(3, 4).index(tuple(3 * (v == i) for v in range(4)))]
        owner[rows], quotient[rows] = i, np.arange(len(positions))
        divisors[rows] += 1
    mat = np.zeros((size, size), dtype=np.int64)
    mat[np.arange(size)[:, None], positions[quotient]] = np.asarray(cubics, dtype=np.int64)[owner] % p
    non_reduced = np.flatnonzero(divisors >= 2)
    det_m = det_mod(mat, p)
    sub = mat[np.ix_(non_reduced, non_reduced)]
    det_e = det_mod(sub, p)
    if det_e == 0:
        return None
    return det_m != 0
