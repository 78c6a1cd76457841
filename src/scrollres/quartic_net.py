"""Residual model in P^3, the net of quartics, and the cubic of K3 surfaces.

The residual map sends a curve point to (Q1 : Q2 : Q3 : Q4); its image is a
degree-10 space curve lying on a 3-dimensional net of quartics.  Each
syzygy-scheme K3 surface determines one quartic of the net (the unique
quartic relation among x1..x4 modulo the surface ideal), and the parameter
sweep traces out a plane cubic in the net, the image of a map
gamma = (g1 : g2 : g3) by binary cubics.

Everything about the cubic follows from gamma: its equation is the kernel
of the cubic monomials composed with gamma (implicitisation), and its node
is the centre of gamma's moving line of degree 1, certified by the
vanishing of the cubic's partials there.  The quartic at the node is
certified smooth by one rank: its partial derivatives times the sextics
span every nonic (Macaulay).

All elimination here is exact.  The degree of the residual model is a
Bezout count at the base points of the adjoint system, certified by the
rank of the quartics' gradients there; roots come from ffield.roots_mod
(gcd with x^p - x), so no step scans F_p.  The two pencil parameters over
the node are the roots of one binary quadratic g; when they are conjugate
they are certified together over F_p[theta]/(g(theta, 1)), on
Weil-restricted matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ffield import (
    FieldError,
    binary_powers,
    gcd_mod,
    kernel_mod,
    mul_mod,
    rank_mod,
    roots_mod,
    solve_mod,
)
from .k3_syzygy import K3Surface
from .plane_curve import (
    FIRST_PARTIALS,
    derivative_rows,
    evaluate_form,
    exponents,
    monomial_values,
    monomials,
    product_positions,
)
from .scroll import GENERIC_E, KeyIndex, add_keys, cox_slice, module_keys


class NetError(RuntimeError):
    pass


class GammaError(RuntimeError):
    pass


# --- small polynomial helpers ------------------------------------------------


def binary_form_roots(coeffs, p: int) -> list:
    """All projective F_p-roots (a : b) of a binary form, without multiplicity:
    (1 : 0) first when the leading coefficient vanishes, then the affine
    roots (a : 1) in ascending a.  The zero form vanishes everywhere:
    FieldError, as for roots_mod."""
    if not any(int(c) % p for c in coeffs):
        raise FieldError("the zero binary form vanishes at every point")
    roots = [(1, 0)] if int(coeffs[0]) % p == 0 else []
    return roots + [(a, 1) for a in roots_mod(coeffs, p)]


def binary_form_gcd(forms, p: int) -> list:
    """gcd of nonzero binary forms (coefficients by t-degree, highest s-power
    first): t to the least multiplicity of (1 : 0), times the monic gcd of
    the dehomogenised polynomials."""
    at_infinity = min(next(k for k, c in enumerate(f) if int(c) % p) for f in forms)
    return [0] * at_infinity + gcd_mod(forms, p)


# --- residual model and the net ----------------------------------------------


@dataclass(frozen=True)
class QuarticNet:
    """3-dimensional space of quartics through the residual curve model.

    The P^3 coordinate frame identifies y_i with the quartic adjoint Q_i."""

    prime: int
    basis: np.ndarray  # 3 x 35 over monomials(4, 4)


def residual_image(values: np.ndarray) -> np.ndarray:
    """(4, n) array of images under (Q1 : Q2 : Q3 : Q4): the first four rows
    of the point values (the (7, n) array from scroll.point_values)."""
    rows = values[:4]
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


def residual_degree(model, coords) -> int:
    """Degree of the residual model, deg(phi) * deg(image): the moving
    intersections of C with a general member of the adjoint system, the
    quantity a plane section of the image counts.

    By Bezout a member meets C in d * q_degree points with multiplicity.  At
    a singular point P of multiplicity m_P where every quartic vanishes, the
    4 x 3 matrix of their gradients must have rank 2, or NetError: then a
    general member is smooth at P and tangent to no branch of C, so it meets
    C there with multiplicity exactly m_P (Fulton, Algebraic Curves, 3.3).
    A singular point that some quartic misses is no base point."""
    p, dq = model.prime, coords.q_degree
    quartics = np.stack(coords.quartics)
    sing = model.singular_points()
    # [quartic, point, order]: each quartic's value and gradient at each point
    orders = ((0, 0, 0),) + FIRST_PARTIALS
    rows = derivative_rows(dq, [(order, point) for point, _m in sing for order in orders], p)
    values = mul_mod(quartics, rows.T, p).reshape(len(quartics), len(sing), len(orders))
    fixed = 0
    for (point, mult), at in zip(sing, values.transpose(1, 0, 2)):
        if np.any(at[:, 0]):
            continue
        rank = rank_mod(at[:, 1:], p)
        if rank != 2:
            raise NetError(f"gradient rank {rank} at the base point {tuple(point)}, not 2: "
                           "the quartics are singular there")
        fixed += mult
    return model.degree * dq - fixed


# --- the quartic attached to one K3 surface ----------------------------------


def image_quartic(surface: K3Surface, net: QuarticNet) -> tuple:
    """The unique quartic F(y1..y4) with F(x1..x4) in the surface ideal.

    Computed in the saturated slice of bidegree (4, -4): membership is
    decided after pushing with all degree-2 monomials in t into the
    (4, -2) slice, where the generated ideal is certified saturated.  Over
    R = F_p[theta]/(h) of degree d the unknowns are F = sum_s F_s theta^s,
    the relation space is an R-module and must have F_p-dimension d, and
    its first basis vector generates it.  Returns (F_0, .., F_(d-1) over
    monomials(4, 4), concatenated; their coordinates in the net, likewise).
    """
    p, d = surface.prime, surface.degree
    _, reduced, pivots = surface.saturated_span(4, -2)
    # the span's columns and the unknowns: one block of slice keys per theta^s
    keys42 = module_keys([(0, 0)] * d, GENERIC_E, 4, -2)
    # row of the RREF whose pivot is column k, or -1
    pivot_row = np.full(len(keys42), -1)
    pivot_row[list(pivots)] = np.arange(len(pivots))
    # slice (4, -4) must be the x-quartics, in the order of monomials(4, 4)
    quartic_monos = monomials(4, 4)
    if cox_slice(GENERIC_E, 4, -4) != tuple((m + (0,), (0, 0)) for m in quartic_monos):
        raise NetError("slice (4,-4) is not the space of x-quartics")
    keys44 = module_keys([(0, 0)] * d, GENERIC_E, 4, -4)
    index42 = KeyIndex(keys42)
    rows = np.arange(len(keys44))
    conditions = []
    for tkey in module_keys([(0, 0)], GENERIC_E, 0, 2):
        # the unit vector e_k reduces modulo the span to e_k - R[i] when k
        # is the pivot of RREF row i, and to itself otherwise
        cols = index42.find(add_keys(keys44, tkey))
        block = np.zeros((len(keys44), len(keys42)), dtype=np.int64)
        block[rows, cols] = 1
        hit = pivot_row[cols] >= 0
        block[hit] = (block[hit] - reduced[pivot_row[cols[hit]]]) % p
        conditions.append(block)
    kernel = kernel_mod(np.concatenate(conditions, axis=1).T, p)
    if len(kernel) != d:
        raise NetError(f"relation space not {d}-dimensional: {len(kernel)}")
    out = kernel[0] % p
    coeffs_in_net = [solve_mod(net.basis.T, part, p) for part in out.reshape(d, -1)]
    if any(c is None for c in coeffs_in_net):
        raise NetError("surface quartic does not lie in the net")
    return out, np.concatenate(coeffs_in_net) % p


def is_multiple_of(image: np.ndarray, point, p: int) -> bool:
    """Is the point of R^3 whose theta^s coordinates are the rows of image
    (a (d, 3) array) a nonzero R-multiple of the F_p-point?  Over F_p
    (d = 1) that is equality in P^2."""
    return bool(np.any(image % p)) and rank_mod(np.vstack([np.asarray(point), image]), p) == 1


# --- the plane cubic of K3 surfaces ------------------------------------------

#: gamma is fitted from the first GAMMA_FIT samples, and at least
#: GAMMA_HOLDOUT more must lie on it
GAMMA_FIT, GAMMA_HOLDOUT = 7, 2


@dataclass(frozen=True)
class GammaCurve:
    """Cubic in the net plane traced by the pencil of syzygy-scheme surfaces,
    with its parametrisation gamma(lam : mu) = (g1 : g2 : g3)."""

    prime: int
    gmap: np.ndarray       # 3 x 4: g1, g2, g3 over monomials(3, 2)
    cubic: np.ndarray      # 10 coefficients over monomials(3, 3)

    @property
    def degree(self) -> int:  # d, from the (d + 1)(d + 2)/2 coefficients of the equation
        return (math.isqrt(8 * len(self.cubic) + 1) - 3) // 2


def fit_gamma(samples, p: int) -> GammaCurve:
    """gamma fitted from the first GAMMA_FIT samples, checked on the others,
    and its implicit cubic; GammaError unless that cubic is irreducible.

    Two maps of degree 3 that agree at 7 parameters have the same cross
    forms (degree 6), so they coincide.  A form F of degree d vanishes on
    gamma iff the binary form F(g1, g2, g3) of degree 3d vanishes at 10
    parameters, so the implicit cubics and conics are kernels of 10-point
    evaluations.  One cubic and no conic make the image of P^1, which is
    irreducible, a cubic curve: gamma is birational onto an irreducible
    cubic.
    """
    if len(samples) < GAMMA_FIT + GAMMA_HOLDOUT:
        raise GammaError(f"need at least {GAMMA_FIT + GAMMA_HOLDOUT} samples "
                         f"({GAMMA_FIT} fit + {GAMMA_HOLDOUT} holdout)")
    gmap = fit_gamma_map(samples[:GAMMA_FIT], p)
    for (lam, mu), point in samples[GAMMA_FIT:]:
        if not is_multiple_of(gamma_image(gmap, ((0,), (lam,), (mu,)), p), point, p):
            raise GammaError(f"holdout sample {(lam, mu)} is not on the fitted gamma")
    # gamma at (1 : t), t = 0..9: distinct parameters for every p > 9
    params = np.array([[1] * 10, list(range(10))], dtype=np.int64)
    values = mul_mod(gmap, monomial_values(exponents(3, 2), params, p), p)
    if len(plane_forms_through(values, 2, p)):
        raise GammaError("degree too low: a conic vanishes on gamma")
    cubics = plane_forms_through(values, 3, p)
    if len(cubics) != 1:
        raise GammaError(f"{len(cubics)} independent cubics vanish on gamma, not 1")
    return GammaCurve(p, gmap, cubics[0])


def plane_forms_through(points: np.ndarray, d: int, p: int) -> np.ndarray:
    """Canonical basis of the degree-d ternary forms vanishing at the
    columns of points (a 3 x n array)."""
    return kernel_mod(monomial_values(exponents(d, 3), points, p).T, p)


def gamma_singular_point(gamma: GammaCurve) -> dict:
    """The singular point of the cubic: the centre of gamma's moving line of
    degree 1, certified exactly.

    The moving lines lam*a(x) + mu*b(x) that follow gamma, that is
    sum_i (lam a_i + mu b_i) g_i = 0, are the kernel of 5 equations in 6
    unknowns.  On a rational cubic that kernel is one pencil of lines, the
    lines through the singular point, so the point is a x b (Cox, Sederberg
    & Chen, CAGD 1998; Chen, Wang & Liu, JSC 2008).  It is certified by the
    vanishing of the cubic and its partials.  fit_gamma certified the cubic
    irreducible, and an irreducible cubic has at most one singular point:
    singular_count is the number certified here, 1 or 0.  A quadratic rank
    of 2 makes the point an ordinary node.
    """
    p = gamma.prime
    # row k: the coefficient of lam^(4-k) mu^k, from lam * g_i and mu * g_i
    rows = np.zeros((5, 6), dtype=np.int64)
    rows[:4, :3] = rows[1:, 3:] = gamma.gmap.T
    kernel = kernel_mod(rows, p)
    if len(kernel) != 1:
        raise GammaError(f"{len(kernel)} independent moving lines of degree 1, not 1")
    (a0, a1, a2), (b0, b1, b2) = ([int(v) for v in kernel[0][i: i + 3]] for i in (0, 3))
    point = normalize_point((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), p)
    if point is None:
        raise GammaError("the moving line of degree 1 is fixed: gamma is a line")
    # the cubic's value, gradient and Hessian matrix at the point; the
    # Hessian's kernel holds the point (Euler's relation), and its block in
    # a chart centred there is the Hessian of the quadratic part, so its
    # rank is the quadratic part's (2 = an ordinary node)
    hessian = [tuple(i + j for i, j in zip(a, b)) for a in FIRST_PARTIALS for b in FIRST_PARTIALS]
    orders = [(0, 0, 0), *FIRST_PARTIALS, *hessian]
    values = mul_mod(derivative_rows(gamma.degree, [(o, point) for o in orders], p), gamma.cubic, p)
    singular = not np.any(values[:4])
    rank = rank_mod(values[4:].reshape(3, 3), p)
    return {
        "point": point, "quadratic_rank": rank, "is_node": singular and rank == 2,
        "singular_count": int(singular),
    }


def normalize_point(pt, p: int):
    vec = [int(v) % p for v in pt]
    last = next((i for i in range(len(vec) - 1, -1, -1) if vec[i]), None)
    if last is None:
        return None
    inv = pow(vec[last], -1, p)
    return tuple(v * inv % p for v in vec)


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
    """The parameters (lam : mu) over the algebraic closure that map to the
    singular point, one entry per irreducible factor h of their binary form.

    That form is g = gcd of the cross forms g_i p_j - g_j p_i, and it must
    be a squarefree quadratic: exactly two preimages.  An entry is
    (modulus, lam, mu), the member over R = F_p[theta]/(h) in the convention
    of K3Surface: ((0,), (a,), (b,)) for each of two F_p-rational parameters
    (a : b) in ascending order, or, when g is irreducible, the conjugate pair
    at once as (theta : 1) over h = g(theta, 1)/g(1, 0) = theta^2 + c1 theta
    + c0, that is ((c0, c1), (0, 1), (1, 0)).  certify_fiber verifies them.
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
    g = binary_form_gcd(cross, p)
    if len(g) != 3 or (g[1] * g[1] - 4 * g[0] * g[2]) % p == 0:
        raise GammaError(f"preimage count != 2: the cross forms share the form {g}")
    roots = binary_form_roots(g, p)
    if roots:
        return [((0,), (a,), (b,)) for a, b in sorted(roots)]
    inv = pow(g[0], -1, p)
    return [((g[2] * inv % p, g[1] * inv % p), (0, 1), (1, 0))]


def gamma_image(gmap: np.ndarray, fiber, p: int) -> np.ndarray:
    """gamma(lam : mu) for fiber = (modulus, lam, mu) over R as in
    singular_fiber_parameters: a (d, 3) array whose row s holds the theta^s
    coordinates of (g1 : g2 : g3)(lam, mu)."""
    modulus, lam, mu = fiber
    return mul_mod(gmap, binary_powers(lam, mu, 3, modulus, p), p).T


def certify_fiber(gmap: np.ndarray, fiber, point, surface: K3Surface, net: QuarticNet) -> None:
    """Certify that the member fiber = (modulus, lam, mu) over R maps to the
    F_p-point of the net plane, or raise GammaError.

    On the parametrisation, gamma(lam : mu) must be the point over R, which
    says that h divides every cross form.  On the surface of that member
    (the caller builds it over R), the relation space must be the quartic of
    the point times every power of theta: the images of both conjugate
    parameters at once.
    """
    p = net.prime
    if not is_multiple_of(gamma_image(gmap, fiber, p), point, p):
        raise GammaError(f"parameter {fiber} does not map to {tuple(point)} on gamma")
    _f, coords = image_quartic(surface, net)
    if not is_multiple_of(coords.reshape(surface.degree, 3), point, p):
        raise GammaError(f"the surface of parameter {fiber} does not map to the singular quartic")


# --- Macaulay smoothness certificate -----------------------------------------


def macaulay_resultant_smooth(quartic, p: int) -> bool:
    """Is the quartic surface smooth, i.e. do its four cubic partials have
    no common zero over the algebraic closure (p does not divide 4, so
    Euler's relation applies)?  Four cubics in four variables without one
    generate every nonic (Macaulay; Cox, Little & O'Shea, Using Algebraic
    Geometry, ch. 3 sec. 4), and at a common zero P all their multiples
    vanish while some nonic monomial does not.  So the partials times the
    84 sextic monomials have rank 220 exactly when the quartic is smooth."""
    quartic = np.asarray(quartic, dtype=np.int64) % p
    if not np.any(quartic):
        raise ValueError("zero quartic")
    # parts[v, i]: the coefficient of the i-th cubic monomial m in the
    # partial by x_v, (m_v + 1) times the quartic's coefficient of m * x_v
    parts = (quartic[product_positions(3, 1, 4)] * (exponents(3, 4) + 1) % p).T
    # row (v, k): the partial by x_v times the k-th sextic monomial
    positions = product_positions(6, 3, 4)
    mat = np.zeros((4, len(positions), len(monomials(9, 4))), dtype=np.int64)
    mat[:, np.arange(len(positions))[:, None], positions] = parts[:, None, :]
    return rank_mod(mat.reshape(-1, mat.shape[2]), p) == mat.shape[2]
