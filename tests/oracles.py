"""Test-only references: brute-force and hand-built versions of what the
package computes another way, and small helpers only the tests need."""

import itertools
import random
from fractions import Fraction

import numpy as np

from scrollres.ffield import det_mod
from scrollres.lattice import GramLattice, LatticeError
from scrollres.plane_curve import (
    GENUS,
    GONALITY,
    InsufficientRationalPointsError,
    exponents,
    monomial_values,
    monomials,
    multiply_forms,
    product_positions,
)
from scrollres.scroll import GENERIC_E, CanonicalCoordinates, CoxPoly, cox_slice, point_values, slice_keys

# --- derivatives of forms -----------------------------------------------------


def partial_derivative(coeffs, nvars: int, d: int, var: int, p: int) -> np.ndarray:
    """The partial by x_var of a degree-d form in nvars variables, over
    monomials(d - 1, nvars), one monomial at a time."""
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


# --- the scroll as 2x2 minors in the canonical P^8 ---------------------------


def canonical_image(model, coords: CanonicalCoordinates, points) -> np.ndarray:
    """(9, n): images of points under the canonical embedding, in basis_order."""
    p = model.prime
    vals = point_values(model, coords, points)
    rows = []
    for i in range(4):
        for j in range(2):
            rows.append(vals[i] * vals[5 + j] % p)
    rows.append(vals[4])
    return np.stack(rows)


PAIR_INDEX = [(i, j) for i in range(9) for j in range(i, 9)]
PAIR_POS = {pair: k for k, pair in enumerate(PAIR_INDEX)}


def scroll_matrix(coords: CanonicalCoordinates):
    """2x4 matrix of P^8 coordinate indices: entry (i, j) is the coordinate
    for Q_{j+1} * l_{i+1}; basis_order puts that at position 2*j + i."""
    return [[2 * j + i for j in range(4)] for i in range(2)]


def scroll_minor_quadrics(coords: CanonicalCoordinates) -> np.ndarray:
    """The six 2x2 minors of the scroll matrix as quadrics in the 9 canonical
    coordinates (coefficient vectors over the 45 degree-2 monomials)."""
    p = coords.prime
    mat = scroll_matrix(coords)
    quadrics = []
    for j1, j2 in itertools.combinations(range(4), 2):
        vec = np.zeros(len(PAIR_INDEX), dtype=np.int64)
        a, b = mat[0][j1], mat[1][j2]
        c, d = mat[0][j2], mat[1][j1]
        vec[PAIR_POS[tuple(sorted((a, b)))]] = (vec[PAIR_POS[tuple(sorted((a, b)))]] + 1) % p
        vec[PAIR_POS[tuple(sorted((c, d)))]] = (vec[PAIR_POS[tuple(sorted((c, d)))]] - 1) % p
        quadrics.append(vec)
    return np.stack(quadrics)


def eval_quadrics(quadrics: np.ndarray, points9: np.ndarray, p: int) -> np.ndarray:
    """Evaluate quadrics (rows over PAIR_INDEX) at 9-coordinate points (9, n)."""
    n = points9.shape[1]
    out = np.zeros((quadrics.shape[0], n), dtype=np.int64)
    for k, (i, j) in enumerate(PAIR_INDEX):
        col = points9[i] * points9[j] % p
        nz = quadrics[:, k] != 0
        if nz.any():
            out[nz] = (out[nz] + np.outer(quadrics[nz, k], col)) % p
    return out


# --- lattices -----------------------------------------------------------------


def hyperbolic_plane() -> GramLattice:
    return GramLattice(((0, 1), (1, 0)), ("e", "f"))


def reflect(lat: GramLattice, v, d) -> tuple:
    """Picard-Lefschetz reflection of v in the root d."""
    if lat.norm(d) != -2:
        raise LatticeError("not a root: d.d != -2")
    vd = lat.pairing(v, d)
    return tuple(int(v[i]) + vd * int(d[i]) for i in range(lat.rank))


def enum_box_oracle(lat: GramLattice, norm: int, constraints, radius: int):
    """Brute-force coefficient-box enumeration; the independent test oracle."""
    n = lat.rank
    side = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    coords = np.stack([g.reshape(-1) for g in grids])  # (n, count)
    g = np.array(lat.gram, dtype=np.int64)
    gx = g @ coords
    norms = (coords * gx).sum(axis=0)
    mask = norms == norm
    mask &= np.any(coords != 0, axis=0)
    for v, m in constraints:
        mask &= (np.array(v, dtype=np.int64) @ gx) == m
    return sorted(tuple(int(x) for x in coords[:, i]) for i in np.nonzero(mask)[0])


def solve_rational(rows, rhs):
    """Exact Gauss-Jordan solve of rows . x = rhs over Q, any number of rows:
    (None, False) if inconsistent, else (x, unique) with free variables 0."""
    m = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[ncols] != 0 for row in m[len(pivots):]):
        return None, False
    x = [Fraction(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return x, len(pivots) == ncols


# --- the resolution -------------------------------------------------------------


def new_count(block) -> int:
    """Number of new minimal generators a SyzygyBlock contributes."""
    return block.new_generators.shape[0]


class _RowReducer:
    """Rows kept fully reduced against each other and sorted by pivot, so
    that they always form an RREF; add() absorbs a row when it is
    independent of them."""

    def __init__(self, p: int):
        self.p, self.rows, self.pivots = p, [], []

    def add(self, row) -> bool:
        p = self.p
        red = np.asarray(row, dtype=np.int64) % p
        for r, pc in zip(self.rows, self.pivots):
            if red[pc]:
                red = (red - int(red[pc]) * r) % p
        nz = np.flatnonzero(red)
        if not nz.size:
            return False
        pc = int(nz[0])
        red = red * pow(int(red[pc]), -1, p) % p
        self.rows = [(r - int(r[pc]) * red) % p for r in self.rows]
        at = sum(1 for c in self.pivots if c < pc)
        self.rows.insert(at, red)
        self.pivots.insert(at, pc)
        return True


def reference_new_representatives(kernel: np.ndarray, multiples: np.ndarray, p: int) -> np.ndarray:
    """The minimal generators of a slice, row by row: kernel rows are picked
    while they are independent of the multiples and of the earlier picks,
    reduced against the pivots of the multiples' RREF, and the picks are
    brought to their own RREF."""
    ncols = kernel.shape[1]
    base = _RowReducer(p)
    for row in multiples:
        base.add(row)
    span = _RowReducer(p)
    for row in base.rows:
        span.add(row)
    picked = [row % p for row in kernel if span.add(row)]
    for i, row in enumerate(picked):
        for brow, pc in zip(base.rows, base.pivots):
            row = (row - int(row[pc]) * brow) % p
        picked[i] = row
    own = _RowReducer(p)
    for row in picked:
        assert own.add(row), "the picks are independent modulo the multiples"
    return np.array(own.rows, dtype=np.int64).reshape(len(own.rows), ncols)


# --- hand-built K3 matrices ------------------------------------------------------
#
# Monomial by monomial, with one CoxPoly product per entry block: the
# references for the free_map_matrix scatters in scrollres.k3_syzygy.


def reference_solve_matrix(ell, p: int) -> np.ndarray:
    """Rows e_ij * m for the pairs i < j and m in slice (1, 0); columns the
    four (2, -1) blocks, holding m * l_j in block i and -m * l_i in block j."""
    nt = len(cox_slice(GENERIC_E, 2, -1))
    h_keys = slice_keys(GENERIC_E, 1, 0)
    pairs = list(itertools.combinations(range(4), 2))
    mat = np.zeros((len(pairs) * len(h_keys), 4 * nt), dtype=np.int64)
    for c_idx, ((i, j), m) in enumerate((pr, m) for pr in pairs for m in h_keys):
        mono_poly = CoxPoly(p, [m], [1])
        mat[c_idx, i * nt: (i + 1) * nt] = mono_poly.mul(ell[j]).vector(GENERIC_E, 2, -1)
        mat[c_idx, j * nt: (j + 1) * nt] = mono_poly.mul(ell[i]).scale(p - 1).vector(GENERIC_E, 2, -1)
    return mat


def reference_koszul_matrix(ell, p: int) -> np.ndarray:
    """Rows e_jkl * t for the triples j < k < l and t in slice (0, 1);
    columns the six (1, 0) blocks of the pairs, holding
    iota_l(e_jkl) t = (l_j e_kl - l_k e_jl + l_l e_jk) t."""
    nh = len(cox_slice(GENERIC_E, 1, 0))
    pairs = list(itertools.combinations(range(4), 2))
    pair_pos = {pr: k for k, pr in enumerate(pairs)}
    cols = []
    for (j, k, l) in itertools.combinations(range(4), 3):
        for tkey in slice_keys(GENERIC_E, 0, 1):
            t = CoxPoly(p, [tkey], [1])
            vec = np.zeros(len(pairs) * nh, dtype=np.int64)
            for sign, lv, pr in ((1, j, (k, l)), (p - 1, k, (j, l)), (1, l, (j, k))):
                base = pair_pos[pr] * nh
                vec[base: base + nh] = ell[lv].mul(t).scale(sign).vector(GENERIC_E, 1, 0)
            cols.append(vec)
    return np.stack(cols)


# --- one polynomial at a time: the list-based root finder and sampler --------
#
# The helpers below work on lists of Python ints in [0, p), lowest degree
# first and without trailing zeros; [] is the zero polynomial.


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _sub(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _monic(f: list, p: int) -> list:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _divmod_poly(a: list, f: list, p: int):
    """Quotient and remainder of a by the monic f."""
    a = list(a)
    n = len(f) - 1
    quot = [0] * max(len(a) - n, 0)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] % p
        quot[k - n] = c
        if c:
            for i in range(n):
                a[k - n + i] -= c * f[i]
    return quot, _trim([c % p for c in a[:n]])


def _mulmod_poly(a: list, b: list, f: list, p: int) -> list:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _divmod_poly(prod, f, p)[1]


def _powmod_poly(base: list, e: int, f: list, p: int) -> list:
    """base**e modulo the monic f of degree >= 1, by left-to-right
    square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mulmod_poly(result, result, f, p)
        if bit == "1":
            result = _mulmod_poly(result, base, f, p)
    return result


def _gcd_poly(a: list, b: list, p: int) -> list:
    """Monic gcd; a must be nonzero."""
    while b:
        a, b = b, _divmod_poly(a, _monic(b, p), p)[1]
    return _monic(a, p)


def reference_gcd(polys, p: int) -> list:
    """Monic gcd of polynomials given highest degree first, by Euclid on
    Python lists; [] when every polynomial is zero."""
    g = []
    for coeffs in polys:
        f = _trim([int(c) % p for c in reversed(list(coeffs))])
        if f:
            g = _gcd_poly(f, g, p) if g else _monic(f, p)
    return g[::-1]


def reference_rank_over_quadratic(rows, c0: int, c1: int, p: int) -> int:
    """Rank of a matrix over the field F_p[t]/(t^2 + c1 t + c0), entries
    (a, b) meaning a + b t, by Gaussian elimination in that field: the
    inverse of a + b t is (a - b c1 - b t) / (a^2 - a b c1 + b^2 c0)."""
    def mul(x, y):
        (a, b), (c, d) = x, y
        # b d t^2 = b d (-c1 t - c0)
        return ((a * c - b * d * c0) % p, (a * d + b * c - b * d * c1) % p)

    def inv(x):
        a, b = x
        norm = pow((a * a - a * b * c1 + b * b * c0) % p, -1, p)
        return ((a - b * c1) * norm % p, -b * norm % p)

    m = [[(a % p, b % p) for a, b in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != (0, 0)), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        scale = inv(m[rank][col])
        m[rank] = [mul(scale, x) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != (0, 0):
                f = m[r][col]
                m[r] = [((x[0] - y[0]) % p, (x[1] - y[1]) % p)
                        for x, y in zip(m[r], (mul(f, z) for z in m[rank]))]
        rank += 1
    return rank


def _split_linear(g: list, p: int, delta: int, out: list) -> None:
    """Append the roots of g, monic and a product of distinct linear factors
    (x - r) with r != 0, splitting by gcd(g, (x + delta)^((p-1)/2) - 1) for
    the shifts delta, delta + 1, ..."""
    if len(g) == 2:
        out.append(-g[0] % p)
        return
    half = (p - 1) // 2
    while True:
        h = _powmod_poly([delta, 1], half, g, p)
        d = _gcd_poly(g, _sub(h, [1], p), p)
        if 1 < len(d) < len(g):
            _split_linear(d, p, delta + 1, out)
            _split_linear(_divmod_poly(g, d, p)[0], p, delta + 1, out)
            return
        delta += 1


def reference_roots_mod(coeffs, p: int) -> list:
    """Sorted distinct roots in F_p of one polynomial, coefficients highest
    degree first, on Python lists: the root 0 split off, g = gcd(f, x^p - x)
    with x^p by square-and-multiply modulo f, and g split by deterministic
    shifts.  The zero polynomial returns all of F_p."""
    f = _trim([int(c) % p for c in reversed(list(coeffs))])
    if not f:
        return list(range(p))
    roots = []
    if f[0] == 0:
        roots.append(0)
        f = f[next(i for i, c in enumerate(f) if c):]
    if len(f) > 1:
        f = _monic(f, p)
        g = _gcd_poly(f, _sub(_powmod_poly([0, 1], p, f, p), [0, 1], p), p)
        if len(g) > 1:
            _split_linear(g, p, 1, roots)
    return sorted(roots)


def reference_sample_points(model, count: int, seed: int = 0, exclude=(), max_batches: int = 40):
    """sample_smooth_points one line at a time: the same draws, each line's
    restriction by a Python-list Horner scheme and its roots by
    reference_roots_mod."""
    if count == 0:
        return []
    p, d = model.prime, model.degree
    rng = random.Random(model.seed * 7919 + seed * 104729 + p)
    banned = model.banned_points() | set(exclude)
    found, seen = [], set()
    by_y = [[0] * (d + 1) for _ in range(d + 1)]
    for coef, (i, j, _k) in zip(model.coeffs, monomials(d)):
        by_y[j][i] = int(coef) % p
    for _ in range(max_batches):
        for _ in range(max(8, count // 2)):
            m, c = rng.randrange(p), rng.randrange(p)
            acc = list(by_y[d])
            for j in range(d - 1, -1, -1):
                acc = [(c * acc[i] + (m * acc[i - 1] if i else 0) + by_y[j][i]) % p
                       for i in range(d + 1)]
            for x0 in reference_roots_mod(acc[::-1], p):
                pt = (x0, (m * x0 + c) % p, 1)
                if pt not in banned and pt not in seen:
                    seen.add(pt)
                    found.append(pt)
        if len(found) >= count:
            return found[:count]
    raise InsufficientRationalPointsError(
        f"insufficient rational points: found {len(found)} of {count} at p={p}"
    )


# --- the plane-curve layer one row, one partial, one product at a time ----------


def substitute_linear(coeffs, nvars: int, d: int, t_mat, p: int) -> np.ndarray:
    """Coefficients of F(T x) for a degree-d form F in nvars variables."""
    # powers[var][e]: the linear form of row var of T, raised to the power e
    powers = []
    for row in np.asarray(t_mat, dtype=np.int64) % p:
        powers.append([np.ones(1, dtype=np.int64)])
        for e in range(d):
            powers[-1].append(multiply_forms(powers[-1][e], e, row, 1, p, nvars))
    out = np.zeros(len(monomials(d, nvars)), dtype=np.int64)
    for c, expo in zip(coeffs, monomials(d, nvars)):
        if int(c) % p:
            term, degree = np.array([int(c) % p]), 0
            for var, e in enumerate(expo):
                if e:
                    term = multiply_forms(term, degree, powers[var][e], e, p, nvars)
                    degree += e
            out = (out + term) % p
    return out


def reference_restrict_to_line(coeffs, d: int, a_pt, b_pt, p: int) -> list:
    """Binary form F(s*A + t*B) as coefficients [s^d, s^(d-1)t, ..., t^d],
    read off the substitution x -> s*A + t*B."""
    t_mat = np.stack([np.asarray(a_pt), np.asarray(b_pt), np.zeros(3, dtype=np.int64)], axis=1)
    moved = substitute_linear(coeffs, 3, d, t_mat, p)
    # s^(d-k) t^k is monomial number k(k+1)/2 of monomials(d)
    return [int(moved[k * (k + 1) // 2]) for k in range(d + 1)]


def derivative_row(d: int, order, point, p: int) -> np.ndarray:
    """Row of the linear functional F -> (partial^order F)(point).

    order is a multi-index (a, b, c); the row is indexed by monomials(d).
    """
    exps = exponents(d)
    # falling factorials e (e - 1) ... (e - o + 1); zero once e < o
    coef = np.ones(len(exps), dtype=np.int64)
    for var, o in enumerate(order):
        for t in range(o):
            coef = coef * (exps[:, var] - t) % p
    lowered = np.maximum(exps - np.asarray(order), 0)
    vals = monomial_values(lowered, np.asarray(point, dtype=np.int64).reshape(3, 1), p)[:, 0]
    return coef * vals % p


def partial_at(coeffs, d: int, order, point, p: int) -> int:
    """(partial^order F)(point) for the degree-d ternary form F, in Python ints."""
    return sum(int(r) * int(c) for r, c in zip(derivative_row(d, order, point, p), coeffs)) % p


def hessian_nondegenerate(coeffs, d: int, point, p: int) -> bool:
    """Ordinary double point: the 2x2 Hessian of the z = 1 dehomogenisation
    is nondegenerate."""
    fxx = partial_at(coeffs, d, (2, 0, 0), point, p)
    fxy = partial_at(coeffs, d, (1, 1, 0), point, p)
    fyy = partial_at(coeffs, d, (0, 2, 0), point, p)
    return (fxx * fyy - fxy * fxy) % p != 0


def triple_point_ordinary(coeffs, d: int, point, p: int) -> bool:
    """Ordinary triple point: the leading cubic of the local expansion has
    distinct roots, tested by its discriminant."""
    inv6 = pow(6, -1, p)
    inv2 = pow(2, -1, p)
    c30 = partial_at(coeffs, d, (3, 0, 0), point, p)
    c21 = partial_at(coeffs, d, (2, 1, 0), point, p)
    c12 = partial_at(coeffs, d, (1, 2, 0), point, p)
    c03 = partial_at(coeffs, d, (0, 3, 0), point, p)
    a, b = c30 * inv6 % p, c21 * inv2 % p
    c, e = c12 * inv2 % p, c03 * inv6 % p
    disc = (
        18 * a * b * c * e - 4 * b ** 3 * e + b * b * c * c
        - 4 * a * c ** 3 - 27 * a * a * e * e
    ) % p
    return disc != 0


def reference_model_failures(model) -> list:
    """The failures of verify_model_report, each partial a Python-int sum."""
    p, d = model.prime, model.degree
    failures = []
    if np.all(model.coeffs % p == 0):
        failures.append("curve is identically zero")
    sing = model.singular_points()
    pts = [pt for pt, _m in sing]
    if len(set(pts)) != len(pts):
        failures.append("singular points are not distinct")
    for pt, mult in sing:
        for order in [o for total in range(mult) for o in monomials(total)]:
            if partial_at(model.coeffs, d, order, pt, p):
                failures.append(f"partial {order} does not vanish at {pt}")
                break
    for pt, mult in sing:
        if mult == 2 and not hessian_nondegenerate(model.coeffs, d, pt, p):
            failures.append(f"node {pt} is not ordinary (degenerate Hessian)")
        if mult == 3 and not triple_point_ordinary(model.coeffs, d, pt, p):
            failures.append(f"triple point {pt} is not ordinary")
    if model.genus() != GENUS:
        failures.append(f"genus bookkeeping gives {model.genus()}, expected {GENUS}")
    if model.pencil_degree != GONALITY:
        failures.append(f"pencil degree {model.pencil_degree} != {GONALITY}")
    return failures


def euler_scroll_sum(e, a: int, b: int) -> int:
    """chi(O(aH + bR)) on P(E) for a >= 0: the sum of chi(P^1, O(b + alpha.e))
    = b + alpha.e + 1 over the exponents alpha of degree a."""
    return sum(b + sum(ai * ei for ai, ei in zip(alpha, e)) + 1 for alpha in monomials(a, len(e)))


# --- the Macaulay resultant as a ratio of determinants ---------------------------


def random_gl(n: int, rng: random.Random, p: int) -> list:
    """A uniformly random invertible n x n matrix over F_p, as lists."""
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if det_mod(np.array(t), p):
            return t


def _macaulay_ratio(cubics, p: int):
    """Is det(M) nonzero, for the classical degree-9 Macaulay matrix M of
    four cubics in four variables?  None when the minor E of its non-reduced
    rows and columns is singular, so that det(M)/det(E) is undefined.

    Row r of M is q * cubics[i] for the r-th nonic monomial x_i^3 * q, x_i
    the first variable whose cube divides it (the loop runs downwards, so
    the first one is written last); monomials divisible by two cubes give
    the non-reduced rows."""
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
    if det_mod(mat[np.ix_(non_reduced, non_reduced)], p) == 0:
        return None
    return det_mod(mat, p) != 0


def reference_macaulay_smooth(quartic, p: int) -> bool:
    """Is the Macaulay resultant of the quartic's four partials nonzero?  It
    is det(M)/det(E); when det(E) vanishes the quartic is moved by a random
    coordinate change, which rescales the resultant by a nonzero factor, at
    most five times."""
    rng = random.Random(17)
    quartic = np.asarray(quartic, dtype=np.int64) % p
    for attempt in range(6):
        moved = quartic if attempt == 0 else substitute_linear(quartic, 4, 4, random_gl(4, rng, p), p)
        verdict = _macaulay_ratio([partial_derivative(moved, 4, 4, v, p) for v in range(4)], p)
        if verdict is not None:
            return verdict
    raise AssertionError("det(E) vanished for six coordinate changes")
