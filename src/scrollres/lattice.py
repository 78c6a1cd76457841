"""Certified integer-lattice engine for the K3 intersection lattices.

Everything is exact.  One rational congruence diagonalisation gives
signatures (the signs of its pivots), determinants (their product) and the
L^T D L factor of a definite form.  Every enumeration of classes with
prescribed norm and pairings is reduced to integer points of a rational
ellipsoid (the constraint complement of a positive class is negative
definite), enumerated completely by recursive bounds read off that factor.
Ample/nef/base-point-free verdicts therefore come with finite, checkable
certificates instead of sampling.

Conventions: classes are integer coefficient vectors in the fixed basis of a
Gram matrix; a (-2)-class D is called effective when D.h > 0 for the ample
reference h (Riemann-Roch forces D or -D effective, and an ample class
separates the two).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class LatticeError(RuntimeError):
    pass


@dataclass(frozen=True)
class GramLattice:
    """Integer symmetric matrix with ordered basis labels."""

    gram: tuple
    labels: tuple

    def __post_init__(self):
        g = tuple(tuple(int(v) for v in row) for row in self.gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise LatticeError("gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise LatticeError("gram matrix must be symmetric")
        if len(self.labels) != n:
            raise LatticeError("label count must match the rank")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _coordinates(self, v) -> tuple:
        if len(v) != self.rank:
            raise LatticeError(f"class {tuple(v)} has length {len(v)}, the lattice rank is {self.rank}")
        return v

    def pairing(self, u, v) -> int:
        u, v = self._coordinates(u), self._coordinates(v)
        return sum(
            int(u[i]) * self.gram[i][j] * int(v[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def norm(self, v) -> int:
        return self.pairing(v, v)

    def gram_times(self, v):
        v = self._coordinates(v)
        return tuple(
            sum(self.gram[i][j] * int(v[j]) for j in range(self.rank))
            for i in range(self.rank)
        )

    def to_json(self) -> dict:
        return {"gram": [list(r) for r in self.gram], "labels": list(self.labels)}


def lattice_h() -> GramLattice:
    """Rank-3 intersection lattice of (H, C, N) on the syzygy-scheme K3."""
    return GramLattice(((14, 16, 5), (16, 16, 6), (5, 6, 0)), ("H", "C", "N"))


def lattice_h_prime() -> GramLattice:
    """Rank-4 lattice of the two-polarisation surface, basis (H', C, Q1, Q2)."""
    return GramLattice(
        ((4, 10, 1, 1), (10, 16, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2)),
        ("H'", "C", "Q1", "Q2"),
    )


def lattice_n() -> GramLattice:
    """Rank-2 lattice generated by a plane quartic class and the curve class."""
    return GramLattice(((4, 10), (10, 16)), ("n1", "n2"))


# --- basic invariants ---------------------------------------------------------


def _diagonalize(gram) -> tuple:
    """Exact rational congruence diagonalisation: (d, l, zero).

    d holds the nonzero pivots in order, l[i][k] the multiplier that clears
    entry (k, i) with pivot row i, and zero the rank defect.  Every step is a
    congruence by a matrix of determinant +-1, so det(gram) is the product of
    d when zero == 0 and 0 otherwise.  A definite form never meets a zero
    diagonal, so it is never pivoted and gram = L^T D L with L unit upper
    triangular (row i holds l_{ij}, j > i).
    """
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = []
    l = [[Fraction(0)] * n for _ in range(n)]
    zero = 0
    size = n
    row = 0
    while row < size:
        if m[row][row] == 0:
            # bring a nonzero diagonal entry into place
            swap = next((k for k in range(row, size) if m[k][k] != 0), None)
            if swap is None:
                pair = next(
                    ((a, b) for a in range(row, size) for b in range(a + 1, size)
                     if m[a][b] != 0),
                    None,
                )
                if pair is None:
                    zero += size - row
                    break
                a, b = pair
                for k in range(size):
                    m[a][k] += m[b][k]
                for k in range(size):
                    m[k][a] += m[k][b]
                swap = a
            if swap != row:
                m[row], m[swap] = m[swap], m[row]
                for k in range(size):
                    m[k][row], m[k][swap] = m[k][swap], m[k][row]
        pivot = m[row][row]
        d.append(pivot)
        for k in range(row + 1, size):
            f = m[k][row] / pivot
            if f:
                l[row][k] = f
                for c in range(size):
                    m[k][c] -= f * m[row][c]
                for c in range(size):
                    m[c][k] -= f * m[c][row]
        row += 1
    return d, l, zero


def signature(lat: GramLattice) -> tuple:
    """(positives, negatives, zeros): the signs of the congruence pivots."""
    d, _l, zero = _diagonalize(lat.gram)
    pos = sum(1 for v in d if v > 0)
    return (pos, len(d) - pos, zero)


def discriminant(lat: GramLattice) -> int:
    """Determinant of the Gram matrix: the product of the congruence pivots."""
    d, _l, zero = _diagonalize(lat.gram)
    return 0 if zero else int(math.prod(d))


def det_cofactor(gram) -> int:
    """Cofactor-expansion determinant; the independent oracle for tests."""
    n = len(gram)
    if n == 1:
        return gram[0][0]
    total = 0
    for j in range(n):
        if gram[0][j] == 0:
            continue
        minor = [
            [gram[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        total += (-1) ** j * gram[0][j] * det_cofactor(minor)
    return total


# --- integer linear algebra ---------------------------------------------------


def smith_normal_form(rows):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix: the nonzero
    diagonal of _snf_transforms, made to divide one another by gcd/lcm."""
    _u, s, _v = _snf_transforms(rows)
    diagonal = (row[i] for i, row in enumerate(s) if i < len(row))
    divisors = [abs(d) for d in diagonal if d]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = math.gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return divisors


def _snf_transforms(a):
    """(U, S, V) with U a V = S diagonal, U and V unimodular.

    Each pass moves the smallest nonzero entry of the trailing block to the
    pivot and reduces its row and column by nearest-integer quotients, so
    every leftover is at most half the pivot and the next pivot is smaller.
    Re-choosing the global minimum on every pass keeps the entries small;
    keeping one pivot until its row and column clear lets them grow to
    hundreds of thousands of bits on some 5 x 5 symmetric inputs.
    """
    s = [list(r) for r in a]
    nr = len(s)
    nc = len(s[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    for t in range(min(nr, nc)):
        while True:
            cells = [
                (abs(s[i][j]), i, j)
                for i in range(t, nr) for j in range(t, nc) if s[i][j]
            ]
            if not cells:
                return u, s, v
            _size, i0, j0 = min(cells)
            s[t], s[i0] = s[i0], s[t]
            u[t], u[i0] = u[i0], u[t]
            for row in s:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
            p = s[t][t]
            for i in range(t + 1, nr):
                q = (2 * s[i][t] + p) // (2 * p)
                if q:
                    for c in range(nc):
                        s[i][c] -= q * s[t][c]
                    for c in range(nr):
                        u[i][c] -= q * u[t][c]
            for j in range(t + 1, nc):
                q = (2 * s[t][j] + p) // (2 * p)
                if q:
                    for r in range(nr):
                        s[r][j] -= q * s[r][t]
                    for r in range(nc):
                        v[r][j] -= q * v[r][t]
            if not any(s[i][t] for i in range(t + 1, nr)) and not any(
                s[t][j] for j in range(t + 1, nc)
            ):
                break
    return u, s, v


def solve_integer_system(a, b):
    """All integer solutions of a x = b: (particular, kernel basis) or None."""
    u, s, v = _snf_transforms(a)
    nr, nc = len(a), len(a[0])
    ub = [sum(u[i][k] * b[k] for k in range(nr)) for i in range(nr)]
    y = [0] * nc
    rank = 0
    for i in range(min(nr, nc)):
        if s[i][i]:
            if ub[i] % s[i][i]:
                return None
            y[i] = ub[i] // s[i][i]
            rank = i + 1
        elif ub[i]:
            return None
    for i in range(min(nr, nc), nr):
        if ub[i]:
            return None
    x = [sum(v[i][j] * y[j] for j in range(nc)) for i in range(nc)]
    kernel = [
        tuple(v[i][j] for i in range(nc)) for j in range(rank, nc)
    ]
    return tuple(x), kernel


# --- complete enumeration by rational ellipsoids -------------------------------


def _frac_sqrt_floor(x: Fraction) -> int:
    if x < 0:
        return -1
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def _ellipsoid_points(d, l, center, radius2):
    """All integer points c with (c - center)^T q (c - center) <= radius2,
    where q = L^T D L is positive definite with pivots d and multipliers l
    from _diagonalize; center and radius2 are rational.
    """
    n = len(d)
    out = []
    point = [0] * n

    def recurse(i, remaining, offsets):
        # invariant: remaining = radius2 - sum_{k>i} d_k (x_k + offset_k)^2
        # with x_k = c_k - center_k and offset_k = sum_{j>k} l_kj x_j
        if i < 0:
            out.append(tuple(point))
            return
        bound = remaining / d[i]
        mid = center[i] - offsets[i]
        lo = math.ceil(mid - _frac_sqrt_floor(bound) - 1)
        hi = math.floor(mid + _frac_sqrt_floor(bound) + 1)
        for c in range(lo, hi + 1):
            xi = Fraction(c) - center[i]
            lead = xi + offsets[i]
            used = d[i] * lead * lead
            if used > remaining:
                continue
            point[i] = c
            new_offsets = list(offsets)
            for k in range(i):
                new_offsets[k] = offsets[k] + l[k][i] * xi
            recurse(i - 1, remaining - used, new_offsets)

    recurse(n - 1, Fraction(radius2), [Fraction(0)] * n)
    return out


def enum_classes(lat: GramLattice, norm: int, constraints, radius_factor: int = 1):
    """All nonzero classes D with D.D = norm and D.v_i = m_i for each
    (v_i, m_i) in constraints.

    Completeness certificate: the integer solutions of the pairing
    constraints form a coset of a sublattice on which the form is negative
    definite (the constraints include a class of positive norm), so the
    solutions of D.D = norm lie in an explicit rational ellipsoid; that
    ellipsoid, inflated by radius_factor**2, is enumerated exactly.
    """
    n = lat.rank
    if not constraints:
        raise LatticeError("at least one pairing constraint is required")
    rows = [list(lat.gram_times(v)) for v, _m in constraints]
    rhs = [int(m) for _v, m in constraints]
    solved = solve_integer_system(rows, rhs)
    if solved is None:
        return []
    x0, kernel = solved
    if not kernel:
        d = tuple(x0)
        return [d] if lat.norm(d) == norm and any(d) else []
    # Q = -(form on the kernel lattice) must be positive definite
    q = [
        [-lat.pairing(kernel[i], kernel[j]) for j in range(len(kernel))]
        for i in range(len(kernel))
    ]
    pivots, l, zero = _diagonalize(q)
    if zero or any(v < 0 for v in pivots):
        raise LatticeError(
            "anchor not positive: constraint complement is not negative definite"
        )
    # D = x0 + K c:  D.D = x0.x0 + 2 x0.G.K c - c^T Q c = norm
    # i.e. (c - center)^T Q (c - center) <= radius2 with equality filter
    u = [
        sum(lat.gram_times(x0)[r] * kernel[j][r] for r in range(n))
        for j in range(len(kernel))
    ]
    # solve Q center = u; Q is definite, so the solution exists and is unique
    center, _unique = solve_rational(q, u)
    radius2 = (
        Fraction(lat.norm(x0) - norm)
        + sum(center[j] * u[j] for j in range(len(kernel)))
    )
    if radius2 < 0:
        return []
    radius2 *= radius_factor * radius_factor
    found = []
    for c in _ellipsoid_points(pivots, l, center, radius2):
        d = tuple(
            x0[i] + sum(c[j] * kernel[j][i] for j in range(len(kernel)))
            for i in range(n)
        )
        if any(d) and lat.norm(d) == norm:
            if all(lat.pairing(d, v) == m for v, m in constraints):
                found.append(d)
    return sorted(found)


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


# --- positivity certificates ---------------------------------------------------


def is_ample(lat: GramLattice, h) -> tuple:
    """h is ample iff h.h > 0 and no root is orthogonal to h.

    Returns (verdict, certificate); the certificate lists the orthogonal
    roots found (empty for an ample class) and the enumeration settings.
    """
    h2 = lat.norm(h)
    if h2 <= 0:
        return False, {"reason": "h.h <= 0", "h2": h2}
    roots = enum_classes(lat, -2, [(h, 0)])
    cert = {
        "h2": h2,
        "orthogonal_roots": [list(r) for r in roots],
        "method": "complete enumeration of roots orthogonal to h",
    }
    return (len(roots) == 0), cert


def is_nef(lat: GramLattice, h_ample, l_class) -> tuple:
    """l is nef iff l.l >= 0, l.h > 0 and no effective root pairs negatively.

    An obstructing root D (D.D = -2, D.h > 0, D.l < 0) is orthogonal to the
    positive class (-D.l) h + (D.h) l, so the Gram determinant of (h, l, D)
    is nonnegative; writing k = D.h, -l0 = D.l that reads
    L2 k^2 + 2 (h.l) k l0 + h2 l0^2 <= -2 (h2 L2 - (h.l)^2), which bounds
    the finitely many (k, l0) cells enumerated below.
    """
    ample, cert = is_ample(lat, h_ample)
    if not ample:
        raise LatticeError("reference class is not ample")
    l2 = lat.norm(l_class)
    hl = lat.pairing(h_ample, l_class)
    h2 = lat.norm(h_ample)
    if l2 < 0:
        return False, {"reason": "negative self-intersection", "l2": l2}
    if not any(l_class):
        return True, {"reason": "zero class"}
    if hl <= 0:
        return False, {"reason": "nonpositive pairing with the ample class"}
    delta = h2 * l2 - hl * hl
    if delta == 0:
        return True, {"reason": "proportional to the ample class"}
    if delta > 0:
        raise LatticeError("bound computation failed: segment leaves the cone")
    cells = []
    lmax = _frac_sqrt_floor(Fraction(-2 * delta, h2))
    for l0 in range(1, lmax + 1):
        bound = Fraction(-delta, hl * l0)
        kmax = math.floor(bound)
        if l2 > 0:
            kmax = min(kmax, _frac_sqrt_floor(Fraction(-2 * delta, l2)))
        for k in range(1, kmax + 1):
            # feasibility of the full inequality for this cell
            if l2 * k * k + 2 * hl * k * l0 + h2 * l0 * l0 > -2 * delta:
                continue
            cells.append((k, -l0))
            hits = enum_classes(lat, -2, [(h_ample, k), (l_class, -l0)])
            if hits:
                return False, {
                    "obstructing_root": list(hits[0]),
                    "pairings": {"with_h": k, "with_l": -l0},
                }
    return True, {"cells_checked": cells, "lmax": lmax}


def is_basepoint_free(lat: GramLattice, h_ample, l_class) -> tuple:
    """Base-point-freeness test for a nef class.

    For l.l > 0 the classical criterion applies: l has base points iff some
    effective E with E.E = 0 and E.l = 1 exists; the enumeration against l
    is finite and the effectivity filter is E.h > 0.  A nef isotropic class
    is a multiple of an elliptic pencil class and is base point free; the
    certificate records the primitivity data instead of an E-search.
    """
    nef, nef_cert = is_nef(lat, h_ample, l_class)
    if not nef:
        return False, {"reason": "not nef", "nef_certificate": nef_cert}
    l2 = lat.norm(l_class)
    if l2 > 0:
        candidates = enum_classes(lat, 0, [(l_class, 1)])
        effective = [e for e in candidates if lat.pairing(e, h_ample) > 0]
        cert = {
            "criterion": "no effective E with E.E = 0, E.l = 1",
            "obstructions": [list(e) for e in effective],
        }
        return (len(effective) == 0), cert
    pairings = [lat.pairing(l_class, v) for v in _unit_vectors(lat.rank)]
    g = 0
    for v in pairings:
        g = math.gcd(g, v)
    cert = {
        "criterion": "nef isotropic class: composition of an elliptic pencil",
        "primitive": _content(l_class) == 1,
        "pairing_gcd": g,
    }
    return True, cert


def _unit_vectors(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def _content(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g


def unique_polarization_classes(lat: GramLattice, h, target_norm: int, target_pairing: int):
    """All classes with the given norm and pairing against h, filtered to nef
    classes for nonnegative norms and to effective ones for roots."""
    classes = enum_classes(lat, target_norm, [(h, target_pairing)])
    if target_norm >= 0:
        return [d for d in classes if is_nef(lat, h, d)[0]]
    return [d for d in classes if lat.pairing(d, h) > 0]


# --- the rank-4 lattice of the singular-fiber surface ---------------------------

# classes in the basis (H1, C, N1, H2) of the template
_H1, _C, _N1, _H2 = _unit_vectors(4)
_N2 = (-1, 0, 1, 1)      # H2 - H1 + N1, the second elliptic class
_H1_N1 = (1, 0, -1, 0)   # H' = H1 - N1
_C_H1 = (-1, 1, 0, 0)    # Q1 = C - H1
_C_H2 = (0, 1, 0, -1)    # Q2 = C - H2
_EFFECTIVITY = (
    (_C_H1, _C_H2, operator.ge, 0),
    (_H2, _C_H1, operator.ge, 0),
    (_C_H2, _H1_N1, operator.ge, 0),
    (_C_H2, _N1, operator.ge, 0),
)
# N2.N2 = 0 and the second copies of H.N and C.N: N2.H2 = 5, N2.C = 6
_SECOND_POLARIZATION = (
    (_N2, _N2, operator.eq, 0),
    (_N2, _H2, operator.eq, 5),
    (_N2, _C, operator.eq, 6),
)


def _rank4_lattice(a: int, b: int) -> GramLattice:
    gram = ((14, 16, 5, a), (16, 16, 6, 16), (5, 6, 0, b), (a, 16, b, 14))
    return GramLattice(gram, ("H1", "C", "N1", "H2"))


def _box_solutions(box: int, conditions) -> list:
    """All (a, b) in [-box, box]^2, a ascending and then b ascending, at which
    op(u.v, m) holds for every condition (u, v, op, m).

    a and b enter the template linearly, so u.v is the affine form
    c0 + (ca - c0) a + (cb - c0) b with c0, ca, cb its values at (0, 0),
    (1, 0) and (0, 1); it is evaluated over the whole box at once.
    """
    corners = [_rank4_lattice(a, b) for a, b in ((0, 0), (1, 0), (0, 1))]
    side = np.arange(-box, box + 1, dtype=np.int64)
    a, b = np.meshgrid(side, side, indexing="ij")
    keep = np.ones(a.shape, dtype=bool)
    for u, v, op, m in conditions:
        c0, ca, cb = (lat.pairing(u, v) for lat in corners)
        keep &= op(c0 + (ca - c0) * a + (cb - c0) * b, m)
    return [(int(x), int(y)) for x, y in zip(a[keep], b[keep])]


def derive_hprime_entries(box: int = 100, drop_constraint: "int | None" = None):
    """Integer pairs (a, b) = (H1.H2, N1.H2) in [-box, box]^2 passing the four
    effectivity inequalities.

    The four inequalities are (C-H1).(C-H2) >= 0, H2.(C-H1) >= 0,
    (C-H2).(H1-N1) >= 0 and (C-H2).N1 >= 0, each an affine form in (a, b);
    dropping one (by index) exposes the interval of solutions.  NOTE: the
    unique solution (16, 6) of all four is inconsistent with a second
    elliptic polarisation (see second_polarization_entries), which forces
    b = 7; the discrepancy is reported by hprime_consistency_report.
    """
    conditions = [c for i, c in enumerate(_EFFECTIVITY) if i != drop_constraint]
    solutions = _box_solutions(box, conditions)
    if drop_constraint is None:
        if len(solutions) != 1:
            raise LatticeError(f"non-unique: {solutions}")
        return solutions[0]
    return solutions


def second_polarization_entries(box: int = 100):
    """(a, b) in [-box, box]^2 for which the second polarisation closes up:
    N2 := H2 - H1 + N1 must satisfy N2.N2 = 0, H2.N2 = 5 and C.N2 = 6,
    together with the first two effectivity inequalities pinning a.

    The unique solution is (16, 7); with it the basis change below reproduces
    the rank-4 lattice of the singular fiber entry for entry.
    """
    solutions = _box_solutions(box, _EFFECTIVITY[:2] + _SECOND_POLARIZATION)
    if len(solutions) != 1:
        raise LatticeError(f"non-unique: {solutions}")
    return solutions[0]


def basis_change_gram(lat: GramLattice, columns, labels=None) -> GramLattice:
    """Gram matrix M^T G M for the basis change with the given column vectors."""
    n = lat.rank
    m = [list(col) for col in columns]
    if len(m) != n or any(len(col) != n for col in m):
        raise LatticeError("basis change must be square")
    det = det_cofactor([[m[j][i] for j in range(n)] for i in range(n)])
    if det not in (1, -1):
        raise LatticeError(f"not unimodular: determinant {det}")
    gram = tuple(
        tuple(lat.pairing(m[i], m[j]) for j in range(n)) for i in range(n)
    )
    return GramLattice(gram, labels or tuple(f"v{i}" for i in range(n)))


def hprime_from_basis_change(entries: tuple) -> GramLattice:
    """The rank-4 lattice in the basis (H1-N1, C, C-H1, C-H2), starting from
    the template with the entries (a, b) = second_polarization_entries();
    reproduces the displayed matrix."""
    columns, labels = (_H1_N1, _C, _C_H1, _C_H2), ("H'", "C", "Q1", "Q2")
    return basis_change_gram(_rank4_lattice(*entries), columns, labels)


def hprime_consistency_report(corrected: tuple, box: int = 100) -> dict:
    """Reconciles the two derivations of the rank-4 entries.

    The four literal effectivity inequalities give (16, 6), but with b = 6
    the second elliptic class N2 = H2 - H1 + N1 has square -2, no valid
    elliptic polarisation exists, and the basis change does not reproduce
    the displayed matrix; requiring N2.N2 = 0 instead gives (16, 7), which
    does.  The failing inequality is (C-H2).N1 >= 0: with b = 7 that pairing
    is -1, i.e. N1 is not nef on the boundary surface.  corrected is the
    result of second_polarization_entries(box); the literal entries are
    searched in the same box.
    """
    literal = derive_hprime_entries(box=box)
    lat6, lat7 = _rank4_lattice(*literal), _rank4_lattice(*corrected)
    target = lattice_h_prime().gram
    return {
        "literal_inequalities": literal,
        "second_polarization": corrected,
        "n2_square_literal": lat6.norm(_N2),
        "n2_square_corrected": lat7.norm(_N2),
        "basis_change_matches_literal": hprime_from_basis_change(literal).gram == target,
        "basis_change_matches_corrected": hprime_from_basis_change(corrected).gram == target,
        "n1_dot_q2_corrected": lat7.pairing(_N1, _C_H2),
        "q2_square": lat7.norm(_C_H2),
    }


def verify_primitive_embedding(source: GramLattice, target: GramLattice, columns) -> tuple:
    """columns give the images of the source basis inside the target.

    Checks M^T G' M = G and primitivity (all elementary divisors 1)."""
    cols = [tuple(int(v) for v in col) for col in columns]
    if len(cols) != source.rank or any(len(c) != target.rank for c in cols):
        raise LatticeError("embedding matrix has wrong shape")
    gram = [
        [target.pairing(cols[i], cols[j]) for j in range(source.rank)]
        for i in range(source.rank)
    ]
    if tuple(tuple(r) for r in gram) != source.gram:
        return False, {"reason": "gram mismatch", "computed": gram}
    matrix = [[cols[j][i] for j in range(source.rank)] for i in range(target.rank)]
    divisors = smith_normal_form(matrix)
    if len(divisors) != source.rank:
        return False, {"reason": "not full column rank"}
    if any(abs(d) != 1 for d in divisors):
        return False, {"reason": "not primitive", "elementary_divisors": divisors}
    return True, {"elementary_divisors": divisors}


def stated_embedding_columns():
    """The embedding of the rank-3 lattice into the rank-4 one:
    h1 -> C - Q1, h2 -> C, h3 -> C - Q1 - H'."""
    return [(0, 1, -1, 0), (0, 1, 0, 0), (-1, 1, -1, 0)]


# --- moduli bookkeeping ---------------------------------------------------------


def moduli_dimension(lattice_rank: int) -> int:
    """Dimension of the moduli of lattice-polarised K3 surfaces for a lattice
    of signature (1, rank-1): 19 - (rank - 1)."""
    if lattice_rank < 1:
        raise LatticeError("rank must be positive")
    return 19 - (lattice_rank - 1)


def brill_noether_rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def dimension_audit() -> dict:
    """All dimension identities of the moduli comparison, asserted exactly."""
    rho = brill_noether_rho(9, 1, 6)
    dim_w = 3 * 9 - 3 + rho
    dim_f_h = moduli_dimension(3)
    dim_p_h8 = dim_f_h + 9
    n_rank = next(r for r in range(1, 20) if (20 - r) + 9 == 27)
    dim_p_hprime = moduli_dimension(4) + 9
    report = {
        "rho_9_1_6": rho,
        "dim_w_1_9_6": dim_w,
        "dim_moduli_rank3": dim_f_h,
        "dim_tautological_rank3": dim_p_h8,
        "rank_of_quartic_lattice": n_rank,
        "dim_moduli_rank4": moduli_dimension(4),
        "dim_tautological_rank4": dim_p_hprime,
        "checks": {
            "17 = 19 - 2": dim_f_h == 17,
            "26 = 17 + 9": dim_p_h8 == 26,
            "rho = 1": rho == 1,
            "25 = 3g - 3 + rho": dim_w == 25,
            "26 = 25 + 1": dim_p_h8 == dim_w + 1,
            "27 = (20 - 2) + 9 forces rank 2": n_rank == 2,
            "25 = 16 + 9": dim_p_hprime == 25,
            "rank-4 moduli has dim 16": moduli_dimension(4) == 16,
        },
    }
    report["ok"] = all(report["checks"].values())
    return report
