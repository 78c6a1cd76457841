"""The scroll P(E) attached to the degree-6 pencil, and its Cox ring.

Grading convention used throughout the package: the Cox ring has base
variables t0, t1 of bidegree (0, 1) and fiber variables x1..x5 of bidegree
(1, -e_i), so a monomial x^alpha t^beta has bidegree

    (a, b) = (|alpha|, |beta| - alpha.e)

and the slice (a, b) is the space of sections of O(aH + bR).  A free summand
written O(-aH + bR) in resolution tables therefore corresponds to elements of
slice (a, -b).

Restriction to the curve identifies x1..x4 with the quartics through the 11
non-pencil nodes, x5 with a quintic adjoint Phi completing the canonical
system, and t0, t1 with the two lines through the pencil node q.  All
restrictions are evaluated through these plane representatives at smooth
sample points; every monomial of a fixed slice has plane degree 5a + b, so
the projective scaling of a sample point rescales a whole column uniformly
and kernels of evaluation matrices are well defined.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffield import rank_mod
from .plane_curve import (
    evaluate_form,
    linear_system,
    monomial_count,
    monomials,
    power_table,
)

GENUS = 9
GONALITY = 6
SCROLL_DEGREE = GENUS - GONALITY + 1  # 4
GENERIC_E = (1, 1, 1, 1, 0)


class ScrollError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScrollType:
    """Splitting degrees of the bundle E defining the scroll."""

    e: tuple

    def __post_init__(self):
        if len(self.e) != GONALITY - 1:
            raise ScrollError(f"scroll type must have {GONALITY - 1} entries")
        if any(v < 0 for v in self.e):
            raise ScrollError("splitting degrees must be nonnegative")
        if sum(self.e) != SCROLL_DEGREE:
            raise ScrollError(
                f"unexpected scroll type: sum {sum(self.e)} != {SCROLL_DEGREE}"
            )


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple:
    """Weak compositions of total into parts, lexicographically descending."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def cox_slice(e: tuple, a: int, b: int) -> tuple:
    """All exponent pairs ((alpha, beta)) of bidegree (a, b), fixed order."""
    if a < 0:
        return ()
    out = []
    for alpha in _compositions(a, len(e)):
        m = b + sum(ai * ei for ai, ei in zip(alpha, e))
        if m < 0:
            continue
        for b0 in range(m, -1, -1):
            out.append((alpha, (b0, m - b0)))
    return tuple(out)


def euler_scroll(e, a: int, b: int) -> int:
    """Euler characteristic of O(aH + bR) on P(E), additive over Sym^a.

    chi(P^1, O(d)) = d + 1 for every integer d, so the sum below is the true
    Euler characteristic whenever a >= 0.  For -len(e) < a < 0 every direct
    image vanishes and chi = 0; lower a would need the top direct image and
    is outside this artifact's needs.
    """
    e = tuple(e)
    if a < 0:
        if a <= -len(e):
            raise ScrollError("euler_scroll is not implemented for a <= -(k-1)")
        return 0
    return sum(
        b + sum(ai * ei for ai, ei in zip(alpha, e)) + 1
        for alpha in _compositions(a, len(e))
    )


@dataclass(frozen=True)
class CanonicalCoordinates:
    """Plane representatives of the canonical coordinates adapted to the scroll.

    lines: l1, l2 through q (sections of R); quartics: the four adjoint forms
    of degree plane_degree - 4 representing sections of H - R (literal plane
    quartics only for the octic model); phi: the adjoint of degree
    plane_degree - 3 completing the canonical system.  The P^8 coordinate
    order is Q1*l1, Q1*l2, ..., Q4*l2, Phi.
    """

    prime: int
    lines: tuple
    quartics: tuple
    phi: np.ndarray
    q_degree: int
    phi_degree: int

    @property
    def basis_order(self):
        labels = [f"Q{i + 1}*l{j + 1}" for i in range(4) for j in range(2)]
        return tuple(labels + ["Phi"])


def residual_conditions(pm):
    """Vanishing conditions of the adjoint system representing H - R."""
    out = [(n, 1) for n in pm.nodes]
    if pm.q_mult > 2:
        out.append((pm.q, pm.q_mult - 2))
    return out


def canonical_conditions(pm):
    """Vanishing conditions of the adjoint system representing H (omega)."""
    return [(n, 1) for n in pm.nodes] + [(pm.q, pm.q_mult - 1)]


def adjoint_dims(model):
    """(d0, d1, d2) = h^0(omega L^-j) for j = 0, 1, 2 via adjoint systems.

    A section of omega L^-2 is a section of omega L^-1 vanishing on a full
    pencil divisor, hence divisible by the corresponding line; the cofactor
    is an adjoint of one degree lower with no condition at q."""
    d = model.degree
    d0 = len(linear_system(model, d - 3, canonical_conditions(model)))
    d1 = len(linear_system(model, d - 4, residual_conditions(model)))
    d2 = len(linear_system(model, d - 5, [(n, 1) for n in model.nodes]))
    return (d0, d1, d2)


def _restrict_to_line(coeffs, d: int, a_pt, b_pt, p: int) -> list:
    """Binary form F(s*A + t*B) as coefficients [s^d, s^(d-1)t, ..., t^d]."""
    ax, ay, az = (int(v) % p for v in a_pt)
    bx, by, bz = (int(v) % p for v in b_pt)
    lin = {0: [ax, bx], 1: [ay, by], 2: [az, bz]}

    def binpow(linear, n):
        out = [1]
        for _ in range(n):
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] = (nxt[i] + c * linear[0]) % p
                nxt[i + 1] = (nxt[i + 1] + c * linear[1]) % p
            out = nxt
        return out

    total = [0] * (d + 1)
    for c, (i, j, k) in zip(coeffs, monomials(d)):
        if not c:
            continue
        term = [1]
        for exp, var in ((i, 0), (j, 1), (k, 2)):
            if exp:
                factor = binpow(lin[var], exp)
                nxt = [0] * (len(term) + len(factor) - 1)
                for u, cu in enumerate(term):
                    if cu:
                        for v, cv in enumerate(factor):
                            nxt[u + v] = (nxt[u + v] + cu * cv) % p
                term = nxt
        for idx, cv in enumerate(term):
            total[idx] = (total[idx] + int(c) * cv) % p
    return total


def pencil_from_node(model, max_tries: int = 64):
    """Two lines l1, l2 through q spanning the pencil, chosen so that neither
    passes through another singular point and each meets the curve at q with
    multiplicity exactly q_mult, leaving a residual degree-6 divisor."""
    p = model.prime
    base = linear_system(model, 1, [(model.q, 1)])
    if len(base) != 2:
        raise ScrollError("line pencil through q is not 2-dimensional")
    rng = random.Random(model.seed * 31337 + 5)
    chosen = []
    for _ in range(max_tries):
        c0, c1 = rng.randrange(p), rng.randrange(1, p)
        line = (c0 * base[0] + c1 * base[1]) % p
        if any(
            evaluate_form(line, 1, np.array([n]), p)[0] == 0
            for n in model.nodes
        ):
            continue
        if not _line_residual_degree_six(model, line):
            continue
        chosen.append(line)
        if len(chosen) == 2:
            if rank_mod(np.stack(chosen), p) == 2:
                return tuple(chosen)
            chosen.pop()
    raise ScrollError("could not find a generic basis of the pencil")


def _line_residual_degree_six(pm, line) -> bool:
    p = pm.prime
    q = pm.q
    # second point on the line: solve line(x, y, 1) = 0 at the free
    # coordinate t = 0, or t = 1 when that point is q
    a, b, c = (int(v) for v in line)

    def on_line(t: int) -> tuple:
        if b:
            return (t, (-(a * t + c)) * pow(b, -1, p) % p, 1)
        return ((-c) * pow(a, -1, p) % p, t, 1)

    other = on_line(0)
    if other == q:
        other = on_line(1)
    restricted = _restrict_to_line(pm.coeffs, pm.degree, q, other, p)
    # coefficients are indexed by t-degree and (s:t) = (1:0) is q, so q must
    # be a root of multiplicity exactly q_mult
    return (
        all(restricted[k] == 0 for k in range(pm.q_mult))
        and restricted[pm.q_mult] != 0
    )


def canonical_coordinates(model, pencil) -> CanonicalCoordinates:
    """Assemble Q1..Q4, Phi and verify the 8 products plus Phi span the
    canonical system."""
    p = model.prime
    q_degree = model.degree - 4
    phi_degree = model.degree - 3
    quartics = linear_system(model, q_degree, residual_conditions(model))
    if len(quartics) != 4:
        raise ScrollError("the adjoint system for H - R is not 4-dimensional")
    adjoints = linear_system(model, phi_degree, canonical_conditions(model))
    if len(adjoints) != 9:
        raise ScrollError("canonical system is not 9-dimensional")
    products = []
    for quartic in quartics:
        for line in pencil:
            products.append(_plane_product(quartic, q_degree, line, 1, p))
    prod = np.stack(products)
    if rank_mod(prod, p) != 8:
        raise ScrollError("multiplication map degenerate: product span below 8")
    # deterministic Phi: first adjoint basis vector outside the product span
    for candidate in adjoints:
        stacked = np.concatenate([prod, candidate.reshape(1, -1)])
        if rank_mod(stacked, p) == 9:
            phi = candidate
            break
    else:
        raise ScrollError("no adjoint completes the product span")
    sing = np.array([pt for pt, _m in model.singular_points()])
    for vec in products + [phi]:
        if np.any(evaluate_form(vec, phi_degree, sing, p)):
            raise ScrollError("canonical representative misses a singular point")
    return CanonicalCoordinates(p, tuple(pencil), tuple(quartics), phi,
                                q_degree, phi_degree)


def _plane_product(f, df: int, g, dg: int, p: int) -> np.ndarray:
    """Coefficient vector of the product of two plane forms."""
    index = {m: i for i, m in enumerate(monomials(df + dg))}
    out = np.zeros(monomial_count(df + dg), dtype=np.int64)
    for cf, mf in zip(f, monomials(df)):
        if not cf:
            continue
        for cg, mg in zip(g, monomials(dg)):
            if not cg:
                continue
            tgt = tuple(u + v for u, v in zip(mf, mg))
            out[index[tgt]] = (out[index[tgt]] + int(cf) * int(cg)) % p
    return out


def scroll_type(model, pencil) -> ScrollType:
    """Scroll type as the dual partition of d_j = h^0(omega L^-j)."""
    dvec = list(adjoint_dims(model))
    e = tuple(
        sum(1 for d in dvec if d >= i) - 1 for i in range(1, GONALITY)
    )
    st = ScrollType(e)  # raises "unexpected scroll type" when the sum is off
    return st


def point_values(model, coords: CanonicalCoordinates, points) -> np.ndarray:
    """(7, n) array of values Q1..Q4, Phi, l1, l2 at the sample points."""
    p = model.prime
    pts = np.asarray(points, dtype=np.int64)
    rows = [evaluate_form(q, coords.q_degree, pts, p) for q in coords.quartics]
    rows.append(evaluate_form(coords.phi, coords.phi_degree, pts, p))
    rows.extend(evaluate_form(l, 1, pts, p) for l in coords.lines)
    return np.stack(rows)


def monomial_value_matrix(values: np.ndarray, slice_monos, p: int) -> np.ndarray:
    """Rows: Cox monomials of one slice evaluated at the points behind values."""
    n = values.shape[1]
    if not slice_monos:
        return np.zeros((0, n), dtype=np.int64)
    max_exp = max(max(alpha) for alpha, _ in slice_monos)
    max_exp = max(
        max_exp, max(max(beta) for _, beta in slice_monos)
    )
    tables = [power_table(values[i], max_exp, p) for i in range(7)]
    out = np.empty((len(slice_monos), n), dtype=np.int64)
    for r, (alpha, beta) in enumerate(slice_monos):
        acc = np.ones(n, dtype=np.int64)
        for var, exp in enumerate(alpha):
            if exp:
                acc = acc * tables[var][exp] % p
        for var, exp in enumerate(beta):
            if exp:
                acc = acc * tables[5 + var][exp] % p
        out[r] = acc
    return out


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


class CoxPoly:
    """Sparse bigraded polynomial in x1..x5, t0, t1 over F_p."""

    __slots__ = ("prime", "terms")

    def __init__(self, prime: int, terms=None):
        self.prime = prime
        self.terms = {}
        if terms:
            for key, c in terms.items():
                c %= prime
                if c:
                    self.terms[key] = c

    @classmethod
    def monomial(cls, alpha, beta, p: int, coeff: int = 1) -> "CoxPoly":
        return cls(p, {(tuple(alpha), tuple(beta)): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def copy(self) -> "CoxPoly":
        return CoxPoly(self.prime, dict(self.terms))

    def add(self, other: "CoxPoly") -> "CoxPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = (out.get(key, 0) + c) % self.prime
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return CoxPoly(self.prime, out)

    def scale(self, c: int) -> "CoxPoly":
        c %= self.prime
        return CoxPoly(self.prime, {k: v * c % self.prime for k, v in self.terms.items()})

    def sub(self, other: "CoxPoly") -> "CoxPoly":
        return self.add(other.scale(self.prime - 1))

    def mul(self, other: "CoxPoly") -> "CoxPoly":
        out = {}
        p = self.prime
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(u + v for u, v in zip(a1, a2)),
                    tuple(u + v for u, v in zip(b1, b2)),
                )
                out[key] = (out.get(key, 0) + c1 * c2) % p
        return CoxPoly(p, out)

    def bidegrees(self, e=GENERIC_E):
        degs = set()
        for alpha, beta in self.terms:
            a = sum(alpha)
            degs.add((a, sum(beta) - sum(ai * ei for ai, ei in zip(alpha, e))))
        return degs

    def vector(self, slice_monos) -> np.ndarray:
        index = {m: i for i, m in enumerate(slice_monos)}
        out = np.zeros(len(slice_monos), dtype=np.int64)
        for key, c in self.terms.items():
            if key not in index:
                raise ScrollError("polynomial has terms outside the requested slice")
            out[index[key]] = c
        return out

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """values is the (7, n) array from point_values."""
        p = self.prime
        n = values.shape[1]
        acc = np.zeros(n, dtype=np.int64)
        for (alpha, beta), c in self.terms.items():
            term = np.full(n, c, dtype=np.int64)
            for var, exp in enumerate(alpha):
                for _ in range(exp):
                    term = term * values[var] % p
            for var, exp in enumerate(beta):
                for _ in range(exp):
                    term = term * values[5 + var] % p
            acc = (acc + term) % p
        return acc
