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

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffield import rank_mod
from .plane_curve import (
    GENUS,
    GONALITY,
    evaluate_form,
    linear_system,
    monomial_values,
    monomials,
    multiply_forms,
    restrict_to_line,
)

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
def cox_slice(e: tuple, a: int, b: int) -> tuple:
    """All exponent pairs ((alpha, beta)) of bidegree (a, b), fixed order."""
    if a < 0:
        return ()
    out = []
    for alpha in monomials(a, len(e)):
        m = b + sum(ai * ei for ai, ei in zip(alpha, e))
        if m < 0:
            continue
        for b0 in range(m, -1, -1):
            out.append((alpha, (b0, m - b0)))
    return tuple(out)


def euler_scroll(e, a: int, b: int) -> int:
    """Euler characteristic of O(aH + bR) on P(E), additive over Sym^a.

    chi(P^1, O(d)) = d + 1 for every integer d, so for a >= 0 chi is the sum
    of b + alpha.e + 1 over the C(a+k-1, k-1) exponents alpha of degree a in
    k = len(e) variables.  By symmetry each variable's exponents sum to
    a C(a+k-1, k-1) / k = C(a+k-1, k), which gives the closed form below.
    For -k < a < 0 every direct image vanishes and chi = 0; lower a would
    need the top direct image and is outside this artifact's needs.
    """
    k = len(e)
    if a < 0:
        if a <= -k:
            raise ScrollError("euler_scroll is not implemented for a <= -(k-1)")
        return 0
    return math.comb(a + k - 1, k - 1) * (b + 1) + math.comb(a + k - 1, k) * sum(e)


# --- Cox monomial keys -----------------------------------------------------
#
# The term (j, (alpha, beta)) of a free module over the Cox ring, generator j
# times x^alpha t^beta, is keyed by the int64 j followed by the seven
# exponents as 6-bit digits; ring elements have j = 0.  Every exponent stays
# below KEY_RADIX = 32, so adding the key of a monomial (j = 0) never
# carries, key(j, e + m) = key(j, e) + key(0, m), and a digit that reaches
# 32 in a sum flags an exponent overflow.  Within one generator the key
# order is the lexicographic order of (alpha, beta).

KEY_RADIX = 32
_DIGIT_BITS = 6
_NVARS = 7
_J_SHIFT = _DIGIT_BITS * _NVARS
_MONO_MASK = (1 << _J_SHIFT) - 1
_CARRY_BITS = sum(KEY_RADIX << (_DIGIT_BITS * i) for i in range(_NVARS))
_SHIFTS = np.array([_DIGIT_BITS * (_NVARS - 1 - i) for i in range(_NVARS)], dtype=np.int64)


def term_keys(terms) -> np.ndarray:
    """Keys of the terms (j, (alpha, beta)), in the given order."""
    rows = [(j,) + tuple(alpha) + tuple(beta) for j, (alpha, beta) in terms]
    digits = np.array(rows, dtype=np.int64).reshape(len(rows), 1 + _NVARS)
    exps = digits[:, 1:]
    if exps.size and (exps.min() < 0 or exps.max() >= KEY_RADIX):
        raise ValueError(f"exponent outside [0, {KEY_RADIX}) cannot be keyed")
    if digits.size and (digits[:, 0].min() < 0 or digits[:, 0].max() >= 1 << (63 - _J_SHIFT)):
        raise ValueError("generator index cannot be keyed")
    return (digits[:, 0] << _J_SHIFT) + (exps << _SHIFTS).sum(axis=1)


def split_keys(keys: np.ndarray) -> tuple:
    """(generator indices, monomial keys) of the keys."""
    return keys >> _J_SHIFT, keys & _MONO_MASK


def key_exponents(keys: np.ndarray) -> np.ndarray:
    """(n, 7) exponents (alpha, beta) of the monomial part of n keys."""
    return (np.asarray(keys, dtype=np.int64)[:, None] >> _SHIFTS) & ((1 << _DIGIT_BITS) - 1)


@lru_cache(maxsize=None)
def slice_keys(e: tuple, a: int, b: int) -> np.ndarray:
    """Keys of cox_slice(e, a, b) as generator-0 terms, in slice order."""
    keys = term_keys([(0, mono) for mono in cox_slice(e, a, b)])
    keys.flags.writeable = False
    return keys


def module_keys(twists, e, a: int, b: int) -> np.ndarray:
    """Keys of the degree-(a, b) slice of the free module with generators of
    slice twists (a_j, b_j): generator by generator, each in slice order."""
    parts = [slice_keys(e, a - aj, b - bj) + (j << _J_SHIFT)
             for j, (aj, bj) in enumerate(twists)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def module_element(polys) -> "CoxPoly":
    """The free-module element sum_j polys[j] * e_j of the ring elements
    polys, with generator j of twist (0, 0)."""
    keys = [poly.keys + (j << _J_SHIFT) for j, poly in enumerate(polys)]
    return CoxPoly(polys[0].prime, np.concatenate(keys),
                   np.concatenate([poly.coefs for poly in polys]))


def add_keys(keys: np.ndarray, mono_keys: np.ndarray) -> np.ndarray:
    """Keys of terms times monomials (numpy broadcasting), overflow checked."""
    out = keys + mono_keys
    if (out & _CARRY_BITS).any():
        raise ValueError(f"exponent sum reaches {KEY_RADIX}: keys would carry")
    return out


class KeyIndex:
    """Positions of keys in a fixed basis, looked up by binary search.

    A key missing from the basis is a programming error, not a mathematical
    outcome, so it raises ValueError like the key arithmetic above."""

    def __init__(self, keys: np.ndarray):
        self.size = len(keys)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]

    def find(self, query: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self._sorted, query)
        if (at >= self.size).any() or not np.array_equal(self._sorted[at], query):
            raise ValueError("term outside the target slice")
        return self._order[at]


@lru_cache(maxsize=None)
def slice_index(e: tuple, a: int, b: int) -> KeyIndex:
    """KeyIndex of slice_keys(e, a, b)."""
    return KeyIndex(slice_keys(e, a, b))


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
        if not evaluate_form(line, 1, model.nodes, p).all():
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
    restricted = restrict_to_line(pm.coeffs, pm.degree, q, other, p)
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
            products.append(multiply_forms(quartic, q_degree, line, 1, p))
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
    sing = [pt for pt, _m in model.singular_points()]
    if np.any(evaluate_form(np.stack(products + [phi]), phi_degree, sing, p)):
        raise ScrollError("canonical representative misses a singular point")
    return CanonicalCoordinates(p, tuple(pencil), tuple(quartics), phi,
                                q_degree, phi_degree)


def scroll_type(dims) -> ScrollType:
    """Scroll type as the dual partition of dims, the d-vector
    d_j = h^0(omega L^-j) of adjoint_dims."""
    e = tuple(
        sum(1 for d in dims if d >= i) - 1 for i in range(1, GONALITY)
    )
    return ScrollType(e)  # raises "unexpected scroll type" when the sum is off


def point_values(model, coords: CanonicalCoordinates, points) -> np.ndarray:
    """(7, n) array of values Q1..Q4, Phi, l1, l2 at the sample points."""
    p = model.prime
    pts = np.asarray(points, dtype=np.int64)
    return np.concatenate([
        evaluate_form(np.stack(coords.quartics), coords.q_degree, pts, p),
        evaluate_form(coords.phi[None], coords.phi_degree, pts, p),
        evaluate_form(np.stack(coords.lines), 1, pts, p),
    ])


def monomial_value_matrix(values: np.ndarray, keys: np.ndarray, p: int) -> np.ndarray:
    """Rows: the Cox monomials of the keys evaluated at the points behind
    values (the (7, n) array from point_values)."""
    return monomial_values(key_exponents(keys), values, p)


class CoxPoly:
    """Sparse element of a free module over the Cox ring, over F_p.

    keys holds the sorted, unique term keys (term_keys; a ring element has
    generator index 0) and coefs their coefficients, all in [1, p)."""

    __slots__ = ("prime", "keys", "coefs")

    def __init__(self, prime: int, keys=(), coefs=()):
        """Coefficients are reduced mod p, then terms with equal keys summed
        and zero coefficients dropped; keys that are already sorted and
        unique skip the summation."""
        keys = np.asarray(keys, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=np.int64) % prime
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, coefs = keys[order], coefs[order]
            starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
            keys, coefs = keys[starts], np.add.reduceat(coefs, starts) % prime
        nonzero = coefs != 0
        self.prime, self.keys, self.coefs = prime, keys[nonzero], coefs[nonzero]

    def is_zero(self) -> bool:
        return not len(self.keys)

    def add(self, other: "CoxPoly") -> "CoxPoly":
        return CoxPoly(self.prime, np.concatenate([self.keys, other.keys]),
                       np.concatenate([self.coefs, other.coefs]))

    def scale(self, c: int) -> "CoxPoly":
        return CoxPoly(self.prime, self.keys, self.coefs * (c % self.prime))

    def sub(self, other: "CoxPoly") -> "CoxPoly":
        return self.add(other.scale(self.prime - 1))

    def mul(self, other: "CoxPoly") -> "CoxPoly":
        """Product with a ring element: every key sum through add_keys, each
        coefficient product (below p^2 < 2^62) reduced mod p by the
        constructor before equal keys are summed.  A one-term factor is a key
        shift, which keeps the keys sorted."""
        keys = add_keys(self.keys[:, None], other.keys[None, :])
        coefs = self.coefs[:, None] * other.coefs[None, :]
        return CoxPoly(self.prime, keys.ravel(), coefs.ravel())

    def image(self, gens) -> "CoxPoly":
        """Image of this free-module element under the map sending
        generator j to gens[j]: the term c * m * e_j contributes c * m * gens[j]."""
        j, monos = split_keys(self.keys)
        lens = np.array([len(g.keys) for g in gens], dtype=np.int64)
        counts = lens[j]
        # term t reads the terms of gens[j_t], which start at starts[j_t]
        starts = np.cumsum(lens) - lens
        at = np.arange(counts.sum()) + np.repeat(starts[j] - (np.cumsum(counts) - counts), counts)
        keys = add_keys(np.concatenate([g.keys for g in gens])[at], np.repeat(monos, counts))
        coefs = np.concatenate([g.coefs for g in gens])[at] * np.repeat(self.coefs, counts)
        return CoxPoly(self.prime, keys, coefs)

    def vector(self, e, a: int, b: int) -> np.ndarray:
        """Coefficients over cox_slice(e, a, b); ValueError for a term
        outside that slice."""
        index = slice_index(tuple(e), a, b)
        out = np.zeros(index.size, dtype=np.int64)
        out[index.find(self.keys)] = self.coefs
        return out

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Values at the points behind values (the (7, n) array from
        point_values)."""
        p = self.prime
        terms = monomial_value_matrix(values, self.keys, p) * self.coefs[:, None] % p
        return terms.sum(axis=0) % p
