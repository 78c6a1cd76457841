"""Plane models of genus-9 curves with a degree-6 pencil over F_p.

Two interpolation constructions are provided.

* Octic with 12 ordinary nodes: the pencil is cut by lines through a
  distinguished node q (residual degree 8 - 2 = 6).  12 random points impose
  36 independent conditions on the 45-dimensional octic space, leaving the
  expected 9-dimensional system.

* Nonic with one ordinary triple point and 16 ordinary nodes: the pencil is
  cut by lines through the triple point (residual degree 9 - 3 = 6).  The 54
  conditions leave a unique curve.

Both realise a genus-9 curve with a g^1_6; the nonic family is the larger
one (it dominates the moduli of pairs), and the pipeline uses it as the
primary model.  Every structural claim (condition ranks, ordinariness of
each singular point, adjoint dimensions) is asserted, never assumed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ffield import check_prime, kernel_mod, mul_mod, rank_mod, roots_mod_batch

GENUS = 9
PENCIL_DEGREE = 6


class DegenerateConfigurationError(RuntimeError):
    """Singularity configuration failed a rank or ordinariness check."""


class InsufficientRationalPointsError(RuntimeError):
    """Point sampling exhausted its retry budget (prime too small)."""


@lru_cache(maxsize=None)
def monomials(d: int, nvars: int = 3) -> tuple:
    """Exponent tuples of degree d in nvars variables, lexicographically
    descending: the order of every coefficient vector of a form."""
    if nvars == 1:
        return ((d,),)
    return tuple(
        (first,) + rest
        for first in range(d, -1, -1) for rest in monomials(d - first, nvars - 1)
    )


def monomial_count(d: int) -> int:
    return (d + 1) * (d + 2) // 2


@lru_cache(maxsize=None)
def exponents(d: int, nvars: int = 3) -> np.ndarray:
    """monomials(d, nvars) as a read-only (count, nvars) int64 array."""
    out = np.array(monomials(d, nvars), dtype=np.int64).reshape(-1, nvars)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def product_positions(df: int, dg: int, nvars: int) -> np.ndarray:
    """positions[i, k]: index in monomials(df + dg, nvars) of the product of
    the i-th monomial of degree df and the k-th of degree dg.

    Exponents are read as digits in radix df + dg + 1, so products add codes
    without carries, and the lexicographic order is the descending code
    order."""
    weights = (df + dg + 1) ** np.arange(nvars - 1, -1, -1)
    ascending = (exponents(df + dg, nvars) @ weights)[::-1]
    sums = (exponents(df, nvars) @ weights)[:, None] + (exponents(dg, nvars) @ weights)[None, :]
    return len(ascending) - 1 - np.searchsorted(ascending, sums)


def multiply_forms(f, df: int, g, dg: int, p: int, nvars: int = 3) -> np.ndarray:
    """Coefficients over monomials(df + dg, nvars) of the product of the
    forms f and g, given over monomials(df, nvars) and monomials(dg, nvars)."""
    f = np.asarray(f, dtype=np.int64) % p
    g = np.asarray(g, dtype=np.int64) % p
    positions = product_positions(df, dg, nvars)
    out = np.zeros(len(monomials(df + dg, nvars)), dtype=np.int64)
    np.add.at(out, positions, np.outer(f, g) % p)
    return out % p


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


def restrict_to_line(coeffs, d: int, a_pt, b_pt, p: int) -> list:
    """Binary form F(s*A + t*B) as coefficients [s^d, s^(d-1)t, ..., t^d]."""
    t_mat = np.stack([np.asarray(a_pt), np.asarray(b_pt), np.zeros(3, dtype=np.int64)], axis=1)
    moved = substitute_linear(coeffs, 3, d, t_mat, p)
    # s^(d-k) t^k is monomial number k(k+1)/2 of monomials(d)
    return [int(moved[k * (k + 1) // 2]) for k in range(d + 1)]


def power_table(values: np.ndarray, max_exp: int, p: int) -> np.ndarray:
    """table[e] = values**e mod p for 0 <= e <= max_exp."""
    n = values.shape[0]
    table = np.empty((max_exp + 1, n), dtype=np.int64)
    table[0] = 1
    for e in range(1, max_exp + 1):
        table[e] = table[e - 1] * values % p
    return table


def monomial_values(exps, values, p: int) -> np.ndarray:
    """Row i: the monomial with exponents exps[i] (an (m, nvars) array) at
    the points whose coordinates are the columns of values (nvars, n)."""
    exps = np.asarray(exps, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64) % p
    out = np.ones((len(exps), values.shape[1]), dtype=np.int64)
    for var in range(exps.shape[1]):
        top = int(exps[:, var].max(initial=0))
        if top:
            out = out * power_table(values[var], top, p)[exps[:, var]] % p
    return out


def evaluate_form(coeffs, d: int, points, p: int) -> np.ndarray:
    """Values of a degree-d form at the rows of points, an (n, nvars) array
    or a single point; a (k, count) stack of forms gives k rows of values."""
    pts = np.asarray(points, dtype=np.int64)
    pts = pts.reshape(-1, pts.shape[-1])
    return mul_mod(coeffs, monomial_values(exponents(d, pts.shape[1]), pts.T, p), p)


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


def _partial_at(coeffs, d: int, order, point, p: int) -> int:
    """(partial^order F)(point) for the degree-d ternary form F, in Python
    ints: one dot product is too small for mul_mod to pay."""
    return sum(int(r) * int(c) for r, c in zip(derivative_row(d, order, point, p), coeffs)) % p


def _multi_indices_below(order: int) -> list:
    return [o for total in range(order) for o in monomials(total)]


def condition_matrix(d: int, conditions, p: int) -> np.ndarray:
    """Vanishing conditions: multiplicity m at a point imposes all partials
    of order < m.  Rows are stacked in condition order."""
    rows = []
    for point, mult in conditions:
        for order in _multi_indices_below(mult):
            rows.append(derivative_row(d, order, point, p))
    if not rows:
        return np.zeros((0, monomial_count(d)), dtype=np.int64)
    return np.stack(rows)


@dataclass(frozen=True)
class PlaneCurveModel:
    """Plane curve with one distinguished singular point q of multiplicity
    q_mult cutting the pencil, plus ordinary nodes elsewhere."""

    prime: int
    degree: int
    coeffs: np.ndarray
    q: tuple
    q_mult: int
    nodes: tuple   # the double points other than q
    seed: int

    @property
    def pencil_degree(self) -> int:
        return self.degree - self.q_mult

    def singular_points(self):
        return ((self.q, self.q_mult),) + tuple((n, 2) for n in self.nodes)

    def genus(self) -> int:
        d = self.degree
        delta = math.comb(self.q_mult, 2) + len(self.nodes)
        return (d - 1) * (d - 2) // 2 - delta

    def banned_points(self):
        return {self.q, *self.nodes}

    def to_json(self) -> str:
        return json.dumps(
            {
                "prime": self.prime,
                "degree": self.degree,
                "coeffs": [int(c) for c in self.coeffs],
                "q": [int(v) for v in self.q],
                "q_mult": self.q_mult,
                "nodes": [[int(v) for v in n] for n in self.nodes],
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlaneCurveModel":
        data = json.loads(text)
        return cls(
            prime=data["prime"],
            degree=data["degree"],
            coeffs=np.array(data["coeffs"], dtype=np.int64),
            q=tuple(data["q"]),
            q_mult=data["q_mult"],
            nodes=tuple(tuple(v) for v in data["nodes"]),
            seed=data["seed"],
        )


def _hessian_nondegenerate(coeffs, d: int, point, p: int) -> bool:
    """Ordinary double point: the 2x2 Hessian of the z = 1 dehomogenisation
    is nondegenerate (char p exceeds the degree, so this is the
    scheme-theoretic condition)."""
    fxx = _partial_at(coeffs, d, (2, 0, 0), point, p)
    fxy = _partial_at(coeffs, d, (1, 1, 0), point, p)
    fyy = _partial_at(coeffs, d, (0, 2, 0), point, p)
    return (fxx * fyy - fxy * fxy) % p != 0


def _triple_point_ordinary(coeffs, d: int, point, p: int) -> bool:
    """Ordinary triple point: the leading cubic of the local expansion has
    distinct roots, tested by its discriminant."""
    inv6 = pow(6, -1, p)
    inv2 = pow(2, -1, p)
    c30 = _partial_at(coeffs, d, (3, 0, 0), point, p)
    c21 = _partial_at(coeffs, d, (2, 1, 0), point, p)
    c12 = _partial_at(coeffs, d, (1, 2, 0), point, p)
    c03 = _partial_at(coeffs, d, (0, 3, 0), point, p)
    a, b = c30 * inv6 % p, c21 * inv2 % p
    c, e = c12 * inv2 % p, c03 * inv6 % p
    disc = (
        18 * a * b * c * e - 4 * b ** 3 * e + b * b * c * c
        - 4 * a * c ** 3 - 27 * a * a * e * e
    ) % p
    return disc != 0


def node_conditions_matrix(nodes, p: int, d: int = 8) -> np.ndarray:
    """Three first partials of a degree-d form at each node; vanishing of the
    form itself follows from the Euler relation."""
    rows = []
    for node in nodes:
        for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            rows.append(derivative_row(d, order, node, p))
    return np.stack(rows)


def construct_nodal_octic(prime: int, seed: int, max_attempts: int = 12) -> PlaneCurveModel:
    """Random 12-nodal octic over F_prime as a PlaneCurveModel of degree 8:
    q is the first of the 12 sorted nodes (q_mult 2) and cuts the pencil,
    nodes holds the other 11.

    Raises DegenerateConfigurationError when every attempt produced nodes
    imposing dependent conditions or a non-ordinary singular point.
    """
    check_prime(prime)
    rng = random.Random(seed * 1000003 + prime)
    last_error = "no attempt run"
    for _ in range(max_attempts):
        nodes = set()
        while len(nodes) < 12:
            nodes.add((rng.randrange(prime), rng.randrange(prime), 1))
        nodes = tuple(sorted(nodes))
        cond = node_conditions_matrix(nodes, prime)
        if rank_mod(cond, prime) != 36:
            last_error = "condition matrix rank below 36"
            continue
        basis = kernel_mod(cond, prime)
        if len(basis) != 45 - 36:
            last_error = "octic solution space has unexpected dimension"
            continue
        weights = np.array([rng.randrange(1, prime) for _ in basis], dtype=np.int64)
        octic = mul_mod(weights, basis, prime)
        model = PlaneCurveModel(prime, 8, octic, nodes[0], 2, nodes[1:], seed)
        report = verify_node_report(model)
        if report["ok"]:
            return model
        last_error = "; ".join(report["failures"])
    raise DegenerateConfigurationError(f"degenerate configuration: {last_error}")


def construct_nodal_nonic(prime: int, seed: int, max_attempts: int = 12) -> PlaneCurveModel:
    """Plane nonic with one ordinary triple point and 16 ordinary nodes.

    The 6 + 48 conditions leave a unique curve; lines through the triple
    point cut the degree-6 pencil.  This is the pipeline's primary model:
    the family dominates the moduli of (curve, pencil) pairs.
    """
    check_prime(prime)
    rng = random.Random(seed * 1000003 + prime + 777)
    last_error = "no attempt run"
    for _ in range(max_attempts):
        points = set()
        while len(points) < 17:
            points.add((rng.randrange(prime), rng.randrange(prime), 1))
        points = sorted(points)
        tpt, nodes = points[0], tuple(points[1:])
        rows = [
            derivative_row(9, order, tpt, prime)
            for order in monomials(2)
        ]
        for n in nodes:
            for order in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                rows.append(derivative_row(9, order, n, prime))
        cond = np.stack(rows)
        if rank_mod(cond, prime) != 54:
            last_error = "nonic condition matrix rank below 54"
            continue
        basis = kernel_mod(cond, prime)
        if len(basis) != 1:
            last_error = "nonic solution space not 1-dimensional"
            continue
        model = PlaneCurveModel(prime, 9, basis[0] % prime, tpt, 3, nodes, seed)
        report = verify_model_report(model)
        if report["ok"]:
            return model
        last_error = "; ".join(report["failures"])
    raise DegenerateConfigurationError(f"degenerate configuration: {last_error}")


def verify_model_report(model) -> dict:
    """Re-check every model invariant; failures are listed, not raised."""
    p, d = model.prime, model.degree
    failures = []
    if np.all(model.coeffs % p == 0):
        failures.append("curve is identically zero")
    sing = model.singular_points()
    pts = [pt for pt, _m in sing]
    if len(set(pts)) != len(pts):
        failures.append("singular points are not distinct")
    for pt, mult in sing:
        for order in _multi_indices_below(mult):
            if _partial_at(model.coeffs, d, order, pt, p):
                failures.append(f"partial {order} does not vanish at {pt}")
                break
    for pt, mult in sing:
        if mult == 2 and not _hessian_nondegenerate(model.coeffs, d, pt, p):
            failures.append(f"node {pt} is not ordinary (degenerate Hessian)")
        if mult == 3 and not _triple_point_ordinary(model.coeffs, d, pt, p):
            failures.append(f"triple point {pt} is not ordinary")
    genus = model.genus()
    if genus != GENUS:
        failures.append(f"genus bookkeeping gives {genus}, expected {GENUS}")
    if model.pencil_degree != PENCIL_DEGREE:
        failures.append(f"pencil degree {model.pencil_degree} != {PENCIL_DEGREE}")
    return {
        "ok": not failures,
        "failures": failures,
        "genus": genus,
        "arithmetic_genus": (d - 1) * (d - 2) // 2,
        "degree": d,
        "node_count": len(model.nodes),
        "q_multiplicity": model.q_mult,
    }


def verify_node_report(model: PlaneCurveModel) -> dict:
    """Octic-specific report: adds the rank of the conditions that the 12
    nodes (q, then the other 11) impose and the dimension of the octic
    system."""
    report = verify_model_report(model)
    nodes = (model.q,) + model.nodes
    cond_rank = rank_mod(node_conditions_matrix(nodes, model.prime), model.prime)
    report["condition_rank"] = cond_rank
    report["octic_space_dim"] = 45 - cond_rank
    if cond_rank != 36:
        report["ok"] = False
        report["failures"] = report["failures"] + ["node conditions dependent"]
    return report


def linear_system(model, d: int, conditions) -> list:
    """Basis of degree-d forms satisfying the (point, multiplicity) conditions.

    Multiplicity m means vanishing of all partials of order < m.  The basis
    vectors are the canonical kernel basis of the condition matrix, so the
    result is deterministic.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    cond = condition_matrix(d, conditions, model.prime)
    if cond.shape[0] == 0:
        return list(np.eye(monomial_count(d), dtype=np.int64))
    return list(kernel_mod(cond, model.prime))


def sample_smooth_points(
    model,
    count: int,
    seed: int = 0,
    exclude=(),
    max_batches: int = 40,
) -> list:
    """Distinct F_p-points on the curve away from its singular points.

    Random affine lines y = m*x + c are intersected with the curve exactly:
    the curve restricted to a line is a polynomial of degree at most d in x
    (roughly one rational root per random line).  No draw depends on a
    root, so the lines of every batch that one point per line would still
    need are drawn first, the curve is restricted to them as one array, and
    one roots_mod_batch call returns each line's roots in ascending order.
    The points are appended in line order and cut at count, so they are
    those of drawing one batch at a time.  The cost grows with log p, not p.
    """
    if count == 0:
        return []
    if count < 0:
        raise ValueError("count must be nonnegative")
    p, d = model.prime, model.degree
    rng = random.Random(model.seed * 7919 + seed * 104729 + p)
    banned = model.banned_points() | set(exclude)
    found: list = []
    seen = set()
    # by_y[j, i] is the coefficient of x^i y^j on the affine chart z = 1
    by_y = np.zeros((d + 1, d + 1), dtype=np.int64)
    for coef, (i, j, _k) in zip(model.coeffs, monomials(d)):
        by_y[j, i] = int(coef) % p
    lines_per_batch = max(8, count // 2)
    batches = 0
    while batches < max_batches:
        group = min(max_batches - batches, -(-(count - len(found)) // lines_per_batch))
        lines = [(rng.randrange(p), rng.randrange(p)) for _ in range(group * lines_per_batch)]
        m, c = (np.array(v, dtype=np.int64)[:, None] for v in zip(*lines))
        # Horner in y = c + m*x, lowest power of x first; the partial sums
        # stay of degree <= d, and every product is reduced before it is added
        acc = np.repeat(by_y[d][None, :], len(lines), axis=0)
        for j in range(d - 1, -1, -1):
            times_m = m * acc % p
            acc = c * acc % p + by_y[j]
            acc[:, 1:] += times_m[:, :-1]
            acc %= p
        for (m0, c0), xs in zip(lines, roots_mod_batch(acc[:, ::-1], p)):
            for x0 in xs:
                pt = (x0, (m0 * x0 + c0) % p, 1)
                if pt in banned or pt in seen:
                    continue
                seen.add(pt)
                found.append(pt)
        batches += group
        if len(found) >= count:
            return found[:count]
    raise InsufficientRationalPointsError(
        f"insufficient rational points: found {len(found)} of {count} at p={p}"
    )
