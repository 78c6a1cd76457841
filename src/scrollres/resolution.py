"""Relative canonical resolution of the curve inside P(E) by slice linear algebra.

The resolution is computed degree by degree: the ideal slice in each bidegree
is the left kernel of a monomial-evaluation matrix at sample points, syzygy
slices are kernels of purely monomial multiplication maps, and minimal
generators are extracted as reduced-echelon representatives of each slice
modulo multiples of lower slices.  The structural facts about the resolution
(generators in H-degree i+1, self-duality, rank and slope formulas) bound the
probe window and are re-verified on the computed table rather than assumed.

Betti tables store twists in the resolution convention: entry (i, a, b)
counts summands O(-aH + bR) in homological index i, which live in the
section-bidegree slice (a, -b) of the Cox ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ffield import kernel_mod, mul_mod, rank_mod, row_space_mod, rref_mod
from .plane_curve import sample_smooth_points
from .scroll import (
    GENUS,
    GONALITY,
    CanonicalCoordinates,
    CoxPoly,
    KeyIndex,
    add_keys,
    adjoint_dims,
    euler_scroll,
    module_keys,
    monomial_value_matrix,
    point_values,
    scroll_type,
    slice_keys,
)


class ResolutionError(RuntimeError):
    pass


class SliceRankError(ResolutionError):
    """An ideal slice's evaluation matrix at the sample points has a nonzero
    kernel but not rank h^0, even after the one enlargement: the kernel is
    not certified to be the ideal slice."""


class WindowExhaustedError(ResolutionError):
    """New generators appeared at the boundary of the probe window."""


def schreyer_rank(k: int, i: int) -> int:
    """Rank of the i-th syzygy bundle, valid for 1 <= i <= k-3.

    The closed formula degenerates at i = k-2 although the resolution ends
    in a rank-1 module there; that boundary rank is pinned by self-duality
    instead, so requesting it here is an error.
    """
    if i < 1 or i > k - 3:
        raise ValueError(f"syzygy rank formula out of range: i={i}, k={k}")
    value = Fraction(k, i + 1) * (k - 2 - i) * math.comb(k - 2, i - 1)
    assert value.denominator == 1
    return int(value)


def syzygy_slope(g: int, k: int, i: int) -> Fraction:
    """Slope of the i-th syzygy bundle."""
    if k < 3:
        raise ValueError("gonality must be at least 3")
    return Fraction((g - k - 1) * (i + 1), k)


def is_balanced(twist_multiset: dict) -> bool:
    """A bundle on the line is balanced when its twists spread by at most 1."""
    twists = [t for t, m in twist_multiset.items() if m > 0]
    if not twists:
        return True
    return max(twists) - min(twists) <= 1


@dataclass(frozen=True)
class BigradedBettiTable:
    """Multiset of resolution twists: entries[(i, a, b)] = multiplicity of
    O(-aH + bR) in homological index i."""

    g: int
    k: int
    entries: dict = field(default_factory=dict)

    def rank(self, i: int) -> int:
        return sum(m for (j, _, _), m in self.entries.items() if j == i)

    def twist_multiset(self, i: int) -> dict:
        out: dict = {}
        for (j, _, b), m in self.entries.items():
            if j == i:
                out[b] = out.get(b, 0) + m
        return out

    def degree(self, i: int) -> int:
        return sum(b * m for (j, _, b), m in self.entries.items() if j == i)

    def dual(self) -> "BigradedBettiTable":
        """Image of the table under the resolution's self-duality
        (i, (a, b)) -> (k-2-i, (k-a, (g-k-1)-b)."""
        top = self.k - 2
        out = {}
        for (i, a, b), m in self.entries.items():
            key = (top - i, self.k - a, (self.g - self.k - 1) - b)
            out[key] = out.get(key, 0) + m
        return BigradedBettiTable(self.g, self.k, out)

    def is_self_dual(self) -> bool:
        """Self-duality of the augmented complex: the table stores indices
        >= 1, so the rank-1 untwisted index-0 term (the structure sheaf) is
        added before comparing; duality swaps it with the last module."""
        aug = dict(self.entries)
        aug[(0, 0, 0)] = aug.get((0, 0, 0), 0) + 1
        augmented = BigradedBettiTable(self.g, self.k, aug)
        return augmented.dual().entries == augmented.entries

    def to_json_entries(self) -> list:
        return [
            {"i": i, "a": a, "b": b, "multiplicity": m}
            for (i, a, b), m in sorted(self.entries.items())
        ]


def splitting_type(table: BigradedBettiTable, i: int) -> dict:
    """Multiset of line-bundle twists of the i-th syzygy bundle."""
    ms = table.twist_multiset(i)
    if not ms:
        raise ValueError(f"homological index {i} not present in table")
    return ms


#: the table every general genus-9, degree-6 pair is expected to produce
GENERIC_BETTI_TABLE = {
    (1, 2, 1): 6,
    (1, 2, 0): 3,
    (2, 3, 2): 2,
    (2, 3, 1): 12,
    (2, 3, 0): 2,
    (3, 4, 2): 3,
    (3, 4, 1): 6,
    (4, 6, 2): 1,
}


#: sample points beyond h^0 behind every ideal-slice kernel
SLICE_MARGIN = 10
#: points added to batch 0 by the one enlargement after a rank other than h^0
SLICE_ENLARGEMENT = 10
#: b-degrees of the H-degree-2 slices probed for ideal generators
GENERATOR_WINDOW = (-2, -1, 0, 1, 2)
#: b-degrees of the H-degree-3 slices where the generated ideal is checked
#: against the ideal slice
IDEAL_CHECK_TWISTS = (-2, -1, 0)


def slice_point_demand() -> int:
    """Most points an ideal-slice kernel draws from sample batch 0,
    enlargement included.

    The resolution takes the ideal slices (1, b) for |b| <= 1, whose h^0 is
    at most the genus, (2, b) for b in GENERATOR_WINDOW and (3, b) for b in
    IDEAL_CHECK_TWISTS; the last two kinds are non-special, with
    h^0 = 16a + 6b - 8 (SliceContext.curve_h0).
    """
    slices = [(2, b) for b in GENERATOR_WINDOW] + [(3, b) for b in IDEAL_CHECK_TWISTS]
    h0 = max([GENUS] + [16 * a + 6 * b - 8 for a, b in slices])
    return h0 + SLICE_MARGIN + SLICE_ENLARGEMENT


class SliceContext:
    """Caches sample points, their canonical values, and ideal slices.

    Every ideal-slice kernel comes from batch 0 alone and is certified by
    the rank of its evaluation matrix (see ideal_slice); batch 1, disjoint
    from it, holds points that other stages use to check their results.
    The d-vector of adjoint dimensions is computed once, here: it gives the
    curve's h^1 values and the scroll type e.
    """

    def __init__(self, model, coords: CanonicalCoordinates, margin: int = SLICE_MARGIN):
        self.model = model
        self.coords = coords
        self.prime = self.model.prime
        self.margin = margin
        self._points = {0: [], 1: []}
        self._values = {0: None, 1: None}
        self._slices: dict = {}
        dims = adjoint_dims(self.model)
        self._h1 = dict(enumerate(dims))  # h^0(omega L^-j) for j = 0, 1, 2
        self.e = scroll_type(dims).e

    # --- samples ---------------------------------------------------------

    def points(self, batch: int, n: int) -> list:
        have = self._points[batch]
        if len(have) < n:
            exclude = set(self._points[0]) | set(self._points[1])
            fresh = sample_smooth_points(
                self.model, n - len(have), seed=900 + batch * 37 + len(have),
                exclude=exclude,
            )
            have.extend(fresh)
            self._values[batch] = None
        return have[:n]

    def values(self, batch: int, n: int) -> np.ndarray:
        self.points(batch, n)
        if self._values[batch] is None or self._values[batch].shape[1] < n:
            self._values[batch] = point_values(
                self.model, self.coords, np.array(self._points[batch])
            )
        return self._values[batch][:, :n]

    # --- curve cohomology ------------------------------------------------

    def curve_h0(self, a: int, b: int) -> int:
        """h^0 of omega^a L^b for the bidegrees this pipeline touches."""
        deg = 16 * a + 6 * b
        if a == 0:
            if b < 0:
                return 0
            if b == 0:
                return 1
            if b == 1:
                return 2
            return deg - 8  # needs h^1(L^b) = 0, certified by the d-vector
        if a == 1:
            if b <= -3:
                return 0
            if b in (-2, -1, 0):
                return self._h1[-b]
            return deg - 8
        if a >= 2:
            if deg < 0:
                return 0
            if deg <= 2 * GENUS - 2:
                raise ResolutionError(f"special bidegree ({a},{b}) not supported")
            return deg - 8
        raise ResolutionError("negative H-degree has no sections")

    # --- ideal slices ------------------------------------------------------

    def ideal_slice(self, a: int, b: int) -> np.ndarray:
        """Canonical basis (rows) of the ideal slice in section bidegree (a, b).

        The slice is the kernel of the evaluation of the slice monomials at
        h^0 + margin points of batch 0, h^0 = curve_h0(a, b).  That kernel
        always contains the ideal slice, so it is the slice when it is zero;
        otherwise it is accepted when the evaluation rank equals h^0, which
        makes the two dimensions equal.  Every slice the resolution takes
        has a zero kernel ((1, b) and (2, -2)) or degree 16a + 6b above
        2g - 2 = 16, where h^0 = 16a + 6b - 8 exactly by Riemann-Roch.  A
        rank other than h^0 is retried once with SLICE_ENLARGEMENT more
        points, then raises SliceRankError.
        """
        key = (a, b)
        if key in self._slices:
            return self._slices[key]
        monos = slice_keys(self.e, a, b)
        if not len(monos):
            out = np.zeros((0, 0), dtype=np.int64)
            self._slices[key] = out
            return out
        h0 = self.curve_h0(a, b)
        for attempt in range(2):
            m = h0 + self.margin + SLICE_ENLARGEMENT * attempt
            kernel = kernel_mod(
                monomial_value_matrix(self.values(0, m), monos, self.prime).T,
                self.prime,
            )
            rank = len(monos) - len(kernel)
            if not len(kernel) or rank == h0:
                basis = row_space_mod(kernel, self.prime) if kernel.size else kernel
                self._slices[key] = basis
                return basis
        raise SliceRankError(f"slice ({a},{b}): evaluation rank {rank} != h^0 = {h0}")


# --- free-module machinery -------------------------------------------------
#
# An element of the free module F over generators with slice twists
# twists[j] = (a_j, b_j), homogeneous of bidegree (a, b), is a CoxPoly whose
# keys carry the generator index j and a monomial of cox_slice(a - a_j,
# b - b_j); its coordinates are taken over module_keys(twists, e, a, b).
# Level-0 elements (ring elements) use the single generator 0 of twist (0, 0).


def free_map_matrix(step: "ResolutionStep", e, a: int, b: int, p: int) -> np.ndarray:
    """Matrix of F_step -> F_(step-1) on the (a, b) slices: one row per key
    of module_keys(step.twists, ...), generator j times monomial m holding
    gens[j] * m over module_keys(step.cod_twists, ...)."""
    index = KeyIndex(module_keys(step.cod_twists, e, a, b))
    mults = [slice_keys(e, a - aj, b - bj) for aj, bj in step.twists]
    mat = np.zeros((sum(len(m) for m in mults), index.size), dtype=np.int64)
    row = 0
    for gen, mono_keys in zip(step.gens, mults):
        n = len(mono_keys)
        if n:
            cols = index.find(add_keys(gen.keys[None, :], mono_keys[:, None]))
            mat[np.arange(row, row + n)[:, None], cols] = gen.coefs
        row += n
    return mat


@dataclass
class SyzygyBlock:
    """Syzygies of one homological step in one slice bidegree."""

    index: int                 # homological index of the NEW generators
    slice_bidegree: tuple      # (a, b) section bidegree of the slice
    columns: np.ndarray        # module keys of the columns over the previous step
    kernel: np.ndarray         # all syzygies in this slice (rows)
    new_generators: np.ndarray # representatives minimal over lower slices

    @property
    def twist(self):
        a, b = self.slice_bidegree
        return (a, -b)  # O(-aH + bR) convention


@dataclass
class ResolutionStep:
    """Generators of F_index written over the previous level."""

    index: int
    twists: list          # slice bidegrees (a, b) of the generators
    gens: list            # CoxPoly module elements over cod_twists
    kernels: dict         # (a, b) -> SyzygyBlock computed while minimalising
    cod_twists: list = field(default_factory=lambda: [(0, 0)])


def _new_representatives(kernel: np.ndarray, multiples: np.ndarray, p: int) -> np.ndarray:
    """Rows of kernel's span extending the row space of multiples.

    The kernel rows are reduced against base, the RREF of multiples, by one
    product: K - K[:, pivots] @ base is zero at every base pivot, and it
    spans a complement of the multiples' span in the span of both.  The
    RREF of its nonzero rows, without zero rows, is that complement's
    canonical basis.
    """
    if kernel.size == 0:
        return kernel.reshape(0, kernel.shape[1] if kernel.ndim == 2 else 0)
    if multiples.size:
        base, pivots = rref_mod(multiples, p)
        kernel = kernel - mul_mod(kernel[:, pivots], base[: len(pivots)], p)
    reduced, pivots = rref_mod(kernel[kernel.any(axis=1)], p)
    return reduced[: len(pivots)]


def _multiples_span(kernels: dict, twists, e, a: int, b: int, p: int) -> np.ndarray:
    """Span of all lower-slice syzygies times monomials, inside slice (a, b).

    Each syzygy of a lower slice is one generator of free_map_matrix, a
    vector over module_keys(twists, ...) of its own slice; the rows come
    vector by vector, and within a vector monomial by monomial in cox_slice
    order.
    """
    lower = [((a2, b2), CoxPoly(p, block.columns, vec))
             for (a2, b2), block in kernels.items() if a2 < a or (a2 == a and b2 < b)
             for vec in block.kernel]
    step = ResolutionStep(0, [twist for twist, _ in lower], [gen for _, gen in lower], {},
                          cod_twists=twists)
    return free_map_matrix(step, e, a, b, p)


def ideal_generator_step(ctx: SliceContext, window=GENERATOR_WINDOW) -> ResolutionStep:
    """Minimal generators of the curve ideal; all live in H-degree 2.

    H-degree 1 slices are verified empty, and the windows beyond the last
    twist are verified to contribute no new generators.
    """
    e, p = ctx.e, ctx.prime
    for b in (-1, 0, 1):
        if ctx.ideal_slice(1, b).shape[0] != 0:
            raise ResolutionError("canonical embedding is degenerate: linear forms vanish on C")
    twists: list = []
    gens: list = []
    kernels: dict = {}
    boundary_new = 0
    for b in sorted(window):
        columns = slice_keys(e, 2, b)
        if not len(columns):
            continue
        slice_basis = ctx.ideal_slice(2, b)
        multiples = _multiples_span(kernels, [(0, 0)], e, 2, b, p)
        if multiples.size:
            # lower-twist multiples must stay inside the slice
            slice_rank = slice_basis.shape[0]  # an RREF without zero rows
            if rank_mod(np.concatenate([slice_basis, multiples]), p) != slice_rank:
                raise ResolutionError("generator multiples escape the ideal slice")
        new = _new_representatives(slice_basis, multiples, p)
        kernels[(2, b)] = SyzygyBlock(1, (2, b), columns, slice_basis, new)
        for row in new:
            twists.append((2, b))
            gens.append(CoxPoly(p, columns, row))
        if b == max(window) and new.shape[0]:
            boundary_new = new.shape[0]
    if boundary_new:
        raise WindowExhaustedError("window exhausted: generators at the boundary twist")
    return ResolutionStep(1, twists, gens, kernels)


def next_syzygies(ctx: SliceContext, prev: ResolutionStep, a: int,
                  window, verify_against_ideal=()) -> ResolutionStep:
    """Kernel of F_prev -> F_(prev-1) in H-degree a, minimalised over the window.

    verify_against_ideal lists slice b-degrees where the image of the map
    must equal the independently computed ideal slice (certifying that no
    generators were missed in this H-degree).
    """
    e, p = ctx.e, ctx.prime
    prev_twists = prev.twists
    kernels: dict = {}
    twists: list = []
    gens: list = []
    boundary = max(window)
    boundary_new = 0
    for b in sorted(window):
        columns = module_keys(prev_twists, e, a, b)
        if not len(columns):
            continue
        mat = free_map_matrix(prev, e, a, b, p)
        kernel = kernel_mod(mat.T, p)
        if prev.index == 1 and b in verify_against_ideal:
            image_rank = len(columns) - len(kernel)  # rank-nullity on mat.T
            expected = ctx.ideal_slice(a, b).shape[0]
            if image_rank != expected:
                raise ResolutionError(
                    f"generated ideal misses slice ({a},{b}): {image_rank} != {expected}"
                )
        multiples = _multiples_span(kernels, prev_twists, e, a, b, p)
        new = _new_representatives(kernel, multiples, p)
        block = SyzygyBlock(prev.index + 1, (a, b), columns, kernel, new)
        kernels[(a, b)] = block
        for row in new:
            twists.append((a, b))
            gens.append(CoxPoly(p, columns, row))
        if b == boundary and new.shape[0]:
            boundary_new = new.shape[0]
    if boundary_new:
        raise WindowExhaustedError(
            f"window exhausted: new syzygies at boundary twist ({a},{boundary})"
        )
    return ResolutionStep(prev.index + 1, twists, gens, kernels, cod_twists=prev_twists)


def _verify_composition(steps: list, p: int):
    """d_{i} o d_{i+1} = 0, asserted exactly on every chosen generator."""
    for idx in range(1, len(steps)):
        for gen in steps[idx].gens:
            if not gen.image(steps[idx - 1].gens).is_zero():
                raise ResolutionError(
                    f"differential composition nonzero at step {steps[idx].index}"
                )


def _hilbert_check(ctx: SliceContext, table: BigradedBettiTable):
    """Alternating Euler-characteristic identity on five section bidegrees."""
    e = ctx.e
    for (a, b) in ((2, 0), (2, 1), (3, -1), (3, 0), (4, -2)):
        chi = euler_scroll(e, a, b)
        for (i, ta, tb), mult in table.entries.items():
            chi += (-1) ** i * mult * euler_scroll(e, a - ta, b + tb)
        expected = 16 * a + 6 * b - 8  # chi(omega^a L^b) on a genus-9 curve
        if chi != expected:
            raise ResolutionError(
                f"Hilbert check failed at ({a},{b}): {chi} != {expected}"
            )


def betti_table(ctx: SliceContext):
    """Full bigraded Betti table of the relative canonical resolution, and
    the resolution steps it was read from: (table, steps).

    Verifies, in order: empty H-degree-1 slices, generator minimality,
    image-equals-ideal in degrees 3 and 4, zero composition of consecutive
    differentials, rank sums against the closed formula, degree sums against
    the slopes, self-duality, and the alternating Hilbert identity.
    """
    step1 = ideal_generator_step(ctx)
    step2 = next_syzygies(ctx, step1, 3, window=(-3, -2, -1, 0, 1),
                          verify_against_ideal=IDEAL_CHECK_TWISTS)
    step3 = next_syzygies(ctx, step2, 4, window=(-3, -2, -1, 0, 1))
    # probe H-degree 5: the last module sits two H-degrees up, so nothing new here
    step4_probe = next_syzygies(ctx, step3, 5, window=(-3, -2, -1, 0))
    if step4_probe.gens:
        raise ResolutionError("unexpected syzygies in H-degree 5")
    step4 = next_syzygies(ctx, step3, 6, window=(-4, -3, -2, -1))
    steps = [step1, step2, step3, step4]
    _verify_composition(steps, ctx.prime)

    entries: dict = {}
    for step in steps:
        for (a, b) in step.twists:
            key = (step.index, a, -b)
            entries[key] = entries.get(key, 0) + 1
    table = BigradedBettiTable(GENUS, GONALITY, entries)

    for i in range(1, GONALITY - 2):
        expected = schreyer_rank(GONALITY, i)
        if table.rank(i) != expected:
            raise ResolutionError(f"rank sum at index {i}: {table.rank(i)} != {expected}")
        slope = syzygy_slope(GENUS, GONALITY, i)
        if Fraction(table.degree(i)) != slope * expected:
            raise ResolutionError(f"degree sum at index {i} does not match the slope")
    if table.rank(GONALITY - 2) != 1:
        raise ResolutionError("last module is not of rank 1")
    if not table.is_self_dual():
        raise ResolutionError("table is not self-dual")
    _hilbert_check(ctx, table)
    return table, steps
