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

from .ffield import SliceMap, kernel_mod, mul_mod, rref_mod
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
    """An ideal slice's evaluation rank is not h^0 although its kernel is
    nonzero.  As deg - h^0 = g - 1 - h^1 <= 8 < SLICE_MARGIN, no draw causes
    this: the restriction is not onto H^0, or h^0 was misstated."""


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

    @classmethod
    def from_steps(cls, g: int, k: int, steps) -> "BigradedBettiTable":
        """One O(-aH + bR) in index i for each generator of step i in the
        slice (a, -b)."""
        entries: dict = {}
        for step in steps:
            for (a, b) in step.twists:
                key = (step.index, a, -b)
                entries[key] = entries.get(key, 0) + 1
        return cls(g, k, entries)

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

    def euler_characteristic(self, e, a: int, b: int) -> int:
        """chi of the resolved sheaf twisted by O(aH + bR) on the scroll of
        type e: the alternating sum of chi over the resolution's terms."""
        return euler_scroll(e, a, b) + sum((-1) ** i * m * euler_scroll(e, a - ta, b + tb)
                                           for (i, ta, tb), m in self.entries.items())

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


#: sample points beyond h^0 behind every ideal-slice kernel: more than
#: deg - h^0 = g - 1 - h^1 <= 8, so no nonzero section vanishes at them all
SLICE_MARGIN = 10
#: b-degrees, ascending, of the H-degree-2 slices probed for ideal generators
GENERATOR_WINDOW = (-2, -1, 0, 1, 2)
#: b-degrees of the H-degree-3 slices where the generated ideal is checked
#: against the ideal slice
IDEAL_CHECK_TWISTS = (-2, -1, 0)


def slice_point_demand() -> int:
    """Most points an ideal-slice kernel draws from the chain's sample
    stream: the largest h^0 + SLICE_MARGIN.

    The resolution takes the ideal slices (1, b) for |b| <= 1, whose h^0 is
    at most the genus, (2, b) for b in GENERATOR_WINDOW and (3, b) for b in
    IDEAL_CHECK_TWISTS; the last two kinds are non-special, with
    h^0 = 16a + 6b - 8 (SliceContext.curve_h0).
    """
    slices = [(2, b) for b in GENERATOR_WINDOW] + [(3, b) for b in IDEAL_CHECK_TWISTS]
    h0 = max([GENUS] + [16 * a + 6 * b - 8 for a, b in slices])
    return h0 + SLICE_MARGIN


class SliceContext:
    """Caches sample points, their canonical values, and ideal slices.

    The chain has one stream of sample points: points(n) and values(n) are
    its first n points and their values.  Every ideal-slice kernel is
    certified by the rank of its evaluation matrix (see ideal_slice).  The
    d-vector of adjoint dimensions is computed once, here: it gives the
    curve's h^1 values and the scroll type e.
    """

    def __init__(self, model, coords: CanonicalCoordinates):
        self.model = model
        self.coords = coords
        self.prime = self.model.prime
        self._points: list = []
        self._values = None
        self._slices: dict = {}
        dims = adjoint_dims(self.model)
        self._h1 = dict(enumerate(dims))  # h^0(omega L^-j) for j = 0, 1, 2
        self.e = scroll_type(dims).e

    # --- samples ---------------------------------------------------------

    def points(self, n: int) -> list:
        have = self._points
        if len(have) < n:
            have += sample_smooth_points(self.model, n - len(have), seed=900 + len(have),
                                         exclude=set(have))
            self._values = None
        return have[:n]

    def values(self, n: int) -> np.ndarray:
        self.points(n)
        if self._values is None:
            self._values = point_values(self.model, self.coords, np.array(self._points))
        return self._values[:, :n]

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
        the first h^0 + SLICE_MARGIN sample points, h^0 = curve_h0(a, b).  That
        kernel contains the ideal slice, so it is the slice when it is zero or
        when the evaluation rank is h^0.  Every slice the resolution takes has
        a zero kernel ((1, b) and (2, -2)) or degree above 2g - 2 = 16, where
        h^0 = 16a + 6b - 8 by Riemann-Roch.  As deg - h^0 = g - 1 - h^1 <= 8 <
        SLICE_MARGIN, no draw of distinct points lowers the rank, so a rank
        other than h^0 (a misstated h^0, or a restriction not onto H^0) raises
        SliceRankError at once.  The basis is kernel_mod's, read off the RREF
        of the evaluation matrix; consumers use only its span and row count.
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
        kernel = kernel_mod(
            monomial_value_matrix(self.values(h0 + SLICE_MARGIN), monos, self.prime).T,
            self.prime,
        )
        rank = len(monos) - len(kernel)
        if len(kernel) and rank != h0:
            raise SliceRankError(f"slice ({a},{b}): evaluation rank {rank} != h^0 = {h0}")
        self._slices[key] = kernel
        return kernel


# --- free-module machinery -------------------------------------------------
#
# An element of the free module F over generators with slice twists
# twists[j] = (a_j, b_j), homogeneous of bidegree (a, b), is a CoxPoly whose
# keys carry the generator index j and a monomial of cox_slice(a - a_j,
# b - b_j); its coordinates are taken over module_keys(twists, e, a, b).
# Level-0 elements (ring elements) use the single generator 0 of twist (0, 0).


def free_map_matrix(twists, gens, cod_twists, e, a: int, b: int, p: int) -> SliceMap:
    """The map sending generator j (twist twists[j]) to gens[j], over
    generators of twists cod_twists, on the (a, b) slices: domain basis
    vector (j, m) of module_keys(twists, ...) goes to gens[j] * m over
    module_keys(cod_twists, ...), one nonzero per term."""
    index = KeyIndex(module_keys(cod_twists, e, a, b))
    mults = [slice_keys(e, a - aj, b - bj) for aj, bj in twists]
    sizes, none = [len(keys) for keys in mults], [np.zeros(0, dtype=np.int64)]
    rows = [index.find(add_keys(g.keys[None, :], keys[:, None])).ravel()
            for g, keys in zip(gens, mults)]
    terms = np.repeat(np.array([len(g.keys) for g in gens], dtype=np.int64), sizes)
    values = np.concatenate(none + [np.tile(g.coefs, n) for g, n in zip(gens, sizes)])
    return SliceMap(p, (a, b), (index.size, sum(sizes)), np.concatenate(none + rows),
                    np.repeat(np.arange(sum(sizes)), terms), values)


@dataclass
class SyzygyBlock:
    """Syzygies of one homological step in one slice bidegree."""

    columns: np.ndarray        # module keys of the columns over the previous step
    kernel: np.ndarray         # all syzygies in this slice (rows)


@dataclass
class ResolutionStep:
    """Generators of F_index written over the previous level."""

    index: int
    twists: list          # slice bidegrees (a, b) of the generators
    gens: list            # CoxPoly module elements over cod_twists
    kernels: dict         # (a, b) -> SyzygyBlock computed while minimalising
    cod_twists: list = field(default_factory=lambda: [(0, 0)])


def _new_representatives(kernel: np.ndarray, multiples: SliceMap, p: int) -> np.ndarray:
    """Rows of kernel's span extending the image of multiples.

    The kernel rows are reduced against base, the RREF of the image, by one
    product: K - K[:, pivots] @ base is zero at every base pivot, and it
    spans a complement of the image in the span of both.  The RREF of its
    nonzero rows, without zero rows, is that complement's canonical basis.
    """
    if kernel.size == 0:
        return kernel.reshape(0, kernel.shape[1] if kernel.ndim == 2 else 0)
    base, pivots = multiples.rref()
    kernel = kernel - mul_mod(kernel[:, pivots], base[: len(pivots)], p)
    reduced, pivots = rref_mod(kernel[kernel.any(axis=1)], p)
    return reduced[: len(pivots)]


def _multiples_span(kernels: dict, twists, e, a: int, b: int, p: int) -> SliceMap:
    """All lower-slice syzygies times monomials, inside slice (a, b): the
    map whose image they span.

    Each syzygy of a lower slice is one generator of free_map_matrix, a
    vector over module_keys(twists, ...) of its own slice; the domain comes
    vector by vector, and within a vector monomial by monomial in cox_slice
    order.
    """
    lower = [((a2, b2), CoxPoly(p, block.columns, vec))
             for (a2, b2), block in kernels.items() if a2 < a or (a2 == a and b2 < b)
             for vec in block.kernel]
    return free_map_matrix([twist for twist, _ in lower], [gen for _, gen in lower], twists,
                           e, a, b, p)


def _minimal_generators(ctx: SliceContext, index: int, twists, a: int, window,
                        elements) -> ResolutionStep:
    """Minimal generators of index `index`, in H-degree a, over the free
    module with generators of slice twists `twists`.

    The slices (a, b) are taken for b in the window, ascending.
    elements(b, columns) gives the slice's elements, as rows over the module
    keys columns; the rows extending the span of the lower slices'
    multiples are the new generators.  A generator at the window's last b
    raises WindowExhaustedError.
    """
    e, p = ctx.e, ctx.prime
    kernels: dict = {}
    new_twists: list = []
    gens: list = []
    window = sorted(window)
    for b in window:
        columns = module_keys(twists, e, a, b)
        if not len(columns):
            continue
        kernel = elements(b, columns)
        multiples = _multiples_span(kernels, twists, e, a, b, p)
        new = _new_representatives(kernel, multiples, p)
        kernels[(a, b)] = SyzygyBlock(columns, kernel)
        new_twists += [(a, b)] * len(new)
        gens += [CoxPoly(p, columns, row) for row in new]
        if b == window[-1] and len(new):
            raise WindowExhaustedError(
                f"window exhausted: new generators at boundary twist ({a},{b})"
            )
    return ResolutionStep(index, new_twists, gens, kernels, cod_twists=list(twists))


def ideal_generator_step(ctx: SliceContext) -> ResolutionStep:
    """Minimal generators of the curve ideal; all live in H-degree 2.

    H-degree 1 slices are verified empty, and the windows beyond the last
    twist are verified to contribute no new generators.
    """
    for b in (-1, 0, 1):
        if ctx.ideal_slice(1, b).shape[0] != 0:
            raise ResolutionError("canonical embedding is degenerate: linear forms vanish on C")
    return _minimal_generators(ctx, 1, [(0, 0)], 2, GENERATOR_WINDOW,
                               lambda b, _columns: ctx.ideal_slice(2, b))


def next_syzygies(ctx: SliceContext, prev: ResolutionStep, a: int,
                  window, verify_against_ideal=()) -> ResolutionStep:
    """Kernel of F_prev -> F_(prev-1) in H-degree a, minimalised over the window.

    verify_against_ideal lists slice b-degrees where the image of the map
    from the generator step must equal the independently computed ideal
    slice (certifying that no generators were missed in this H-degree).
    """
    def kernel(b: int, columns) -> np.ndarray:
        out = free_map_matrix(prev.twists, prev.gens, prev.cod_twists, ctx.e, a, b,
                              ctx.prime).kernel()
        if b in verify_against_ideal:
            image_rank = len(columns) - len(out)  # rank-nullity on the map's rows
            expected = ctx.ideal_slice(a, b).shape[0]
            if image_rank != expected:
                raise ResolutionError(
                    f"generated ideal misses slice ({a},{b}): {image_rank} != {expected}"
                )
        return out

    return _minimal_generators(ctx, prev.index + 1, prev.twists, a, window, kernel)


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
    for (a, b) in ((2, 0), (2, 1), (3, -1), (3, 0), (4, -2)):
        chi = table.euler_characteristic(ctx.e, a, b)
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

    table = BigradedBettiTable.from_steps(GENUS, GONALITY, steps)

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
