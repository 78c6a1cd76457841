"""K3 surfaces cut out by linear syzygies of the curve's quadric generators.

A linear syzygy s of the six (2H-R)-generators has entries in the
4-dimensional space spanned by x1..x4; after a scalar base change moving s to
(s1, s2, s3, s4, 0, 0) the first four transformed generators cut out a
surface containing the curve.  The fifth generator q5 (of twist 2H) is
recovered through the skew presentation: q_i = sum_j A_ij l_j for a skew
4x4 matrix A with hyperplane-class entries, and q5 = Pf(A).  Surface ideal
slices are spans of generator multiples, certified saturated against the
Euler-characteristic prediction chi(O_S(aH+bR)) = 2 + (14a^2 + 10ab)/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import inverse_mod, kernel_mod, mul_mod, rank_mod, rref_mod
from .lattice import solve_rational
from .resolution import (
    BigradedBettiTable,
    ResolutionStep,
    SliceContext,
    free_map_matrix,
    next_syzygies,
)
from .scroll import (
    GENERIC_E,
    CoxPoly,
    cox_slice,
    euler_scroll,
    module_element,
    module_keys,
    slice_index,
    slice_keys,
    split_keys,
)

K3_GENUS = 8          # hyperplane sections of the surface are canonical genus-8 curves
K3_SECTION_GONALITY = 5

#: resolution shape of the syzygy-scheme surface inside P(E)
K3_SHAPE_TABLE = {
    (1, 2, 1): 4,
    (1, 2, 0): 1,
    (2, 3, 2): 1,
    (2, 3, 1): 4,
    (3, 5, 2): 1,
}

#: intersection numbers (H^2, H.N, N^2) feeding the chi prediction
K3_H2, K3_HN, K3_N2 = 14, 5, 0


class K3Error(RuntimeError):
    pass


def surface_chi(a: int, b: int) -> int:
    """chi(O_S(aH + bR)) for the K3 with H^2=14, H.N=5, N^2=0."""
    return 2 + (K3_H2 * a * a + 2 * K3_HN * a * b + K3_N2 * b * b) // 2


@dataclass(frozen=True)
class SyzygyVector:
    """Linear syzygy of the six (2H-R)-generators; entries over x1..x4."""

    prime: int
    entries: np.ndarray  # 6 x 4
    params: tuple        # (lam, mu) in the syzygy pencil


def linear_syzygy_space(steps, p: int) -> tuple:
    """Basis (s1, s2) of the linear syzygies, from the (3,-2) kernel block.

    The (2H)-generators admit no multiplier of the right degree, so every
    kernel vector automatically involves only the six (2H-R)-generators.
    """
    step1, step2 = steps[0], steps[1]
    block = step2.kernels.get((3, -2))
    if block is None:
        raise K3Error("no (3,-2) syzygy slice computed")
    if block.kernel.shape[0] != 2:
        raise K3Error(
            f"wrong dimension: linear syzygy space is {block.kernel.shape[0]}-dimensional"
        )
    gens, monos = split_keys(block.columns)
    if any(step1.twists[g] != (2, -1) for g in gens):
        raise K3Error("linear syzygy touches a non-(2H-R) generator")
    xs = slice_index(GENERIC_E, 1, -1).find(monos)  # columns are g times x_i
    out = []
    for lam, mu, vec in ((1, 0, block.kernel[0]), (0, 1, block.kernel[1])):
        entries = np.zeros((6, 4), dtype=np.int64)
        entries[gens, xs] = vec % p
        out.append(SyzygyVector(p, entries, (lam, mu)))
    return tuple(out)


def pencil_member(basis, lam: int, mu: int) -> SyzygyVector:
    s1, s2 = basis
    p = s1.prime
    return SyzygyVector(p, (lam * s1.entries + mu * s2.entries) % p, (lam, mu))


def syzygy_rank(s: SyzygyVector) -> int:
    """Dimension of the span of the six entries of s."""
    return rank_mod(s.entries, s.prime)


@dataclass(frozen=True)
class SyzygyScheme:
    """Ideal data of the syzygy scheme: four (2H-R)-forms and the syzygy l."""

    prime: int
    params: tuple
    forms: tuple      # f'_1..f'_4 as CoxPoly
    ell: tuple        # l_1..l_4 as CoxPoly (entries of the transformed syzygy)
    base_change: np.ndarray


def syzygy_scheme(s: SyzygyVector, gen_polys) -> SyzygyScheme:
    """Base change moving s to (s1..s4, 0, 0) and the resulting 4-form ideal.

    gen_polys are the six (2H-R)-generators as CoxPoly, in the order used by
    the syzygy's entries.
    """
    p = s.prime
    if syzygy_rank(s) != 4:
        raise K3Error(f"rank deficient: syzygy rank {syzygy_rank(s)} != 4")
    left_kernel = kernel_mod(s.entries.T, p)  # vectors u with u^T S = 0
    if len(left_kernel) != 2:
        raise K3Error("left kernel of the syzygy entries is not 2-dimensional")
    units = unit_completion(left_kernel, p)
    if len(units) != 4:
        raise K3Error("could not complete the base change")
    u_mat = np.concatenate([np.eye(6, dtype=np.int64)[units], left_kernel]) % p
    inv = inverse_mod(u_mat, p)
    # transformed syzygy s' = U s has last two entries zero
    sprime = mul_mod(u_mat, s.entries, p)
    if np.any(sprime[4:]):
        raise K3Error("base change failed to kill the last two entries")
    # transformed generators f' = f U^{-1}: column j of U^{-1} is the element
    # sum_i U^{-1}[i, j] e_i, sent to f'_j by e_i -> f_i
    e_keys = module_keys([(0, 0)] * 6, GENERIC_E, 0, 0)
    forms = [CoxPoly(p, e_keys, inv[:, j]).image(gen_polys) for j in range(4)]
    # slice (1, -1) holds exactly x1..x4, in order
    ell = [CoxPoly(p, slice_keys(GENERIC_E, 1, -1), sprime[j]) for j in range(4)]
    # defining identity of the syzygy scheme
    if not module_element(ell).image(forms).is_zero():
        raise K3Error("transformed syzygy identity failed")
    span = np.stack([l.vector(GENERIC_E, 1, -1) for l in ell])
    if rank_mod(span, p) != 4:
        raise K3Error("transformed syzygy entries do not span the 4-dimensional space")
    return SyzygyScheme(p, s.params, tuple(forms), tuple(ell), u_mat)


def unit_completion(rows: np.ndarray, p: int) -> list:
    """Indices i, in increasing order, of the unit vectors e_i that greedily
    extend the row space of the independent rows to all of F_p^n: the
    column rank profile of [rows^T | I] beyond the columns of rows^T.
    Empty when rows are dependent."""
    k, n = rows.shape
    _reduced, pivots = rref_mod(np.concatenate([rows.T, np.eye(n, dtype=np.int64)], axis=1), p)
    if list(pivots[:k]) != list(range(k)):
        return []
    return [c - k for c in pivots[k:]]


# --- Pfaffians ---------------------------------------------------------------


def pfaffian(matrix) -> CoxPoly:
    """Pfaffian of an even skew matrix of CoxPoly, by first-row expansion."""
    n = len(matrix)
    if n == 0 or n % 2:
        raise K3Error("pfaffian needs positive even size")
    for i in range(n):
        if not matrix[i][i].is_zero():
            raise K3Error("not skew: nonzero diagonal")
        for j in range(i + 1, n):
            if not matrix[i][j].add(matrix[j][i]).is_zero():
                raise K3Error("not skew: m[i][j] != -m[j][i]")
    return _pf(matrix)


def _pf(m) -> CoxPoly:
    """Expansion along the first row: sum_j (-1)^(j+1) m[0][j] Pf(m_0j),
    m_0j being m without rows and columns 0 and j."""
    n = len(m)
    p = m[0][0].prime
    if n == 2:
        return m[0][1]
    minors = []
    for j in range(1, n):
        keep = [i for i in range(1, n) if i != j]
        minor = _pf([[m[a][b] for b in keep] for a in keep])
        minors.append(minor.scale(p - 1) if j % 2 == 0 else minor)
    return module_element(m[0][1:]).image(minors)


def sub_pfaffians(psi) -> list:
    """v_j = (-1)^j Pf(psi with row and column j removed); psi . v = 0."""
    n = len(psi)
    p = psi[0][0].prime
    out = []
    for j in range(n):
        keep = [i for i in range(n) if i != j]
        sub = [[psi[a][b] for b in keep] for a in keep]
        v = _pf(sub)
        if j % 2:
            v = v.scale(p - 1)
        out.append(v)
    return out


@dataclass(frozen=True)
class SkewPresentation:
    """5x5 skew matrix psi whose principal Pfaffians cut the surface."""

    prime: int
    psi: tuple            # 5x5 of CoxPoly
    askew: tuple          # the 4x4 block A
    q5: CoxPoly
    ambiguity_dim: int    # kernel dimension of the reconstruction solve

    def check_identity(self):
        pf = sub_pfaffians([list(r) for r in self.psi])
        for row in self.psi:
            if not module_element(row).image(pf).is_zero():
                raise K3Error("psi times its signed sub-Pfaffians is nonzero")
        return pf


# the pairs i < j and triples j < k < l of the four syzygy entries
_PAIRS = list(itertools.combinations(range(4), 2))
_TRIPLES = list(itertools.combinations(range(4), 3))


def _linear_map(images) -> ResolutionStep:
    """The map, as free_map_matrix reads it, sending generator g of twist
    (1, -1) to sum_k images[g][k] * eps_k, the eps_k of twist (0, 0)."""
    gens = [module_element(row) for row in images]
    return ResolutionStep(0, [(1, -1)] * len(gens), gens, {},
                          cod_twists=[(0, 0)] * len(images[0]))


def koszul_ambiguity_rank(ell, p: int) -> int:
    """Rank of the map sending u in H^0(R)^4 to the skew matrix iota_l(u')
    built from the Koszul contraction; this is the predicted ambiguity of the
    skew reconstruction."""
    pos = {pr: k for k, pr in enumerate(_PAIRS)}
    images = []
    for (j, k, l) in _TRIPLES:
        # iota_l(e_jkl) = l_j e_kl - l_k e_jl + l_l e_jk
        row = [CoxPoly(p)] * len(_PAIRS)
        row[pos[(k, l)]], row[pos[(j, l)]], row[pos[(j, k)]] = ell[j], ell[k].scale(p - 1), ell[l]
        images.append(row)
    return rank_mod(free_map_matrix(_linear_map(images), GENERIC_E, 1, 0, p), p)


def pfaffian_reconstruct(scheme: SyzygyScheme) -> SkewPresentation:
    """Skew 4x4 matrix A with q_i = sum_j A_ij l_j, assembled into the 5x5 psi.

    The solve's kernel dimension must equal the rank of the explicit Koszul
    map; the identity psi . (signed sub-Pfaffians) = 0 is asserted
    coefficientwise.
    """
    p = scheme.prime
    ell = scheme.ell
    h_keys = slice_keys(GENERIC_E, 1, 0)
    # e_ij -> l_j eps_i - l_i eps_j on the (2, -1) slices: one row per e_ij
    # times a monomial of h_keys, one column block per eps_i
    zero = CoxPoly(p)
    images = []
    for (i, j) in _PAIRS:
        row = [zero] * 4
        row[i], row[j] = ell[j], ell[i].scale(p - 1)
        images.append(row)
    mat = free_map_matrix(_linear_map(images), GENERIC_E, 2, -1, p)
    rhs = np.concatenate([f.vector(GENERIC_E, 2, -1) for f in scheme.forms])
    # one elimination of [mat^T | rhs] gives a solution and the kernel dimension
    unknowns = mat.shape[0]
    reduced, pivots = rref_mod(np.concatenate([mat.T, rhs[:, None]], axis=1), p)
    if unknowns in pivots:
        raise K3Error("inconsistent system: no skew presentation exists")
    solution = np.zeros(unknowns, dtype=np.int64)
    solution[pivots] = reduced[: len(pivots), unknowns]
    kernel_dim = unknowns - len(pivots)
    koszul_rank = koszul_ambiguity_rank(ell, p)
    if kernel_dim != koszul_rank:
        raise K3Error(
            f"reconstruction ambiguity {kernel_dim} != Koszul image rank {koszul_rank}"
        )
    # rebuild A from the solution vector
    a_entries = [[zero for _ in range(4)] for _ in range(4)]
    for (i, j), row in zip(_PAIRS, solution.reshape(len(_PAIRS), len(h_keys))):
        a_entries[i][j] = CoxPoly(p, h_keys, row)
        a_entries[j][i] = a_entries[i][j].scale(p - 1)
    # verify q_i = sum_j A_ij l_j exactly
    for row, form in zip(a_entries, scheme.forms):
        if not module_element(row).image(ell).sub(form).is_zero():
            raise K3Error("skew presentation does not reproduce the generators")
    q5 = pfaffian(a_entries)
    psi = [[zero for _ in range(5)] for _ in range(5)]
    for i in range(4):
        psi[0][i + 1] = ell[i].scale(p - 1)
        psi[i + 1][0] = ell[i]
    # block entries carry the complementary entry of A; the sign pattern is
    # the one for which the five principal Pfaffians come out as
    # (Pf(A), q_1, q_2, q_3, q_4) exactly
    sub = {(1, 2): a_entries[2][3], (1, 3): a_entries[1][3].scale(p - 1),
           (1, 4): a_entries[1][2], (2, 3): a_entries[0][3],
           (2, 4): a_entries[0][2].scale(p - 1), (3, 4): a_entries[0][1]}
    for (i, j), poly in sub.items():
        psi[i][j] = poly
        psi[j][i] = poly.scale(p - 1)
    pres = SkewPresentation(
        p, tuple(tuple(r) for r in psi), tuple(tuple(r) for r in a_entries),
        q5, kernel_dim,
    )
    pf = pres.check_identity()
    if not pf[0].sub(q5).is_zero():
        raise K3Error("first principal Pfaffian is not Pf(A)")
    for i in range(4):
        if not pf[i + 1].sub(scheme.forms[i]).is_zero():
            raise K3Error("sub-Pfaffians do not recover the quadric generators")
    return pres


# --- the surface ideal and its resolution shape ------------------------------


@dataclass
class K3Surface:
    prime: int
    scheme: SyzygyScheme
    skew: SkewPresentation

    @property
    def generators(self) -> list:
        """The five generators with their slice bidegrees."""
        out = [((2, -1), f) for f in self.scheme.forms]
        out.append(((2, 0), self.skew.q5))
        return out

    def generator_step(self) -> ResolutionStep:
        twists, gens = zip(*self.generators)
        return ResolutionStep(1, list(twists), list(gens), {})

    def slice_span(self, a: int, b: int) -> np.ndarray:
        """Row span of generator multiples inside the (a, b) Cox slice: for
        each generator, its multiples by cox_slice(a - ga, b - gb) in order."""
        return free_map_matrix(self.generator_step(), GENERIC_E, a, b, self.prime)

    def saturated_dim(self, a: int, b: int) -> int:
        """Slice dimension predicted by the Euler characteristic."""
        return len(cox_slice(GENERIC_E, a, b)) - surface_chi(a, b)

    def saturated_span(self, a: int, b: int) -> tuple:
        """slice_span(a, b) and its rref_mod (reduced, pivots), certified to
        have the rank that saturated_dim predicts."""
        span = self.slice_span(a, b)
        reduced, pivots = rref_mod(span, self.prime)
        want = self.saturated_dim(a, b)
        if len(pivots) != want:
            raise K3Error(
                f"surface slice ({a},{b}) has span {len(pivots)}, chi predicts {want}"
            )
        return span, reduced, pivots

    def verify_slice_saturated(self, a: int, b: int) -> int:
        return len(self.saturated_span(a, b)[2])


def surface_from_syzygy(scheme: SyzygyScheme) -> K3Surface:
    return K3Surface(scheme.prime, scheme, pfaffian_reconstruct(scheme))


def k3_betti_shape(ctx: SliceContext, surface: K3Surface) -> BigradedBettiTable:
    """Resolution shape of the surface ideal, computed slice by slice.

    Every probed generator slice is certified saturated against the chi
    prediction before syzygies are taken.
    """
    for (a, b) in ((2, -1), (2, 0), (2, 1), (3, -2), (3, -1), (3, 0)):
        span = surface.saturated_span(a, b)[0]
        # saturation certifies 4 generators at (2,-1) and rank 9 at (2,0),
        # whose rows are the four quadrics times t0 and t1, then q5
        if (a, b) == (2, 0) and rank_mod(span[:8], surface.prime) != 8:
            raise K3Error("shape mismatch: multiples of the quadric generators degenerate")

    step1 = surface.generator_step()
    step2 = next_syzygies(ctx, step1, 3, window=(-2, -1, 0, 1))
    counts2 = _twist_counts(step2)
    if counts2 != {(3, 2): 1, (3, 1): 4}:
        raise K3Error(f"shape mismatch in first syzygies: {counts2}")
    probe = next_syzygies(ctx, step2, 4, window=(-2, -1, 0))
    if probe.gens:
        raise K3Error("shape mismatch: unexpected syzygies in H-degree 4")
    step3 = next_syzygies(ctx, step2, 5, window=(-3, -2, -1, 0))
    counts3 = _twist_counts(step3)
    if counts3 != {(5, 2): 1}:
        raise K3Error(f"shape mismatch in last step: {counts3}")

    entries = {(1, 2, 1): 4, (1, 2, 0): 1}
    for (a, b), c in counts2.items():
        entries[(2, a, b)] = c
    for (a, b), c in counts3.items():
        entries[(3, a, b)] = c
    table = BigradedBettiTable(K3_GENUS, K3_SECTION_GONALITY, entries)
    if table.entries != K3_SHAPE_TABLE:
        raise K3Error(f"shape mismatch: {table.entries}")
    if not table.is_self_dual():
        raise K3Error("surface resolution shape is not self-dual")
    if not chern_balance(4, 1, 4, 1):
        raise K3Error("chern balance violated")
    return table


def _twist_counts(step: ResolutionStep) -> dict:
    counts: dict = {}
    for (a, b) in step.twists:
        counts[(a, -b)] = counts.get((a, -b), 0) + 1
    return counts


def chern_balance(a1: int, a2: int, b1: int, b2: int) -> bool:
    """First-Chern-class bookkeeping of the 5x5 skew presentation:
    the twists balance exactly when 2*b2 + b1 - a1 = 2."""
    if a1 + a2 != 5 or b1 + b2 != 5:
        raise ValueError("not a 5x5 shape")
    return 2 * b2 + b1 - a1 == 2


# --- intersection numbers from the resolution --------------------------------


def intersection_numbers_from_resolution(table: BigradedBettiTable, e=GENERIC_E) -> dict:
    """Fit chi(O_S(aH+bR)) over a grid where every twisted summand has
    nonnegative H-degree; the exact quadratic fit yields the intersection
    numbers and chi(O_S)."""
    rows = []
    rhs = []
    for a in (5, 6, 7):
        for b in (-2, -1, 0, 1, 2):
            chi = euler_scroll(e, a, b)
            for (i, ta, tb), mult in table.entries.items():
                chi += (-1) ** i * mult * euler_scroll(e, a - ta, b + tb)
            rows.append([1, a, b, a * a, a * b, b * b])
            rhs.append(chi)
    coeffs, unique = solve_rational(rows, rhs)
    if coeffs is None:
        raise K3Error("non-quadratic: Euler characteristics do not fit")
    if not unique:
        raise K3Error("Euler-characteristic fit is underdetermined")
    c0, c1, c2, c3, c4, c5 = coeffs
    # verify the fit on the fly: recompute residuals exactly
    for row, v in zip(rows, rhs):
        if sum(Fraction(x) * c for x, c in zip(row, (c0, c1, c2, c3, c4, c5))) != v:
            raise K3Error("non-quadratic: residual after fit")
    if c1 != 0 or c2 != 0:
        raise K3Error("linear terms present: canonical class is not trivial")
    out = {
        "H2": int(2 * c3),
        "HN": int(c4),
        "N2": int(2 * c5),
        "chi": int(c0),
        "C_H": 16,  # deg omega_C on the curve side (2g - 2)
        "C_N": 6,   # deg L on the curve side
        "C2": 16,   # adjunction input: 2 * genus(C) - 2
    }
    if (out["H2"], out["HN"], out["N2"]) != (K3_H2, K3_HN, K3_N2):
        raise K3Error(f"intersection numbers {out} do not match the expected lattice")
    if out["chi"] != 2:
        raise K3Error("structure sheaf Euler characteristic is not 2")
    return out


def verify_containment(surface: K3Surface, values: np.ndarray):
    """Every surface generator vanishes at every curve sample point."""
    for (_twist, poly) in surface.generators:
        if np.any(poly.evaluate(values)):
            raise K3Error("surface generator does not vanish on the curve")
