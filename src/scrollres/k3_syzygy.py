"""K3 surfaces cut out by linear syzygies of the curve's quadric generators.

A linear syzygy s of the six (2H-R)-generators f_i has entries in the
4-dimensional space spanned by l = (x1..x4): s_i = sum_k S[i, k] x_k.  In
this Koszul basis the syzygy reads sum_k x_k phi_k = 0 with phi_k =
sum_i f_i S[i, k], and the four phi_k cut out a surface containing the
curve.  The fifth generator q5 (of twist 2H) is recovered through the skew
presentation: phi_i = sum_j A_ij x_j for a skew 4x4 matrix A with
hyperplane-class entries, and q5 = Pf(A).  Surface ideal slices are spans
of generator multiples, certified saturated against the Euler-characteristic
prediction chi(O_S(aH+bR)) = 2 + (14a^2 + 10ab)/2.

For the pencil s = lam*s1 + mu*s2 the phi_k are linear in (lam : mu), the
solve matrix does not depend on the member, so A = lam*P + mu*Q from one
elimination with two right-hand sides, and Pf(A) = lam^2 Pf(P) +
lam*mu (Pf(P + Q) - Pf(P) - Pf(Q)) + mu^2 Pf(Q).  A member is therefore an
evaluation, over F_p or over a residue ring F_p[theta]/(h), and its slice
spans over F_p are Weil restrictions (ffield.weil_restriction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ffield import SliceMap, binary_powers, rank_mod, rref_mod, weil_restriction
from .resolution import (
    BigradedBettiTable,
    ResolutionStep,
    SliceContext,
    free_map_matrix,
    next_syzygies,
)
from .scroll import (
    GENERIC_E,
    GENUS,
    GONALITY,
    CoxPoly,
    cox_slice,
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


def linear_syzygy_space(steps, p: int) -> tuple:
    """Basis (S1, S2) of the linear syzygies, from the (3,-2) kernel block:
    each a 6x4 array, row i holding the entries of s_i over x1..x4.

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
    for vec in block.kernel:
        entries = np.zeros((6, 4), dtype=np.int64)
        entries[gens, xs] = vec % p
        out.append(entries)
    return tuple(out)


def koszul_basis(p: int) -> tuple:
    """x1..x4 as CoxPoly: the slice (1, -1) holds exactly these, in order."""
    keys = slice_keys(GENERIC_E, 1, -1)
    return tuple(CoxPoly(p, keys[k:k + 1], [1]) for k in range(4))


@dataclass(frozen=True)
class SyzygyScheme:
    """Ideal data of the syzygy scheme: the four (2H-R)-forms phi_k and the
    Koszul basis l = (x1..x4), with sum_k l_k phi_k = 0."""

    prime: int
    forms: tuple      # phi_1..phi_4 as CoxPoly
    ell: tuple        # x_1..x_4 as CoxPoly


def _koszul_scheme(entries: np.ndarray, gen_polys) -> SyzygyScheme:
    """phi_k = sum_i f_i S[i, k] for the 6x4 entries S of a syzygy, and the
    syzygy identity checked."""
    p = gen_polys[0].prime
    # column k of S is the element sum_i S[i, k] e_i, sent to phi_k by e_i -> f_i
    e_keys = module_keys([(0, 0)] * 6, GENERIC_E, 0, 0)
    forms = tuple(CoxPoly(p, e_keys, entries[:, k]).image(gen_polys) for k in range(4))
    ell = koszul_basis(p)
    if not module_element(ell).image(forms).is_zero():
        raise K3Error("syzygy identity failed")
    return SyzygyScheme(p, forms, ell)


def syzygy_scheme(entries: np.ndarray, gen_polys) -> SyzygyScheme:
    """The syzygy scheme of a rank-4 syzygy with 6x4 entries, written in
    the Koszul basis.

    gen_polys are the six (2H-R)-generators as CoxPoly, in the order used by
    the syzygy's entries.
    """
    rank = rank_mod(entries, gen_polys[0].prime)
    if rank != 4:
        raise K3Error(f"rank deficient: syzygy rank {rank} != 4")
    return _koszul_scheme(entries, gen_polys)


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


# the pairs i < j and triples j < k < l of the four syzygy entries
_PAIRS = list(itertools.combinations(range(4), 2))
_TRIPLES = list(itertools.combinations(range(4), 3))


def _linear_map(images, a: int, b: int, p: int) -> SliceMap:
    """free_map_matrix on the (a, b) slices of the map sending generator g
    of twist (1, -1) to sum_k images[g][k] * eps_k, the eps_k of twist
    (0, 0)."""
    return free_map_matrix([(1, -1)] * len(images), [module_element(row) for row in images],
                           [(0, 0)] * len(images[0]), GENERIC_E, a, b, p)


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
    return len(_linear_map(images, 1, 0, p).rref()[1])


def _presentation(a_entries, forms, ell, ambiguity_dim: int) -> SkewPresentation:
    """The skew presentation of the forms by the skew 4x4 matrix a_entries:
    phi_i = sum_j A_ij l_j exactly, and the five principal Pfaffians of the
    5x5 psi are (Pf(A), phi_1, .., phi_4)."""
    p = ell[0].prime
    zero = CoxPoly(p)
    for row, form in zip(a_entries, forms):
        if not module_element(row).image(ell).sub(form).is_zero():
            raise K3Error("skew presentation does not reproduce the generators")
    q5 = pfaffian(a_entries)
    psi = [[zero for _ in range(5)] for _ in range(5)]
    for i in range(4):
        psi[0][i + 1] = ell[i].scale(p - 1)
        psi[i + 1][0] = ell[i]
    # block entries carry the complementary entry of A; the sign pattern is
    # the one for which the five principal Pfaffians come out as
    # (Pf(A), phi_1, phi_2, phi_3, phi_4) exactly
    sub = {(1, 2): a_entries[2][3], (1, 3): a_entries[1][3].scale(p - 1),
           (1, 4): a_entries[1][2], (2, 3): a_entries[0][3],
           (2, 4): a_entries[0][2].scale(p - 1), (3, 4): a_entries[0][1]}
    for (i, j), poly in sub.items():
        psi[i][j] = poly
        psi[j][i] = poly.scale(p - 1)
    pf = sub_pfaffians(psi)
    if not pf[0].sub(q5).is_zero():
        raise K3Error("first principal Pfaffian is not Pf(A)")
    for i in range(4):
        if not pf[i + 1].sub(forms[i]).is_zero():
            raise K3Error("sub-Pfaffians do not recover the quadric generators")
    return SkewPresentation(
        p, tuple(tuple(r) for r in psi), tuple(tuple(r) for r in a_entries),
        q5, ambiguity_dim,
    )


def pfaffian_reconstruct(schemes) -> list:
    """Skew 4x4 matrices A with phi_i = sum_j A_ij l_j, one per scheme, each
    assembled into its 5x5 psi; the schemes share the Koszul basis l.

    One elimination of [mat.dense() | rhs_1 .. rhs_n] solves every scheme: its
    kernel dimension must equal the rank of the explicit Koszul map, and
    the principal Pfaffians of each psi are compared with Pf(A) and with
    the scheme's forms coefficientwise.  The solution is the one with every
    free unknown zero, so it is linear in the right-hand side.
    """
    p = schemes[0].prime
    ell = schemes[0].ell
    h_keys = slice_keys(GENERIC_E, 1, 0)
    # e_ij -> l_j eps_i - l_i eps_j on the (2, -1) slices: one row per e_ij
    # times a monomial of h_keys, one column block per eps_i
    zero = CoxPoly(p)
    images = []
    for (i, j) in _PAIRS:
        row = [zero] * 4
        row[i], row[j] = ell[j], ell[i].scale(p - 1)
        images.append(row)
    mat = _linear_map(images, 2, -1, p)
    rhs = np.stack([np.concatenate([f.vector(GENERIC_E, 2, -1) for f in s.forms])
                    for s in schemes], axis=1)
    unknowns = mat.shape[1]
    reduced, pivots = rref_mod(np.concatenate([mat.dense(), rhs], axis=1), p)
    if pivots and pivots[-1] >= unknowns:
        raise K3Error("inconsistent system: no skew presentation exists")
    kernel_dim = unknowns - len(pivots)
    koszul_rank = koszul_ambiguity_rank(ell, p)
    if kernel_dim != koszul_rank:
        raise K3Error(
            f"reconstruction ambiguity {kernel_dim} != Koszul image rank {koszul_rank}"
        )
    out = []
    for column, scheme in enumerate(schemes):
        solution = np.zeros(unknowns, dtype=np.int64)
        solution[pivots] = reduced[: len(pivots), unknowns + column]
        a_entries = [[zero for _ in range(4)] for _ in range(4)]
        for (i, j), row in zip(_PAIRS, solution.reshape(len(_PAIRS), len(h_keys))):
            a_entries[i][j] = CoxPoly(p, h_keys, row)
            a_entries[j][i] = a_entries[i][j].scale(p - 1)
        out.append(_presentation(a_entries, scheme.forms, ell, kernel_dim))
    return out


def _combine(polys, weights, p: int) -> CoxPoly:
    """sum_k weights[k] * polys[k]."""
    return CoxPoly(p, np.concatenate([f.keys for f in polys]),
                   np.concatenate([f.coefs * (int(w) % p) for f, w in zip(polys, weights)]))


# --- the surface ideal and its resolution shape ------------------------------


@dataclass
class K3Surface:
    """A syzygy-scheme surface over R = F_p[theta]/(h), with
    h = theta^d + sum_s modulus[s] theta^s monic; modulus (0,) is F_p.

    parts[s] lists the generators' theta^s coordinates with their slice
    bidegrees, so over F_p parts[0] is the list of the five generators.  A
    slice span over F_p is the Weil restriction of the span over R: its row
    space is the R-span of the generator multiples, of F_p-dimension d times
    their R-dimension.
    """

    prime: int
    parts: tuple
    ambiguity_dim: int    # kernel dimension of the skew reconstruction
    modulus: tuple = (0,)

    @property
    def degree(self) -> int:
        return len(self.modulus)

    @property
    def generators(self) -> list:
        """The five generators with their slice bidegrees (over F_p)."""
        if self.degree != 1:
            raise ValueError("generators over a proper extension have no CoxPoly form")
        return list(self.parts[0])

    @property
    def q5(self) -> CoxPoly:
        return self.generators[-1][1]

    def generator_step(self) -> ResolutionStep:
        twists, gens = zip(*self.generators)
        return ResolutionStep(1, list(twists), list(gens), {})

    def slice_span(self, a: int, b: int) -> np.ndarray:
        """Row span of generator multiples inside the (a, b) Cox slice: for
        each generator, its multiples by cox_slice(a - ga, b - gb) in order;
        over R, the Weil restriction of that matrix."""
        coeffs = [free_map_matrix(*zip(*part), [(0, 0)], GENERIC_E, a, b, self.prime).images()
                  for part in self.parts]
        return weil_restriction(coeffs, self.modulus, self.prime)

    def saturated_dim(self, a: int, b: int) -> int:
        """F_p-dimension of the slice span predicted by the Euler
        characteristic."""
        return self.degree * (len(cox_slice(GENERIC_E, a, b)) - surface_chi(a, b))

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


@dataclass(frozen=True)
class SurfacePencil:
    """The syzygy-scheme surfaces of the pencil lam*s1 + mu*s2 at once.

    The forms are linear and q5 = Pf(lam P + mu Q) quadratic in (lam : mu):
    q5 holds the coefficients of lam^2, lam*mu and mu^2.
    """

    prime: int
    entries: tuple        # S1, S2
    forms: tuple          # the phi_k of s1 and of s2
    q5: tuple
    ambiguity_dim: int
    ranks: dict = field(default_factory=dict, compare=False, repr=False)

    def syzygy_rank(self, lam, mu, modulus=(0,)) -> int:
        """Rank over R = F_p[theta]/(h) of lam*S1 + mu*S2, modulus as in
        K3Surface and h irreducible; lam and mu are elements of R, given by
        their coordinates over 1, theta, .. (an int is a constant).  The
        Weil restriction has d times that rank over F_p.  It is computed once
        per member and kept in ranks."""
        key = repr((lam, mu, tuple(modulus)))
        if key not in self.ranks:
            p = self.prime
            s1, s2 = self.entries
            coeffs = [a * s1 + b * s2 for a, b in zip(*binary_powers(lam, mu, 1, modulus, p))]
            self.ranks[key] = rank_mod(weil_restriction(coeffs, modulus, p), p) // len(modulus)
        return self.ranks[key]

    def member(self, lam, mu, modulus=(0,)) -> K3Surface:
        """The member (lam : mu) over R, arguments as in syzygy_rank.
        Raises K3Error unless the member's syzygy has rank 4 over R."""
        rank = self.syzygy_rank(lam, mu, modulus)
        if rank != 4:
            raise K3Error(f"rank deficient: syzygy rank {rank} != 4")
        p = self.prime
        linear, quadratic = (binary_powers(lam, mu, n, modulus, p) for n in (1, 2))
        parts = []
        for s in range(len(modulus)):
            gens = [((2, -1), _combine(pair, linear[:, s], p)) for pair in zip(*self.forms)]
            gens.append(((2, 0), _combine(self.q5, quadratic[:, s], p)))
            parts.append(tuple(gens))
        return K3Surface(p, tuple(parts), self.ambiguity_dim, tuple(int(c) % p for c in modulus))


def surface_pencil(s1: np.ndarray, s2: np.ndarray, gen_polys) -> SurfacePencil:
    """The pencil of syzygy schemes spanned by the syzygies of 6x4 entries
    s1 and s2.

    The checks run once for all members: the syzygy identity and
    phi_i = sum_j A_ij l_j are linear in (lam : mu), so s1 and s2 cover the
    pencil; the Pfaffian identities are binary forms of degree at most 2
    in (lam : mu), so holding at (1 : 0), (0 : 1) and (1 : 1) they hold for
    every member over every extension of F_p.
    """
    p = gen_polys[0].prime
    schemes = [_koszul_scheme(s, gen_polys) for s in (s1, s2)]
    pres_p, pres_q = pfaffian_reconstruct(schemes)
    both = [[x.add(y) for x, y in zip(r1, r2)] for r1, r2 in zip(pres_p.askew, pres_q.askew)]
    forms = [f.add(g) for f, g in zip(schemes[0].forms, schemes[1].forms)]
    pres_sum = _presentation(both, forms, schemes[0].ell, pres_p.ambiguity_dim)
    mixed = pres_sum.q5.sub(pres_p.q5).sub(pres_q.q5)
    return SurfacePencil(
        p, (s1, s2), (schemes[0].forms, schemes[1].forms),
        (pres_p.q5, mixed, pres_q.q5), pres_p.ambiguity_dim,
    )


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
    probe = next_syzygies(ctx, step2, 4, window=(-2, -1, 0))
    if probe.gens:
        raise K3Error("shape mismatch: unexpected syzygies in H-degree 4")
    step3 = next_syzygies(ctx, step2, 5, window=(-3, -2, -1, 0))
    table = BigradedBettiTable.from_steps(K3_GENUS, K3_SECTION_GONALITY, [step1, step2, step3])
    # K3_SHAPE_TABLE is self-dual, so equality certifies the duality too
    if table.entries != K3_SHAPE_TABLE:
        raise K3Error(f"shape mismatch: {table.entries}")
    return table


# --- intersection numbers from the resolution --------------------------------


def _quadratic_fit(chi: dict) -> tuple:
    """(c0, .., c5) with chi(a, b) = c0 + c1 a + c2 b + c3 a^2 + c4 ab + c5 b^2,
    read off by second differences at (6, 0); K3Error unless every value of
    chi fits exactly."""
    c3 = Fraction(chi[7, 0] - 2 * chi[6, 0] + chi[5, 0], 2)
    c5 = Fraction(chi[6, 1] - 2 * chi[6, 0] + chi[6, -1], 2)
    c4 = chi[6, 1] - chi[6, 0] - chi[5, 1] + chi[5, 0]
    c1 = Fraction(chi[7, 0] - chi[5, 0], 2) - 12 * c3
    c2 = Fraction(chi[6, 1] - chi[6, -1], 2) - 6 * c4
    c0 = chi[6, 0] - 6 * c1 - 36 * c3
    for (a, b), v in chi.items():
        if c0 + c1 * a + c2 * b + c3 * a * a + c4 * a * b + c5 * b * b != v:
            raise K3Error(f"non-quadratic: chi{(a, b)} = {v} misses the fit")
    return c0, c1, c2, c3, c4, c5


def intersection_numbers_from_resolution(table: BigradedBettiTable) -> dict:
    """Fit chi(O_S(aH+bR)) over a grid where every twisted summand has
    nonnegative H-degree; the exact quadratic fit yields the intersection
    numbers and chi(O_S)."""
    chi = {(a, b): table.euler_characteristic(GENERIC_E, a, b)
           for a in (5, 6, 7) for b in (-2, -1, 0, 1, 2)}
    c0, c1, c2, c3, c4, c5 = _quadratic_fit(chi)
    if c1 != 0 or c2 != 0:
        raise K3Error("linear terms present: canonical class is not trivial")
    out = {
        "H2": int(2 * c3),
        "HN": int(c4),
        "N2": int(2 * c5),
        "chi": int(c0),
        "C_H": 2 * GENUS - 2,  # deg omega_C on the curve side
        "C_N": GONALITY,       # deg L, the pencil, on the curve side
        "C2": 2 * GENUS - 2,   # adjunction input
    }
    if (out["H2"], out["HN"], out["N2"]) != (K3_H2, K3_HN, K3_N2):
        raise K3Error(f"intersection numbers {out} do not match the expected lattice")
    if out["chi"] != 2:
        raise K3Error("structure sheaf Euler characteristic is not 2")
    return out


def verify_containment(surface: K3Surface, values: np.ndarray) -> bool:
    """True when every surface generator vanishes at every curve sample
    point; K3Error otherwise."""
    for (_twist, poly) in surface.generators:
        if np.any(poly.evaluate(values)):
            raise K3Error("surface generator does not vanish on the curve")
    return True
