import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from scrollres import DEFAULT_PRIME as P
from scrollres import k3_syzygy
from scrollres.ffield import det_mod, rank_mod, solve_mod
from scrollres.k3_syzygy import (
    K3_GENUS,
    K3_SECTION_GONALITY,
    K3_SHAPE_TABLE,
    K3Error,
    SurfacePencil,
    intersection_numbers_from_resolution,
    k3_betti_shape,
    koszul_ambiguity_rank,
    linear_syzygy_space,
    koszul_basis,
    pfaffian,
    pfaffian_reconstruct,
    sub_pfaffians,
    surface_chi,
    surface_pencil,
    syzygy_scheme,
    verify_containment,
)
from scrollres.pipeline import GAMMA_PARAMETERS
from scrollres.resolution import BigradedBettiTable
from scrollres.scroll import GENERIC_E, CoxPoly, slice_keys

from dict_cox import DictPoly, cox_mul, monomial
from oracles import reference_koszul_matrix, reference_solve_matrix, solve_rational

#: 17 pencil parameters whose members the pencil must reproduce; the gamma
#: loop of the pipeline uses only the first rank-4 members of its own list
PENCIL_PARAMETERS = [(1, mu) for mu in range(16)] + [(0, 1)]


def const_poly(c, p=P):
    return monomial(p, (0, 0, 0, 0, 0), (0, 0), c % p)


def skew_from(upper, n, p=P):
    m = [[CoxPoly(p) for _ in range(n)] for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = const_poly(upper[k], p)
            m[j][i] = const_poly(-upper[k], p)
            k += 1
    return m


@pytest.fixture(scope="module")
def syzygy_basis(betti_data):
    _, steps = betti_data
    return linear_syzygy_space(steps, P)


@pytest.fixture(scope="module")
def scheme(syzygy_basis, generator_polys):
    s1, s2 = syzygy_basis
    return syzygy_scheme((s1 + 7 * s2) % P, generator_polys[:6])


@pytest.fixture(scope="module")
def pencil(syzygy_basis, generator_polys):
    return surface_pencil(*syzygy_basis, generator_polys[:6])


@pytest.fixture(scope="module")
def surface(pencil):
    return pencil.member(1, 7)


@pytest.fixture(scope="module")
def shape(slice_ctx, surface):
    return k3_betti_shape(slice_ctx, surface)


def test_linear_syzygy_space_dimension(syzygy_basis, pencil):
    s1, s2 = syzygy_basis
    assert s1.shape == s2.shape == (6, 4)
    assert pencil.syzygy_rank(1, 0) == 4
    assert pencil.syzygy_rank(0, 1) == 4


def test_generic_member_rank_four(pencil):
    for mu in (1, 3, 11):
        assert pencil.syzygy_rank(1, mu) == 4


def test_pencil_rank_is_the_rank_of_the_member(syzygy_basis, pencil):
    # over F_p, and over F_p[theta]/(theta^2 - c), c a non-square, where an
    # F_p-member keeps its rank
    s1, s2 = syzygy_basis
    c = next(c for c in range(2, P) if pow(c, (P - 1) // 2, P) == P - 1)
    assert len(GAMMA_PARAMETERS) == 17
    for lam, mu in GAMMA_PARAMETERS:
        rank = rank_mod((lam * s1 + mu * s2) % P, P)
        assert pencil.syzygy_rank(lam, mu) == rank
        assert pencil.syzygy_rank(lam, mu, (-c, 0)) == rank


def test_syzygy_rank_degenerate_inputs():
    zero = np.zeros((6, 4), dtype=np.int64)
    same = np.tile([1, 2, 3, 4], (6, 1))
    degenerate = SurfacePencil(P, (zero, same), forms=(), q5=(), ambiguity_dim=0)
    assert degenerate.syzygy_rank(1, 0) == 0
    assert degenerate.syzygy_rank(0, 1) == 1
    for lam, mu in ((1, 0), (0, 1), (1, 1)):
        with pytest.raises(K3Error, match="rank deficient"):
            degenerate.member(lam, mu)


def test_syzygy_scheme_rejects_low_rank(generator_polys):
    rank3 = np.zeros((6, 4), dtype=np.int64)
    rank3[0, 0] = rank3[1, 1] = rank3[2, 2] = 1
    with pytest.raises(K3Error, match="rank deficient"):
        syzygy_scheme(rank3, generator_polys[:6])


def test_scheme_annihilates_generators(scheme):
    acc = CoxPoly(P)
    for f, l in zip(scheme.forms, scheme.ell):
        acc = acc.add(cox_mul(f, l))
    assert acc.is_zero()


def test_scheme_vanishes_on_curve(scheme, slice_ctx):
    values = slice_ctx.values(100)
    for f in scheme.forms:
        assert not np.any(f.evaluate(values))


def test_entries_span_four_dimensional_space(scheme):
    span = np.stack([l.vector(GENERIC_E, 1, -1) for l in scheme.ell])
    assert rank_mod(span, P) == 4


def test_pfaffian_2x2():
    m = skew_from([5], 2)
    assert m[0][1].sub(pfaffian(m)).is_zero()


def test_pfaffian_4x4_classical():
    # a12*a34 - a13*a24 + a14*a23
    vals = [2, 3, 5, 7, 11, 13]
    m = skew_from(vals, 4)
    expected = (2 * 13 - 3 * 11 + 5 * 7) % P
    assert pfaffian(m).sub(const_poly(expected)).is_zero()


def test_pfaffian_squared_is_determinant():
    rng = random.Random(7)
    for _ in range(5):
        vals = [rng.randrange(P) for _ in range(6)]
        m = skew_from(vals, 4)
        pf = pfaffian(m).coefs.tolist()
        pf_val = pf[0] if pf else 0
        a = np.zeros((4, 4), dtype=np.int64)
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                a[i, j] = vals[k] % P
                a[j, i] = (-vals[k]) % P
                k += 1
        assert pf_val * pf_val % P == det_mod(a, P)


def test_pfaffian_rejects_non_skew():
    m = skew_from([1, 2, 3, 4, 5, 6], 4)
    m[0][1] = const_poly(9)  # break skewness
    with pytest.raises(K3Error, match="not skew"):
        pfaffian(m)


def _psi_times(m, pf, p):
    """The five entries of m . pf, m a 5x5 matrix of CoxPoly."""
    out = []
    for row in m:
        acc = CoxPoly(p)
        for entry, v in zip(row, pf, strict=True):
            acc = acc.add(cox_mul(entry, v))
        out.append(acc)
    return out


@pytest.mark.parametrize("p", [P, 2147483647])
@pytest.mark.parametrize("kind", ["constant", "linear"])
def test_sub_pfaffian_identity_random_scalar(kind, p):
    # psi . (signed sub-Pfaffians) = 0 for every 5x5 skew matrix: random
    # constants, and random linear forms of the slice (1, -1) that the
    # Koszul entries of the surface's psi live in
    rng = random.Random(1)
    if kind == "constant":
        m = skew_from([rng.randrange(p) for _ in range(10)], 5, p)
    else:
        keys = slice_keys(GENERIC_E, 1, -1)
        m = [[CoxPoly(p) for _ in range(5)] for _ in range(5)]
        for i, j in itertools.combinations(range(5), 2):
            m[i][j] = CoxPoly(p, keys, [rng.randrange(p) for _ in keys])
            m[j][i] = m[i][j].scale(p - 1)
    pf = sub_pfaffians(m)
    assert not any(v.is_zero() for v in pf)
    for acc in _psi_times(m, pf, p):
        assert acc.is_zero()


def test_skew_presentation(surface, scheme):
    # the member's own solve and the pencil's evaluation give one surface
    skew, = pfaffian_reconstruct([scheme])
    for (_twist, poly), want in zip(surface.generators, list(scheme.forms) + [skew.q5], strict=True):
        assert poly.sub(want).is_zero()
    # skew symmetry of psi, zero diagonal
    for i in range(5):
        assert skew.psi[i][i].is_zero()
        for j in range(5):
            assert skew.psi[i][j].add(skew.psi[j][i]).is_zero()
    # psi . (signed sub-Pfaffians) = 0 and the Pfaffians are (q5, f'_1..f'_4)
    pf = sub_pfaffians([list(r) for r in skew.psi])
    for acc in _psi_times(skew.psi, pf, P):
        assert acc.is_zero()
    assert pf[0].sub(skew.q5).is_zero()
    for i in range(4):
        assert pf[i + 1].sub(scheme.forms[i]).is_zero()


def test_ambiguity_matches_koszul_rank(surface, scheme):
    assert surface.ambiguity_dim == koszul_ambiguity_rank(scheme.ell, P) == 8


def test_q5_has_twist_2H(surface):
    assert DictPoly.from_keyed(surface.q5).bidegrees() == {(2, 0)}


def test_q5_in_curve_ideal(surface, slice_ctx):
    q5v = surface.q5.vector(GENERIC_E, 2, 0)
    assert solve_mod(slice_ctx.ideal_slice(2, 0).T, q5v, P) is not None


def test_containment(surface, slice_ctx):
    verify_containment(surface, slice_ctx.values(230)[:, 110:])  # past the chain's 110


def test_surface_slices_saturated(surface):
    assert len(surface.saturated_span(2, -1)[2]) == 4
    assert len(surface.saturated_span(2, 0)[2]) == 9
    assert len(surface.saturated_span(3, -2)[2]) == 15
    assert len(surface.saturated_span(3, -1)[2]) == 34


def test_k3_shape(shape):
    assert shape.entries == K3_SHAPE_TABLE


def test_k3_shape_self_dual(shape):
    assert shape.is_self_dual()
    assert shape.rank(1) == 5 and shape.rank(2) == 5


def test_k3_shape_table_is_self_dual():
    # k3_betti_shape compares with this table only, so its self-duality
    # stands in for the duality of every accepted shape
    table = BigradedBettiTable(K3_GENUS, K3_SECTION_GONALITY, K3_SHAPE_TABLE)
    assert table.is_self_dual()


def test_k3_shape_is_tallied_from_the_steps(monkeypatch, slice_ctx, surface):
    steps = []
    real = k3_syzygy.next_syzygies

    def recorded(*args, **kwargs):
        steps.append(real(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(k3_syzygy, "next_syzygies", recorded)
    k3_betti_shape(slice_ctx, surface)
    step2, probe, step3 = steps
    assert probe.gens == []
    table = BigradedBettiTable.from_steps(K3_GENUS, K3_SECTION_GONALITY,
                                          [surface.generator_step(), step2, step3])
    assert table.entries == K3_SHAPE_TABLE


def test_one_extra_twist_in_step_2_is_a_shape_mismatch(monkeypatch, slice_ctx, surface):
    # step 2 gains one (3, -2) twist; the later steps are computed from the
    # true step 2, so only the tally sees the extra twist
    real = k3_syzygy.next_syzygies

    def with_extra_twist(ctx, prev, a, window):
        if a == 3:
            step = real(ctx, prev, a, window)
            return dataclasses.replace(step, twists=step.twists + [(3, -2)])
        return real(ctx, dataclasses.replace(prev, twists=prev.twists[:-1]), a, window)

    monkeypatch.setattr(k3_syzygy, "next_syzygies", with_extra_twist)
    with pytest.raises(K3Error, match="shape mismatch") as raised:
        k3_betti_shape(slice_ctx, surface)
    assert "(2, 3, 2): 2" in str(raised.value)


def test_intersection_numbers(shape):
    nums = intersection_numbers_from_resolution(shape)
    assert (nums["H2"], nums["HN"], nums["N2"]) == (14, 5, 0)
    assert nums["chi"] == 2
    assert nums["C_H"] == 16 and nums["C_N"] == 6 and nums["C2"] == 16


CHI_GRID = [(a, b) for a in (5, 6, 7) for b in (-2, -1, 0, 1, 2)]
SHAPE_TABLE = BigradedBettiTable(K3_GENUS, K3_SECTION_GONALITY, K3_SHAPE_TABLE)


def test_quadratic_fit_matches_the_reference_solver(monkeypatch):
    # the chi grid of the surface, random quadratics with half-integer
    # squares, and random grids that no quadratic fits
    fit = k3_syzygy._quadratic_fit
    grids = []
    monkeypatch.setattr(k3_syzygy, "_quadratic_fit", lambda chi: grids.append(chi) or fit(chi))
    intersection_numbers_from_resolution(SHAPE_TABLE)
    rng = random.Random(11)
    for _ in range(20):
        c = [Fraction(rng.randint(-30, 30), rng.choice((1, 2))) for _ in range(6)]
        grids.append({(a, b): c[0] + c[1] * a + c[2] * b + c[3] * a * a + c[4] * a * b + c[5] * b * b
                      for a, b in CHI_GRID})
    grids += [{ab: rng.randint(-99, 99) for ab in CHI_GRID} for _ in range(5)]
    rejected = 0
    for chi in grids:
        rows = [[1, a, b, a * a, a * b, b * b] for a, b in CHI_GRID]
        x, unique = solve_rational(rows, [chi[ab] for ab in CHI_GRID])
        if x is None:
            rejected += 1
            with pytest.raises(K3Error, match="non-quadratic"):
                fit(chi)
        else:
            assert unique and fit(chi) == tuple(x)
    assert rejected == 5
    assert fit(grids[0]) == (2, 0, 0, 7, 5, 0)


@pytest.mark.parametrize("point", CHI_GRID, ids=str)
def test_a_chi_off_by_one_is_not_quadratic(monkeypatch, point):
    fit = k3_syzygy._quadratic_fit
    monkeypatch.setattr(k3_syzygy, "_quadratic_fit",
                        lambda chi: fit({**chi, point: chi[point] + 1}))
    with pytest.raises(K3Error, match="non-quadratic"):
        intersection_numbers_from_resolution(SHAPE_TABLE)


def test_surface_chi_values():
    assert surface_chi(1, 0) == 9   # h^0(O_S(H)): genus-8 model in P^8
    assert surface_chi(2, -1) == 20
    assert surface_chi(2, 0) == 30


def test_distinct_parameters_give_distinct_surfaces(pencil):
    seen = []
    for mu in (1, 2):
        seen.append(pencil.member(1, mu).q5.vector(GENERIC_E, 2, 0))
    # q5 differs between pencil members (surfaces are distinct)
    assert rank_mod(np.stack(seen), P) == 2


def test_k3_matrices_match_hand_built_reference(monkeypatch, nonic_k3):
    # the pencil of the fixture chain builds one solve matrix and one Koszul
    # matrix, in the Koszul basis l = (x1..x4) that every member shares;
    # both against the reference builders, and every rank-4 member of the
    # gamma loop is the one the member's own scheme and solve give
    calls = []
    scatter = k3_syzygy.free_map_matrix

    def recorded(twists, gens, cod_twists, e, a, b, p):
        out = scatter(twists, gens, cod_twists, e, a, b, p)
        calls.append(((a, b), out))
        return out

    monkeypatch.setattr(k3_syzygy, "free_map_matrix", recorded)
    s1, s2 = nonic_k3["basis"]
    pencil = surface_pencil(s1, s2, nonic_k3["gens"])
    [(solve_slice, solve), (koszul_slice, koszul)] = calls
    assert (solve_slice, koszul_slice) == ((2, -1), (1, 0))
    ell = koszul_basis(P)
    assert np.array_equal(solve.images(), reference_solve_matrix(ell, P))
    assert np.array_equal(koszul.images(), reference_koszul_matrix(ell, P))
    surfaces = 0
    for lam, mu in PENCIL_PARAMETERS:
        if pencil.syzygy_rank(lam, mu) != 4:
            continue
        scheme = syzygy_scheme((lam * s1 + mu * s2) % P, nonic_k3["gens"])
        calls.clear()
        skew, = pfaffian_reconstruct([scheme])
        assert [c[0] for c in calls] == [(2, -1), (1, 0)]
        assert np.array_equal(calls[0][1].dense(), solve.dense())
        assert np.array_equal(calls[1][1].dense(), koszul.dense())
        want = list(scheme.forms) + [skew.q5]
        for (_twist, poly), ref in zip(pencil.member(lam, mu).generators, want, strict=True):
            assert np.array_equal(poly.keys, ref.keys) and np.array_equal(poly.coefs, ref.coefs)
        assert skew.ambiguity_dim == pencil.ambiguity_dim
        surfaces += 1
    assert surfaces == 17


def test_pencil_checks_the_syzygy_identity_of_its_basis(syzygy_basis, generator_polys):
    # the identity is linear in (lam : mu): checked on s1 and s2, it covers
    # every member, so a corrupted basis vector must be caught
    s1, s2 = syzygy_basis
    entries = s2.copy()
    entries[0, 0] = (entries[0, 0] + 1) % P
    with pytest.raises(K3Error, match="syzygy identity failed"):
        surface_pencil(s1, entries, generator_polys[:6])
