import random

import numpy as np
import pytest

from scrollres import DEFAULT_PRIME as P
from scrollres import k3_syzygy
from scrollres.ffield import det_mod, rank_mod, solve_mod
from scrollres.k3_syzygy import (
    K3_SHAPE_TABLE,
    K3Error,
    SyzygyVector,
    intersection_numbers_from_resolution,
    k3_betti_shape,
    koszul_ambiguity_rank,
    linear_syzygy_space,
    koszul_basis,
    pencil_member,
    pfaffian,
    pfaffian_reconstruct,
    sub_pfaffians,
    surface_chi,
    surface_pencil,
    syzygy_rank,
    syzygy_scheme,
    verify_containment,
)
from scrollres.scroll import GENERIC_E, CoxPoly

from dict_cox import DictPoly, monomial
from oracles import reference_koszul_matrix, reference_solve_matrix

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
    member = pencil_member(syzygy_basis, 1, 7)
    return syzygy_scheme(member, generator_polys[:6])


@pytest.fixture(scope="module")
def pencil(syzygy_basis, generator_polys):
    s1, s2 = (pencil_member(syzygy_basis, *par) for par in ((1, 0), (0, 1)))
    return surface_pencil(s1, s2, generator_polys[:6])


@pytest.fixture(scope="module")
def surface(pencil):
    return pencil.member(1, 7)


@pytest.fixture(scope="module")
def shape(slice_ctx, surface):
    return k3_betti_shape(slice_ctx, surface)


def test_linear_syzygy_space_dimension(syzygy_basis):
    s1, s2 = syzygy_basis
    assert s1.entries.shape == (6, 4)
    assert syzygy_rank(s1) == 4
    assert syzygy_rank(s2) == 4


def test_generic_member_rank_four(syzygy_basis):
    for mu in (1, 3, 11):
        assert syzygy_rank(pencil_member(syzygy_basis, 1, mu)) == 4


def test_syzygy_rank_degenerate_inputs():
    zero = SyzygyVector(P, np.zeros((6, 4), dtype=np.int64), (0, 0))
    assert syzygy_rank(zero) == 0
    same = SyzygyVector(P, np.tile([1, 2, 3, 4], (6, 1)), (1, 0))
    assert syzygy_rank(same) == 1


def test_syzygy_scheme_rejects_low_rank(generator_polys):
    rank3 = np.zeros((6, 4), dtype=np.int64)
    rank3[0, 0] = rank3[1, 1] = rank3[2, 2] = 1
    with pytest.raises(K3Error, match="rank deficient"):
        syzygy_scheme(SyzygyVector(P, rank3, (1, 0)), generator_polys[:6])


def test_scheme_annihilates_generators(scheme):
    acc = CoxPoly(P)
    for f, l in zip(scheme.forms, scheme.ell):
        acc = acc.add(f.mul(l))
    assert acc.is_zero()


def test_scheme_vanishes_on_curve(scheme, slice_ctx):
    values = slice_ctx.values(0, 100)
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


def test_sub_pfaffian_identity_random_scalar():
    rng = random.Random(1)
    m = skew_from([rng.randrange(P) for _ in range(10)], 5)
    pf = sub_pfaffians(m)
    for i in range(5):
        acc = CoxPoly(P)
        for j in range(5):
            acc = acc.add(m[i][j].mul(pf[j]))
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
    pf = skew.check_identity()
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
    verify_containment(surface, slice_ctx.values(1, 120))


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


def test_intersection_numbers(shape):
    nums = intersection_numbers_from_resolution(shape)
    assert (nums["H2"], nums["HN"], nums["N2"]) == (14, 5, 0)
    assert nums["chi"] == 2
    assert nums["C_H"] == 16 and nums["C_N"] == 6 and nums["C2"] == 16


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

    def recorded(step, e, a, b, p):
        out = scatter(step, e, a, b, p)
        calls.append(((a, b), out))
        return out

    monkeypatch.setattr(k3_syzygy, "free_map_matrix", recorded)
    basis = nonic_k3["basis"]
    pencil = surface_pencil(pencil_member(basis, 1, 0), pencil_member(basis, 0, 1), nonic_k3["gens"])
    [(solve_slice, solve), (koszul_slice, koszul)] = calls
    assert (solve_slice, koszul_slice) == ((2, -1), (1, 0))
    ell = koszul_basis(P)
    assert np.array_equal(solve, reference_solve_matrix(ell, P))
    assert np.array_equal(koszul, reference_koszul_matrix(ell, P))
    surfaces = 0
    for lam, mu in PENCIL_PARAMETERS:
        member = pencil_member(basis, lam, mu)
        if syzygy_rank(member) != 4:
            continue
        scheme = syzygy_scheme(member, nonic_k3["gens"])
        calls.clear()
        skew, = pfaffian_reconstruct([scheme])
        assert [c[0] for c in calls] == [(2, -1), (1, 0)]
        assert np.array_equal(calls[0][1], solve) and np.array_equal(calls[1][1], koszul)
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
    entries = s2.entries.copy()
    entries[0, 0] = (entries[0, 0] + 1) % P
    with pytest.raises(K3Error, match="syzygy identity failed"):
        surface_pencil(s1, SyzygyVector(P, entries, s2.params), generator_polys[:6])
