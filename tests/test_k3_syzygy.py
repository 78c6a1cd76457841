import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollres import DEFAULT_PRIME as P
from scrollres import k3_syzygy
from scrollres.ffield import det_mod, kernel_mod, rank_mod, solve_mod
from scrollres.k3_syzygy import (
    K3_SHAPE_TABLE,
    K3Error,
    SyzygyVector,
    chern_balance,
    intersection_numbers_from_resolution,
    k3_betti_shape,
    koszul_ambiguity_rank,
    linear_syzygy_space,
    pencil_member,
    pfaffian,
    sub_pfaffians,
    surface_chi,
    surface_from_syzygy,
    syzygy_rank,
    syzygy_scheme,
    unit_completion,
    verify_containment,
)
from scrollres.pipeline import GAMMA_PARAMETERS
from scrollres.scroll import GENERIC_E, CoxPoly

from dict_cox import DictPoly, monomial
from oracles import greedy_unit_completion, reference_koszul_matrix, reference_solve_matrix


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
def surface(scheme):
    return surface_from_syzygy(scheme)


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
    skew = surface.skew
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
    assert surface.skew.ambiguity_dim == koszul_ambiguity_rank(scheme.ell, P) == 8


def test_q5_has_twist_2H(surface):
    assert DictPoly.from_keyed(surface.skew.q5).bidegrees() == {(2, 0)}


def test_q5_in_curve_ideal(surface, slice_ctx):
    q5v = surface.skew.q5.vector(GENERIC_E, 2, 0)
    assert solve_mod(slice_ctx.ideal_slice(2, 0).T, q5v, P) is not None


def test_containment(surface, slice_ctx):
    verify_containment(surface, slice_ctx.values(1, 120))


def test_surface_slices_saturated(surface):
    assert surface.verify_slice_saturated(2, -1) == 4
    assert surface.verify_slice_saturated(2, 0) == 9
    assert surface.verify_slice_saturated(3, -2) == 15
    assert surface.verify_slice_saturated(3, -1) == 34


def test_k3_shape(shape):
    assert shape.entries == K3_SHAPE_TABLE


def test_k3_shape_self_dual(shape):
    assert shape.is_self_dual()
    assert shape.rank(1) == 5 and shape.rank(2) == 5


def test_chern_balance():
    assert chern_balance(4, 1, 4, 1)
    assert not chern_balance(5, 0, 5, 0)  # 2*0 + 5 - 5 = 0
    assert not chern_balance(3, 2, 3, 2)
    with pytest.raises(ValueError):
        chern_balance(4, 2, 4, 1)


def test_intersection_numbers(shape):
    nums = intersection_numbers_from_resolution(shape)
    assert (nums["H2"], nums["HN"], nums["N2"]) == (14, 5, 0)
    assert nums["chi"] == 2
    assert nums["C_H"] == 16 and nums["C_N"] == 6 and nums["C2"] == 16


def test_surface_chi_values():
    assert surface_chi(1, 0) == 9   # h^0(O_S(H)): genus-8 model in P^8
    assert surface_chi(2, -1) == 20
    assert surface_chi(2, 0) == 30


def test_distinct_parameters_give_distinct_surfaces(syzygy_basis, generator_polys):
    seen = []
    for mu in (1, 2):
        member = pencil_member(syzygy_basis, 1, mu)
        surf = surface_from_syzygy(syzygy_scheme(member, generator_polys[:6]))
        seen.append(surf.skew.q5.vector(GENERIC_E, 2, 0))
    # q5 differs between pencil members (surfaces are distinct)
    assert rank_mod(np.stack(seen), P) == 2


def test_k3_matrices_match_hand_built_reference(monkeypatch, nonic_k3):
    # every rank-4 surface of the gamma loop on the fixture chain: its unit
    # completion, solve matrix and Koszul matrix against the reference builders
    calls = []
    scatter = k3_syzygy.free_map_matrix

    def recorded(step, e, a, b, p):
        out = scatter(step, e, a, b, p)
        calls.append(((a, b), out))
        return out

    monkeypatch.setattr(k3_syzygy, "free_map_matrix", recorded)
    surfaces = 0
    for lam, mu in GAMMA_PARAMETERS:
        member = pencil_member(nonic_k3["basis"], lam, mu)
        if syzygy_rank(member) != 4:
            continue
        left_kernel = kernel_mod(member.entries.T, P)
        assert unit_completion(left_kernel, P) == greedy_unit_completion(left_kernel, P)
        scheme = syzygy_scheme(member, nonic_k3["gens"])
        calls.clear()
        surface_from_syzygy(scheme)
        [(solve_slice, solve), (koszul_slice, koszul)] = calls
        assert (solve_slice, koszul_slice) == ((2, -1), (1, 0))
        assert np.array_equal(solve, reference_solve_matrix(scheme.ell, P))
        assert np.array_equal(koszul, reference_koszul_matrix(scheme.ell, P))
        surfaces += 1
    assert surfaces == 17


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, P]), k=st.integers(1, 4), data=st.data())
def test_unit_completion_matches_greedy_loop(p, k, data):
    # random rows, dependent ones included: both give [] for those
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=6 * k, max_size=6 * k))
    rows = np.array(entries, dtype=np.int64).reshape(k, 6)
    units = unit_completion(rows, p)
    assert units == greedy_unit_completion(rows, p)
    if rank_mod(rows, p) == k:
        assert len(units) == 6 - k
        assert rank_mod(np.concatenate([rows, np.eye(6, dtype=np.int64)[units]]), p) == 6
    else:
        assert units == []
