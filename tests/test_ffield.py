import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scrollres.ffield as ffield
from oracles import reference_gcd, reference_rank_over_quadratic, reference_roots_mod
from scrollres.ffield import (
    FieldError,
    SliceMap,
    binary_powers,
    check_prime,
    det_mod,
    gcd_mod,
    is_prime,
    kernel_mod,
    mul_mod,
    rank_mod,
    roots_mod,
    roots_mod_batch,
    rref_mod,
    solve_mod,
    weil_restriction,
)
from scrollres.lattice import det_cofactor

P = 10007


def test_prime_checks():
    assert is_prime(P)
    assert not is_prime(10006)
    with pytest.raises(FieldError):
        check_prime(10006)


def test_check_prime_names_a_wrong_type():
    assert check_prime(P) == P
    with pytest.raises(TypeError, match="not int64"):
        check_prime(np.int64(P))
    with pytest.raises(TypeError, match="not bool"):
        check_prime(True)


def test_rank_identity():
    m = np.eye(3, dtype=np.int64)
    assert rank_mod(m, P) == 3


def test_rank_zero_matrix():
    m = np.zeros((4, 2), dtype=np.int64)
    assert rank_mod(m, P) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]] row-reduces to [[1,2],[0,0]] by hand
    m = np.array([[1, 2], [2, 4]])
    assert rank_mod(m, P) == 1


def test_kernel_identity_empty():
    assert list(kernel_mod(np.eye(5, dtype=np.int64), P)) == []


def test_kernel_single_row():
    m = np.array([[1, 1]])
    (v,) = kernel_mod(m, P)
    # proportional to (1, p-1)
    assert v[0] * (P - 1) % P == v[1] % P
    assert (m @ v) % P == 0


def test_kernel_substitution_oracle():
    m = np.array([[1, 2], [2, 4]])
    basis = kernel_mod(m, P)
    assert len(basis) == 1
    for v in basis:
        assert np.all(mul_mod(m, v.reshape(-1, 1), P) == 0)


def test_solve_identity():
    m = np.eye(4, dtype=np.int64)
    b = np.array([3, 1, 4, 1])
    x = solve_mod(m, b, P)
    assert np.array_equal(x, b)


def test_solve_no_solution():
    m = np.zeros((3, 3), dtype=np.int64)
    assert solve_mod(m, [1, 0, 0], P) is None


def test_solve_construct_then_solve():
    rng = np.random.default_rng(7)
    while True:
        a = rng.integers(0, P, size=(6, 6))
        if rank_mod(a, P) == 6:
            break
    x0 = rng.integers(0, P, size=6)
    b = mul_mod(a, x0, P)
    x = solve_mod(a % P, b, P)
    assert x is not None
    assert np.array_equal(mul_mod(a, x, P), b % P)


def test_det_mod_matches_numpy_small():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 7, size=(4, 4))
        expected = round(float(np.linalg.det(a))) % P
        assert det_mod(a, P) == expected


@st.composite
def det_cases(draw):
    """(p, square matrix, kind): kind "singular" makes the last row a
    combination of the others, "swap" zeroes the leading entry."""
    p = draw(st.sampled_from([10007, 2147483629]))
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["any", "singular", "swap"]))
    if kind == "singular":
        weights = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum(w * row[c] for w, row in zip(weights, a)) % p for c in range(n)]
    elif kind == "swap":
        a[0][0] = 0
        if n > 1:
            a[1][0] = draw(st.integers(1, p - 1))
    return p, a, kind


@settings(max_examples=300, deadline=None)
@given(det_cases())
def test_det_mod_matches_cofactor_expansion(case):
    p, a, kind = case
    got = det_mod(np.array(a, dtype=np.int64), p)
    assert got == det_cofactor(a) % p
    if kind == "singular":
        assert got == 0


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_kernel_basis_detects_reordering():
    a = np.array([[1, 2, 3], [0, 1, 1]])
    b = np.array([[2, 4, 6], [1, 3, 4]])  # row ops of a
    c = np.array([[1, 0, 0], [0, 1, 0]])
    assert _same_bytes(kernel_mod(a, P), kernel_mod(b, P))
    assert not np.array_equal(kernel_mod(a, P), kernel_mod(c, P))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(lambda c: st.tuples(
        st.lists(st.lists(st.integers(0, P - 1), min_size=c, max_size=c), min_size=r, max_size=r),
        st.lists(st.lists(st.integers(0, P - 1), min_size=r, max_size=r), min_size=r, max_size=r),
        st.lists(st.integers(1, P - 1), min_size=r, max_size=r),
        st.permutations(range(r)),
    )))
)
def test_kernel_basis_depends_only_on_the_kernel(case):
    """kernel_mod(A) is a function of ker A alone, so two samples of one
    ideal slice can be compared with np.array_equal: an invertible G (unit
    lower times invertible upper triangular) and a row permutation of A
    leave the returned basis byte-identical."""
    rows, square, diagonal, perm = case
    a = np.array(rows, dtype=np.int64)
    square = np.array(square, dtype=np.int64)
    lower = np.tril(square, -1) + np.eye(len(rows), dtype=np.int64)
    upper = np.triu(square, 1) + np.diag(diagonal)
    g = mul_mod(lower, upper, P)
    k = kernel_mod(a, P)
    assert _same_bytes(kernel_mod(mul_mod(g, a, P), P), k)
    assert _same_bytes(kernel_mod(a[list(perm)], P), k)


matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, P - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_kernel_dimension_formula(rows):
    a = np.array(rows, dtype=np.int64)
    k = kernel_mod(a, P)
    assert rank_mod(a, P) + len(k) == a.shape[1]


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(rows):
    a = np.array(rows, dtype=np.int64)
    for v in kernel_mod(a, P):
        assert np.all(mul_mod(a, v.reshape(-1, 1), P) == 0)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_transpose_invariant(rows):
    a = np.array(rows, dtype=np.int64)
    assert rank_mod(a, P) == rank_mod(a.T, P)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_solve_in_span_roundtrip(rows):
    a = np.array(rows, dtype=np.int64)
    rng = np.random.default_rng(int(a.sum()) % 2**31)
    x0 = rng.integers(0, P, size=a.shape[1])
    b = mul_mod(a, x0, P)
    x = solve_mod(a, b, P)
    assert x is not None
    assert np.array_equal(mul_mod(a, x, P), b)


# --- tall matrices: certified compressed elimination ------------------------


def _hand_gauss_jordan(a, p):
    """Textbook Gauss-Jordan on Python ints: an oracle independent of ffield.

    Returns (RREF, pivots, det), det being the product of the pivots before
    scaling, negated once per row swap."""
    m = [[int(v) % p for v in row] for row in a]
    rows, cols = len(m), len(m[0])
    pivots, pr, det = [], 0, 1
    for c in range(cols):
        piv = next((i for i in range(pr, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != pr:
            det = -det
        m[pr], m[piv] = m[piv], m[pr]
        det = det * m[pr][c] % p
        inv = pow(m[pr][c], -1, p)
        m[pr] = [v * inv % p for v in m[pr]]
        for i in range(rows):
            if i != pr and m[i][c]:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[pr])]
        pivots.append(c)
        pr += 1
        if pr == rows:
            break
    return np.array(m, dtype=np.int64), pivots, det


def _hand_rref(a, p):
    return _hand_gauss_jordan(a, p)[:2]


def _tall(rng, rows, cols, kernel_dim, p, density=0.08):
    """Sparse rows x cols matrix of rank cols - kernel_dim (with high probability)."""
    rank = cols - kernel_dim
    left = rng.integers(0, p, size=(rows, rank)) * (rng.random((rows, rank)) < density)
    left[:rank] += np.eye(rank, dtype=np.int64)  # keeps the full rank
    right = rng.integers(0, p, size=(rank, cols)) * (rng.random((rank, cols)) < 0.3)
    right[:, :rank] += np.eye(rank, dtype=np.int64)
    return mul_mod(left, right, p)[rng.permutation(rows)]


def _assert_same_rref(a, p):
    r, pivots = rref_mod(a, p)
    r0, pivots0 = ffield._rref_direct(a, p)
    assert r.dtype == r0.dtype and r.shape == r0.shape == a.shape
    assert r.tobytes() == r0.tobytes()
    assert pivots == pivots0
    return r, pivots


@pytest.mark.parametrize("p", [101, 10007, 100003])
@pytest.mark.parametrize("kernel_dim", [0, 1, 2, 7])
def test_tall_rref_matches_direct_elimination(p, kernel_dim):
    rng = np.random.default_rng(1000 * kernel_dim + p)
    a = _tall(rng, 400, 60, kernel_dim, p)
    assert ffield._compressible(*a.shape)
    _r, pivots = _assert_same_rref(a, p)
    assert len(pivots) == 60 - kernel_dim
    k = kernel_mod(a, p)
    assert k.shape == (kernel_dim, 60)
    assert not np.any(mul_mod(a, k.T, p))


@pytest.mark.parametrize("p", [101, 10007, 100003])
def test_tall_rref_matches_hand_reduction(p):
    rng = np.random.default_rng(p)
    a = _tall(rng, 40, 12, 3, p, density=0.3)
    assert ffield._compressible(*a.shape)
    r, pivots = rref_mod(a, p)
    r_hand, pivots_hand = _hand_rref(a, p)
    assert pivots == pivots_hand
    assert np.array_equal(r, r_hand)


@pytest.mark.parametrize("p", [101, 10007, 100003])
def test_tall_duplicated_rows(p):
    rng = np.random.default_rng(7 * p)
    base = rng.integers(0, p, size=(20, 30))
    a = np.concatenate([base, base, 3 * base % p, base[::-1]])  # 80 x 30, rank 20
    _r, pivots = _assert_same_rref(a, p)
    assert len(pivots) == 20
    assert rank_mod(a, p) == 20


@pytest.mark.parametrize("p", [101, 10007, 100003])
def test_tall_augmented_solve(p):
    rng = np.random.default_rng(11 * p)
    a = _tall(rng, 300, 40, 2, p)
    x0 = rng.integers(0, p, size=40)
    b = mul_mod(a, x0, p)
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    _assert_same_rref(aug, p)
    x = solve_mod(a, b, p)
    assert x is not None and np.array_equal(mul_mod(a, x, p), b)
    # a right-hand side outside the column span is detected
    bad = b.copy()
    while rank_mod(np.concatenate([a, bad.reshape(-1, 1)], axis=1), p) == rank_mod(a, p):
        bad[rng.integers(0, 300)] += 1
    assert solve_mod(a, bad % p, p) is None


def test_tall_all_zero_matrix():
    a = np.zeros((50, 10), dtype=np.int64)
    r, pivots = rref_mod(a, P)
    assert pivots == [] and not np.any(r) and r.shape == (50, 10)
    assert np.array_equal(kernel_mod(a, P), np.eye(10, dtype=np.int64))


def test_rank_deficient_projection_falls_back(monkeypatch):
    """A projection that loses rank fails the certificate every time; the
    result still comes from direct elimination."""
    rng = np.random.default_rng(5)
    a = _tall(rng, 120, 30, 2, P)
    expected = ffield._rref_direct(a, P)
    good = ffield._projection_block
    calls = []

    def one_row_repeated(seed, start, rows, cols, p):
        calls.append(rows)
        return np.tile(good(seed, start, 1, cols, p), (rows, 1))

    monkeypatch.setattr(ffield, "_projection_block", one_row_repeated)
    r, pivots = rref_mod(a, P)
    assert len(calls) == ffield._SEEDS
    assert pivots == expected[1] and r.tobytes() == expected[0].tobytes()


def test_rank_deficient_projection_retries(monkeypatch):
    """One bad projection is caught by the certificate and the next seed is used."""
    rng = np.random.default_rng(6)
    a = _tall(rng, 120, 30, 2, P)
    expected = ffield._rref_direct(a, P)
    good = ffield._projection_block
    calls = []

    def bad_first(seed, start, rows, cols, p):
        calls.append(rows)
        block = good(seed, start, rows, cols, p)
        if len(calls) == 1:
            block[1:] = 0
        return block

    def no_direct(a, p):
        raise AssertionError("direct elimination should not be needed")

    monkeypatch.setattr(ffield, "_projection_block", bad_first)
    monkeypatch.setattr(ffield, "_rref_direct", no_direct)
    r, pivots = rref_mod(a, P)
    assert len(calls) == 2
    assert pivots == expected[1] and r.tobytes() == expected[0].tobytes()


def test_prime_near_2_31_is_compressed(monkeypatch):
    q = 2147483629
    assert is_prime(q) and q < ffield.MAX_PRIME and ffield._split(q)
    rng = np.random.default_rng(8)
    a = _tall(rng, 60, 10, 1, q, density=0.3)
    assert ffield._compressible(*a.shape)
    projected = []
    project = ffield._project

    def counted(*args):
        projected.append(args[2])
        return project(*args)

    def no_direct(*_args):
        raise AssertionError("the compressed elimination is exact at every supported prime")

    monkeypatch.setattr(ffield, "_project", counted)
    monkeypatch.setattr(ffield, "_rref_direct", no_direct)
    r, pivots = rref_mod(a, q)
    assert projected == [0]
    r_hand, pivots_hand = _hand_rref(a, q)
    assert pivots == pivots_hand and np.array_equal(r, r_hand)
    assert kernel_mod(a, q).shape == (1, 10)


# --- slice maps: kernels and RREFs from the nonzeros ----------------------


def _slice_map(a, p):
    """The SliceMap of the dense matrix a, by its nonzeros in shuffled order."""
    rows, cols = np.nonzero(a)
    order = np.random.default_rng(len(rows)).permutation(len(rows))
    rows, cols = rows[order], cols[order]
    return SliceMap(p, (1, 0), a.shape, rows, cols, a[rows, cols])


def _slice_map_cases(p):
    """Tall sparse maps of several kernel dimensions, one that spans several
    codomain blocks, and maps that are empty, zero-row, all zero or not
    tall."""
    rng = np.random.default_rng(p % 65521)
    tall = [_tall(rng, rows, cols, k, p, density=0.05)
            for rows, cols, k in ((60, 10, 0), (60, 10, 3), (150, 30, 2), (300, 40, 5))]
    wide = rng.integers(0, p, size=(20, 35)) * (rng.random((20, 35)) < 0.2)
    return tall + [
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((0, 7), dtype=np.int64),
        np.zeros((7, 0), dtype=np.int64),
        np.zeros((50, 10), dtype=np.int64),
        tall[2][:38],  # rows = cols + 8: not tall
        wide,
        wide.T.copy(),
    ]


@pytest.mark.parametrize("p", [2, 101, 10007, 94906249, 94906297, 2147483629])
def test_slice_map_kernel_and_rref_match_dense(p):
    for a in _slice_map_cases(p):
        m = _slice_map(a, p)
        assert m.dense().tobytes() == a.tobytes() and m.dense().shape == a.shape
        assert m.images().tobytes() == np.ascontiguousarray(a.T).tobytes()
        kernel, expected = m.kernel(), kernel_mod(a, p)
        assert kernel.dtype == expected.dtype and kernel.shape == expected.shape
        assert kernel.tobytes() == expected.tobytes()
        (r, pivots), (r0, pivots0) = m.rref(), rref_mod(a.T, p)
        assert pivots == pivots0 and r.shape == r0.shape and r.tobytes() == r0.tobytes()


def test_slice_map_tall_kernel_never_densifies(monkeypatch):
    # a tall map is projected and certified from its codomain blocks; the
    # last of the 300 rows makes a short block
    a = _tall(np.random.default_rng(3), 300, 40, 5, P, density=0.05)
    m = _slice_map(a, P)
    assert 300 % ffield._MAP_ROWS and 300 > ffield._MAP_ROWS
    monkeypatch.setattr(SliceMap, "dense", lambda _self: pytest.fail("densified"))
    assert m.kernel().tobytes() == kernel_mod(a, P).tobytes()


def test_slice_map_failed_projection_falls_back(monkeypatch):
    """A degenerate projection fails the certificate for every seed; the
    kernel then comes from the dense matrix, eliminated directly."""
    a = _tall(np.random.default_rng(4), 300, 40, 5, P, density=0.05)
    m = _slice_map(a, P)
    expected = kernel_mod(a, P)
    good, direct = ffield._projection_block, ffield._rref_direct
    seeds, eliminated = set(), []

    def one_row_repeated(seed, start, rows, cols, p):
        seeds.add(seed)
        return np.tile(good(seed, start, 1, cols, p), (rows, 1))

    def recorded(b, p):
        eliminated.append(b.shape)
        return direct(b, p)

    monkeypatch.setattr(ffield, "_projection_block", one_row_repeated)
    monkeypatch.setattr(ffield, "_rref_direct", recorded)
    kernel = m.kernel()
    assert seeds == set(range(ffield._SEEDS)) and eliminated == [a.shape]
    assert kernel.shape == expected.shape and kernel.tobytes() == expected.tobytes()


SPLIT_BELOW, SPLIT_FROM = 11863279, 11863289  # right factors are split into limbs from the second on
FLOAT_TOP, ONE_PRODUCT_PAST = 94906249, 94906297  # one product (p - 1)**2 fits below 2**53 up to the first
# the largest prime below 2**k for k = 2 .. 31, and the primes around each switch
SUPPORTED_PRIMES = sorted(
    {next(n for n in range((1 << k) - 1, 1, -1) if is_prime(n)) for k in range(2, 32)}
    | {2, 101, 10007, 100003, 67108859, SPLIT_BELOW, SPLIT_FROM, FLOAT_TOP, ONE_PRODUCT_PAST, 2147483629}
)


def test_float64_exactness_bound():
    # the bound falls as p grows on either side of the limb switch, so the
    # largest prime of each side decides; both are in the list
    assert SUPPORTED_PRIMES[-1] == ffield.MAX_PRIME - 1 and is_prime(ffield.MAX_PRIME - 1)
    assert ffield._CHUNK == 64
    for p in SUPPORTED_PRIMES:
        n = ffield._exact_terms(p)
        assert n >= ffield._CHUNK, p
        # a limb is a residue, or below 2**16 where p is split; n terms of a
        # residue times a limb, beside a residue, stay within 2**53 - p,
        # where float64 is exact and _reduce applies, and n + 1 may not
        top = ffield._LIMB - 1 if ffield._split(p) else p - 1
        assert (p - 1) + n * (p - 1) * top <= 2**53 - p
        assert (p - 1) + (n + 1) * (p - 1) * top >= 2**53 - p
        # a panel's pivots leave one pending product per limb each, and
        # the panel is reduced only when it ends
        assert ffield._PANEL * (2 if ffield._split(p) else 1) <= n
    assert ffield._compressible(200, 20)
    assert not ffield._compressible(28, 20)  # not tall enough


tall_matrices = st.integers(1, 8).flatmap(
    lambda c: st.integers(c + 9, c + 30).flatmap(
        lambda r: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, 2, 100]), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(tall_matrices)
def test_tall_rref_property(rows):
    a = np.array(rows, dtype=np.int64)
    r, pivots = _assert_same_rref(a, 101)
    r_hand, pivots_hand = _hand_rref(a, 101)
    assert pivots == pivots_hand and np.array_equal(r, r_hand)


# --- the panel elimination core ---------------------------------------------

W = ffield._PANEL
# 100003 lets 900683 products wait for a reduction; 67108859, FLOAT_TOP and
# 2147483629, all split, let 1024, 724 and 32 pivots wait
CORE_PRIMES = (2, 3, 101, 10007, 100003, SPLIT_BELOW, SPLIT_FROM, 67108859,
               FLOAT_TOP, ONE_PRODUCT_PAST, 2147483629)


def test_float64_path_boundary():
    assert is_prime(SPLIT_BELOW) and is_prime(SPLIT_FROM)
    assert not any(is_prime(n) for n in range(SPLIT_BELOW + 1, SPLIT_FROM))
    # the switch: one product beside a residue leaves room for 64 terms, then 63
    assert (2**53 - 2 * SPLIT_BELOW) // (SPLIT_BELOW - 1) ** 2 == 64
    assert (2**53 - 2 * SPLIT_FROM) // (SPLIT_FROM - 1) ** 2 == 63
    assert not ffield._split(SPLIT_BELOW) and ffield._split(SPLIT_FROM)
    assert ffield._exact_terms(SPLIT_BELOW) == 64 and ffield._exact_terms(SPLIT_FROM) == 11585
    assert [p for p in SUPPORTED_PRIMES if ffield._split(p)] == [
        p for p in SUPPORTED_PRIMES if p >= SPLIT_FROM]
    # where one product no longer fits at all, the split still leaves room
    assert is_prime(FLOAT_TOP) and is_prime(ONE_PRODUCT_PAST)
    assert not any(is_prime(n) for n in range(FLOAT_TOP + 1, ONE_PRODUCT_PAST))
    assert (2**53 - 2 * FLOAT_TOP) // (FLOAT_TOP - 1) ** 2 == 1
    assert (2**53 - 2 * ONE_PRODUCT_PAST) // (ONE_PRODUCT_PAST - 1) ** 2 == 0
    assert ffield._exact_terms(FLOAT_TOP) == ffield._exact_terms(ONE_PRODUCT_PAST) == 1448


@pytest.mark.parametrize("p", [SPLIT_BELOW, SPLIT_FROM, ONE_PRODUCT_PAST, ffield.MAX_PRIME - 1])
@pytest.mark.parametrize("n", [63, 65, 127, 129])
def test_products_match_python_integers(p, n):
    # entries p - 1 (and 1 - p where _dot_mod allows it) make every term and
    # every partial sum as large as it can be; n = 64k +- 1 straddles the chunks
    rng = np.random.default_rng(n)
    top = np.full((4, n), p - 1, dtype=np.int64)
    right = np.full((n, 5), p - 1, dtype=np.int64)
    mixed = rng.integers(0, p, size=(4, n))
    for a, b in ((top, right), (mixed, right), (top, rng.integers(0, p, size=(n, 5)))):
        expected = (a.astype(object) @ b.astype(object) % p).astype(np.int64)
        product = mul_mod(a, b, p)
        assert product.dtype == np.int64 and product.tobytes() == expected.tobytes()
        assert np.array_equal(mul_mod(a, b[:, 0], p), expected[:, 0])
        assert mul_mod(a[0], b[:, 0], p) == expected[0, 0]
        c = np.full(expected.shape, p - 1, dtype=np.int64)
        for sa, sb, sc in ((1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, -1, -1)):
            want = ((sc * c).astype(object) + (sa * a).astype(object) @ (sb * b).astype(object)) % p
            got = ffield._dot_mod(sa * a, sb * b, p, sc * c)
            assert got.dtype == np.float64 and np.array_equal(got, want.astype(np.float64))


@pytest.mark.parametrize("p", [SPLIT_BELOW, SPLIT_FROM, ffield.MAX_PRIME - 1])
def test_dot_mod_accumulates_in_place_only_without_overlap(p):
    # c overlapping b, as in _rref_inplace, is copied unless b itself is
    # (split into limbs); updated in place while still read as b, it would
    # give a wrong sum over the several chunks of n = 129 at the split primes
    rng = np.random.default_rng(p % 1000)
    n = 129
    a = rng.integers(0, p, size=(n + 3, n)).astype(np.float64)
    m = rng.integers(0, p, size=(n + 3, 6)).astype(np.float64)
    want = ((m.astype(np.int64).astype(object) + a.astype(np.int64).astype(object)
             @ m[:n].astype(np.int64).astype(object)) % p).astype(np.float64)
    c = m.copy()
    assert ffield._dot_mod(a, m[:n], p, c) is c and np.array_equal(c, want)
    before = m.copy()
    got = ffield._dot_mod(a, m[:n], p, m)
    assert np.array_equal(got, want)
    assert (got is m) == ffield._split(p)
    assert np.array_equal(m, want if ffield._split(p) else before)


def _assert_core_matches_hand(a, p):
    """RREF, pivots and det of the core, and rank_mod, det_mod and rref_mod,
    against textbook Gauss-Jordan."""
    r_hand, pivots_hand, det_hand = _hand_gauss_jordan(a, p)
    r = np.array(a, dtype=np.int64) % p
    pivots, det = ffield._rref_inplace(r, p)
    assert pivots == pivots_hand and r.tobytes() == r_hand.tobytes()
    assert det % p == det_hand % p
    assert rank_mod(a, p) == len(pivots_hand)
    r2, pivots2 = rref_mod(a, p)
    assert pivots2 == pivots_hand and r2.tobytes() == r_hand.tobytes()
    if a.shape[0] == a.shape[1]:
        assert det_mod(a, p) == (det_hand % p if len(pivots_hand) == a.shape[0] else 0)


@st.composite
def core_cases(draw):
    """(p, matrix): panel-straddling widths; wide, square and tall shapes that
    are not compressed; zero columns at a panel's first column, zero panels
    and panels of deficient rank."""
    p = draw(st.sampled_from(CORE_PRIMES))
    cols = draw(st.sampled_from([W - 1, W, W + 1, 2 * W + 3]) | st.integers(1, 2 * W + 3))
    kind = draw(st.sampled_from(["wide", "square", "tall"]))
    if kind == "wide":
        rows = draw(st.integers(1, max(1, cols - 1)))
    elif kind == "square":
        rows = cols
    else:
        rows = draw(st.integers(cols + 1, cols + ffield._PAD))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, p, size=(rows, rank)).astype(object)
    right = rng.integers(0, p, size=(rank, cols)).astype(object)
    a = (left @ right % p).astype(np.int64)
    if draw(st.booleans()):
        a[:, ::W] = 0  # the first column of every panel
    if draw(st.booleans()):
        a[:, W:2 * W] = 0  # the whole second panel
    if draw(st.booleans()):
        n = min(cols, W) // 2
        a[:, 1:2 * n:2] = a[:, 0:2 * n:2]  # repeated columns in the first panel
    if draw(st.booleans()):
        a[rng.random(a.shape) < 0.3] = p - 1
    return p, a


@settings(max_examples=80, deadline=None)
@given(core_cases())
def test_core_matches_hand_reduction(case):
    p, a = case
    assert not ffield._compressible(*a.shape)
    _assert_core_matches_hand(a, p)


@pytest.mark.parametrize("p", [100003, 67108859, FLOAT_TOP, ONE_PRODUCT_PAST, 2147483629])
@pytest.mark.parametrize("n", [W - 1, W + 1, 2 * W + 3])
def test_delayed_reduction_stress(p, n):
    # entries p - 1 make the products as large as they can be; at 2147483629
    # a full panel of 32 pivots, two pending products each, is all that
    # float64 holds
    full = np.full((n, n), p - 1, dtype=np.int64)
    unit_diagonal = full.copy()
    np.fill_diagonal(unit_diagonal, 1)
    for a in (full, unit_diagonal, unit_diagonal[:, ::-1], unit_diagonal[: n - 2]):
        _assert_core_matches_hand(a, p)


# --- block steps on projected matrices ---------------------------------------


def _projected_cases(p):
    """Projections R @ A, three seeds each, of tall matrices A with 2W + 6
    columns: one of full column rank, one with a repeated sum and a zero
    column inside the second panel, and one whose first column is zero."""
    rng = np.random.default_rng(p % 100003)
    cols = 2 * W + 6
    full = rng.integers(0, p, size=(150, cols))
    inside = full.copy()
    inside[:, W + 5] = (inside[:, 3] + inside[:, W + 1]) % p
    inside[:, W + 20] = 0
    first = full.copy()
    first[:, 0] = 0
    return [ffield._project(lambda: [(0, a % p)], p, seed)
            for a in (full, inside, first) for seed in range(3)]


@pytest.mark.parametrize("p", [2, 3, 101, 10007, FLOAT_TOP, 2147483629, 2147483647])
def test_block_steps_match_per_pivot_path(monkeypatch, p):
    # a panel whose leading block is singular (a non-pivot column inside
    # it, or bad luck at p = 2 and 3) takes the per-pivot path instead
    taken = []
    block_step = ffield._block_step

    def recorded(*args):
        det = block_step(*args)
        taken.append(det is not None)
        return det

    monkeypatch.setattr(ffield, "_block_step", recorded)
    for i, c in enumerate(_projected_cases(p)):
        plain, blocked = c.copy(), c.copy()
        steps = len(taken)
        pivots = ffield._rref_inplace(plain, p)[0]
        assert len(taken) == steps  # only _blocks=True tries block steps
        assert ffield._rref_inplace(blocked, p, _blocks=True)[0] == pivots
        assert blocked.tobytes() == plain.tobytes()
        if i % 3 == 0:
            r_hand, pivots_hand = _hand_rref(c, p)
            assert pivots == pivots_hand and plain.tobytes() == r_hand.tobytes()
        square = c[: c.shape[1]]
        pivots, det = ffield._rref_inplace(square.copy(), p)
        if len(pivots) == c.shape[1]:
            assert ffield._rref_inplace(square.copy(), p, _blocks=True) == (pivots, det)
    assert any(taken) and not all(taken)


def _loop_kernel(a, p):
    """The per-entry kernel construction that kernel_mod vectorises."""
    rows, cols = a.shape
    r, pivots = ffield._rref_direct(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in enumerate(pivots):
            basis[i, pc] = (-int(r[row, fc])) % p
    return basis


@pytest.mark.parametrize("shape,kernel_dim", [((8, 20), 12), ((120, 30), 4), ((30, 30), 0), ((5, 9), 6)])
def test_kernel_matches_loop_reference(shape, kernel_dim):
    rng = np.random.default_rng(shape[0] * shape[1])
    rows, cols = shape
    rank = cols - kernel_dim
    a = mul_mod(rng.integers(0, P, size=(rows, rank)), rng.integers(0, P, size=(rank, cols)), P)
    k = kernel_mod(a, P)
    expected = _loop_kernel(a, P)
    assert k.shape == (kernel_dim, cols)
    assert k.dtype == expected.dtype and k.tobytes() == expected.tobytes()


# --- roots_mod ------------------------------------------------------------------


def _scan_roots(coeffs, p):
    """Every x in F_p at which the polynomial (highest degree first) vanishes."""
    out = []
    for x in range(p):
        value = 0
        for c in coeffs:
            value = (value * x + c) % p
        if value == 0:
            out.append(x)
    return out


def _from_roots(roots, p, lead=1):
    """Coefficients, highest degree first, of lead * prod (x - r)."""
    coeffs = [lead % p]
    for r in roots:
        coeffs = [(a - r * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), max_size=12))
))
def test_roots_mod_matches_scan(case):
    p, coeffs = case
    if not any(coeffs):  # the zero polynomial: every x is a root, so it is rejected
        with pytest.raises(FieldError, match="zero polynomial"):
            roots_mod(coeffs, p)
        return
    assert roots_mod(coeffs, p) == _scan_roots(coeffs, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), max_size=9),
        st.integers(1, p - 1),
        st.integers(0, 3),
    )
))
def test_roots_mod_split_polynomials(case):
    # products of linear factors, with repeated roots, a scalar and leading zeros
    p, roots, lead, zeros = case
    coeffs = [0] * zeros + _from_roots(roots, p, lead)
    assert roots_mod(coeffs, p) == sorted(set(roots)) == _scan_roots(coeffs, p)


def test_roots_mod_edge_cases():
    p = 101
    for zero in ([], [0, 0, 0], [p, 0]):                                 # zero polynomial
        with pytest.raises(FieldError, match="zero polynomial"):
            roots_mod(zero, p)
    assert roots_mod([5], p) == roots_mod([0, 0, 7], p) == []             # nonzero constants
    assert roots_mod([0, 0, 3, -6], p) == [2]                             # degree drop
    assert roots_mod([1, 0, 0, 0], p) == [0]                              # x^3: root at 0 only
    assert roots_mod([1, -3, 2, 0], p) == [0, 1, 2]                       # root at 0 and others
    assert roots_mod(_from_roots([4, 4, 4, 9, 9], p), p) == [4, 9]        # repeated roots
    assert roots_mod([1, 0, 1], 103) == []                                # x^2 + 1, 103 = 3 mod 4
    assert roots_mod([1, 1], 2) == [1] and roots_mod([1, 1, 0], 2) == [0, 1]
    assert roots_mod(np.array([1, -3, 2], dtype=np.int64), p) == [1, 2]


def test_roots_mod_large_prime():
    # a split part times an irreducible quadratic, at a prime close to 2^31
    p = 2147483629
    assert is_prime(p)
    non_residue = next(n for n in range(2, 100) if pow(n, (p - 1) // 2, p) == p - 1)
    split = _from_roots([0, 5, 5, p - 1, 123456789, 2**30], p, lead=7)
    quadratic = [1, 0, -non_residue % p]
    coeffs = [0] * (len(split) + 2)
    for i, a in enumerate(split):
        for j, b in enumerate(quadratic):
            coeffs[i + j] = (coeffs[i + j] + a * b) % p
    assert roots_mod(coeffs, p) == [0, 5, 123456789, 2**30, p - 1]


# --- roots_mod_batch against the one-polynomial oracle ---------------------------

BATCH_PRIMES = (2, 3, 101, 10007, 94906249, 2147483629)
SCAN_LIMIT = 101  # primes up to this are also checked against a full scan


def _times_linear(coeffs, r, p):
    """coeffs (highest degree first) times (x - r)."""
    return [(a - r * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]


@pytest.mark.parametrize("p", BATCH_PRIMES)
def test_roots_mod_batch_rejects_a_zero_row(p):
    # the zero polynomial has every x as a root; at p near 2^31 a list of
    # them would never finish, so it is rejected before any other work
    batch = np.array([[1, 0, p - 4], [0, 0, 0], [0, 2, 3]], dtype=np.int64)
    started = time.perf_counter()
    with pytest.raises(FieldError, match="zero polynomial"):
        roots_mod_batch(batch, p)
    with pytest.raises(FieldError, match="zero polynomial"):
        roots_mod([0] * 5, p)
    assert time.perf_counter() - started < 1.0


@st.composite
def _batch_rows(draw, p):
    """One row of degree 0..10: plain coefficients with leading zeros (the
    zero polynomial among them, at every prime), or a nonzero cofactor times
    linear factors with a repeated root, times x or not."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, p - 1), max_size=11))
    coeffs = [draw(st.integers(1, p - 1))] + draw(st.lists(st.integers(0, p - 1), max_size=4))
    roots = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    for r in roots + [roots[0]] * draw(st.integers(0, 2)):
        coeffs = _times_linear(coeffs, r, p)
    return coeffs + [0] * draw(st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BATCH_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(_batch_rows(p), min_size=1, max_size=12))
))
def test_roots_mod_batch_matches_oracle(case):
    p, rows = case
    width = max(11, max(len(r) for r in rows))
    batch = np.array([[0] * (width - len(r)) + r for r in rows], dtype=np.int64)
    if not batch.any(axis=1).all():
        # a zero row vanishes at every x: the batch is rejected before any
        # root is sought, at once even at p near 2^31
        started = time.perf_counter()
        with pytest.raises(FieldError, match="zero polynomial"):
            roots_mod_batch(batch, p)
        assert time.perf_counter() - started < 1.0
        rows = [r for r in rows if any(r)]
        if not rows:
            return
        batch = batch[batch.any(axis=1)]
    got = roots_mod_batch(batch, p)
    assert got == [reference_roots_mod(r, p) for r in rows]
    if p <= SCAN_LIMIT:
        assert got == [_scan_roots(r, p) for r in rows]
    assert all(type(x) is int for roots in got for x in roots)


# --- gcd_mod and weil_restriction ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 101, 10007, 2147483629)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(0, p - 1), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, p - 1), max_size=5), min_size=1, max_size=4),
)))
def test_gcd_mod_matches_euclid(case):
    # random polynomials, most of them multiples of one common factor
    p, common, cofactors = case
    polys = []
    for cof in cofactors:
        prod = [0] * (len(common) + max(len(cof), 1) - 1)
        for i, a in enumerate(common):
            for j, b in enumerate(cof or [0]):
                prod[i + j] = (prod[i + j] + a * b) % p
        polys.append([0, 0] + prod)  # leading zeros just lower the degree
    want = reference_gcd(polys, p)
    if not want:
        with pytest.raises(FieldError, match="no monic gcd"):
            gcd_mod(polys, p)
        return
    assert gcd_mod(polys, p) == want
    assert gcd_mod(polys[::-1], p) == want


def test_gcd_mod_edge_cases():
    p = 101
    assert gcd_mod([[1, -3, 2], [1, -1]], p) == [1, p - 1]   # (x-1)(x-2), x-1
    assert gcd_mod([[2, 4]], p) == [1, 2]                    # made monic
    assert gcd_mod([[0, 0], [1, 0, 1], [5]], p) == [1]       # zeros skipped, a unit
    assert gcd_mod([[1, 0, 0], [0, 3, 0]], p) == [1, 0]      # x^2, 3x: x


def _irreducible_quadratic(p, c1, c0):
    """c0 shifted until t^2 + c1 t + c0 has no root (odd p: a non-square
    discriminant)."""
    while pow((c1 * c1 - 4 * c0) % p, (p - 1) // 2, p) != p - 1:
        c0 = (c0 + 1) % p
    return c0


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 101, 10007, 2147483629)).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(0, p - 1), st.integers(0, p - 1),
    st.integers(1, 4), st.integers(1, 4), st.data(),
)))
def test_weil_restriction_over_a_quadratic_field(case):
    p, c1, c0, n, m, data = case
    c0 = _irreducible_quadratic(p, c1, c0)
    entries = st.integers(0, p - 1)
    # low rank on purpose: a product of n x k and k x m matrices over R
    k = data.draw(st.integers(1, min(n, m)))
    left = [[(data.draw(entries), data.draw(entries)) for _ in range(k)] for _ in range(n)]
    right = [[(data.draw(entries), data.draw(entries)) for _ in range(m)] for _ in range(k)]

    def parts(mat):
        return [np.array([[x[s] for x in row] for row in mat], dtype=np.int64) for s in (0, 1)]

    (a0, a1), (b0, b1) = parts(left), parts(right)
    # the product as a polynomial in t of degree 2, reduced by the restriction
    prod = [mul_mod(a0, b0, p), (mul_mod(a0, b1, p) + mul_mod(a1, b0, p)) % p, mul_mod(a1, b1, p)]
    weil = weil_restriction(prod, (c0, c1), p)
    assert np.array_equal(weil, mul_mod(weil_restriction([a0, a1], (c0, c1), p),
                                        weil_restriction([b0, b1], (c0, c1), p), p))
    assert weil.shape == (2 * n, 2 * m)
    reduced = [[tuple(int(v) for v in x) for x in zip(*pair)]
               for pair in zip(weil[:n, :m].tolist(), weil[:n, m:].tolist())]
    assert rank_mod(weil, p) == 2 * reference_rank_over_quadratic(reduced, c0, c1, p)


def test_weil_restriction_over_f_p_is_evaluation():
    p = 10007
    rng = np.random.default_rng(5)
    m0, m1, m2 = rng.integers(0, p, size=(3, 4, 6))
    # F_p = F_p[t]/(t + 3): t is -3
    want = (m0 - 3 * m1 + 9 * m2) % p
    assert np.array_equal(weil_restriction([m0, m1, m2], (3,), p), want)
    assert np.array_equal(weil_restriction([m0], (0,), p), m0)
    # h = t^2 + c1 t + c0: the block layout [[M0, M1], [-c0 M1, M0 - c1 M1]]
    c0, c1 = 5, 7
    block = weil_restriction([m0, m1], (c0, c1), p)
    assert np.array_equal(block, np.block([[m0, m1], [-c0 * m1 % p, (m0 - c1 * m1) % p]]))


@pytest.mark.parametrize("p", [10007, 2147483647])
@pytest.mark.parametrize("d", [1, 2])
def test_binary_powers_are_products_of_weil_restrictions(p, d):
    # lam^(n-k) mu^k is row 0 of the product of the multiplication matrices
    rng = random.Random(p * d)
    modulus = tuple(rng.randrange(p) for _ in range(d))
    cases = [tuple(rng.randrange(p) for _ in range(2 * d)) for _ in range(4)]
    cases += [(p - 1,) * 2 * d, (0,) * 2 * d]
    for case in cases:
        lam, mu = case[:d], case[d:]
        by_lam, by_mu = (weil_restriction([np.array([[c]]) for c in x], modulus, p)
                         for x in (lam, mu))
        for n in range(4):
            want = []
            for k in range(n + 1):
                product = np.eye(d, dtype=np.int64)
                for factor in [by_lam] * (n - k) + [by_mu] * k:
                    product = mul_mod(product, factor, p)
                want.append(product[0])
            got = binary_powers(lam, mu, n, modulus, p)
            assert got.dtype == np.int64 and np.array_equal(got, np.array(want))
    # an int is a constant of R
    want = [[pow(3, 2 - k, p) * pow(5, k, p) % p] + [0] * (d - 1) for k in range(3)]
    assert binary_powers(3, 5, 2, modulus, p).tolist() == want
