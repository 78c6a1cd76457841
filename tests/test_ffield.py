import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scrollres.ffield as ffield
from oracles import reference_roots_mod
from scrollres.ffield import (
    FieldError,
    check_prime,
    det_mod,
    inverse_mod,
    is_prime,
    kernel_mod,
    mul_mod,
    rank_mod,
    roots_mod,
    roots_mod_batch,
    rref_mod,
    solve_mod,
)

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


@pytest.mark.parametrize("p", [2, 101, P, 2147483629])
def test_inverse_is_a_two_sided_inverse(p):
    rng = np.random.default_rng(p % 1000)
    for n in (1, 3, 8):
        while True:
            a = rng.integers(0, p, size=(n, n))
            if det_mod(a, p):
                break
        inv = inverse_mod(a, p)
        assert inv.dtype == np.int64 and inv.min() >= 0 and inv.max() < p
        assert np.array_equal(mul_mod(a, inv, p), np.eye(n, dtype=np.int64))
        assert np.array_equal(mul_mod(inv, a, p), np.eye(n, dtype=np.int64))
        # the columns agree with one solve per unit vector
        for j in range(n):
            assert np.array_equal(inv[:, j], solve_mod(a, np.eye(n, dtype=np.int64)[j], p))


def test_inverse_rejects_singular_and_non_square():
    singular = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert det_mod(singular, P) == 0
    with pytest.raises(FieldError, match="singular"):
        inverse_mod(singular, P)
    with pytest.raises(FieldError, match="singular"):
        inverse_mod(np.zeros((2, 2), dtype=np.int64), P)
    # singular only modulo p
    assert inverse_mod(np.array([[1, 0], [0, 7]]), 5).tolist() == [[1, 0], [0, 3]]
    with pytest.raises(FieldError, match="singular"):
        inverse_mod(np.array([[1, 0], [0, 7]]), 7)
    with pytest.raises(FieldError, match="square"):
        inverse_mod(np.ones((2, 3), dtype=np.int64), P)


def test_det_mod_matches_numpy_small():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 7, size=(4, 4))
        expected = round(float(np.linalg.det(a))) % P
        assert det_mod(a, P) == expected


def _det_cofactor(a: list) -> int:
    """Laplace expansion along the first row, on Python ints."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det_cofactor([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


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
    assert got == _det_cofactor(a) % p
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
    assert ffield._compressible(*a.shape, p)
    _r, pivots = _assert_same_rref(a, p)
    assert len(pivots) == 60 - kernel_dim
    k = kernel_mod(a, p)
    assert k.shape == (kernel_dim, 60)
    assert not np.any(mul_mod(a, k.T, p))


@pytest.mark.parametrize("p", [101, 10007, 100003])
def test_tall_rref_matches_hand_reduction(p):
    rng = np.random.default_rng(p)
    a = _tall(rng, 40, 12, 3, p, density=0.3)
    assert ffield._compressible(*a.shape, p)
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


def test_prime_near_2_31_takes_direct_path(monkeypatch):
    q = 2147483629
    assert is_prime(q) and q < ffield.MAX_PRIME
    rng = np.random.default_rng(8)
    a = _tall(rng, 60, 10, 1, q, density=0.3)
    assert not ffield._compressible(*a.shape, q)

    def no_projection(*_args):
        raise AssertionError("float64 products are not exact at this prime")

    monkeypatch.setattr(ffield, "_project", no_projection)
    r, pivots = rref_mod(a, q)
    r_hand, pivots_hand = _hand_rref(a, q)
    assert pivots == pivots_hand and np.array_equal(r, r_hand)
    assert kernel_mod(a, q).shape == (1, 10)


def test_float64_exactness_bound():
    for p in (101, 10007, 100003, 1_000_003):
        assert ffield._exact_block_rows(p) >= ffield._MIN_BLOCK_ROWS
        assert ffield._compressible(200, 20, p)
    # near 2**26, (p - 1)**2 is about 2**52: exact blocks would be 2 rows long
    assert not ffield._compressible(200, 20, 67108859)
    assert not ffield._compressible(28, 20, 10007)  # not tall enough


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
FLOAT_TOP, INT_BOTTOM = 94906249, 94906297  # the float64 arithmetic ends between these primes
# 100003 and 67108859 let 900683 and 2 products wait for a reduction
CORE_PRIMES = (2, 3, 101, 10007, 100003, 67108859, FLOAT_TOP, INT_BOTTOM, 2147483629)


def test_float64_path_boundary():
    assert is_prime(FLOAT_TOP) and is_prime(INT_BOTTOM)
    assert not any(is_prime(n) for n in range(FLOAT_TOP + 1, INT_BOTTOM))
    assert ffield._exact_block_rows(FLOAT_TOP) == 1
    assert ffield._exact_block_rows(INT_BOTTOM) == 0


def _assert_core_matches_hand(a, p):
    """RREF, pivots and det of the core, in both of its modes, and rank_mod,
    det_mod and rref_mod, against textbook Gauss-Jordan."""
    r_hand, pivots_hand, det_hand = _hand_gauss_jordan(a, p)
    r = np.array(a, dtype=np.int64) % p
    pivots, det = ffield._rref_inplace(r, p)
    assert pivots == pivots_hand and r.tobytes() == r_hand.tobytes()
    assert det % p == det_hand % p
    e = np.array(a, dtype=np.int64) % p
    assert ffield._rref_inplace(e, p, echelon=True) == (pivots_hand, det)
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
    assert not ffield._compressible(*a.shape, p)
    _assert_core_matches_hand(a, p)


@pytest.mark.parametrize("p", [100003, 67108859, FLOAT_TOP])
@pytest.mark.parametrize("n", [W - 1, W + 1, 2 * W + 3])
def test_delayed_reduction_stress(p, n):
    # entries p - 1 make the products as large as they can be; at FLOAT_TOP
    # one pending product (p - 1)**2 per entry is all that float64 holds
    full = np.full((n, n), p - 1, dtype=np.int64)
    unit_diagonal = full.copy()
    np.fill_diagonal(unit_diagonal, 1)
    for a in (full, unit_diagonal, unit_diagonal[:, ::-1], unit_diagonal[: n - 2]):
        _assert_core_matches_hand(a, p)


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
    assert roots_mod([], p) == roots_mod([0, 0, 0], p) == list(range(p))  # zero polynomial
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
ZERO_LIMIT = 10007  # the zero polynomial returns all of F_p, so only up to this


def _times_linear(coeffs, r, p):
    """coeffs (highest degree first) times (x - r)."""
    return [(a - r * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]


@st.composite
def _batch_rows(draw, p):
    """One row of degree 0..10: plain coefficients with leading zeros (the
    zero polynomial among them, for p up to ZERO_LIMIT), or a nonzero
    cofactor times linear factors with a repeated root, times x or not."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, p - 1), max_size=11).filter(
            lambda r: p <= ZERO_LIMIT or any(r)))
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
    got = roots_mod_batch(batch, p)
    assert got == [reference_roots_mod(r, p) for r in rows]
    if p <= SCAN_LIMIT:
        assert got == [_scan_roots(r, p) for r in rows]
    assert all(type(x) is int for roots in got for x in roots)
