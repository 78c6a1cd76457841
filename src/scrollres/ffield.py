"""Dense exact linear algebra over a prime field F_p, for primes below 2**31.

Matrices are stored as numpy int64 arrays with entries reduced into [0, p).
All reductions use partial pivoting by the first nonzero entry in
left-to-right column order, so ranks, kernels and solutions are
deterministic and reproducible.

One elimination core, _rref_inplace, serves rref, rank, kernel, solve,
inverse and det; rank and det stop at a row echelon form.  (Echelon, the
row-at-a-time reducer, is still separate.)  The core takes the columns in
panels: each pivot updates only its panel, and the trailing columns change
once per panel by one product through _dot_mod (FFLAS-FFPACK style, Dumas,
Giorgi & Pernet 2008).  _dot_mod sums in float64 BLAS while every partial
sum stays below 2**53 and so exact, and in int64 for p above 94906249;
inside a panel reduction mod p likewise waits until pending products could
pass 2**53.

Tall matrices (rows > cols + 8, the slice matrices of the resolution) are
eliminated through a random compression C = R @ A for a seeded random
(cols + 8) x rows matrix R; primes whose exact float64 chunks would be
shorter than 64 rows (p above about 1.2e7) skip the compression.  Since
ker A lies inside ker C, checking A @ K.T = 0 exactly for the kernel basis K
of rref(C) proves the kernels, hence the row spaces and the (unique) RREFs,
equal; the result is identical to direct elimination.  A failed check
retries with the next seed, and after a few failures A is eliminated
directly.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 31  # p**2 stays well inside int64

_FLOAT_EXACT = 1 << 53  # float64 represents every integer below this
_PANEL = 32             # columns per elimination panel (see _rref_inplace)

# Compressed elimination of tall matrices (see rref_mod).
_PAD = 8                # extra random combinations beyond cols
_BLOCK_ROWS = 512       # rows of A per projection block and per certificate block
_MIN_BLOCK_ROWS = 64    # shorter exact blocks (p above about 1.2e7): eliminate directly
_SEEDS = 3              # projections tried before eliminating directly


class FieldError(ValueError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported range."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if type(p) is not int:
        raise TypeError(f"modulus must be a Python int, not {type(p).__name__}")
    if not is_prime(p):
        raise FieldError(f"modulus {p} is not prime")
    if p >= MAX_PRIME:
        raise FieldError(f"prime {p} exceeds supported bound {MAX_PRIME}")
    return p


def mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Matrix product over F_p with chunked accumulation to avoid overflow."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    # max accumulation length before a reduction is needed
    step = max(1, (1 << 62) // (p * p))
    n = a.shape[1] if a.ndim == 2 else a.shape[0]
    if n <= step:
        return (a @ b) % p
    out = None
    for lo in range(0, n, step):
        part = a[..., lo:lo + step] @ b[lo:lo + step]
        out = part if out is None else out + part
        out %= p
    return out


def _exact_block_rows(p: int) -> int:
    """How many products (p-1)**2 may be added to a value of absolute value
    below p while the sum stays within 2**53 - p, where float64 is exact and
    _reduce applies: the one exactness bound of the module.  It is at least 1
    up to the prime 94906249 and 0 from the next prime, 94906297, on."""
    return (_FLOAT_EXACT - 2 * p) // ((p - 1) ** 2)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place.  A float64 x must hold integers of absolute value at
    most 2**53 - p: x / p is then nearer the true quotient than 1/p, so its
    floor is exact, and this is several times faster than np.remainder."""
    if x.dtype != np.float64:
        x %= p
        return x
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int, c=None) -> np.ndarray:
    """(c + a @ b) mod p, exactly, for entries of absolute value below p.

    The inner sums run through float64 BLAS in chunks of _exact_block_rows(p)
    terms, reduced between chunks; for primes where float64 cannot hold even
    one product beside a residue, through the int64 mul_mod.  The result has
    the dtype of the arithmetic used: float64 or int64.
    """
    step = _exact_block_rows(p)
    if step < 1:
        out = mul_mod(a, b, p)
        return out if c is None else (out + c) % p
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = a.shape[:-1] + b.shape[1:]
    out = np.zeros(shape) if c is None else np.array(c, dtype=np.float64)
    for lo in range(0, a.shape[-1], step):
        out += a[..., lo:lo + step] @ b[lo:lo + step]
        _reduce(out, p)
    return out


def _compressible(rows: int, cols: int, p: int) -> bool:
    return cols > 0 and rows > cols + _PAD and _exact_block_rows(p) >= _MIN_BLOCK_ROWS


def _projection_block(seed: int, start: int, rows: int, cols: int, p: int) -> np.ndarray:
    """Columns start .. start + cols - 1 of the random projection R, as float64.

    Entry (i, j) of R is a splitmix64 hash of its position j * rows + i and
    the seed, reduced mod p: reproducible on any numpy, no generator state.
    """
    pos = np.arange(start * rows, (start + cols) * rows, dtype=np.uint64)
    z = (pos + np.uint64((seed << 40) + 1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z % np.uint64(p)).astype(np.float64).reshape(cols, rows).T


def _project(a: np.ndarray, p: int, seed: int) -> np.ndarray:
    """C = R @ a mod p for a seeded random (cols + _PAD) x rows matrix R.

    R and the float64 image of a exist one row block at a time.
    """
    rows, cols = a.shape
    acc = np.zeros((cols + _PAD, cols))
    for lo in range(0, rows, _BLOCK_ROWS):
        part = np.asarray(a[lo:lo + _BLOCK_ROWS], dtype=np.int64) % p
        acc = _dot_mod(_projection_block(seed, lo, cols + _PAD, part.shape[0], p), part, p, acc)
    return acc.astype(np.int64)


def _rref_inplace(r: np.ndarray, p: int, echelon: bool = False):
    """Reduce r (int64, entries in [0, p)) to RREF in place.

    Columns go one panel of _PANEL at a time.  In a panel each pivot updates
    the panel and one more column, which records its row operation.  The
    recorded columns K (minus 1 at the pivot rows I) then update the
    trailing columns T by T += K @ T[I].  With echelon set, rows above a
    pivot are left alone: r ends in a row echelon form with unit pivots.

    Returns (pivots, det): det is the product of the pivots before scaling,
    negated once per row swap, so for a square r of full rank it is the
    determinant of the input."""
    rows, cols = r.shape
    room = _exact_block_rows(p)
    if room >= 1:
        m = r.astype(np.float64)
    else:  # int64 arithmetic, reduced after every pivot
        m, room = r, 1
    pivots = []
    pr = 0
    det = 1
    for c0 in range(0, cols, _PANEL):
        if pr == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        width = c1 - c0
        trailing = c1 < cols
        x = m[:, c0:c1]
        if trailing:
            x = np.concatenate((x, np.zeros_like(x)), axis=1)
        pr0 = pr
        for c in range(width):
            if pr == rows:
                break
            x[:, c] %= p
            nz = x[pr:, c].nonzero()[0]
            if nz.size == 0:
                continue
            piv = pr + nz[0]
            if piv != pr:
                m[[pr, piv]] = m[[piv, pr]]
                if trailing:
                    x[[pr, piv]] = x[[piv, pr]]
                det = -det
            # columns left of c are settled; later record columns are still 0
            live = slice(c, width + pr - pr0 + 1 if trailing else width)
            x[pr, live] %= p
            if trailing:
                x[pr, width + pr - pr0] = 1
            lead = int(x[pr, c])
            det = det * lead % p
            prow = x[pr, live] * pow(lead, -1, p) % p
            top = pr if echelon else 0
            x[top:, live] -= x[top:, c, None] * prow
            x[pr, live] = prow
            pivots.append(c0 + c)
            pr += 1
            if (pr - pr0) % room == 0:
                _reduce(x, p)
        if trailing:
            m[:, c0:c1] = x[:, :width]
            if pr > pr0:
                top = pr0 if echelon else 0
                k = _reduce(x[top:, width:width + pr - pr0], p)
                at = np.arange(pr - pr0)
                k[pr0 - top + at, at] = (k[pr0 - top + at, at] - 1) % p
                m[top:, c1:] = _dot_mod(k, m[pr0:pr, c1:], p, m[top:, c1:])
    if m is not r:
        r[:] = m
    r %= p  # the panels were left unreduced
    return pivots, det


def _rref_direct(a: np.ndarray, p: int):
    """RREF by elimination of the whole matrix, without compression."""
    r = np.array(a, dtype=np.int64) % p
    return r, _rref_inplace(r, p)[0]


def _kernel_from_rref(r: np.ndarray, pivots: list, cols: int, p: int) -> np.ndarray:
    """The canonical kernel basis of a matrix whose RREF is (r, pivots)."""
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free]).T % p
    return basis


def _annihilates(a: np.ndarray, kernel: np.ndarray, p: int) -> bool:
    """Is a @ kernel.T zero mod p?  Exact products, one row block at a time."""
    kt = kernel.T
    for lo in range(0, a.shape[0], _BLOCK_ROWS):
        if np.any(_dot_mod(np.asarray(a[lo:lo + _BLOCK_ROWS], dtype=np.int64) % p, kt, p)):
            return False
    return True


def _rref_compressed(a: np.ndarray, p: int):
    """RREF of a tall matrix through certified random compression, or None.

    ker a lies inside ker (R a); once every kernel vector of R a is checked
    to annihilate a the kernels agree, hence so do the row spaces and the
    (unique) RREFs.
    """
    rows, cols = a.shape
    for seed in range(_SEEDS):
        small = _project(a, p, seed)
        pivots = _rref_inplace(small, p)[0]
        if len(pivots) == cols or _annihilates(a, _kernel_from_rref(small, pivots, cols, p), p):
            r = np.zeros((rows, cols), dtype=np.int64)
            r[: len(pivots)] = small[: len(pivots)]
            return r, pivots
    return None


def rref_mod(a: np.ndarray, p: int):
    """Reduced row echelon form over F_p.

    Returns (R, pivots); R is a fresh array, pivots the list of pivot
    column indices in increasing order.  Tall matrices are first compressed
    to cols + 8 random combinations of their rows; the result is certified
    and identical to direct elimination.
    """
    a = np.asarray(a)
    if a.ndim == 2 and _compressible(*a.shape, p):
        out = _rref_compressed(a, p)
        if out is not None:
            return out
    return _rref_direct(a, p)


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over F_p: the pivot count of a row echelon form."""
    if a.size == 0:
        return 0
    return len(_rref_inplace(np.array(a, dtype=np.int64) % p, p, echelon=True)[0])


class Echelon:
    """Incremental row-echelon accumulator over F_p.

    add() reduces a row against the current pivots and absorbs it when it is
    independent.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.rows: list = []
        self.pivots: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: np.ndarray) -> bool:
        red = np.asarray(row, dtype=np.int64) % self.p
        for r, pc in zip(self.rows, self.pivots):
            f = int(red[pc])
            if f:
                red = (red - f * r) % self.p
        nz = np.nonzero(red)[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        red = red * pow(int(red[pc]), -1, self.p) % self.p
        # keep rows sorted by pivot and fully reduced against each other
        for i, r in enumerate(self.rows):
            f = int(r[pc])
            if f:
                self.rows[i] = (r - f * red) % self.p
        at = 0
        while at < len(self.pivots) and self.pivots[at] < pc:
            at += 1
        self.rows.insert(at, red)
        self.pivots.insert(at, pc)
        return True


def kernel_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of a over F_p, one row per basis vector.

    The basis is the standard one read off the RREF (each free column
    contributes a vector with a 1 in that coordinate), in increasing
    free-column order; this makes kernels canonical for a fixed input.
    """
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref_mod(a, p)
    return _kernel_from_rref(r, pivots, cols, p)


def solve_mod(a: np.ndarray, b: np.ndarray, p: int):
    """One solution x of a @ x = b over F_p, or None if inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = a.shape
    if b.shape != (rows,):
        raise FieldError("right-hand side length mismatch")
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots = rref_mod(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for row, pc in enumerate(pivots):
        x[pc] = r[row, cols]
    return x


def inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p, read off one rref_mod of [a | I];
    FieldError for a singular or non-square a."""
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise FieldError("inverse needs a square matrix")
    r, pivots = rref_mod(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), p)
    if list(pivots[:n]) != list(range(n)):
        raise FieldError("matrix is singular")
    return r[:, n:]


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant over F_p: the signed product of the pivots of a row
    echelon form."""
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise FieldError("determinant needs a square matrix")
    pivots, det = _rref_inplace(m, p, echelon=True)
    return det if len(pivots) == n else 0


def row_space_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    r, pivots = rref_mod(a, p)
    return r[: len(pivots)]


# --- univariate roots --------------------------------------------------------
#
# The helpers below work on lists of Python ints in [0, p), lowest degree
# first and without trailing zeros; [] is the zero polynomial.


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _sub(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _monic(f: list, p: int) -> list:
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _divmod_poly(a: list, f: list, p: int):
    """Quotient and remainder of a by the monic f."""
    a = list(a)
    n = len(f) - 1
    quot = [0] * max(len(a) - n, 0)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] % p
        quot[k - n] = c
        if c:
            for i in range(n):
                a[k - n + i] -= c * f[i]
    return quot, _trim([c % p for c in a[:n]])


def _mulmod_poly(a: list, b: list, f: list, p: int) -> list:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _divmod_poly(prod, f, p)[1]


def _powmod_poly(base: list, e: int, f: list, p: int) -> list:
    """base**e modulo the monic f of degree >= 1, by left-to-right
    square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mulmod_poly(result, result, f, p)
        if bit == "1":
            result = _mulmod_poly(result, base, f, p)
    return result


def _gcd_poly(a: list, b: list, p: int) -> list:
    """Monic gcd; a must be nonzero."""
    while b:
        a, b = b, _divmod_poly(a, _monic(b, p), p)[1]
    return _monic(a, p)


def _split_linear(g: list, p: int, delta: int, out: list) -> None:
    """Append the roots of g, monic and a product of distinct linear factors
    (x - r) with r != 0, trying the shifts delta, delta + 1, ...

    A shift splits g when its roots r do not all agree on whether r + delta
    is a nonzero square.  Some delta in 1..p-1 separates any two distinct
    roots (the nonzero squares are not invariant under a translation), so
    the search ends; a shift that failed for g fails for its factors too,
    so they continue from the next one.
    """
    if len(g) == 2:
        out.append(-g[0] % p)
        return
    half = (p - 1) // 2
    while True:
        h = _powmod_poly([delta, 1], half, g, p)
        d = _gcd_poly(g, _sub(h, [1], p), p)
        if 1 < len(d) < len(g):
            _split_linear(d, p, delta + 1, out)
            _split_linear(_divmod_poly(g, d, p)[0], p, delta + 1, out)
            return
        delta += 1


def roots_mod(coeffs, p: int) -> list:
    """Sorted distinct roots in F_p of sum(coeffs[k] * x**(n - k)), where
    n = len(coeffs) - 1: the coefficients come highest degree first, as for
    numpy.polyval, and leading zeros just lower the degree.

    The zero polynomial vanishes at every x, so all of F_p is returned.
    Otherwise the root 0 is split off, and the other roots are those of
    g = gcd(f, x^p - x), with x^p taken modulo f by square-and-multiply.
    g is split into its linear factors by gcd(g, (x + delta)^((p-1)/2) - 1)
    for delta = 1, 2, ... (Cantor-Zassenhaus equal-degree splitting with
    deterministic shifts).  The cost is polynomial in deg f and log p, and
    no random state is used.
    """
    f = _trim([int(c) % p for c in reversed(list(coeffs))])
    if not f:
        return list(range(p))
    roots = []
    if f[0] == 0:
        roots.append(0)
        f = f[next(i for i, c in enumerate(f) if c):]
    if len(f) > 1:
        f = _monic(f, p)
        g = _gcd_poly(f, _sub(_powmod_poly([0, 1], p, f, p), [0, 1], p), p)
        if len(g) > 1:
            _split_linear(g, p, 1, roots)
    return sorted(roots)
