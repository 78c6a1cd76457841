"""Dense exact linear algebra over a prime field F_p, for primes below 2**31.

Matrices are stored as numpy int64 arrays with entries reduced into [0, p).
All reductions use partial pivoting by the first nonzero entry in
left-to-right column order, so ranks, kernels and solutions are
deterministic and reproducible.

One elimination core, _rref_inplace, serves rref, rank, kernel, solve
and det, all from one Gauss-Jordan run: rank is the pivot count of
rref_mod, and det the signed product of the pivots.  The core takes
the columns in panels: each pivot updates only its panel, and the trailing
columns change once per panel by one product through _dot_mod
(FFLAS-FFPACK style, Dumas, Giorgi & Pernet 2008).

Every product is one float64 arithmetic, exact while partial sums stay
below 2**53; reduction mod p waits as long as one bound, _exact_terms,
allows.  From p = 11863289 on, where a product (p - 1)**2 leaves room for
fewer than 64 terms, the right factor is split, b = b1 * 2**16 + b0, and
a @ b = a @ b0 + (2**16 a mod p) @ b1: every term is below 2**47, so 64
terms stay exact up to 2**31 (van der Hoeven, Lecerf & Quintin 2016).

Tall matrices (rows > cols + 8, the slice matrices of the resolution) are
eliminated through a random compression C = R @ A for a seeded random
m x rows Hankel matrix R, R[i, j] = v[i + j], m = cols + 8, whose entries
come from one hashed vector v.  Since ker A lies inside ker C, checking
A @ K.T = 0 exactly for the kernel basis K of rref(C) proves the kernels,
hence the row spaces and the (unique) RREFs, equal; the result is
identical to direct elimination.  For each fixed y != 0 the map v -> R @ y
is onto F_p^m, so R @ y is uniform as for a dense random R, and a
projection fails with the dense bound, below p**(r - m) / (p - 1) for
r = rank A.  A failed check retries with the next seed, and after a few
failures A is eliminated directly.  On the projected C, a panel is first
tried as one block step: when its leading block B is invertible, B^-1
comes from the per-pivot elimination of [B | I], two products update the
trailing columns and the panel becomes unit columns; a singular B (a
non-pivot column in the panel, or bad luck at a small p) sends the panel
down the per-pivot path.  The matrices eliminated directly are sparse
and structured, their blocks often singular, so there failed attempts
would cost more than block steps save.

A SliceMap keeps only the nonzeros of a slice map A: C and the certificate
are summed over codomain blocks scattered from them, so a tall A never
exists densely, and its kernel is the dense path's, byte for byte.

roots_mod_batch, the one univariate root finder, takes the F_p-roots of a
whole array of polynomials at once (roots_mod is its one-polynomial case):
gcd with x^p - x, then Cantor-Zassenhaus splitting read off by traces.
gcd_mod takes the gcd of a few polynomials by the same division steps.

weil_restriction turns a matrix over a residue ring R = F_p[theta]/(h) into
a matrix over F_p (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 14), so rref_mod, rank_mod and kernel_mod serve R unchanged.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MAX_PRIME = 1 << 31  # p**2 stays well inside int64

_FLOAT_EXACT = 1 << 53  # float64 represents every integer below this
_LIMB = 1 << 16         # limb base of a split right factor (see _dot_mod)
_CHUNK = 64             # terms per exact sum that every supported prime allows
_PANEL = _CHUNK // 2    # columns per elimination panel (see _rref_inplace)

# Compressed elimination of tall matrices (see rref_mod).
_PAD = 8                # extra random combinations beyond cols
_BLOCK_ROWS = 512       # rows of A per projection block and per certificate block
_SEEDS = 3              # projections tried before eliminating directly
_MAP_ROWS = 256         # rows of a SliceMap per scattered block

_SHIFTS = 8             # splitting shifts whose powers _split_roots takes at once


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
    """Matrix product over F_p, exact for every supported prime: _dot_mod
    of the reduced factors, as int64."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    return _dot_mod(a, b, p).astype(np.int64)


@cache
def _split(p: int) -> bool:
    """Is a right factor split into limbs at p (see the module docstring)?"""
    return (_FLOAT_EXACT - 2 * p) // (p - 1) ** 2 < _CHUNK


@cache
def _exact_terms(p: int) -> int:
    """How many products of a residue by a limb (a residue, or below 2**16
    where p is split) may be added to a value of absolute value below p
    while the sum stays within 2**53 - p, where float64 is exact and
    _reduce applies: the one exactness bound, at least _CHUNK below 2**31."""
    top = _LIMB - 1 if _split(p) else p - 1
    return (_FLOAT_EXACT - 2 * p) // ((p - 1) * top)


def _limbs(b: np.ndarray) -> tuple:
    """(b0, b1) with b = b1 * 2**16 + b0 and 0 <= b0 < 2**16."""
    high = np.floor(b / _LIMB)
    return b - high * _LIMB, high


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 x holding integers of absolute value at
    most 2**53 - p: x / p is then nearer the true quotient than 1/p, so its
    floor is exact, and this is several times faster than np.remainder."""
    q = np.divide(x, p, out=np.empty_like(x))  # an array also for a 0-d x
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int, c=None) -> np.ndarray:
    """(c + a @ b) mod p in float64, exactly, for entries of absolute value
    below p: [a | 2**16 a mod p] @ [b0; b1] where p is split, through BLAS
    in chunks of _exact_terms(p) terms, reduced between chunks.  A float64
    c that overlaps neither factor is the result, updated in place, so an
    accumulating caller allocates no copy per product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if _split(p):
        a = np.concatenate((a, _reduce(a * _LIMB, p)), axis=-1)
        b = np.concatenate(_limbs(b))
    if c is None:
        out = np.zeros(a.shape[:-1] + b.shape[1:])
    elif c.dtype == np.float64 and not (np.may_share_memory(c, a) or np.may_share_memory(c, b)):
        out = c
    else:
        out = np.array(c, dtype=np.float64)
    step = _exact_terms(p)
    for lo in range(0, a.shape[-1], step):
        out += a[..., lo:lo + step] @ b[lo:lo + step]
        _reduce(out, p)
    return out


def _compressible(rows: int, cols: int) -> bool:
    return cols > 0 and rows > cols + _PAD


def _projection_block(seed: int, start: int, rows: int, cols: int, p: int) -> np.ndarray:
    """Columns start .. start + cols - 1 of the random projection R, as a
    fresh float64 array.

    R is a Hankel matrix, R[i, j] = v[i + j]: entry k of v is a splitmix64
    hash of k and the seed, reduced mod p, so a block costs rows + cols - 1
    hashes, is reproducible on any numpy and needs no generator state.
    """
    pos = np.arange(start, start + rows + cols - 1, dtype=np.uint64)
    z = (pos + np.uint64((seed << 40) + 1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    v = (z % np.uint64(p)).astype(np.float64)
    return np.lib.stride_tricks.sliding_window_view(v, cols).copy()


def _project(blocks, p: int, seed: int) -> np.ndarray:
    """C = R @ a mod p for a seeded random (cols + _PAD) x rows matrix R; a
    and R exist one row block (start, block) of blocks() at a time."""
    acc = None
    for lo, part in blocks():
        rows, cols = part.shape
        acc = _dot_mod(_projection_block(seed, lo, cols + _PAD, rows, p), part, p, acc)
    return acc.astype(np.int64)


def _block_step(m: np.ndarray, pr: int, c0: int, c1: int, p: int):
    """Eliminate the panel c0 .. c1 - 1 of m (float64, reduced) at once when
    its block B = m[pr:pr + w, c0:c1], w = c1 - c0, is invertible, and
    return det B; return None, leaving m alone, when B is singular.

    B^-1 comes from the per-pivot elimination of [B | I].  With X the panel
    columns, K = -X B^-1, and B^-1 - I on the rows of B, the trailing
    columns T become T + K @ T[pr:pr + w] (two products by _dot_mod), and
    the panel becomes the unit columns of rows pr .. pr + w - 1."""
    w = c1 - c0
    aug = np.concatenate((m[pr:pr + w, c0:c1].astype(np.int64), np.eye(w, dtype=np.int64)), axis=1)
    pivots, det = _rref_inplace(aug, p)
    if pivots[-1] != w - 1:
        return None
    if c1 < m.shape[1]:
        inverse = aug[:, w:]
        k = -_dot_mod(m[:, c0:c1], inverse, p)
        k[pr:pr + w] = inverse - np.eye(w)
        m[:, c1:] = _dot_mod(k, m[pr:pr + w, c1:], p, m[:, c1:])
    m[:, c0:c1] = 0
    m[pr:pr + w, c0:c1] = np.eye(w)
    return det


def _rref_inplace(r: np.ndarray, p: int, _blocks: bool = False):
    """Reduce r (int64, entries in [0, p)) to RREF in place, on a float64
    copy.  Columns go one panel of _PANEL at a time.  In a panel each pivot
    updates the panel and one more column, which records its row operation;
    it takes the split of _dot_mod and leaves one pending product per limb,
    so a panel leaves at most 2 * _PANEL = _CHUNK, and it is reduced only
    where a column becomes a pivot column and when it ends.  The recorded
    columns K (minus 1 at the pivot rows I) then update the trailing
    columns T by T += K @ T[I].

    With _blocks set (only by _compressed, whose random projections
    make invertible blocks likely), a panel is first tried as one
    _block_step, and takes the per-pivot path only where its leading block
    is singular.  The RREF is unique, so the result is the same.

    Returns (pivots, det): det is the product of the pivots before scaling,
    negated once per row swap, so for a square r of full rank it is the
    determinant of the input."""
    rows, cols = r.shape
    split = _split(p)
    m = r.astype(np.float64)
    pivots = []
    pr = 0
    det = 1
    for c0 in range(0, cols, _PANEL):
        if pr == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        width = c1 - c0
        if _blocks and pr + width <= rows:
            det_block = _block_step(m, pr, c0, c1, p)
            if det_block is not None:
                det = det * det_block % p
                pivots.extend(range(c0, c1))
                pr += width
                continue
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
            inv = pow(lead, -1, p)
            col = x[:, c, None]
            if split:
                low, high = _limbs(x[pr, live])
                prow = _reduce(low * inv + high * (inv * _LIMB % p), p)
                low, high = _limbs(prow)
                x[:, live] -= col * low + _reduce(col * _LIMB, p) * high
            else:
                prow = x[pr, live] * inv % p
                x[:, live] -= col * prow
            x[pr, live] = prow
            pivots.append(c0 + c)
            pr += 1
        if trailing:
            m[:, c0:c1] = x[:, :width]
            if pr > pr0:
                k = _reduce(x[:, width:width + pr - pr0], p)
                at = np.arange(pr - pr0)
                k[pr0 + at, at] = (k[pr0 + at, at] - 1) % p
                m[:, c1:] = _dot_mod(k, m[pr0:pr, c1:], p, m[:, c1:])
    r[:] = m
    r %= p  # the panels were left unreduced
    return pivots, det


def _rref_direct(a: np.ndarray, p: int):
    """RREF by elimination of the whole matrix, without compression."""
    r = np.array(a, dtype=np.int64) % p
    return r, _rref_inplace(r, p)[0]


def _kernel_from_rref(r: np.ndarray, pivots: list, cols: int, p: int) -> np.ndarray:
    """The canonical kernel basis of a matrix whose RREF is (r, pivots)."""
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free]).T % p
    return basis


def _annihilates(blocks, kernel: np.ndarray, p: int) -> bool:
    """Is a @ kernel.T zero mod p?  Exact products, one row block of a (as
    in _project) at a time."""
    kt = kernel.T
    return not any(np.any(_dot_mod(part, kt, p)) for _lo, part in blocks())


def _compressed(blocks, cols: int, p: int):
    """(RREF of R a, pivots) for a given by its row blocks as in _project,
    or None when _SEEDS projections fail.  ker a lies inside ker (R a); once
    every kernel vector of R a is checked to annihilate a the kernels agree,
    hence so do the row spaces and the (unique) RREFs."""
    for seed in range(_SEEDS):
        small = _project(blocks, p, seed)
        pivots = _rref_inplace(small, p, _blocks=True)[0]
        kernel = _kernel_from_rref(small, pivots, cols, p)
        if len(pivots) == cols or _annihilates(blocks, kernel, p):
            return small, pivots
    return None


def rref_mod(a: np.ndarray, p: int):
    """Reduced row echelon form over F_p.

    Returns (R, pivots); R is a fresh array, pivots the list of pivot
    column indices in increasing order.  Tall matrices are first compressed
    to cols + 8 random combinations of their rows; the result is certified
    and identical to direct elimination.
    """
    a = np.asarray(a)
    if a.ndim == 2 and _compressible(*a.shape):
        out = _compressed(lambda: ((lo, np.asarray(a[lo:lo + _BLOCK_ROWS], dtype=np.int64) % p)
                                   for lo in range(0, a.shape[0], _BLOCK_ROWS)), a.shape[1], p)
        if out is not None:
            small, pivots = out
            return np.pad(small[: len(pivots)], ((0, a.shape[0] - len(pivots)), (0, 0))), pivots
    return _rref_direct(a, p)


def rank_mod(a: np.ndarray, p: int) -> int:
    """Rank over F_p: the pivot count of rref_mod, so tall matrices are
    compressed."""
    return len(rref_mod(a, p)[1])


class Echelon:
    """Incremental row-echelon accumulator over F_p.

    add() reduces a row against the current pivots and absorbs it when it is
    independent.  Nothing in scrollres calls it: it stays only because the
    benchmark's tracer times Echelon.add by name.
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


class SliceMap:
    """The matrix A (codomain x domain) of a free-module map on the slice
    (a, b), by its nonzeros (rows, cols, values in [1, p)), each once: column
    j is the image of domain vector j.  dense() is A, images() is A.T (one
    row per domain vector, as CoxPoly and weil_restriction read it), and
    kernel() and rref() are kernel_mod(A) and rref_mod(A.T), byte for byte:
    a tall A is compressed from codomain blocks of _MAP_ROWS rows, and any
    other A, or one whose projections all fail, is densified once."""

    def __init__(self, prime: int, twist: tuple, shape: tuple, rows, cols, values):
        self.prime, self.slice, self.shape = prime, tuple(twist), tuple(shape)
        self.rows, self.cols, self.values = rows, cols, values

    def __repr__(self) -> str:
        return f"SliceMap(slice={self.slice}, shape={self.shape}, nonzeros={len(self.values)})"

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.rows, self.cols] = self.values
        return out

    def images(self) -> np.ndarray:
        return np.ascontiguousarray(self.dense().T)

    def kernel(self) -> np.ndarray:
        p, (rows, cols) = self.prime, self.shape
        if not _compressible(rows, cols):
            return kernel_mod(self.dense(), p)
        block = self.rows // _MAP_ROWS

        def blocks():
            for lo in range(0, rows, _MAP_ROWS):
                nz = block == lo // _MAP_ROWS
                part = np.zeros((min(_MAP_ROWS, rows - lo), cols))
                part[self.rows[nz] - lo, self.cols[nz]] = self.values[nz]
                yield lo, part

        out = _compressed(blocks, cols, p) or _rref_direct(self.dense(), p)
        return _kernel_from_rref(*out, cols, p)

    def rref(self) -> tuple:
        return rref_mod(self.images(), self.prime)


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


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant over F_p: the signed product of the pivots of one direct
    (uncompressed) Gauss-Jordan run of the core."""
    m = np.array(a, dtype=np.int64) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise FieldError("determinant needs a square matrix")
    pivots, det = _rref_inplace(m, p)
    return det if len(pivots) == n else 0


# --- univariate roots --------------------------------------------------------
#
# The helpers below work on a batch of polynomials at once.  A batch is an
# (L, w + 1) int64 array: row i is one polynomial, lowest degree first, with
# entries in [0, p), and deg[i] is its degree (-1 for the zero row).  A
# residue modulo a batch f of monic rows of degree >= 1 is an (L, w) array
# whose row i is zero from column deg[i] on.  A product of two residues is
# below 2**62: it is reduced mod p before it is summed with others, and the
# difference of two of them, in the division steps, stays inside int64.


def _degrees(f: np.ndarray) -> np.ndarray:
    """Degree of each row, -1 for a zero row."""
    return np.where(f != 0, np.arange(f.shape[1]), -1).max(axis=1)


def _monic_rows(f: np.ndarray, deg: np.ndarray, p: int) -> np.ndarray:
    """Each (nonzero) row divided by its leading coefficient."""
    lead = f[np.arange(len(f)), deg]
    inv = np.array([pow(int(c), -1, p) for c in lead], dtype=np.int64)
    return f * inv[:, None] % p


class _Residues:
    """Arithmetic modulo a batch f of monic rows of degree >= 1.

    table[:, j] = x**j modulo f for 0 <= j <= 2w - 2, the degrees a product
    of two residues can reach; it is x**j itself below the least degree.
    """

    def __init__(self, f: np.ndarray, deg: np.ndarray, p: int):
        n, w = len(f), f.shape[1] - 1
        self.p, self.low, self.lead = p, f[:, :-1], (np.arange(n), deg - 1)
        self.zero = np.zeros((n, 1), dtype=np.int64)
        least = int(deg.min())
        self.table = np.zeros((n, 2 * w - 1, w), dtype=np.int64)
        self.table[:, np.arange(least), np.arange(least)] = 1
        for j in range(least, 2 * w - 1):
            self.table[:, j] = self.times_x(self.table[:, j - 1]) % p
        # products a_i * a_j at [:, i, j]; read with row length 2w - 1, row i
        # moves i places right, so the column sums are the coefficients of a^2
        self.products = np.zeros((n, w, 2 * w), dtype=np.int64)
        self.by_degree = self.products.reshape(n, -1)[:, : w * (2 * w - 1)].reshape(n, w, 2 * w - 1)

    def one(self) -> np.ndarray:
        return self.table[:, 0].copy()

    def power_sums(self) -> np.ndarray:
        """sums[:, j] = Tr(x**j), the sum of the j-th powers of the roots of
        f with multiplicity, for j < w: the sum over i of the coefficient of
        x**i in x**(i + j), read from the table."""
        i = np.arange(self.table.shape[2])
        return self.table[:, i[None, :] + i[:, None], i[None, :]].sum(axis=2) % self.p

    def times_x(self, a: np.ndarray) -> np.ndarray:
        """x * a, not yet reduced: entries of absolute value below p**2."""
        shifted = np.concatenate([self.zero, a[:, :-1]], axis=1)
        return shifted - a[self.lead][:, None] * self.low

    def square(self, a: np.ndarray) -> np.ndarray:
        p, products = self.p, self.products[:, :, : a.shape[1]]
        np.multiply(a[:, :, None], a[:, None, :], out=products)
        np.remainder(products, p, out=products)
        coeffs = np.add.reduce(self.by_degree, axis=1) % p
        return np.add.reduce(coeffs[:, :, None] * self.table % p, axis=1) % p

    def power(self, delta, e: int) -> np.ndarray:
        """(x + delta)**e for e >= 1 and delta one integer or one per row, by
        left-to-right square-and-multiply; a product by x + delta is a shift."""
        delta = np.reshape(np.asarray(delta, dtype=np.int64) % self.p, (-1, 1))
        one = self.one()
        result = (self.times_x(one) + delta * one) % self.p
        for bit in bin(e)[3:]:
            result = self.square(result)
            if bit == "1":
                result = (self.times_x(result) + delta * result) % self.p
        return result


def _gcd_rows(f: np.ndarray, deg: np.ndarray, r: np.ndarray, p: int) -> tuple:
    """Monic gcd of each monic row of f, of degree d = deg, and the residue
    r modulo it, with its degree.

    Bernstein and Yang's division steps (2019), on every row at once and
    without inverses: F = x^d f(1/x) and G = x^(d-1) r(1/x) are kept as
    coefficient rows, constant term first.  A step replaces G by
    (F(0) G - G(0) F) / x and, when delta > 0 and G(0) != 0, F by the old
    G and delta by -delta; delta then grows by one.  After 2d steps G is
    zero, the gcd has degree (delta - 1)/2 and is the reverse of that many
    leading coefficients of F, over F(0).  A row of lower degree than the
    widest takes the extra steps with G zero, which only raise delta.
    """
    n, steps = len(f), 2 * (f.shape[1] - 1)
    rows, cols = np.arange(n)[:, None], np.arange(f.shape[1])
    src = deg[:, None] - cols
    big_f = f[rows, src] * (src >= 0)
    r = np.concatenate([r, np.zeros((n, f.shape[1] - r.shape[1]), dtype=np.int64)], axis=1)
    big_g = r[rows, src - 1] * (src >= 1)
    delta = np.ones(n, dtype=np.int64)
    for _ in range(steps):
        step = (big_f[:, :1] * big_g - big_g[:, :1] * big_f) % p  # each product below 2**62
        swap = (delta > 0) & (big_g[:, 0] != 0)
        big_f = np.where(swap[:, None], big_g, big_f)
        delta = np.where(swap, -delta, delta) + 1
        big_g[:, :-1] = step[:, 1:]
    gdeg = (delta - 1 - steps + 2 * deg) // 2
    src = gdeg[:, None] - cols
    inv = np.array([pow(int(c), -1, p) for c in big_f[:, 0]], dtype=np.int64)
    return big_f[rows, src] * (src >= 0) * inv[:, None] % p, gdeg


def _eval_rows(f: np.ndarray, x, p: int) -> np.ndarray:
    """The value of each row at x, one integer or one per row, by Horner's
    rule."""
    value = np.zeros(len(f), dtype=np.int64)
    for k in range(f.shape[1] - 1, -1, -1):
        value = (value * x + f[:, k]) % p
    return value


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p, by
    Tonelli and Shanks with the least quadratic non-residue."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _close_roots(roots: set, g: np.ndarray, d: int, p: int) -> None:
    """Add the last roots of g (monic of degree d, a product of distinct
    x - r with r != 0) to roots once at most two are missing: their sum
    and product follow from the coefficients of g and the known roots, so
    they are the roots of a quadratic."""
    missing = d - len(roots)
    if missing not in (1, 2):
        return
    total = (-int(g[d - 1]) - sum(roots)) % p
    if missing == 1:
        roots.add(total)
        return
    known = 1
    for r in roots:
        known = known * r % p
    product = (-1) ** d * int(g[0]) * pow(known, -1, p) % p
    root = _sqrt_mod((total * total - 4 * product) % p, p)
    roots.update({(total + root) * (p + 1) // 2 % p, (total - root) * (p + 1) // 2 % p})


def _split_roots(g: np.ndarray, deg: np.ndarray, p: int, out: list) -> None:
    """Add to out[i] the roots of g[i], monic of degree deg[i] and a product
    of distinct x - r with r != 0 (so deg[i] <= 1 when p = 2).

    Rows with at most two roots unknown are closed by _close_roots.  For
    the others (p is odd), a round takes the shifts delta .. delta + _SHIFTS - 1 for
    every row at once.  h = (x + delta)**((p - 1)/2) modulo g is
    chi(r + delta) at each root r: 1 or -1 as r + delta is a nonzero
    square or not, and 0 at the root -delta, which is tested directly.
    The traces of h and x*h (sums over the roots, from the power sums of
    g) give the sum of the roots in each class, which is the root itself
    when the class has one element; every candidate is checked on g.  The
    shift p - r finds r, so the rounds end, and for large p one round
    usually finds all but two roots of every row.
    """
    half, inv2, delta = (p - 1) // 2, (p + 1) // 2, 1
    found = [set() for _ in g]
    live = np.arange(len(g))
    while True:
        for i in live:
            _close_roots(found[i], g[i], int(deg[i]), p)
        live = np.array([i for i in live if len(found[i]) < deg[i]], dtype=np.int64)
        if not len(live):
            break
        rows = g[live, : deg[live].max() + 1]
        gs, which = np.repeat(rows, _SHIFTS, axis=0), np.repeat(live, _SHIFTS)
        shift = np.tile(np.arange(delta, delta + _SHIFTS), len(live)) % p
        mod_g = _Residues(gs, deg[which], p)
        h = mod_g.power(shift, half)
        hit = _eval_rows(gs, -shift % p, p) == 0
        sums = mod_g.power_sums()
        rest = (sums[:, 1] + hit * shift) % p  # the roots other than -delta
        twist = (mod_g.times_x(h) % p * sums % p).sum(axis=1) % p
        candidate = np.concatenate([(rest + twist) % p, (rest - twist) % p]) * inv2 % p
        root = _eval_rows(np.vstack([gs, gs]), candidate, p) == 0
        for i, r in zip(np.tile(which, 2)[root], candidate[root]):
            found[i].add(int(r))
        for i, s in zip(which[hit], shift[hit]):
            found[i].add(int(-s % p))
        delta += _SHIFTS
    for roots, new in zip(out, found):
        roots.update(new)


def roots_mod_batch(rows, p: int) -> list:
    """Sorted distinct roots in F_p of each row of a 2-D array of integer
    coefficients.  The coefficients come highest degree first, as for
    numpy.polyval, and leading zeros just lower the degree, so one array
    holds polynomials of every degree up to its width - 1.

    A zero row vanishes at every x, so FieldError is raised for it before
    any work is done.  Each other row f of degree >= 1 is made monic, and its
    roots are those of
    g = gcd(f, x^p - x), the product of the distinct x - r: x^p is taken
    modulo f by square-and-multiply, and the gcd by division steps.  The
    root 0 is split off g, and _split_roots finds the roots of the rest.
    Every step runs on all rows at once, as int64
    arrays.  The cost is polynomial in the degree and log p, and no random
    state is used.
    """
    f = np.asarray(rows, dtype=np.int64)
    if f.ndim != 2:
        raise ValueError("roots_mod_batch needs a 2-D coefficient array")
    f = np.ascontiguousarray(f[:, ::-1] % p)
    deg = _degrees(f)
    if (deg < 0).any():
        raise FieldError("the zero polynomial vanishes at every point of F_p")
    roots = [set() for _ in deg]
    owner = np.flatnonzero(deg >= 1)
    if len(owner):
        deg = deg[owner]
        f = _monic_rows(f[owner, : deg.max() + 1], deg, p)
        mod_f = _Residues(f, deg, p)
        x = mod_f.times_x(mod_f.one())
        g, deg = _gcd_rows(f, deg, (mod_f.power(0, p) - x) % p, p)
        at_zero = g[:, 0] == 0  # g is squarefree: x divides it at most once
        g[at_zero] = np.roll(g[at_zero], -1, axis=1)
        deg[at_zero] -= 1
        _split_roots(g, deg, p, [roots[i] for i in owner])
        for i in owner[at_zero]:
            roots[i].add(0)
    return [sorted(r) for r in roots]


def roots_mod(coeffs, p: int) -> list:
    """Sorted distinct roots in F_p of sum(coeffs[k] * x**(n - k)), where
    n = len(coeffs) - 1: the one-polynomial case of roots_mod_batch.  The
    coefficients come highest degree first, and [] is the zero polynomial,
    for which FieldError is raised."""
    return roots_mod_batch([[int(c) % p for c in coeffs] or [0]], p)[0]


def _remainder(a: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    """a modulo the monic f of degree d >= 1, both lowest degree first, as a
    row of length d."""
    d = len(f) - 1
    a = np.concatenate([a, np.zeros(max(0, d - len(a)), dtype=np.int64)])
    for k in range(len(a) - 1, d - 1, -1):
        a[k - d: k + 1] = (a[k - d: k + 1] - a[k] * f) % p
    return a[:d]


def gcd_mod(polys, p: int) -> list:
    """Monic gcd over F_p of polynomials given highest degree first (leading
    zeros just lower the degree), in the same form; FieldError when every
    polynomial is zero.

    The gcd so far, g, is monic; the next polynomial is reduced modulo g and
    _gcd_rows takes the gcd of g and the remainder by division steps."""
    g = None  # lowest degree first
    for coeffs in polys:
        f = np.array([int(c) % p for c in coeffs][::-1] or [0], dtype=np.int64)
        deg = int(_degrees(f[None])[0])
        if deg < 0:
            continue
        if g is None:
            g = _monic_rows(f[None, : deg + 1], np.array([deg]), p)[0]
        elif len(g) > 1:
            rows, gdeg = _gcd_rows(g[None], np.array([len(g) - 1]), _remainder(f, g, p)[None], p)
            g = rows[0, : gdeg[0] + 1]
    if g is None:
        raise FieldError("zero polynomials have no monic gcd")
    return [int(c) for c in g[::-1]]


def weil_restriction(coeffs, modulus, p: int) -> np.ndarray:
    """The F_p matrix of M = sum_i coeffs[i] * theta**i, a matrix
    polynomial with n x m coefficients, acting on row vectors over
    R = F_p[theta]/(h), h = theta**d + sum_s modulus[s] * theta**s.

    R**n has the F_p-basis u * theta**r (r < d), so the result is d x d
    blocks of n x m: block (r, s) holds the theta**s coordinate of
    theta**r * M.  For d = 2 that is [[M_0, M_1], [-c0 M_1, M_0 - c1 M_1]]
    when M = M_0 + M_1 theta and h = theta**2 + c1 theta + c0.  Its row
    space is the R-span of the rows of M, so for an irreducible h the rank
    is d times the rank over the field R.  modulus (0,) is F_p itself, and
    there M is just evaluated at 0."""
    coeffs = [np.asarray(c, dtype=np.int64) % p for c in coeffs]
    modulus = np.asarray(modulus, dtype=np.int64) % p
    d, n, m = len(modulus), coeffs[0].shape[0], coeffs[0].shape[1]
    # powers[j]: the coordinates of theta**j modulo h
    powers = np.zeros((d + len(coeffs) - 1, d), dtype=np.int64)
    powers[:d] = np.eye(d, dtype=np.int64)
    for j in range(d, len(powers)):
        powers[j, 1:] = powers[j - 1, :-1]
        powers[j] = (powers[j] - powers[j - 1, -1] * modulus) % p
    out = np.zeros((d, n, d, m), dtype=np.int64)
    for r in range(d):
        for i, c in enumerate(coeffs):
            for s in range(d):
                if powers[r + i, s]:
                    out[r, :, s] = (out[r, :, s] + int(powers[r + i, s]) * c) % p
    return out.reshape(d * n, d * m)


def binary_powers(lam, mu, n: int, modulus, p: int) -> np.ndarray:
    """Row k: the coordinates of lam**(n - k) * mu**k, k = 0..n, in R as in
    weil_restriction; lam and mu are given by their coordinates over 1,
    theta, .. (an int is a constant).  The products run in Python ints:
    they are too small for mul_mod to pay."""
    by_lam, by_mu = (weil_restriction(np.reshape(x, (-1, 1, 1)), modulus, p).astype(object)
                     for x in (lam, mu))
    rows = []
    for k in range(n + 1):
        term = np.eye(len(modulus), dtype=object)[0]
        for factor in [by_lam] * (n - k) + [by_mu] * k:
            term = term @ factor % p
        rows.append(term)
    return np.array(rows, dtype=np.int64)
