"""Test-only references: brute-force and hand-built versions of what the
package computes another way, and small helpers only the tests need."""

import itertools

import numpy as np

from scrollres.ffield import rank_mod
from scrollres.lattice import GramLattice, LatticeError
from scrollres.scroll import GENERIC_E, CanonicalCoordinates, CoxPoly, cox_slice, point_values, slice_keys

# --- the scroll as 2x2 minors in the canonical P^8 ---------------------------


def canonical_image(model, coords: CanonicalCoordinates, points) -> np.ndarray:
    """(9, n): images of points under the canonical embedding, in basis_order."""
    p = model.prime
    vals = point_values(model, coords, points)
    rows = []
    for i in range(4):
        for j in range(2):
            rows.append(vals[i] * vals[5 + j] % p)
    rows.append(vals[4])
    return np.stack(rows)


PAIR_INDEX = [(i, j) for i in range(9) for j in range(i, 9)]
PAIR_POS = {pair: k for k, pair in enumerate(PAIR_INDEX)}


def scroll_matrix(coords: CanonicalCoordinates):
    """2x4 matrix of P^8 coordinate indices: entry (i, j) is the coordinate
    for Q_{j+1} * l_{i+1}; basis_order puts that at position 2*j + i."""
    return [[2 * j + i for j in range(4)] for i in range(2)]


def scroll_minor_quadrics(coords: CanonicalCoordinates) -> np.ndarray:
    """The six 2x2 minors of the scroll matrix as quadrics in the 9 canonical
    coordinates (coefficient vectors over the 45 degree-2 monomials)."""
    p = coords.prime
    mat = scroll_matrix(coords)
    quadrics = []
    for j1, j2 in itertools.combinations(range(4), 2):
        vec = np.zeros(len(PAIR_INDEX), dtype=np.int64)
        a, b = mat[0][j1], mat[1][j2]
        c, d = mat[0][j2], mat[1][j1]
        vec[PAIR_POS[tuple(sorted((a, b)))]] = (vec[PAIR_POS[tuple(sorted((a, b)))]] + 1) % p
        vec[PAIR_POS[tuple(sorted((c, d)))]] = (vec[PAIR_POS[tuple(sorted((c, d)))]] - 1) % p
        quadrics.append(vec)
    return np.stack(quadrics)


def eval_quadrics(quadrics: np.ndarray, points9: np.ndarray, p: int) -> np.ndarray:
    """Evaluate quadrics (rows over PAIR_INDEX) at 9-coordinate points (9, n)."""
    n = points9.shape[1]
    out = np.zeros((quadrics.shape[0], n), dtype=np.int64)
    for k, (i, j) in enumerate(PAIR_INDEX):
        col = points9[i] * points9[j] % p
        nz = quadrics[:, k] != 0
        if nz.any():
            out[nz] = (out[nz] + np.outer(quadrics[nz, k], col)) % p
    return out


# --- lattices -----------------------------------------------------------------


def hyperbolic_plane() -> GramLattice:
    return GramLattice(((0, 1), (1, 0)), ("e", "f"))


def reflect(lat: GramLattice, v, d) -> tuple:
    """Picard-Lefschetz reflection of v in the root d."""
    if lat.norm(d) != -2:
        raise LatticeError("not a root: d.d != -2")
    vd = lat.pairing(v, d)
    return tuple(int(v[i]) + vd * int(d[i]) for i in range(lat.rank))


def enum_box_oracle(lat: GramLattice, norm: int, constraints, radius: int):
    """Brute-force coefficient-box enumeration; the independent test oracle."""
    n = lat.rank
    side = np.arange(-radius, radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * n), indexing="ij")
    coords = np.stack([g.reshape(-1) for g in grids])  # (n, count)
    g = np.array(lat.gram, dtype=np.int64)
    gx = g @ coords
    norms = (coords * gx).sum(axis=0)
    mask = norms == norm
    mask &= np.any(coords != 0, axis=0)
    for v, m in constraints:
        mask &= (np.array(v, dtype=np.int64) @ gx) == m
    return sorted(tuple(int(x) for x in coords[:, i]) for i in np.nonzero(mask)[0])


# --- the resolution -------------------------------------------------------------


def new_count(block) -> int:
    """Number of new minimal generators a SyzygyBlock contributes."""
    return block.new_generators.shape[0]


# --- hand-built K3 matrices ------------------------------------------------------
#
# Monomial by monomial, with one CoxPoly product per entry block: the
# references for the free_map_matrix scatters in scrollres.k3_syzygy.


def greedy_unit_completion(kernel: np.ndarray, p: int) -> list:
    """Indices of the unit rows that complete the independent kernel rows to
    a basis, picked one at a time by rank tests."""
    n = kernel.shape[1]
    rows = []
    for i in range(n):
        unit = np.zeros(n, dtype=np.int64)
        unit[i] = 1
        cand = np.stack([unit] + list(kernel) + [np.eye(n, dtype=np.int64)[r] for r in rows])
        if rank_mod(cand, p) == len(cand):
            rows.append(i)
        if len(rows) == n - len(kernel):
            break
    return rows


def reference_solve_matrix(ell, p: int) -> np.ndarray:
    """Rows e_ij * m for the pairs i < j and m in slice (1, 0); columns the
    four (2, -1) blocks, holding m * l_j in block i and -m * l_i in block j."""
    nt = len(cox_slice(GENERIC_E, 2, -1))
    h_keys = slice_keys(GENERIC_E, 1, 0)
    pairs = list(itertools.combinations(range(4), 2))
    mat = np.zeros((len(pairs) * len(h_keys), 4 * nt), dtype=np.int64)
    for c_idx, ((i, j), m) in enumerate((pr, m) for pr in pairs for m in h_keys):
        mono_poly = CoxPoly(p, [m], [1])
        mat[c_idx, i * nt: (i + 1) * nt] = mono_poly.mul(ell[j]).vector(GENERIC_E, 2, -1)
        mat[c_idx, j * nt: (j + 1) * nt] = mono_poly.mul(ell[i]).scale(p - 1).vector(GENERIC_E, 2, -1)
    return mat


def reference_koszul_matrix(ell, p: int) -> np.ndarray:
    """Rows e_jkl * t for the triples j < k < l and t in slice (0, 1);
    columns the six (1, 0) blocks of the pairs, holding
    iota_l(e_jkl) t = (l_j e_kl - l_k e_jl + l_l e_jk) t."""
    nh = len(cox_slice(GENERIC_E, 1, 0))
    pairs = list(itertools.combinations(range(4), 2))
    pair_pos = {pr: k for k, pr in enumerate(pairs)}
    cols = []
    for (j, k, l) in itertools.combinations(range(4), 3):
        for tkey in slice_keys(GENERIC_E, 0, 1):
            t = CoxPoly(p, [tkey], [1])
            vec = np.zeros(len(pairs) * nh, dtype=np.int64)
            for sign, lv, pr in ((1, j, (k, l)), (p - 1, k, (j, l)), (1, l, (j, k))):
                base = pair_pos[pr] * nh
                vec[base: base + nh] = ell[lv].mul(t).scale(sign).vector(GENERIC_E, 1, 0)
            cols.append(vec)
    return np.stack(cols)
