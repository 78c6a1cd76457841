import ast
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollres import lattice
from scrollres.lattice import (
    GramLattice,
    LatticeError,
    basis_change_gram,
    brill_noether_rho,
    derive_hprime_entries,
    det_cofactor,
    dimension_audit,
    discriminant,
    enum_classes,
    hprime_consistency_report,
    hprime_from_basis_change,
    is_ample,
    is_basepoint_free,
    is_nef,
    lattice_h,
    lattice_h_prime,
    lattice_n,
    moduli_dimension,
    second_polarization_entries,
    signature,
    smith_normal_form,
    solve_integer_system,
    stated_embedding_columns,
    unique_polarization_classes,
    verify_primitive_embedding,
)

from oracles import enum_box_oracle, hyperbolic_plane, reflect, solve_rational

H_LAT = lattice_h()
HP_LAT = lattice_h_prime()
N_LAT = lattice_n()

H = (1, 0, 0)
C = (0, 1, 0)
N = (0, 0, 1)
H_MINUS_N = (1, 0, -1)


def test_signatures():
    assert signature(H_LAT) == (1, 2, 0)
    assert signature(HP_LAT) == (1, 3, 0)
    assert signature(N_LAT) == (1, 1, 0)
    identity3 = GramLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("a", "b", "c"))
    assert signature(identity3) == (3, 0, 0)
    degenerate = GramLattice(((0, 0), (0, 1)), ("a", "b"))
    assert signature(degenerate) == (1, 0, 1)


@pytest.mark.parametrize("entry", [2.5, 2.0, "2", True, None])
def test_gram_entries_must_be_integers(entry):
    with pytest.raises(LatticeError, match="is not an integer"):
        GramLattice(((entry, 1), (1, -2)), ("a", "b"))
    assert GramLattice(((np.int64(2), 1), (1, -2)), ("a", "b")).gram == ((2, 1), (1, -2))


def test_discriminants_with_cofactor_oracle():
    for lat, expected in ((H_LAT, 56), (HP_LAT, -80), (N_LAT, -36)):
        assert discriminant(lat) == expected
        assert det_cofactor(lat.gram) == expected
    identity = GramLattice(((1, 0), (0, 1)), ("a", "b"))
    assert discriminant(identity) == 1


def test_reflect_properties():
    root = (-1, 1, 0)  # C - H, a (-2)-class
    assert H_LAT.norm(root) == -2
    # v = d reflects to -d
    assert reflect(H_LAT, root, root) == (1, -1, 0)
    rng = random.Random(5)
    for _ in range(20):
        v = tuple(rng.randrange(-4, 5) for _ in range(3))
        w = tuple(rng.randrange(-4, 5) for _ in range(3))
        rv, rw = reflect(H_LAT, v, root), reflect(H_LAT, w, root)
        assert reflect(H_LAT, rv, root) == v  # involution
        assert H_LAT.pairing(rv, rw) == H_LAT.pairing(v, w)
    perp = (1, 0, -2)
    assert H_LAT.pairing(perp, root) == 0
    assert reflect(H_LAT, perp, root) == perp


def test_reflect_rejects_non_root():
    with pytest.raises(LatticeError, match="not a root"):
        reflect(H_LAT, H, H)


def test_solve_integer_system():
    a = [[2, 4, 6], [0, 3, 3]]
    sol = solve_integer_system(a, [2, 3])
    assert sol is not None
    x0, kernel = sol
    assert [sum(r * x for r, x in zip(row, x0)) for row in a] == [2, 3]
    assert len(kernel) == 1
    assert solve_integer_system([[2, 4]], [1]) is None  # parity obstruction


def test_smith_normal_form():
    assert smith_normal_form([[1, 0], [0, 1], [0, 0]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    # already diagonal, but 2 does not divide 3: the divisors are 1 and 6
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # a zero-diagonal symmetric 5 x 5 on which keeping the first nonzero
    # entry as pivot until its row and column clear swells the entries to
    # hundreds of thousands of bits within seconds
    swell = [[0, -34, -27, 14, -15], [-34, 0, -4, 36, -36], [-27, -4, 0, 10, -13],
             [14, 36, 10, 0, 26], [-15, -36, -13, 26, 0]]
    assert smith_normal_form(swell) == [1, 1, 2, 2, 3695480]


def snf_by_minors(rows):
    """Elementary divisors from the gcds g_k of all k x k minors,
    d_k = g_k / g_(k-1); the independent oracle for smith_normal_form."""
    nr, nc = len(rows), len(rows[0])
    divisors, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in itertools.combinations(range(nr), k):
            for cs in itertools.combinations(range(nc), k):
                g = math.gcd(g, det_cofactor([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


@st.composite
def integer_matrices(draw):
    """Products of an nr x r and an r x nc matrix: rank at most r, all-zero
    when r = 0, so rank-deficient matrices are drawn as often as full ones."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = draw(st.integers(0, min(nr, nc)))
    entries = st.integers(-9, 9)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=r, max_size=r))
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(nc)]
            for i in range(nr)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_smith_normal_form_matches_minors_oracle(rows):
    assert smith_normal_form(rows) == snf_by_minors(rows)


@settings(max_examples=200, deadline=None)
@given(integer_matrices(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_integer_system_on_an_image(rows, x):
    x = x[: len(rows[0])]
    b = [sum(r * v for r, v in zip(row, x)) for row in rows]
    x0, kernel = solve_integer_system(rows, b)
    assert [sum(r * v for r, v in zip(row, x0)) for row in rows] == b
    for k in kernel:
        assert not any(sum(r * v for r, v in zip(row, k)) for row in rows)
    assert len(kernel) == len(x) - len(smith_normal_form(rows))


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n integer matrices, n <= 5: B^T S B with B of r rows, so
    of rank at most r; the diagonal is zeroed half of the time (the pivot
    search must then go off the diagonal), and copying one row and column
    onto another forces singular cases with a zero diagonal too."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    entries = st.integers(-3, 3)
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    upper = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    s = [[upper[min(k, l)][max(k, l)] for l in range(r)] for k in range(r)]
    m = [[sum(b[k][i] * s[k][l] * b[l][j] for k in range(r) for l in range(r))
          for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[j] = list(m[i])
        for row in m:
            row[j] = row[i]
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_signature_and_discriminant_match_oracles(gram):
    n = len(gram)
    lat = GramLattice(gram, tuple(map(str, range(n))))
    pos, neg, zero = signature(lat)
    disc = discriminant(lat)
    assert disc == det_cofactor(gram)
    assert pos + neg + zero == n
    assert zero == n - len(smith_normal_form(gram))
    if zero == 0:
        assert (disc < 0) == (neg % 2 == 1)


ENUM_CASES = [
    (H_LAT, -2, H, 0),
    (H_LAT, -2, H, 2),
    (H_LAT, 0, H, 5),
    (H_LAT, 16, H, 16),
    (HP_LAT, -2, (1, 0, 0, 0), 1),
    (HP_LAT, 0, (1, 0, 0, 0), 4),
]


@pytest.mark.parametrize("lat,norm,anchor,pairing", ENUM_CASES)
def test_enum_matches_box_oracle(lat, norm, anchor, pairing):
    fast = enum_classes(lat, norm, [(anchor, pairing)])
    slow = enum_box_oracle(lat, norm, [(anchor, pairing)], radius=30)
    assert fast == slow
    for d in fast:
        assert lat.norm(d) == norm
        assert lat.pairing(d, anchor) == pairing


def test_ellipsoid_centre_matches_the_reference_solver(monkeypatch):
    # every (Q, u) that enum_classes builds for the box-oracle cases, and
    # random positive definite Q = A^T A + 1 of sizes 1 to 4
    diagonalize, ldl_solve = lattice._diagonalize, lattice._ldl_solve
    grams, solves = [], []
    monkeypatch.setattr(lattice, "_diagonalize", lambda q: grams.append(q) or diagonalize(q))
    monkeypatch.setattr(lattice, "_ldl_solve",
                        lambda d, l, u: solves.append((grams[-1], u)) or ldl_solve(d, l, u))
    for lat, norm, anchor, pairing in ENUM_CASES:
        enum_classes(lat, norm, [(anchor, pairing)])
    assert len(solves) == len(ENUM_CASES)
    rng = random.Random(7)
    for n in (1, 2, 3, 3, 3, 4, 4, 4):
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        q = [[sum(r[i] * r[j] for r in a) + (i == j) for j in range(n)] for i in range(n)]
        solves.append((q, [rng.randint(-20, 20) for _ in range(n)]))
    for q, u in solves:
        d, l, zero = diagonalize(q)
        assert zero == 0 and all(v > 0 for v in d)
        assert solve_rational(q, u) == (ldl_solve(d, l, u), True)


def test_enum_isotropic_orthogonal_empty():
    # only the zero class solves D.D = 0, D.H = 0; it is excluded by convention
    assert enum_classes(H_LAT, 0, [(H, 0)]) == []


def test_enum_rejects_nonpositive_anchor():
    with pytest.raises(LatticeError, match="anchor not positive"):
        enum_classes(H_LAT, -2, [(N, 0)])


def test_is_ample_h():
    verdict, cert = is_ample(H_LAT, H)
    assert verdict
    assert cert["orthogonal_roots"] == []


def test_is_ample_h_prime():
    verdict, _cert = is_ample(HP_LAT, (1, 0, 0, 0))
    assert verdict


def test_is_ample_h_minus_n():
    verdict, _cert = is_ample(H_LAT, H_MINUS_N)
    assert verdict


def test_c_not_ample():
    verdict, cert = is_ample(H_LAT, C)
    assert not verdict
    # the root C - H pairs to zero with C
    assert [-1, 1, 0] in cert["orthogonal_roots"] or [1, -1, 0] in cert["orthogonal_roots"]


def test_n_not_ample():
    verdict, cert = is_ample(H_LAT, N)
    assert not verdict
    assert cert["reason"] == "h.h <= 0"


def test_nef_verdicts():
    for cls in (H, C, N, H_MINUS_N):
        verdict, _ = is_nef(H_LAT, H, cls)
        assert verdict, cls


def test_not_nef_negative_square():
    bad = tuple(h - c for h, c in zip(H, C))  # (H - C)^2 = -2
    assert H_LAT.norm(bad) == -2
    verdict, cert = is_nef(H_LAT, H, bad)
    assert not verdict
    assert cert["reason"] == "negative self-intersection"


def test_not_nef_with_obstructing_root():
    # in U with ample 2e + f, the class f + 2(f - e) pairs negatively with
    # the effective root f - e
    u = hyperbolic_plane()
    h = (2, 1)
    assert is_ample(u, h)[0]
    bad = (-2, 3)  # f + 2(f - e)
    assert u.norm(bad) == -12
    verdict, cert = is_nef(u, h, bad)
    assert not verdict


def test_bpf_verdicts_match_expected():
    for cls in (H, C, N, H_MINUS_N):
        verdict, _ = is_basepoint_free(H_LAT, H, cls)
        assert verdict, cls


def test_bpf_obstruction_in_hyperbolic_plane():
    # L = e + f is nef with L^2 = 2 but E = e satisfies E^2 = 0, E.L = 1:
    # the system has a base component
    u = hyperbolic_plane()
    h = (2, 1)
    verdict, cert = is_basepoint_free(u, h, (1, 1))
    assert not verdict
    assert cert["obstructions"]


def test_bpf_isotropic_nef_class_in_hyperbolic_plane():
    # an isotropic nef class is a pencil class: base point free
    u = hyperbolic_plane()
    verdict, cert = is_basepoint_free(u, (2, 1), (1, 0))
    assert verdict
    assert cert["primitive"]


def test_unique_polarization_classes_rank3():
    assert unique_polarization_classes(H_LAT, H, 16, 16) == [C]
    assert unique_polarization_classes(H_LAT, H, 0, 5) == [N]
    assert unique_polarization_classes(H_LAT, H, -2, 0) == []


def test_polarization_classes_rank4():
    hp = (1, 0, 0, 0)
    # the two (-2)-classes pairing to 1 with H' are exactly Q1 and Q2
    assert unique_polarization_classes(HP_LAT, hp, -2, 1) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    ]
    # nef filtering alone does NOT pin the curve class in the rank-4 lattice:
    # six nef classes share norm 16 and pairing 10, and the curve class is
    # one of them (uniqueness needs more than these two invariants)
    candidates = unique_polarization_classes(HP_LAT, hp, 16, 10)
    assert (0, 1, 0, 0) in candidates
    assert len(candidates) == 6


def test_derive_hprime_entries_literal():
    assert derive_hprime_entries() == (16, 6)


def test_second_polarization_entries():
    assert second_polarization_entries() == (16, 7)


def _reference_box_search(box, drop_constraint=None, second_polarization=False):
    """Per-cell search: every (a, b) in [-box, box]^2, a ascending and then b
    ascending, passing explicit pairings of one GramLattice per cell."""
    h1, c, n1, h2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    n2 = (-1, 0, 1, 1)  # H2 - H1 + N1
    cm_h1, cm_h2, h1_n1 = (-1, 1, 0, 0), (0, 1, 0, -1), (1, 0, -1, 0)
    solutions = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            lat = GramLattice(
                ((14, 16, 5, a), (16, 16, 6, 16), (5, 6, 0, b), (a, 16, b, 14)),
                ("H1", "C", "N1", "H2"),
            )
            checks = [
                lat.pairing(cm_h1, cm_h2) >= 0,
                lat.pairing(h2, cm_h1) >= 0,
                lat.pairing(cm_h2, h1_n1) >= 0,
                lat.pairing(cm_h2, n1) >= 0,
            ]
            if second_polarization:
                checks = checks[:2] + [
                    lat.norm(n2) == 0,
                    lat.pairing(n2, h2) == 5,
                    lat.pairing(n2, c) == 6,
                ]
            elif drop_constraint is not None:
                checks = [v for i, v in enumerate(checks) if i != drop_constraint]
            if all(checks):
                solutions.append((a, b))
    return solutions


#: the coordinate a dropped effectivity inequality leaves free, and the range
#: the other three allow it; without H2.(C-H1) >= 0 the last two still give
#: a <= 16, so (16, 6) stays the only pair
DROPPED = {0: (0, -math.inf, 16, "a is not pinned: [-inf, 16]"),
           2: (1, -math.inf, 6, "b is not pinned at a = 16: [-inf, 6]"),
           3: (1, 6, math.inf, "b is not pinned at a = 16: [6, inf]")}


def _in_box(pair, box) -> list:
    return [pair] if max(map(abs, pair)) <= box else []


@pytest.mark.parametrize("box", [3, 15, 16, 20])
@pytest.mark.parametrize("drop", [None, 0, 1, 2, 3])
def test_derive_hprime_entries_match_reference(box, drop):
    # the exact solver against the per-cell search in [-box, box]^2, with all
    # four effectivity inequalities or with one dropped: the box holds the
    # solved pair when it reaches a = 16 (on its edge at 16) and nothing
    # else, or, with a coordinate left free, only pairs in its named range
    slow = _reference_box_search(box, drop)
    conditions = [c for i, c in enumerate(lattice._EFFECTIVITY) if i != drop]
    if drop not in DROPPED:
        fast = derive_hprime_entries() if drop is None else lattice._solve_entries(conditions)
        assert fast == (16, 6) and repr(slow) == repr(_in_box(fast, box))
        return
    k, lo, hi, message = DROPPED[drop]
    assert all(lo <= pair[k] <= hi for pair in slow)
    assert len(slow) > 1 or box < 16
    with pytest.raises(LatticeError, match=re.escape(message) + "$"):
        lattice._solve_entries(conditions)


@pytest.mark.parametrize("box", [3, 15, 16, 20])
def test_second_polarization_entries_match_reference(box):
    fast = second_polarization_entries()
    slow = _reference_box_search(box, second_polarization=True)
    assert fast == (16, 7) and repr(slow) == repr(_in_box(fast, box))


def test_solve_entries_matches_the_box_search_on_random_conditions():
    # conditions at a random point (a0, b0), tight, moved past it or loosened:
    # a returned pair is the box's only one, a free coordinate holds every
    # pair the box finds, and a listed set of pairs is the box's
    vectors = [lattice._H1, lattice._C, lattice._N1, lattice._H2, lattice._N2,
               lattice._C_H1, lattice._C_H2, lattice._H1_N1]
    rng = random.Random(11)
    box = 12
    cells = [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)]
    lattices = {cell: lattice._rank4_lattice(*cell) for cell in cells}
    outcomes = set()
    for _ in range(60):
        a0, b0 = rng.randint(-8, 8), rng.randint(-8, 8)
        conditions = []
        for _ in range(rng.randint(1, 4)):
            u, v = rng.choice(vectors), rng.choice(vectors)
            if rng.random() < 0.5:
                v = tuple(-x for x in v)
            value = lattice._rank4_lattice(a0, b0).pairing(u, v)
            k = rng.choice([-1, 0, 0, 1, 3])
            op = operator.eq if rng.random() < 0.3 else operator.ge
            conditions.append((u, v, op, value if op is operator.eq else value - k))
        slow = [cell for cell in cells
                if all(op(lattices[cell].pairing(u, v), m) for u, v, op, m in conditions)]
        try:
            pair = lattice._solve_entries(conditions)
        except LatticeError as exc:
            found = re.fullmatch(r"([ab]) is not pinned(?: at a = (-?\d+))?: \[(\S+), (\S+)\]",
                                 str(exc))
            if found is None:
                head, listed = str(exc).split(": ", 1)
                pairs = ast.literal_eval(listed)
                assert head == "not one integer pair meets the conditions" and len(pairs) != 1
                assert slow == [cell for cell in pairs if cell in lattices]
                outcomes.add("several" if pairs else "empty")
                continue
            k, lo, hi = "ab".index(found[1]), float(found[3]), float(found[4])
            row = [cell for cell in slow if found[2] is None or cell[0] == int(found[2])]
            assert lo < hi and all(lo <= cell[k] <= hi for cell in row)
            outcomes.add(found[1])
            continue
        assert all(op(lattice._rank4_lattice(*pair).pairing(u, v), m) for u, v, op, m in conditions)
        assert slow == _in_box(pair, box)
        outcomes.add("pair")
    assert outcomes == {"pair", "a", "b", "several", "empty"}


def test_solve_rational_outcomes():
    # square and unique
    x, unique = solve_rational([[2, 1], [1, 3]], [3, 5])
    assert unique and x == [Fraction(4, 5), Fraction(7, 5)]
    # overdetermined and consistent
    x, unique = solve_rational([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    assert unique and x == [1, 2]
    # overdetermined and inconsistent
    assert solve_rational([[1, 0], [0, 1], [1, 1]], [1, 2, 4]) == (None, False)
    # underdetermined: free variables are 0
    x, unique = solve_rational([[1, 1, 0], [2, 2, 0]], [3, 6])
    assert not unique and x == [3, 0, 0]


def test_hprime_consistency_report():
    report = hprime_consistency_report(second_polarization_entries())
    assert report["literal_inequalities"] == (16, 6)
    assert report["second_polarization"] == (16, 7)
    assert report["n2_square_literal"] == -2
    assert report["n2_square_corrected"] == 0
    assert not report["basis_change_matches_literal"]
    assert report["basis_change_matches_corrected"]
    assert report["n1_dot_q2_corrected"] == -1
    assert report["q2_square"] == -2


def test_basis_change_reproduces_displayed_matrix():
    assert hprime_from_basis_change(second_polarization_entries()).gram == lattice_h_prime().gram


def test_basis_change_identity_and_unimodularity():
    identity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert basis_change_gram(H_LAT, identity, H_LAT.labels).gram == H_LAT.gram
    with pytest.raises(LatticeError, match="not unimodular"):
        basis_change_gram(H_LAT, [(2, 0, 0), (0, 1, 0), (0, 0, 1)], H_LAT.labels)


def test_basis_change_preserves_discriminant():
    changed = basis_change_gram(H_LAT, [(1, 0, -1), (0, 1, 1), (-1, 0, 0)], H_LAT.labels)
    assert discriminant(changed) == discriminant(H_LAT)


def test_primitive_embedding_h_into_hprime():
    ok, cert = verify_primitive_embedding(H_LAT, HP_LAT, stated_embedding_columns())
    assert ok
    assert cert["elementary_divisors"] == [1, 1, 1]


def test_primitive_embedding_identity():
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ok, _ = verify_primitive_embedding(H_LAT, H_LAT, cols)
    assert ok


def test_doubled_embedding_not_primitive():
    cols = [tuple(2 * v for v in col) for col in stated_embedding_columns()]
    ok, cert = verify_primitive_embedding(
        GramLattice(tuple(tuple(4 * v for v in row) for row in H_LAT.gram), H_LAT.labels),
        HP_LAT,
        cols,
    )
    assert not ok
    assert cert["reason"] == "not primitive"


def test_moduli_dimension():
    assert moduli_dimension(3) == 17
    assert moduli_dimension(4) == 16


def test_brill_noether_rho():
    assert brill_noether_rho(9, 1, 6) == 1
    assert brill_noether_rho(9, 2, 8) == 0
    assert brill_noether_rho(9, 3, 10) == 1


def test_dimension_audit():
    report = dimension_audit()
    assert report["ok"], report["checks"]
    assert report["dim_w_1_9_6"] == 25
    assert report["rank_of_quartic_lattice"] == 2
