import dataclasses
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrollres import plane_curve, resolution, scroll
from scrollres.chain import build_chain
from scrollres.ffield import SliceMap, is_prime
from scrollres.k3_syzygy import (
    K3Surface,
    k3_betti_shape,
    linear_syzygy_space,
    surface_pencil,
)
from scrollres.resolution import (
    GENERATOR_WINDOW,
    GENERIC_BETTI_TABLE,
    IDEAL_CHECK_TWISTS,
    SLICE_MARGIN,
    BigradedBettiTable,
    ResolutionError,
    ResolutionStep,
    SliceContext,
    SliceRankError,
    WindowExhaustedError,
    _verify_composition,
    curve_chi,
    ideal_generator_step,
    is_balanced,
    point_demand,
    schreyer_rank,
    slice_point_demand,
    splitting_type,
    syzygy_slope,
)
from scrollres.scroll import (
    GENERIC_E,
    KEY_RADIX,
    CoxPoly,
    add_keys,
    cox_slice,
    euler_scroll,
    term_keys,
)

from dict_cox import DictPoly, module_terms
from oracles import new_count, reference_new_representatives

# --- dict-based free-module reference ----------------------------------------
#
# DictPoly shifts and scatters term by term; the keyed matrices in
# scrollres.resolution must reproduce them entry for entry.


def _reference_map_matrix(twists, gens, cod_twists, e, a, b, p):
    gens = [DictPoly.from_keyed(g) for g in gens]
    cod_basis = module_terms(cod_twists, e, a, b)
    columns = module_terms(twists, e, a, b)
    mat = np.zeros((len(columns), len(cod_basis)), dtype=np.int64)
    for ci, (j, mono) in enumerate(columns):
        mat[ci] = gens[j].mul(DictPoly(p, {(0, mono): 1})).vector(cod_basis)
    return mat


def _reference_multiples_span(kernels, twists, e, a, b, p):
    columns = module_terms(twists, e, a, b)
    rows = []
    for (a2, b2), block in kernels.items():
        if (a2, b2) == (a, b) or a2 > a or (a2 == a and b2 >= b):
            continue
        block_terms = module_terms(twists, e, a2, b2)
        assert np.array_equal(block.columns, term_keys(block_terms))
        mults = cox_slice(e, a - a2, b - b2)
        for vec in block.kernel:
            elem = DictPoly(p, dict(zip(block_terms, vec.tolist())))
            for mono in mults:
                rows.append(DictPoly(p, {(0, mono): 1}).mul(elem).vector(columns))
    if not rows:
        return np.zeros((0, len(columns)), dtype=np.int64)
    return np.stack(rows)


def _reference_slice_span(surface, a, b):
    p = surface.prime
    basis = module_terms([(0, 0)], GENERIC_E, a, b)
    rows = []
    for (ga, gb), poly in surface.generators:
        elem = DictPoly.from_keyed(poly)
        for mult in cox_slice(GENERIC_E, a - ga, b - gb):
            rows.append(elem.mul(DictPoly(p, {(0, mult): 1})).vector(basis))
    if not rows:
        return np.zeros((0, len(basis)), dtype=np.int64)
    return np.stack(rows)


def apply_map(gens: list, elem: CoxPoly) -> dict:
    """Terms of the image of a level-n element under F_n -> F_(n-1); gens
    are the level-n generators written as level-(n-1) elements."""
    return DictPoly.from_keyed(elem).image([DictPoly.from_keyed(g) for g in gens]).terms


@pytest.fixture(scope="module")
def ctx(slice_ctx):
    return slice_ctx


@pytest.fixture(scope="module")
def table_and_steps(betti_data):
    return betti_data


def test_schreyer_rank_values():
    assert schreyer_rank(6, 1) == 9
    assert schreyer_rank(6, 2) == 16  # matches table total 2 + 12 + 2
    assert schreyer_rank(6, 3) == 9
    assert schreyer_rank(5, 1) == 5


def test_schreyer_rank_out_of_range():
    with pytest.raises(ValueError):
        schreyer_rank(6, 4)  # i = k - 2: formula degenerates, rank pinned by duality
    with pytest.raises(ValueError):
        schreyer_rank(6, 0)


def test_syzygy_slope_values():
    assert syzygy_slope(9, 6, 2) == 1
    assert syzygy_slope(9, 6, 1) == Fraction(2, 3)
    assert syzygy_slope(7, 6, 3) == 0  # g = k + 1


def test_is_balanced():
    assert is_balanced({0: 3})
    assert is_balanced({1: 6, 0: 3})
    assert not is_balanced({2: 2, 1: 12, 0: 2})


def test_ideal_slices(ctx):
    assert ctx.ideal_slice(2, -1).shape[0] == 6
    assert ctx.ideal_slice(2, 0).shape[0] == 15  # 39 - 24
    assert ctx.ideal_slice(1, 0).shape[0] == 0   # nondegenerate embedding
    assert ctx.ideal_slice(2, -2).shape[0] == 0


def test_minimal_generators(ctx):
    step = ideal_generator_step(ctx)
    # every key is (2, b), so sorting the keys sorts by the twist b
    gens = [((a, -b), new_count(step, a, b)) for (a, b) in sorted(step.kernels)
            if new_count(step, a, b)]
    assert gens == [((2, 1), 6), ((2, 0), 3)]


def test_generator_probe_beyond_window(ctx):
    step = ideal_generator_step(ctx)
    for b in (1, 2):
        assert (2, b) in step.kernels
        assert new_count(step, 2, b) == 0


def test_window_exhaustion_detected(ctx, table_and_steps):
    from scrollres.resolution import WindowExhaustedError, next_syzygies

    _, steps = table_and_steps
    # truncating the probe window so that new syzygies sit on its boundary
    with pytest.raises(WindowExhaustedError):
        next_syzygies(ctx, steps[0], 3, window=(-3, -2))


def test_generator_window_exhaustion_detected(monkeypatch, ctx):
    # the three generators of slice (2, 0) sit on the truncated window's boundary
    monkeypatch.setattr(resolution, "GENERATOR_WINDOW", (-2, -1, 0))
    with pytest.raises(WindowExhaustedError, match=r"boundary twist \(2,0\)"):
        ideal_generator_step(ctx)


def test_non_ideal_generator_is_caught_downstream(monkeypatch):
    # a row outside the ideal slice (2, -1), a unit vector at a non-pivot
    # column of its RREF, becomes a seventh generator there; the image of
    # the first syzygy map then exceeds the ideal slice (3, -2)
    true_slice = SliceContext.ideal_slice

    def with_extra_row(self, a, b):
        basis = true_slice(self, a, b)
        if (a, b) != (2, -1):
            return basis
        pivots = {int(np.flatnonzero(row)[0]) for row in basis}
        extra = np.zeros((1, basis.shape[1]), dtype=np.int64)
        extra[0, min(set(range(basis.shape[1])) - pivots)] = 1
        return np.concatenate([basis, extra])

    monkeypatch.setattr(SliceContext, "ideal_slice", with_extra_row)
    with pytest.raises(ResolutionError, match=r"generated ideal misses slice \(3,-2\): 26 != 22"):
        build_chain(10007, 1)


def test_betti_table_matches_expected(table_and_steps):
    table, _ = table_and_steps
    assert table.entries == GENERIC_BETTI_TABLE


def test_betti_table_is_tallied_from_the_steps(table_and_steps):
    table, steps = table_and_steps
    assert [step.index for step in steps] == [1, 2, 3, 4]
    tallied = BigradedBettiTable.from_steps(9, 6, steps)
    assert tallied.entries == table.entries == GENERIC_BETTI_TABLE
    assert BigradedBettiTable.from_steps(9, 6, []).entries == {}


def test_betti_table_self_dual(table_and_steps):
    table, _ = table_and_steps
    assert table.is_self_dual()
    skew = BigradedBettiTable(9, 6, {(1, 2, 1): 6, (1, 2, 0): 3})
    assert not skew.is_self_dual()


def test_rank_sums(table_and_steps):
    table, _ = table_and_steps
    assert table.rank(1) == 9
    assert table.rank(2) == 16
    assert table.rank(3) == 9
    assert table.rank(4) == 1


def test_degree_sums_match_slopes(table_and_steps):
    table, _ = table_and_steps
    for i, expected in ((1, 6), (2, 16), (3, 12)):
        assert table.degree(i) == expected
        assert Fraction(expected) == syzygy_slope(9, 6, i) * table.rank(i)


def test_splitting_types(table_and_steps):
    table, _ = table_and_steps
    n1 = splitting_type(table, 1)
    n2 = splitting_type(table, 2)
    assert n1 == {1: 6, 0: 3}
    assert is_balanced(n1)
    assert n2 == {2: 2, 1: 12, 0: 2}
    assert not is_balanced(n2)
    with pytest.raises(ValueError):
        splitting_type(table, 7)


def test_differentials_compose_to_zero(table_and_steps, ctx):
    _, steps = table_and_steps
    for idx in range(1, len(steps)):
        for gen in steps[idx].gens:
            assert apply_map(steps[idx - 1].gens, gen) == {}


def test_first_syzygy_twists(table_and_steps):
    _, steps = table_and_steps
    step2 = steps[1]
    counts = {}
    for (a, b) in step2.twists:
        counts[(a, -b)] = counts.get((a, -b), 0) + 1
    assert counts == {(3, 2): 2, (3, 1): 12, (3, 0): 2}


def test_hilbert_alternating_sum(table_and_steps, ctx):
    table, _ = table_and_steps
    for (a, b) in ((2, 0), (2, 1), (3, -1), (3, 0), (4, -2)):
        chi = euler_scroll(GENERIC_E, a, b)
        for (i, ta, tb), mult in table.entries.items():
            chi += (-1) ** i * mult * euler_scroll(GENERIC_E, a - ta, b + tb)
        assert chi == table.euler_characteristic(GENERIC_E, a, b) == 16 * a + 6 * b - 8


def test_restriction_ranks_match_riemann_roch(ctx):
    # h^0(omega^a L^b) = 16a + 6b - 8 in the nonspecial range
    for (a, b) in ((2, -1), (2, 0), (3, -2), (3, -1)):
        restriction_rank = len(cox_slice(ctx.e, a, b)) - ctx.ideal_slice(a, b).shape[0]
        assert restriction_rank == 16 * a + 6 * b - 8


def _resolution_slices() -> list:
    """Every ideal slice (a, b) the resolution takes."""
    return ([(1, b) for b in (-1, 0, 1)] + [(2, b) for b in GENERATOR_WINDOW]
            + [(3, b) for b in IDEAL_CHECK_TWISTS])


def test_stream_is_read_only_within_its_demand(ctx):
    # a request beyond the stream is a programming error, not a chain outcome
    assert ctx.points(point_demand()) == ctx._points
    with pytest.raises(ValueError, match="111 points requested from a stream of 110"):
        ctx.points(point_demand() + 1)
    with pytest.raises(ValueError, match="111 points requested"):
        ctx.values(point_demand() + 1)


def test_slice_margin_exceeds_every_degree_defect(ctx):
    # a nonzero section of degree 16a + 6b cannot vanish at h^0 + SLICE_MARGIN
    # distinct points, so one draw certifies every slice
    for a, b in _resolution_slices():
        assert 16 * a + 6 * b < ctx.curve_h0(a, b) + SLICE_MARGIN
    assert slice_point_demand() == max(ctx.curve_h0(a, b) for a, b in _resolution_slices()) \
        + SLICE_MARGIN == 50


def test_curve_h0_is_the_d_vector_or_riemann_roch(ctx):
    # one chi formula, 16a + 6b - 8, for every non-special slice; the
    # bidegrees no nonempty slice of the pipeline has raise
    assert [curve_chi(a, b) for a, b in ((2, 0), (3, -1), (4, -2))] == [24, 34, 44]
    for a, b in _resolution_slices():
        if a >= 2:
            assert ctx.curve_h0(a, b) == curve_chi(a, b)
    # h^0(omega L^-1) = h^1(L) and h^0(omega) = g from the d-vector
    assert [ctx.curve_h0(1, b) for b in (-1, 0, 1)] == [4, 9, curve_chi(1, 1)]
    for a, b in ((0, 0), (1, -3), (2, -3), (-1, 5)):
        with pytest.raises(ResolutionError, match=rf"bidegree \({a},{b}\) not supported"):
            ctx.curve_h0(a, b)


@pytest.mark.parametrize("shift", [1, -1])
def test_slice_rank_other_than_h0_is_rejected(monkeypatch, model, coords, ctx, shift):
    # slice (2, 0) has degree 32 > 2g - 2 and a kernel of dimension 39 - 24;
    # a wrong h^0 leaves the rank unequal to it, which raises at once after
    # one evaluation at the stream's first h^0 + shift + SLICE_MARGIN points
    true_h0 = SliceContext.curve_h0
    monkeypatch.setattr(SliceContext, "curve_h0", lambda self, a, b: true_h0(self, a, b) + shift)
    fresh = SliceContext(model, coords)
    read = []
    true_values = SliceContext.values
    monkeypatch.setattr(SliceContext, "values", lambda self, n: read.append(n) or true_values(self, n))
    with pytest.raises(SliceRankError, match=r"slice \(2,0\)"):
        fresh.ideal_slice(2, 0)
    assert read == [24 + shift + SLICE_MARGIN]
    monkeypatch.undo()
    assert np.array_equal(SliceContext(model, coords).ideal_slice(2, 0), ctx.ideal_slice(2, 0))


def test_json_entries_roundtrip(table_and_steps):
    table, _ = table_and_steps
    entries = table.to_json_entries()
    rebuilt = {(e["i"], e["a"], e["b"]): e["multiplicity"] for e in entries}
    assert rebuilt == table.entries


LARGEST_PRIME_BELOW_2_24 = 16777213


def test_largest_prime_below_2_24():
    assert is_prime(LARGEST_PRIME_BELOW_2_24)
    assert not any(is_prime(n) for n in range(LARGEST_PRIME_BELOW_2_24 + 1, 1 << 24))


@pytest.mark.parametrize("p", [1009, 100003, LARGEST_PRIME_BELOW_2_24])
def test_prime_sweep_generic_unbalanced_table(p):
    # the answer must not depend on the prime, and sampling cost not on its size
    chain = build_chain(p, 1)
    assert chain.table.entries == GENERIC_BETTI_TABLE
    assert not is_balanced(splitting_type(chain.table, 2))
    # the chain's one stream, drawn once, whatever the prime
    assert len(chain.ctx._points) == point_demand() == 110


# --- keyed free-module maps against the dict reference -----------------------


def _spy(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_keyed_chain_matrices_match_dict_reference(monkeypatch):
    maps = _spy(monkeypatch, resolution, "free_map_matrix")
    spans = _spy(monkeypatch, resolution, "_multiples_span")
    chain = build_chain(10007, 1)
    assert chain.table.entries == GENERIC_BETTI_TABLE
    # every multiples span is the output of one free_map_matrix call; every
    # other call maps the generators of one step of the chain
    span_ids = {id(span) for _, span in spans}
    index = {id(step.twists): step.index for step in chain.steps}
    called = [("span" if id(mat) in span_ids else index[id(twists)], a, b)
              for (twists, _gens, _cod, _e, a, b, _p), mat in maps]
    # the five generator slices, then the four next_syzygies calls, each
    # slice's map followed by its span; slice (3, -3) has no columns over F_1
    syzygy_slices = (
        [(1, 3, b) for b in (-2, -1, 0, 1)] + [(2, 4, b) for b in (-3, -2, -1, 0, 1)]
        + [(3, 5, b) for b in (-3, -2, -1, 0)] + [(3, 6, b) for b in (-4, -3, -2, -1)]
    )
    assert called == [("span", 2, b) for b in (-2, -1, 0, 1, 2)] + [
        call for index, a, b in syzygy_slices for call in ((index, a, b), ("span", a, b))]
    assert len(spans) == 5 + len(syzygy_slices)
    for (args, mat), (step_index, a, b) in zip(maps, called):
        assert mat.slice == (a, b)
        if step_index != "span":
            assert np.array_equal(mat.images(), _reference_map_matrix(*args))
    for args, span in spans:
        assert np.array_equal(span.images(), _reference_multiples_span(*args))
    assert sum(span.shape[1] for _, span in spans) > 0


def test_new_representatives_match_row_by_row_reference(monkeypatch):
    calls = _spy(monkeypatch, resolution, "_new_representatives")
    assert build_chain(10007, 1).table.entries == GENERIC_BETTI_TABLE
    assert len(calls) == 5 + 17  # the generator slices and the syzygy slices
    assert sum(len(out) for _args, out in calls) > 0
    for (kernel, multiples, p), out in calls:
        expected = reference_new_representatives(kernel, multiples.images(), p)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


def test_build_chain_memory_peak():
    # the slice maps are projected from their nonzeros, so the largest
    # (1904 x 396, 96 % zeros) never exists densely: the traced peak was
    # 14.55 MiB with dense maps.  tracemalloc counts allocations, not pages.
    tracemalloc.start()
    try:
        chain = build_chain(10007, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.table.entries == GENERIC_BETTI_TABLE
    assert peak <= 9 * 2**20


def test_every_adjoint_system_is_solved_once_per_chain(monkeypatch):
    # canonical_coordinates records the d-vector of the systems it solves,
    # and SliceContext reads the h^1 values and the scroll type off it
    solved = Counter()
    original = plane_curve.linear_system

    def counted(model, d, conditions):
        solved[d, tuple(conditions)] += 1
        return original(model, d, conditions)

    for module in (plane_curve, scroll):
        monkeypatch.setattr(module, "linear_system", counted)
    chain = build_chain(10007, 1)
    assert sorted((d, len(conditions)) for d, conditions in solved) == \
        [(1, 1), (4, 16), (5, 17), (6, 17)]
    assert set(solved.values()) == {1}
    assert chain.coords.dims == (9, 4, 0) and chain.ctx.e == GENERIC_E


@st.composite
def slice_spaces(draw):
    """(p, kernel, multiples): a kernel basis and multiples drawn inside its
    span, some of them repeated, zero or scaled."""
    p = draw(st.sampled_from([101, 2147483629]))
    cols = draw(st.integers(1, 40))
    rows = draw(st.integers(0, cols + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < draw(st.floats(0.1, 1)))
    combos = rng.integers(0, p, size=(draw(st.integers(0, 2 * rows + 2)), rows))
    combos[:, rng.random(rows) < draw(st.floats(0, 1))] = 0
    multiples = (combos.astype(object) @ kernel.astype(object) % p).astype(np.int64)
    multiples = multiples.reshape(len(combos), cols)
    if len(multiples) and draw(st.booleans()):
        multiples = np.concatenate([multiples, multiples[:1], 0 * multiples[:1]])
    return p, kernel, multiples


@settings(max_examples=60, deadline=None)
@given(slice_spaces())
def test_new_representatives_property(case):
    p, kernel, multiples = case
    # the map sending domain basis vector i to row i of multiples
    domain, codomain = np.nonzero(multiples)
    image_map = SliceMap(p, (0, 0), multiples.shape[::-1], codomain, domain,
                         multiples[domain, codomain])
    assert image_map.images().tobytes() == multiples.tobytes()
    out = resolution._new_representatives(kernel, image_map, p)
    expected = reference_new_representatives(kernel, multiples, p)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_keyed_k3_slice_spans_match_dict_reference(monkeypatch, ctx, table_and_steps,
                                                   generator_polys):
    _, steps = table_and_steps
    pencil = surface_pencil(*linear_syzygy_space(steps, ctx.prime), generator_polys[:6])
    surface = pencil.member(1, 7)
    spans = _spy(monkeypatch, K3Surface, "slice_span")
    k3_betti_shape(ctx, surface)
    probed = [args[1:] for args, _ in spans]
    assert probed == [(2, -1), (2, 0), (2, 1), (3, -2), (3, -1), (3, 0)]
    for (surf, a, b), span in spans:
        assert np.array_equal(span, _reference_slice_span(surf, a, b))


def test_composition_check_catches_one_changed_coefficient(table_and_steps, ctx):
    _, steps = table_and_steps
    p = ctx.prime
    _verify_composition(steps, p)
    coefs = steps[1].gens[0].coefs.copy()
    coefs[0] = (coefs[0] + 1) % p
    gen = CoxPoly(p, steps[1].gens[0].keys, coefs)
    broken = dataclasses.replace(steps[1], gens=[gen] + steps[1].gens[1:])
    assert apply_map(steps[0].gens, gen) != {}
    with pytest.raises(ResolutionError, match="differential composition nonzero at step 2"):
        _verify_composition([steps[0], broken] + steps[2:], p)


PRIME_BELOW_2_31 = 2147483629


def _quadric_steps(p: int, coeffs: list):
    """Lower step: the six products x_i x_j of x1..x4, each with coefficient
    p - 1.  Upper generator: coeffs[k] times the complementary product."""
    zero_beta = (0, 0)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def alpha(idx):
        return tuple(1 if v in idx else 0 for v in range(5))

    lower = [DictPoly(p, {(0, (alpha(pr), zero_beta)): p - 1}).keyed() for pr in pairs]
    upper = DictPoly(p, {
        (k, (alpha(set(range(4)) - set(pr)), zero_beta)): c
        for k, (pr, c) in enumerate(zip(pairs, coeffs))
    }).keyed()
    steps = [
        ResolutionStep(1, [(2, -2)] * 6, lower, {}),
        ResolutionStep(2, [(4, -4)], [upper], {}, cod_twists=[(2, -2)] * 6),
    ]
    return steps, upper


def test_composition_sum_at_large_prime_does_not_overflow():
    p = PRIME_BELOW_2_31
    assert is_prime(p)
    # every image term lands on x1 x2 x3 x4 with product (p-1) c_k; three of
    # them are (p-1)^2, so an unreduced int64 sum would wrap around
    assert 3 * (p - 1) ** 2 > 2 ** 63
    steps, upper = _quadric_steps(p, [p - 1, p - 1, p - 1, 1, 1, 1])
    assert apply_map(steps[0].gens, upper) == {}
    _verify_composition(steps, p)
    steps, upper = _quadric_steps(p, [p - 1, p - 1, p - 1, 1, 1, 2])
    assert apply_map(steps[0].gens, upper) != {}
    with pytest.raises(ResolutionError, match="differential composition nonzero"):
        _verify_composition(steps, p)


def test_term_keys_are_additive():
    e1 = ((2, 0, 1, 0, 3), (4, 0))
    m = ((0, 1, 1, 0, 0), (1, 2))
    e_plus_m = ((2, 1, 2, 0, 3), (5, 2))
    [k], [mk], [target] = term_keys([(3, e1)]), term_keys([(0, m)]), term_keys([(3, e_plus_m)])
    assert add_keys(k, mk) == target
    # distinct terms give distinct keys
    terms = [(j, mono) for j in range(3) for mono in cox_slice(GENERIC_E, 3, -1)]
    assert len(set(term_keys(terms).tolist())) == len(terms)


def test_exponent_at_radix_is_rejected():
    top = KEY_RADIX - 1
    term_keys([(0, ((top, 0, 0, 0, 0), (0, top)))])
    for bad in (((KEY_RADIX, 0, 0, 0, 0), (0, 0)), ((0, 0, 0, 0, 0), (0, KEY_RADIX)),
                ((-1, 0, 0, 0, 0), (0, 0))):
        with pytest.raises(ValueError, match="cannot be keyed"):
            term_keys([(0, bad)])
    # a sum reaching the radix must not carry into the next digit
    half = KEY_RADIX // 2
    [k] = term_keys([(0, ((half, 0, 0, 0, 0), (0, 0)))])
    with pytest.raises(ValueError, match="would carry"):
        add_keys(k, k)


def test_term_outside_target_slice_is_rejected(table_and_steps, ctx):
    _, steps = table_and_steps
    # the generator twists shifted by one H-degree land outside slice (3, b)
    wrong = [(1, b) for _, b in steps[0].twists]
    with pytest.raises(ValueError, match="outside the target slice"):
        resolution.free_map_matrix(wrong, steps[0].gens, steps[0].cod_twists, ctx.e, 3, 0,
                                   ctx.prime)
