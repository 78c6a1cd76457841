from fractions import Fraction

import pytest

from scrollres.ffield import is_prime
from scrollres.pipeline import build_chain
from scrollres.resolution import (
    GENERIC_BETTI_TABLE,
    BigradedBettiTable,
    ideal_generator_step,
    is_balanced,
    minimal_generators,
    schreyer_rank,
    splitting_type,
    syzygy_slope,
)
from scrollres.scroll import GENERIC_E, euler_scroll


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
    gens = minimal_generators(ctx)
    assert [(twist, count) for twist, count, _ in gens] == [((2, 1), 6), ((2, 0), 3)]


def test_generator_probe_beyond_window(ctx):
    step = ideal_generator_step(ctx)
    for b in (1, 2):
        blk = step.kernels[(2, b)]
        assert blk.new_count == 0


def test_window_exhaustion_detected(ctx, table_and_steps):
    from scrollres.resolution import WindowExhaustedError, next_syzygies

    _, steps = table_and_steps
    # truncating the probe window so that new syzygies sit on its boundary
    with pytest.raises(WindowExhaustedError):
        next_syzygies(ctx, steps[0], 3, window=(-3, -2))


def test_betti_table_matches_expected(table_and_steps):
    table, _ = table_and_steps
    assert table.entries == GENERIC_BETTI_TABLE


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
    from scrollres.resolution import apply_map

    _, steps = table_and_steps
    for idx in range(1, len(steps)):
        for gen in steps[idx].gens:
            assert apply_map(steps[idx - 1].gens, gen, ctx.prime) == {}


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
        assert chi == 16 * a + 6 * b - 8


def test_restriction_ranks_match_riemann_roch(ctx):
    # h^0(omega^a L^b) = 16a + 6b - 8 in the nonspecial range
    for (a, b) in ((2, -1), (2, 0), (3, -2), (3, -1)):
        assert ctx.restriction_rank(a, b) == 16 * a + 6 * b - 8


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
    table = build_chain(p, 1).table
    assert table.entries == GENERIC_BETTI_TABLE
    assert not is_balanced(splitting_type(table, 2))
