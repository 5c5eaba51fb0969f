"""Counter-mode generator and alias-table sampler.

The generator is pinned to the SplitMix64 output function, so the first
values for a known seed can be checked against the sequence published with
that algorithm rather than against our own code. The scalar helpers below
restate the generator and the alias draw one value at a time; the block
paths the solvers use (numpy and compiled) must emit the same sequence.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaczmarz import _blocks
from kaczmarz.errors import DegenerateWeightsError
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.sampling import (
    COL_STREAM_SALT,
    ROW_STREAM_SALT,
    GOLDEN,
    MASK64,
    AliasTable,
    RngStream,
    build_alias_table,
    col_sampler,
    mix64,
    reconstructed_mass,
    row_sampler,
    sample_block,
)

EPS = np.finfo(np.float64).eps


def next_uint64(rng):
    """Draw number rng.counter + 1 of the stream, advancing the counter by one."""
    rng.counter += 1
    return mix64((rng.seed + rng.counter * GOLDEN) & MASK64)


def next_uniform(rng):
    return (next_uint64(rng) >> 11) * 2.0**-53


def sample(table, rng):
    """One draw: one uniform for the cell, one for the coin."""
    u_cell = next_uniform(rng)
    u_coin = next_uniform(rng)
    k = int(u_cell * table.size)
    if k >= table.size:  # guard the top rounding edge
        k = table.size - 1
    return k if u_coin < table.prob[k] else int(table.alias[k])


# First five outputs of SplitMix64 for seed 1234567 (widely published
# reference sequence for this mixer).
SPLITMIX64_SEED = 1234567
SPLITMIX64_FIRST5 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_known_splitmix64_sequence():
    rng = RngStream(SPLITMIX64_SEED)
    got = [next_uint64(rng) for _ in range(5)]
    assert got == SPLITMIX64_FIRST5


def test_mix64_matches_stream():
    golden = 0x9E3779B97F4A7C15
    for k in range(1, 6):
        assert mix64((SPLITMIX64_SEED + k * golden) % 2**64) == SPLITMIX64_FIRST5[k - 1]


def test_uniforms_are_53_bit_fractions():
    rng = RngStream(SPLITMIX64_SEED)
    for want_bits in SPLITMIX64_FIRST5:
        u = next_uniform(rng)
        assert u == (want_bits >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_block_path_equals_scalar_path():
    a = RngStream(42)
    b = RngStream(42)
    block = b.uniform_block(7)
    scalar = np.array([next_uniform(a) for _ in range(7)])
    np.testing.assert_array_equal(block, scalar)
    assert a.counter == b.counter == 7
    # continuing after a block pickup stays aligned
    assert next_uint64(a) == next_uint64(b)


def test_derived_streams_are_decorrelated_and_deterministic():
    row = RngStream.derived(9, ROW_STREAM_SALT)
    col = RngStream.derived(9, COL_STREAM_SALT)
    assert row.seed == mix64(9 ^ ROW_STREAM_SALT)
    assert col.seed == mix64(9 ^ COL_STREAM_SALT)
    assert row.seed != col.seed
    again = RngStream.derived(9, ROW_STREAM_SALT)
    assert [next_uint64(row) for _ in range(4)] == [next_uint64(again) for _ in range(4)]


def test_counter_mode_is_stateless_in_the_counter():
    # jumping the counter reproduces the tail of the sequence
    rng = RngStream(5)
    seq = [next_uint64(rng) for _ in range(6)]
    late = RngStream(5, counter=3)
    assert [next_uint64(late) for _ in range(3)] == seq[3:]


def test_alias_table_two_outcomes_by_hand():
    # weights (3, 1): cell 0 is overfull, cell 1 underfull.
    # scaled = (1.5, 0.5); cell 1 keeps prob 0.5 and aliases to 0; the
    # leftover cell 0 saturates at 1.0.
    t = build_alias_table(np.array([3.0, 1.0]))
    assert t.size == 2
    np.testing.assert_array_equal(t.prob, [1.0, 0.5])
    np.testing.assert_array_equal(t.alias, [0, 0])


def test_alias_table_uniform_weights_never_alias():
    t = build_alias_table(np.ones(5))
    np.testing.assert_array_equal(t.prob, np.ones(5))
    np.testing.assert_array_equal(t.alias, np.arange(5))


def test_alias_reconstruction_invariant():
    rng = np.random.default_rng(17)
    for size in (1, 2, 3, 10, 64, 257):
        w = rng.uniform(0.0, 1.0, size=size)
        w[rng.integers(size)] = 0.0 if size > 1 else 1.0
        if w.sum() == 0.0:
            w[0] = 1.0
        t = build_alias_table(w)
        mass = reconstructed_mass(t)
        np.testing.assert_allclose(mass, w / w.sum(), atol=4.0 * size * EPS, rtol=0)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 400),
        elements=st.one_of(st.just(0.0), st.floats(1e-12, 1e12)),
    )
)
def test_alias_reconstruction_property(w):
    assume(w.sum() > 0.0)
    mass = reconstructed_mass(build_alias_table(w))
    np.testing.assert_allclose(mass, w / w.sum(), atol=1e-12, rtol=0)


def test_zero_weight_outcomes_are_never_sampled():
    w = np.array([0.5, 0.0, 0.25, 0.0, 0.25])
    t = build_alias_table(w)
    rng = RngStream(123)
    draws = sample_block(t, rng, 20000)
    assert set(np.unique(draws)).isdisjoint({1, 3})
    counts = np.bincount(draws, minlength=5) / draws.size
    np.testing.assert_allclose(counts[[0, 2, 4]], [0.5, 0.25, 0.25], atol=0.02)


@pytest.mark.filterwarnings("error")
def test_weights_with_a_subnormal_total_keep_their_zeros_unreachable():
    # size / total overflows here; scaling by it would turn 0 into 0 * inf = nan
    w = np.array([1e-310, 0.0, 3e-310, 0.0])
    t = build_alias_table(w)
    mass = reconstructed_mass(t)
    assert mass[1] == mass[3] == 0.0
    np.testing.assert_allclose(mass, [0.25, 0.0, 0.75, 0.0], atol=1e-6, rtol=0)
    assert set(sample_block(t, RngStream(3), 2000).tolist()) == {0, 2}


def test_degenerate_weights_rejected():
    with pytest.raises(DegenerateWeightsError):
        build_alias_table(np.zeros(3))
    with pytest.raises(DegenerateWeightsError):
        build_alias_table(np.array([1.0, -0.5]))
    with pytest.raises(DegenerateWeightsError):
        build_alias_table(np.array([1.0, np.nan]))
    with pytest.raises(DegenerateWeightsError):
        build_alias_table(np.array([]))


def test_sample_scalar_and_block_agree():
    t = build_alias_table(np.array([1.0, 2.0, 3.0, 4.0]))
    a = RngStream(77)
    b = RngStream(77)
    block = sample_block(t, b, 50)
    scalar = np.array([sample(t, a) for _ in range(50)])
    np.testing.assert_array_equal(block, scalar)


def _numpy_block(table, rng, count):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_blocks, "load", lambda: None)
        return sample_block(table, rng, count)


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.one_of(st.just(0.0), st.floats(1e-12, 1e12)),
    ),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**62),
    st.integers(0, 60),
)
def test_compiled_draws_equal_the_numpy_and_scalar_draws(w, seed, counter, count):
    assume(w.sum() > 0.0)
    if _blocks.load() is None:
        pytest.skip("no C compiler: only the numpy path runs here")
    table = build_alias_table(w)
    streams = [RngStream(seed, counter) for _ in range(3)]
    compiled = sample_block(table, streams[0], count)
    vectorised = _numpy_block(table, streams[1], count)
    scalar = [sample(table, streams[2]) for _ in range(count)]
    assert compiled.dtype == vectorised.dtype == np.int64
    np.testing.assert_array_equal(compiled, vectorised)
    assert compiled.tolist() == scalar
    assert streams[0].counter == streams[1].counter == streams[2].counter == counter + 2 * count
    assert all(w[k] > 0.0 for k in scalar)


def test_malformed_alias_tables_are_refused_before_the_kernel_runs(monkeypatch):
    good = build_alias_table(np.array([1.0, 2.0, 3.0]))
    calls = []

    class Recording:
        def alias_draws(self, *args):
            calls.append(args)

    monkeypatch.setattr(_blocks, "load", Recording)
    malformed = [
        AliasTable(3, good.prob.astype(np.float32), good.alias),  # wrong dtypes
        AliasTable(3, good.prob, good.alias.astype(np.int32)),
        AliasTable(3, np.repeat(good.prob, 2)[::2], good.alias),  # strided
        AliasTable(3, good.prob, np.repeat(good.alias, 2)[::2]),
        AliasTable(4, good.prob, good.alias),  # wrong lengths
        AliasTable(3, good.prob[:2], good.alias),
        AliasTable(3, good.prob, good.alias[:2]),
        AliasTable(0, good.prob[:0], good.alias[:0]),  # no cell to draw
        AliasTable(3, good.prob.tolist(), good.alias),  # not an array
    ]
    for table in malformed:
        rng = RngStream(5, 7)
        with pytest.raises(ValueError, match="alias table"):
            sample_block(table, rng, 4)
        assert rng.counter == 7
    assert calls == []
    sample_block(good, RngStream(5, 7), 4)
    assert len(calls) == 1 and calls[0][:3] == (5, 7, 3)


def test_single_outcome_table():
    t = build_alias_table(np.array([2.5]))
    rng = RngStream(0)
    assert all(sample(t, rng) == 0 for _ in range(10))


def test_row_col_samplers_use_squared_norms():
    dense = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    # row of zeros would make the matrix fine but that row unsampleable
    dense[2, 0] = 1e-12
    a = DualSparseMatrix.from_dense(dense)
    rt = row_sampler(a)
    ct = col_sampler(a)
    assert isinstance(rt, AliasTable) and isinstance(ct, AliasTable)
    np.testing.assert_allclose(
        reconstructed_mass(rt), a.row_sq_norms / a.frob_sq, atol=16 * EPS, rtol=0
    )
    np.testing.assert_allclose(
        reconstructed_mass(ct), a.col_sq_norms / a.frob_sq, atol=16 * EPS, rtol=0
    )
    # built once per matrix; a fresh build gives the same table, so the same draws
    assert row_sampler(a) is rt and col_sampler(a) is ct
    fresh = build_alias_table(a.row_sq_norms)
    np.testing.assert_array_equal(fresh.prob, rt.prob)
    np.testing.assert_array_equal(fresh.alias, rt.alias)


def test_empirical_frequencies_track_weights():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    t = build_alias_table(w)
    rng = RngStream(2024)
    draws = sample_block(t, rng, 100_000)
    freq = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freq, w / w.sum(), atol=0.01)
