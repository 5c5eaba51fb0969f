"""Counter-mode generator and alias-table sampler.

The generator is pinned to the SplitMix64 output function, so the first
values for a known seed can be checked against the sequence published with
that algorithm rather than against our own code. The scalar helpers below
restate the generator and the alias draw one value at a time; sample_block
must emit the same sequence. The compiled block kernel's own draws are held
to sample_block's in tests/test_solvers.py.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaczmarz.errors import DegenerateWeightsError
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.sampling import (
    COL_STREAM_SALT,
    ROW_STREAM_SALT,
    GOLDEN,
    MASK64,
    AliasTable,
    build_alias_table,
    col_sampler,
    derived_seeds,
    mix64,
    reconstructed_mass,
    row_sampler,
    sample_block,
)
from kaczmarz.solvers import SolverConfig, solve

from helpers import stream

EPS = np.finfo(np.float64).eps


def next_uint64(pair):
    """Draw number pair[1] + 1 of the (seed, draws used) stream `pair`, moving it on by one."""
    pair[1] += 1
    return mix64((int(pair[0]) + int(pair[1]) * GOLDEN) & MASK64)


def next_uniform(pair):
    return (next_uint64(pair) >> 11) * 2.0**-53


def sample(table, pair):
    """One draw: one uniform for the cell, one for the coin."""
    u_cell = next_uniform(pair)
    u_coin = next_uniform(pair)
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
    rng = stream(SPLITMIX64_SEED)
    got = [next_uint64(rng) for _ in range(5)]
    assert got == SPLITMIX64_FIRST5


def test_mix64_matches_stream():
    golden = 0x9E3779B97F4A7C15
    for k in range(1, 6):
        assert mix64((SPLITMIX64_SEED + k * golden) % 2**64) == SPLITMIX64_FIRST5[k - 1]


def test_uniforms_are_53_bit_fractions():
    rng = stream(SPLITMIX64_SEED)
    for want_bits in SPLITMIX64_FIRST5:
        u = next_uniform(rng)
        assert u == (want_bits >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_block_path_equals_scalar_path():
    t = build_alias_table(np.array([1.0, 2.0, 3.0, 4.0]))
    a = stream(42)
    b = stream(42)
    block = sample_block(t, b, 7)
    scalar = [sample(t, a) for _ in range(7)]
    assert block.tolist() == scalar
    # the block moved the pair it was given, two draws per index
    assert a.tolist() == b.tolist() == [42, 14]
    # continuing after a block pickup stays aligned
    assert next_uint64(a) == next_uint64(b)


def test_derived_streams_are_decorrelated_and_deterministic():
    seeds = [0, 9, 2**63, MASK64]
    row_seeds = derived_seeds(seeds, ROW_STREAM_SALT).tolist()
    col_seeds = derived_seeds(seeds, COL_STREAM_SALT).tolist()
    assert row_seeds == [mix64(s ^ ROW_STREAM_SALT) for s in seeds]
    assert col_seeds == [mix64(s ^ COL_STREAM_SALT) for s in seeds]
    assert not set(row_seeds) & set(col_seeds)
    row, again = stream(row_seeds[1]), stream(derived_seeds([9], ROW_STREAM_SALT)[0])
    assert [next_uint64(row) for _ in range(4)] == [next_uint64(again) for _ in range(4)]


def test_counter_mode_is_stateless_in_the_counter():
    # jumping the counter reproduces the tail of the sequence
    rng = stream(5)
    seq = [next_uint64(rng) for _ in range(6)]
    late = stream(5, used=3)
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
    rng = stream(123)
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
    assert set(sample_block(t, stream(3), 2000).tolist()) == {0, 2}


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
    a = stream(77)
    b = stream(77)
    block = sample_block(t, b, 50)
    scalar = np.array([sample(t, a) for _ in range(50)])
    np.testing.assert_array_equal(block, scalar)


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
def test_numpy_draws_equal_the_scalar_draws(w, seed, counter, count):
    assume(w.sum() > 0.0)
    table = build_alias_table(w)
    streams = [stream(seed, counter) for _ in range(2)]
    block = sample_block(table, streams[0], count)
    scalar = [sample(table, streams[1]) for _ in range(count)]
    assert block.dtype == np.int64
    assert block.tolist() == scalar
    assert streams[0].tolist() == streams[1].tolist() == [seed, counter + 2 * count]
    assert all(w[k] > 0.0 for k in scalar)


def test_malformed_alias_tables_are_refused_before_the_kernel_runs():
    good = build_alias_table(np.array([1.0, 2.0, 3.0]))
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
        AliasTable(3, good.prob, np.array([0, 3, 2])),  # an alias outside [0, size)
        AliasTable(3, good.prob, np.array([-1, 1, 2])),
    ]
    for table in malformed:
        rng = stream(5, 7)
        with pytest.raises(ValueError, match="alias table"):
            sample_block(table, rng, 4)
        assert rng.tolist() == [5, 7]
    rng, ref = stream(5, 7), stream(5, 7)
    assert sample_block(good, rng, 4).tolist() == [sample(good, ref) for _ in range(4)]


@pytest.mark.parametrize("spec", [
    InstanceSpec(kind="dense", m=100, n=30, seed=3),  # the README's verify instance
    InstanceSpec(kind="sparse", m=40, n=25, density=0.05, seed=5),
], ids=["readme-dense", "sparse-empty-lines"])
def test_cached_tables_reconstruct_the_squared_norm_distribution(spec):
    a, b, _ = generate(spec)
    if spec.kind == "sparse":
        assert (a.row_sq_norms == 0.0).any() and (a.col_sq_norms == 0.0).any()
    solve(a, b, SolverConfig(max_iters=10))  # the tables a run draws from, cached on a
    for table, sq in ((row_sampler(a), a.row_sq_norms), (col_sampler(a), a.col_sq_norms)):
        # zero-norm lines get exactly zero mass
        np.testing.assert_allclose(reconstructed_mass(table), sq / a.frob_sq, rtol=1e-12, atol=0)
    assert row_sampler(a) is row_sampler(a) and col_sampler(a) is col_sampler(a)


def test_single_outcome_table():
    t = build_alias_table(np.array([2.5]))
    rng = stream(0)
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
    rng = stream(2024)
    draws = sample_block(t, rng, 100_000)
    freq = np.bincount(draws, minlength=4) / draws.size
    np.testing.assert_allclose(freq, w / w.sum(), atol=0.01)
