"""Pinned instance ensembles."""

import tracemalloc

import numpy as np
import pytest

from kaczmarz import generate as generate_module
from kaczmarz.errors import DegenerateDensityError, InvalidRangeError
from kaczmarz.generate import KINDS, InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.reference import min_norm_solve

EPS = np.finfo(np.float64).eps


def test_generation_is_bit_reproducible():
    spec = InstanceSpec(kind="sparse", m=24, n=10, density=0.3, seed=99)
    a1, b1, p1 = generate(spec)
    a2, b2, p2 = generate(spec)
    np.testing.assert_array_equal(a1.to_dense(), a2.to_dense())
    np.testing.assert_array_equal(b1, b2)
    assert p1 is None and p2 is None
    a3, b3, _ = generate(InstanceSpec(kind="sparse", m=24, n=10, density=0.3, seed=100))
    assert not np.array_equal(b1, b3)


def test_dense_and_sparse_columns_have_unit_norm():
    for kind, density in (("dense", 1.0), ("sparse", 0.4)):
        a, _, _ = generate(InstanceSpec(kind=kind, m=30, n=12, density=density, seed=3))
        dense = a.to_dense()
        norms = np.linalg.norm(dense, axis=0)
        live = norms > 0
        np.testing.assert_allclose(norms[live], 1.0, atol=64 * EPS, rtol=0)


def test_sparse_density_is_roughly_requested():
    a, _, _ = generate(InstanceSpec(kind="sparse", m=100, n=50, density=0.2, seed=4))
    got = a.nnz / (a.m * a.n)
    assert abs(got - 0.2) < 0.05


def test_sparse_impossible_density_raises():
    with pytest.raises(DegenerateDensityError):
        generate(InstanceSpec(kind="sparse", m=2, n=2, density=1e-12, seed=0))


def test_illcond_hits_condition_target():
    for target in (1e2, 1e4):
        a, b, _ = generate(InstanceSpec(kind="illcond", m=25, n=8, cond_target=target, seed=5))
        ref = min_norm_solve(a, b)
        assert ref.cond_sq == pytest.approx(target, rel=1e-2)


def test_illcond_extreme_target():
    # orthogonal-factor construction keeps even sigma ratios of 1e-6 exact
    a, b, _ = generate(InstanceSpec(kind="illcond", m=30, n=10, cond_target=1e12, seed=6))
    ref = min_norm_solve(a, b)
    assert ref.rank == 10
    assert ref.cond_sq == pytest.approx(1e12, rel=1e-2)


def test_illcond_columns_are_not_renormalized():
    a, _, _ = generate(InstanceSpec(kind="illcond", m=20, n=6, cond_target=1e6, seed=7))
    norms = np.linalg.norm(a.to_dense(), axis=0)
    assert not np.allclose(norms, 1.0, atol=1e-3)


def test_consistent_instances_carry_their_plant():
    a, b, planted = generate(InstanceSpec(kind="dense", m=18, n=7, consistent=True, seed=8))
    assert planted is not None and planted.shape == (7,)
    np.testing.assert_allclose(a.matvec(planted), b, atol=64 * EPS * np.linalg.norm(b), rtol=0)
    ref = min_norm_solve(a, b)
    assert np.linalg.norm(ref.b_perp) <= 1e-10 * np.linalg.norm(b)


def test_noise_rides_on_top_of_consistent_rhs():
    scale = 1e-3
    spec = InstanceSpec(kind="dense", m=40, n=10, consistent=True, noise_scale=scale, seed=9)
    a, b, planted = generate(spec)
    w = b - a.to_dense() @ planted
    # w is scale * standard normal draws
    assert 0.1 * scale * np.sqrt(40) < np.linalg.norm(w) < 10 * scale * np.sqrt(40)
    clean = generate(InstanceSpec(kind="dense", m=40, n=10, consistent=True, seed=9))[1]
    assert not np.array_equal(b, clean)


def test_inconsistent_rhs_has_no_plant():
    _, _, planted = generate(InstanceSpec(kind="sparse", m=12, n=6, density=0.5, seed=10))
    assert planted is None


def test_spec_validation():
    for bad in (
        InstanceSpec(kind="toeplitz", m=4, n=4),
        InstanceSpec(kind="dense", m=0, n=4),
        InstanceSpec(kind="dense", m=4, n=-1),
        InstanceSpec(kind="sparse", m=4, n=4, density=0.0),
        InstanceSpec(kind="sparse", m=4, n=4, density=1.5),
        InstanceSpec(kind="illcond", m=4, n=4, cond_target=0.5),
        InstanceSpec(kind="dense", m=4, n=4, noise_scale=-1e-3),
        InstanceSpec(kind="dense", m=4, n=4, seed=-2),
    ):
        with pytest.raises(InvalidRangeError):
            generate(bad)


def test_all_kinds_produce_solvable_instances():
    for kind in KINDS:
        a, b, _ = generate(InstanceSpec(kind=kind, m=15, n=5, density=0.5, cond_target=100.0, seed=11))
        ref = min_norm_solve(a, b)
        assert ref.rank >= 1
        assert np.isfinite(ref.x_ls).all()


# ----------------------------------------------------------------------
# the sparse kind against the whole-matrix draw it replaced


def whole_matrix_sparse(spec):
    """The sparse kind drawn through m x n arrays, as generate() once did.

    The reference the row-block draw must match byte for byte: an m x n
    array of mask uniforms, then one of normals (redrawn while the mask is
    empty), numpy's column norms, from_dense, and b = dense @ planted.
    """
    rng = np.random.default_rng(int(spec.seed))
    for _ in range(16):
        mask = rng.random((spec.m, spec.n)) < spec.density
        dense = rng.standard_normal((spec.m, spec.n))
        if mask.any():
            break
    else:
        raise DegenerateDensityError("empty every time")
    dense[~mask] = 0.0
    norms = np.linalg.norm(dense, axis=0)
    dense /= np.where(norms > 0.0, norms, 1.0)
    if spec.consistent:
        planted = rng.standard_normal(spec.n)
        b = dense @ planted
        if spec.noise_scale > 0.0:
            b = b + spec.noise_scale * rng.standard_normal(spec.m)
    else:
        planted, b = None, rng.standard_normal(spec.m)
    return DualSparseMatrix.from_dense(dense), b, planted


MATRIX_FIELDS = ("m", "n", "nnz", "frob_sq", "row_ptr", "row_cols", "row_vals", "col_ptr",
                 "col_rows", "col_vals", "row_sq_norms", "col_sq_norms")


def _bytes(v):
    return None if v is None else (type(v), np.asarray(v).dtype, np.shape(v),
                                   np.asarray(v).tobytes())


def assert_same_instance(got, want, rhs=True):
    for field in MATRIX_FIELDS:
        assert _bytes(getattr(got[0], field)) == _bytes(getattr(want[0], field)), field
    assert _bytes(got[2]) == _bytes(want[2]), "planted"
    if rhs:
        assert _bytes(got[1]) == _bytes(want[1]), "b"


# A consistent b is compared only where OpenBLAS runs the whole product on
# one thread: gemv below 9216 entries (2304 times its multithreading
# threshold of 4) does, and 193 x 40 is 7720. In 64-row blocks, 193 rows
# leave a last row that the tail rule must keep from standing alone.
SAME_BYTES = {
    "n=1": InstanceSpec("sparse", 500, 1, density=0.3, seed=1),
    "n=1 consistent": InstanceSpec("sparse", 500, 1, density=0.3, consistent=True, seed=1),
    "n=2, m=1e5": InstanceSpec("sparse", 100_000, 2, density=0.25, seed=2),
    "m=1": InstanceSpec("sparse", 1, 40, density=0.5, seed=3),
    "density 1": InstanceSpec("sparse", 60, 25, density=1.0, seed=4),
    "3 blocks": InstanceSpec("sparse", 3000, 500, density=0.1, seed=8),
    # seed 2 comes up empty four times before it draws an entry
    "redraw": InstanceSpec("sparse", 2, 3, density=0.05, consistent=True, seed=2),
    "degenerate": InstanceSpec("sparse", 2, 2, density=1e-12, seed=0),
    "consistent": InstanceSpec("sparse", 193, 40, density=0.2, consistent=True, seed=6),
    "consistent, noise": InstanceSpec("sparse", 193, 40, density=0.2, consistent=True,
                                      noise_scale=1e-3, seed=7),
}


@pytest.mark.parametrize("block_bytes", ["default", "64-row blocks"])
@pytest.mark.parametrize("case", sorted(SAME_BYTES))
def test_sparse_draw_keeps_the_whole_matrix_bytes(case, block_bytes, monkeypatch):
    spec = SAME_BYTES[case]
    if block_bytes != "default":
        # the smallest block: 64 rows, however narrow
        monkeypatch.setattr(generate_module, "_BLOCK_BYTES", 1)
    try:
        want = whole_matrix_sparse(spec)
    except DegenerateDensityError:
        with pytest.raises(DegenerateDensityError):
            generate(spec)
        return
    assert_same_instance(generate(spec), want)


def test_redraw_case_takes_the_redraw_loop():
    spec = SAME_BYTES["redraw"]
    rng = np.random.default_rng(spec.seed)
    assert not (rng.random((spec.m, spec.n)) < spec.density).any()


def test_split_gemv_moves_b_by_rounding_only():
    """Where OpenBLAS may split the whole product across threads, b can move.

    A 2002 x 500 gemv is large enough for OpenBLAS to split across threads,
    and two threads split it at row 1001, off a multiple of four, so that
    product groups its rows unlike the row blocks. A and planted keep their
    bytes; b keeps its value to rounding.
    """
    spec = InstanceSpec("sparse", 2002, 500, density=0.1, consistent=True, seed=9)
    got, want = generate(spec), whole_matrix_sparse(spec)
    assert_same_instance(got, want, rhs=False)
    scale = np.abs(want[0].to_dense()) @ np.abs(want[2])
    assert (np.abs(got[1] - want[1]) <= 8 * EPS * scale).all()


def test_sparse_draw_holds_no_m_by_n_array():
    # one 4000 x 500 float64 array alone is 80 B per stored entry at density
    # 0.1; the whole-matrix draw peaked at about 170 B, one m x n block at a
    # time at 96 B, the 4 MB row blocks at about 50 B
    spec = InstanceSpec("sparse", 4000, 500, density=0.1, seed=5)
    generate(spec)
    tracemalloc.start()
    try:
        a, _, _ = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / a.nnz < 80
