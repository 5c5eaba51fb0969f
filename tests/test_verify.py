"""The verify battery's runs: checkpoint drivers, batches and the shared REK walk.

rek-envelope, rop-rate and iteration-bound read one batch of seeded REK runs
(verify.walk). These tests pin what that rests on: REK's z is ROP's z, the
walk stops where run_rek stops, a batch reads each seed as that seed's own
batch of one, bit for bit, and each subset of the three checks prints what
the full battery prints while running no more iterations than its checks
would alone. The batched one-step enumeration is held to the enumeration a
line at a time, and an envelope's mean sums the seeds in seed order.
"""

import contextlib
import functools
import io
import itertools
import math
import operator

import numpy as np
import pytest

from kaczmarz import _blocks, cli, solvers, verify
from kaczmarz.generate import InstanceSpec, generate
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.reference import min_norm_solve
from kaczmarz.solvers import (
    CONVERGED,
    MAX_ITERS,
    REK,
    RK,
    ROP,
    SolverConfig,
    run_rek,
    theory_bounds,
    trajectory,
)
from kaczmarz.verify import (
    rek_checkpoint_errors,
    rk_checkpoint_errors,
    rk_one_step_expectation,
    rop_checkpoint_errors,
    rop_one_step_expectation,
    walk,
)

SMALL = InstanceSpec(kind="dense", m=20, n=6, seed=8)


def _sparse_with_empty_lines():
    """A 40x15 sparse matrix with rows 3 and 17 and column 4 all zero."""
    rng = np.random.default_rng(31)
    dense = rng.standard_normal((40, 15)) * (rng.random((40, 15)) < 0.3)
    dense[[3, 17]] = 0.0
    dense[:, 4] = 0.0
    a = DualSparseMatrix.from_dense(dense)
    assert a.nnz < 40 * 15 and (a.row_sq_norms == 0).sum() >= 2 and a.col_sq_norms[4] == 0
    return a, rng.standard_normal(40)


INSTANCES = {
    "dense": lambda: generate(InstanceSpec(kind="dense", m=60, n=20, seed=21))[:2],
    "sparse": _sparse_with_empty_lines,
    "illcond": lambda: generate(InstanceSpec(kind="illcond", m=40, n=15, cond_target=100,
                                             seed=7))[:2],
}


# ----------------------------------------------------------------------
# checkpoint drivers


@pytest.mark.parametrize("solver", [REK, RK, ROP])
def test_checkpoint_errors_come_in_the_callers_order(solver):
    a, b, _ = generate(SMALL)
    driver = {REK: rek_checkpoint_errors, RK: rk_checkpoint_errors, ROP: rop_checkpoint_errors}
    ref = np.zeros(a.m if solver == ROP else a.n)
    asked = [200, 10, 200, 0, 10, 57]
    got = driver[solver](a, b, ref, asked, 5)
    assert got == [driver[solver](a, b, ref, [t], 5)[0] for t in asked]
    assert got[0] != got[1]  # the order is visible


# ----------------------------------------------------------------------
# the invariant the walk rests on


def _z_at(a, b, solver, seed, stops):
    return {t: z.tobytes() for t, _, z, _, _ in trajectory(
        a, b, solver, SolverConfig(), [seed], stops, checks=False)}


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_rek_z_is_rop_z_at_every_stop(kind, kernels):
    a, b = INSTANCES[kind]()
    ragged = [1, 2, 5, 17, 40, 41, 100, 257, 400]
    even = list(range(20, 401, 20))
    for seed in (0, 9):
        for rek_stops, rop_stops in ((ragged, ragged), (ragged, even), (even, ragged)):
            rek, rop = _z_at(a, b, REK, seed, rek_stops), _z_at(a, b, ROP, seed, rop_stops)
            shared = sorted(set(rek) & set(rop))
            assert shared and len(shared) == len(set(rek_stops) & set(rop_stops))
            assert [rek[t] for t in shared] == [rop[t] for t in shared]


# ----------------------------------------------------------------------
# the walk against run_rek and the checkpoint drivers


def _marks(ref):
    return ([round(c * ref.kappa_f_sq) for c in (2, 4, 8)],
            [round(c * ref.kappa_f_sq) for c in (2, 4)])


@pytest.mark.parametrize("eps, cap", [(1e-6, None), (1e-2, None), (1e-12, 100)])
def test_the_walk_reads_what_the_separate_runs_read(eps, cap):
    a, b, _ = generate(SMALL)
    ref = min_norm_solve(a, b)
    x_marks, z_marks = _marks(ref)
    cap = cap or math.ceil(theory_bounds(ref, eps=1e-6, delta=0.1).t_star)
    stops = []
    for seed in range(4):
        config = SolverConfig(eps=eps, max_iters=cap, seed=seed)
        read = walk(a, b, REK, config, [seed], ref.x_ls, x_marks, ref.b_perp, z_marks, True)
        (row,) = _rows(read)
        report = run_rek(a, b, config)
        assert row[2:] == (report.termination, report.iters)
        assert row[0] == _hex(rek_checkpoint_errors(a, b, ref.x_ls, x_marks, seed))
        assert row[1] == _hex(rop_checkpoint_errors(a, b, ref.b_perp, z_marks, seed))
        unchecked = walk(a, b, REK, config, [seed], ref.x_ls, x_marks, ref.b_perp, z_marks, False)
        assert _rows(unchecked) == [(*row[:2], None, None)]
        stops.append((report.termination, report.iters))
    last = x_marks[-1]
    if eps == 1e-2:  # every run stops before the last envelope checkpoint
        assert all(t == CONVERGED and it < last for t, it in stops)
    if cap == 100:  # capped at T* = 100 without converging, short of the marks
        assert stops == [(MAX_ITERS, 100)] * 4 and x_marks[0] < 100 < last
    if eps == 1e-6:
        assert all(t == CONVERGED and it > last for t, it in stops)


def _hex(errors):
    return [e.hex() for e in errors]


def _rows(read):
    """Per seed of a walk, its errors as float.hex strings (bit for bit) and its stop."""
    return [(_hex(x), _hex(z), termination, iters) for x, z, termination, iters in zip(
        read.x_errors.tolist(), read.z_errors.tolist(), read.termination, read.iters)]


@pytest.mark.parametrize("eps, cap", [(1e-6, None), (1e-2, None), (1e-12, 100)])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_a_batch_walks_each_seed_as_its_own_batch_of_one(kind, eps, cap, kernels):
    # the runs of a batch stop together, each at its own checks or at the cap,
    # and go on as far as the marks: none may move another's bits
    a, b = INSTANCES[kind]()
    ref = min_norm_solve(a, b)
    x_marks, z_marks = _marks(ref)
    config = SolverConfig(eps=eps, max_iters=cap or math.ceil(
        theory_bounds(ref, eps=1e-6, delta=0.1).t_star))
    # the battery's checked walks of REK (or ROP), and rk-envelope's of RK
    for solver, marks, checks in ((REK, (x_marks, z_marks), True), (ROP, ((), z_marks), True),
                                  (RK, (x_marks, ()), False)):
        def read(seeds):
            return walk(a, b, solver, config, seeds, ref.x_ls, marks[0], ref.b_perp, marks[1],
                        checks)
        batch = read(range(8))
        assert _rows(batch) == [row for s in range(8) for row in _rows(read([s]))]
        stops = set(zip(batch.termination, batch.iters))
        if cap == 100 and checks:
            assert stops == {(MAX_ITERS, 100)}
        elif solver == REK:
            assert len(stops) > 1 and {t for t, _ in stops} == {CONVERGED}


def test_a_batch_over_the_byte_budget_walks_in_batches_as_its_seeds_alone(kernels):
    # 100 REK runs of 20000 + 10 doubles each come to 16 MB: two batches
    a, b, _ = generate(InstanceSpec(kind="sparse", m=20000, n=10, density=0.1, seed=3))
    assert len(solvers._batches(a, REK, range(100))) == 2
    config = SolverConfig(eps=1e-3, max_iters=60, check_interval=20)
    x_ref, z_ref = np.zeros(a.n), np.zeros(a.m)

    def read(seeds):
        return walk(a, b, REK, config, seeds, x_ref, [5, 40], z_ref, [40, 80], True)
    assert _rows(read(range(100))) == [row for s in range(100) for row in _rows(read([s]))]


def test_an_envelope_mean_sums_the_seeds_in_seed_order():
    # 100 seeds' errors that sum to exactly 150 in seed order, and to more in
    # numpy's pairwise order: the mean sits exactly at SLACK times an envelope
    # of 1, so the check passes at ratio 1
    def in_order(column):
        return functools.reduce(operator.add, column.tolist())
    rng = np.random.default_rng(0)
    for _ in range(1000):
        errors = rng.uniform(0.0, 3.0, (100, 1))
        errors[-1] += 150.0 - in_order(errors[:, 0])
        if in_order(errors[:, 0]) == 150.0 < errors.sum(axis=0)[0]:
            break
    assert in_order(errors[:, 0]) == 150.0 < errors.sum(axis=0)[0]
    assert verify._envelope_check("e", "t", [1], lambda t: 1.0, errors) == verify.CheckResult(
        "e", True, "max mean/bound ratio 1 over t=[1] (100 runs)")


def _one_step_reference(a, b, solver, start, target, sq_norms):
    """The enumeration a line at a time: one bound run, set to `start` before each step."""
    x, z, steps, _ = solvers._bind(a, b, solver, [0])
    trial = (z if x is None else x)[0]
    weights = sq_norms / a.frob_sq
    total = 0.0
    for k in np.flatnonzero(weights):
        trial[:] = start
        line = np.array([k], dtype=np.int64)
        steps(1, line, line)  # RK reads only the row, ROP only the column
        diff = trial - target
        total += weights[k] * float(diff @ diff)
    return total


def _empty_lines_6x5():
    # rows 0, 2 and 3 and columns 1, 2 and 4 hold no entry
    dense = np.zeros((6, 5))
    dense[[1, 4, 4, 5], [3, 0, 3, 3]] = [1.0, 2.0, 3.0, 4.0]
    return DualSparseMatrix.from_dense(dense)


ONE_STEP_MATRICES = {
    "dense-100x30": lambda: generate(InstanceSpec(kind="dense", m=100, n=30, seed=3))[0],
    "sparse-60x20": lambda: generate(InstanceSpec(kind="sparse", m=60, n=20, density=0.2,
                                                  seed=5))[0],
    "illcond-40x15": lambda: INSTANCES["illcond"]()[0],
    "empty-lines-6x5": _empty_lines_6x5,
}


@pytest.mark.parametrize("budget", [None, 2000], ids=["one-batch", "batches-of-a-few"])
@pytest.mark.parametrize("name", sorted(ONE_STEP_MATRICES))
def test_the_batched_enumeration_sums_what_one_line_at_a_time_sums(name, budget, kernels,
                                                                   monkeypatch):
    if budget:
        monkeypatch.setattr(solvers, "BATCH_BYTES", budget)
    a = ONE_STEP_MATRICES[name]()
    rng = np.random.default_rng(12)
    b, x, x_target = rng.standard_normal(a.m), rng.standard_normal(a.n), rng.standard_normal(a.n)
    z, z_target = rng.standard_normal(a.m), rng.standard_normal(a.m)
    got = rk_one_step_expectation(a, b, x, x_target)
    assert float(got).hex() == float(
        _one_step_reference(a, b, RK, x, x_target, a.row_sq_norms)).hex()
    got = rop_one_step_expectation(a, z, z_target)
    assert float(got).hex() == float(
        _one_step_reference(a, z, ROP, z, z_target, a.col_sq_norms)).hex()


def test_trajectory_stops_once_at_each_count():
    a, b, _ = generate(SMALL)
    config = SolverConfig(eps=1e-2, max_iters=1000, check_interval=50, seed=1)
    seen = [(t, checked is not None) for t, _, _, _, checked in trajectory(
        a, b, REK, config, [config.seed], [0, 50, 50, 75, 180, 180, 400])]
    # checks at 50, 100, ... until the first outcome; then only the marks ahead
    stop = run_rek(a, b, config).iters
    assert stop < 180
    checks = list(range(50, stop + 1, 50))
    want = sorted({0, 50, 75, 180, 400} | set(checks))
    assert seen == [(t, t in checks) for t in want]


# ----------------------------------------------------------------------
# subsets of the three checks


TRIO = ("rek-envelope", "rop-rate", "iteration-bound")
ARGV = ["verify", "--kind", "dense", "--m", "20", "--n", "6", "--seed", "8", "--reps", "5"]


def _verify_counting(monkeypatch, names):
    """(lines, iterations per solver, runs per solver, runs checked) of one verify run."""
    runs, checks = [], []

    def recording(a, b, solver, config, seeds, *rest):
        # a run's last iteration is the last stop at which its flops grew
        ends = [0] * len(seeds)
        runs.extend([solver, ends, r] for r in range(len(seeds)))
        last = [0] * len(seeds)
        for item in trajectory(a, b, solver, config, seeds, *rest):
            for r, flops in enumerate(item[3].tolist()):
                if flops != last[r]:
                    ends[r], last[r] = item[0], flops
            yield item

    def counting(a, sums, eps):
        checks.append(len(sums))  # the runs checked at this stop
        return rek_check(a, sums, eps)

    rek_check = solvers.rek_termination_check
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "trajectory", recording)
        mp.setattr(verify, "trajectory", recording)
        mp.setattr(solvers, "rek_termination_check", counting)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(ARGV + ["--checks", ",".join(names)]) == 0
    iters = {s: sum(ends[r] for solver, ends, r in runs if solver == s) for s in (REK, ROP)}
    ends = {s: [ends[r] for solver, ends, r in runs if solver == s] for s in (REK, ROP)}
    return out.getvalue().splitlines(), iters, ends, sum(checks)


def test_the_readme_battery_moves_its_100_seeds_in_fewer_than_100_kernel_calls(monkeypatch):
    # one block_steps call moves every seed of a check to its next stop: the
    # shared walk, rk-envelope, the two enumerations and the two solves
    lib = _blocks.load()
    if lib is None:
        pytest.skip("no C compiler: only the numpy fallback runs here")
    calls = []
    block_steps = lib.block_steps
    monkeypatch.setattr(lib, "block_steps", lambda *args: calls.append(args) or block_steps(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--kind", "dense", "--m", "100", "--n", "30", "--seed", "3",
                         "--reps", "100"]) == 0
    assert 0 < len(calls) < 100


def test_each_subset_prints_the_full_batterys_lines_and_runs_no_more(monkeypatch):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(ARGV) == 0
    full = {line.split(":")[0].split()[1]: line for line in out.getvalue().splitlines()}
    a, b, _ = generate(SMALL)
    ref = min_norm_solve(a, b)
    x_marks, z_marks = _marks(ref)
    cap = math.ceil(theory_bounds(ref, eps=1e-6, delta=0.1).t_star)
    stops = [run_rek(a, b, SolverConfig(eps=1e-6, max_iters=cap, seed=s)).iters
             for s in range(8, 13)]
    # the iterations each check needs on its own: its checkpoints, or run_rek's stops
    alone = {"rek-envelope": {REK: 5 * x_marks[-1], ROP: 0},
             "rop-rate": {REK: 0, ROP: 5 * z_marks[-1]},
             "iteration-bound": {REK: sum(stops), ROP: 0}}
    for k in (1, 2, 3):
        for names in itertools.combinations(TRIO, k):
            lines, iters, ends, checks = _verify_counting(monkeypatch, names)
            assert lines == [full[name] for name in names]
            for solver in (REK, ROP):
                assert iters[solver] <= sum(alone[name][solver] for name in names)
            if names == ("rop-rate",):
                assert ends == {REK: [], ROP: [z_marks[-1]] * 5}
            elif "iteration-bound" not in names:
                assert checks == 0 and ends == {REK: [x_marks[-1]] * 5, ROP: []}
            else:
                marks = ((x_marks if "rek-envelope" in names else [])
                         + (z_marks if "rop-rate" in names else []))
                assert ends == {REK: [max([s, *marks]) for s in stops], ROP: []}
                assert checks == sum(math.ceil(s / (8 * min(a.m, a.n))) for s in stops)
