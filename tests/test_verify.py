"""The verify battery's runs: checkpoint drivers and the shared REK walk.

rek-envelope, rop-rate and iteration-bound read one seeded REK run per seed
(verify.walk). These tests pin what that rests on: REK's z is ROP's z,
the walk stops where run_rek stops, and each subset of the three checks
prints what the full battery prints while running no more iterations than
its checks would alone.
"""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest

from kaczmarz import cli, solvers, verify
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
    rop_checkpoint_errors,
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
        a, b, solver, SolverConfig(seed=seed), stops, checks=False)}


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
        read = walk(a, b, REK, config, ref.x_ls, x_marks, ref.b_perp, z_marks, True)
        report = run_rek(a, b, config)
        assert (read.termination, read.iters) == (report.termination, report.iters)
        assert read.x_errors == rek_checkpoint_errors(a, b, ref.x_ls, x_marks, seed)
        assert read.z_errors == rop_checkpoint_errors(a, b, ref.b_perp, z_marks, seed)
        unchecked = walk(a, b, REK, config, ref.x_ls, x_marks, ref.b_perp, z_marks, False)
        assert unchecked == (read.x_errors, read.z_errors, None, None)
        stops.append((report.termination, report.iters))
    last = x_marks[-1]
    if eps == 1e-2:  # every run stops before the last envelope checkpoint
        assert all(t == CONVERGED and it < last for t, it in stops)
    if cap == 100:  # capped at T* = 100 without converging, short of the marks
        assert stops == [(MAX_ITERS, 100)] * 4 and x_marks[0] < 100 < last
    if eps == 1e-6:
        assert all(t == CONVERGED and it > last for t, it in stops)


def test_trajectory_stops_once_at_each_count():
    a, b, _ = generate(SMALL)
    config = SolverConfig(eps=1e-2, max_iters=1000, check_interval=50, seed=1)
    seen = [(t, checked is not None) for t, _, _, _, checked in trajectory(
        a, b, REK, config, [0, 50, 50, 75, 180, 180, 400])]
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
    """(lines, iterations per solver, runs per solver, checks) of one verify run."""
    runs, checks = [], []

    def recording(a, b, solver, *rest):
        run = [solver, 0]
        runs.append(run)
        for item in trajectory(a, b, solver, *rest):
            run[1] = item[0]
            yield item

    def counting(*args):
        checks.append(args)
        return rek_check(*args)

    rek_check = solvers.rek_termination_check
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "trajectory", recording)
        mp.setattr(verify, "trajectory", recording)
        mp.setattr(solvers, "rek_termination_check", counting)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(ARGV + ["--checks", ",".join(names)]) == 0
    iters = {s: sum(it for solver, it in runs if solver == s) for s in (REK, ROP)}
    ends = {s: [it for solver, it in runs if solver == s] for s in (REK, ROP)}
    return out.getvalue().splitlines(), iters, ends, len(checks)


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
