"""Self-tests of the benchmark; never a gate on absolute times.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They are kept out of the package's own suite (pyproject's testpaths is
tests/). The smoke runs use tiny instances and take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_emitted_names():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["mtx-roundtrip", "verify-battery"]
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if workload != "dense-solve":  # the gated workloads: no layer metric reads 0
        assert all(v["value"] != 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    named = {"dense-solve": ["rek_solve_s", "rk_solve_s", "rop_solve_s", "iters_per_s"],
             "mtx-roundtrip": ["gen_s", "solve_s", "iters_per_s"],
             "verify-battery": ["verify_s"]}[workload]
    for name in named + ["failed_frac"]:
        assert name in printed
    if trace:
        assert set(tracing.layer_metrics([])) <= set(printed)
        assert "trace.overhead_frac" in printed
    else:
        assert set(run.END_TO_END) <= set(printed)
    assert any(line.startswith("env blas_build=") for line in lines)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "dense-solve", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


class _PerturbedX(workloads.DenseSolve):
    def run_op(self, op, rec, tag):
        out = super().run_op(op, rec, tag)
        x = out["reports"]["rek"].x
        x += 1e-3 * np.linalg.norm(x) / np.sqrt(x.size)
        return out


def test_perturbed_x_is_a_failed_operation(tmp_path):
    good = workloads.DenseSolve(3, True, str(tmp_path))
    bad = _PerturbedX(3, True, str(tmp_path))
    for wl in (good, bad):
        wl.setup()
        wl.prepare_checks()
    assert worker.closed_loop(good, 0.0)[1:] == ([], 1)
    _, failures, attempted = worker.closed_loop(bad, 0.0)
    assert attempted == 1 and len(failures) == 1
    assert "rek: forward error" in failures[0][1]
    plain, perturbed = good.run_op((0, 0), None, ""), bad.run_op((0, 0), None, "")
    assert good.same(plain, plain) == []
    assert good.same(plain, perturbed) == ["rek: traced x differs"]


def test_perturbed_solution_file_is_a_failed_operation(tmp_path):
    from kaczmarz.mmio import read_vector, write_vector

    wl = workloads.MtxRoundtrip(3, True, str(tmp_path))
    first, second = (wl.run_op(op, None, "") for op in (0, 1))
    assert wl.check(first) == [] and wl.check(second) == []
    assert wl.finish([first, second]) == [[], []]
    x = read_vector(second["x_path"])
    write_vector(second["x_path"], x * (1 + 1e-3))
    problems = wl.finish([first, second])
    assert problems[0] == [] and "forward error" in problems[1][0]


class _OneOp(workloads.Workload):
    """A one-op workload that logs which half of each pair ran first."""

    def __init__(self):
        self.tags = []

    def ops(self, cycle):
        return [cycle]

    def run_op(self, op, rec, tag):
        self.tags.append(tag)
        time.sleep(0.005)
        return {"op": op, "times": {"op": 1.1 if tag == "-t" else 1.0}}

    def check(self, result):
        return []

    def same(self, u, t):
        return []


def test_traced_pairs_alternate_order_across_rounds():
    wl = _OneOp()
    plain, traced, failures, layers, _, runs = worker.traced_pairs(wl, tracing.Recorder(), 1.0)
    assert failures == [] and runs == len(wl.tags) >= 4
    assert wl.tags[:4] == ["-u", "-t", "-t", "-u"]
    assert len(plain) == len(traced) == runs // 2
    assert layers["trace.overhead_frac"] == (pytest.approx(0.1), "1")


def test_setup_probes_run_between_operations_outside_loop_time():
    wl, seen = _OneOp(), []

    def probe():
        seen.append(len(wl.tags))
        time.sleep(0.3)  # longer than the whole loop: counted, it would end the loop

    done, failures, attempted = worker.closed_loop(wl, 0.3, probe, 0.1)
    assert failures == [] and attempted == len(done) >= 10
    assert seen[0] == 1 and 2 <= len(seen) <= 4


def test_tracing_restores_every_patched_name():
    import kaczmarz.cli as cli
    import kaczmarz.matrices as matrices
    import kaczmarz.solvers as solvers
    import kaczmarz.verify as verify

    before = (cli.generate, solvers._RUNNERS, verify.ALL_CHECKS, verify.sample_block,
              matrices.DualSparseMatrix.__dict__["from_dense"])
    rec = tracing.Recorder()
    rec.install()
    assert solvers._RUNNERS is not before[1]
    rec.uninstall()
    after = (cli.generate, solvers._RUNNERS, verify.ALL_CHECKS, verify.sample_block,
             matrices.DualSparseMatrix.__dict__["from_dense"])
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]
