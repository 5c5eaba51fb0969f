"""End-to-end behavior of the command-line front end.

Calls main() in-process so exit codes, stdout and files can all be asserted
without spawning interpreters; only the test of which modules a fresh
interpreter loads starts one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import kaczmarz
from kaczmarz import cli, verify
from kaczmarz.cli import BENCH_FIELDS, main
from kaczmarz.matrices import DualSparseMatrix
from kaczmarz.mmio import (
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)

from helpers import read_csv


def run_cli(argv):
    return main(argv)


def strip_wall_time(csv_path):
    rows = read_csv(csv_path)
    assert all(set(r) == set(BENCH_FIELDS) for r in rows)
    return [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]


def test_gen_writes_readable_deterministic_files(tmp_path, capsys):
    mx, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    code = run_cli(
        ["gen", "--kind", "sparse", "--m", "20", "--n", "8", "--density", "0.4",
         "--seed", "7", "--matrix", str(mx), "--rhs", str(rhs)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote matrix=" in out and "nnz=" in out
    a = read_matrix_market(mx)
    b = read_vector(rhs)
    assert (a.m, a.n) == (20, 8) and b.shape == (20,)

    mx2, rhs2 = tmp_path / "a2.mtx", tmp_path / "b2.mtx"
    run_cli(
        ["gen", "--kind", "sparse", "--m", "20", "--n", "8", "--density", "0.4",
         "--seed", "7", "--matrix", str(mx2), "--rhs", str(rhs2)]
    )
    # same seed, byte-identical files apart from the path-free contents
    assert mx.read_bytes() == mx2.read_bytes()
    assert rhs.read_bytes() == rhs2.read_bytes()


def test_gen_requires_instance_flags(tmp_path, capsys):
    code = run_cli(["gen", "--matrix", str(tmp_path / "a"), "--rhs", str(tmp_path / "b")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_converges_and_writes_solution(tmp_path, capsys):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "dense", "--m", "30", "--n", "10", "--seed", "3",
             "--matrix", mx, "--rhs", rhs])
    capsys.readouterr()
    out_vec = tmp_path / "x.mtx"
    code = run_cli(["solve", "--matrix", mx, "--rhs", rhs, "--eps", "1e-8",
                    "--seed", "1", "--out", str(out_vec)])
    assert code == 0
    out = capsys.readouterr().out
    assert "solver=rek" in out
    assert "termination=converged" in out
    assert "iters=" in out and "flops=" in out
    x = read_vector(out_vec)
    assert x.shape == (10,)
    assert np.isfinite(x).all()


def test_solve_reads_an_array_file_as_its_coordinate_twin(tmp_path, capsys):
    # a dense (array-format) matrix file goes through DualSparseMatrix.from_dense
    coord, arr, rhs = (str(tmp_path / name) for name in ("a.mtx", "dense.mtx", "b.mtx"))
    run_cli(["gen", "--kind", "sparse", "--m", "60", "--n", "15", "--density", "0.3",
             "--seed", "4", "--matrix", coord, "--rhs", rhs])
    write_matrix_market(arr, read_matrix_market(coord).to_dense())
    capsys.readouterr()
    runs = []
    for mx in (coord, arr):
        out_vec = tmp_path / ("x-" + os.path.basename(mx))
        code = run_cli(["solve", "--matrix", mx, "--rhs", rhs, "--eps", "1e-8",
                        "--seed", "1", "--out", str(out_vec)])
        line = capsys.readouterr().out.strip()
        assert " wall=" in line
        runs.append((code, line.rsplit(" wall=", 1)[0], out_vec.read_bytes()))
    assert runs[0][1].startswith("solver=rek termination=")
    assert runs[0] == runs[1]


def test_solve_iteration_cap_exits_2(tmp_path, capsys):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "dense", "--m", "20", "--n", "8", "--seed", "4",
             "--matrix", mx, "--rhs", rhs])
    capsys.readouterr()
    code = run_cli(["solve", "--matrix", mx, "--rhs", rhs, "--eps", "1e-300",
                    "--max-iters", "16"])
    assert code == 2
    assert "termination=max_iters" in capsys.readouterr().out


def test_solve_overflow_exits_2(tmp_path, capsys, overflow_warnings):
    mx, rhs = str(tmp_path / "a.mtx"), tmp_path / "b.mtx"
    run_cli(["gen", "--kind", "dense", "--m", "30", "--n", "10", "--seed", "1",
             "--matrix", mx, "--rhs", str(rhs)])
    write_vector(rhs, read_vector(rhs) * 1e300)
    capsys.readouterr()
    with overflow_warnings():
        code = run_cli(["solve", "--matrix", mx, "--rhs", str(rhs)])
    assert code == 2
    out = capsys.readouterr().out
    assert "termination=overflow" in out and "residual=inf" in out


def test_solve_refuses_a_matrix_whose_norm_overflows(tmp_path, capsys):
    mx, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    rng = np.random.default_rng(0)
    write_matrix_market(mx, DualSparseMatrix.from_dense(rng.standard_normal((40, 20)) * 1e153))
    write_vector(rhs, rng.standard_normal(40) * 1e153)
    code = run_cli(["solve", "--matrix", str(mx), "--rhs", str(rhs)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rescale A and b" in err


@pytest.mark.filterwarnings("error")
def test_solve_refuses_entries_whose_squares_overflow_without_a_warning(tmp_path, capsys):
    # 1e300 squares to inf; reading the file must not warn, and the one refusal
    # is the solver's own message
    mx, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    mx.write_text("%%MatrixMarket matrix coordinate real general\n3 2 3\n"
                  "1 1 1e300\n2 2 1\n3 1 -2.5\n")
    write_vector(rhs, np.ones(3))
    a = read_matrix_market(mx)
    assert a.frob_sq == np.inf and a.row_sq_norms[0] == np.inf
    code = run_cli(["solve", "--matrix", str(mx), "--rhs", str(rhs)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rescale A and b" in err


def test_solve_rejects_out_of_range_eps(tmp_path, capsys):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "dense", "--m", "10", "--n", "4", "--seed", "5",
             "--matrix", mx, "--rhs", rhs])
    capsys.readouterr()
    code = run_cli(["solve", "--matrix", mx, "--rhs", rhs, "--eps", "3.0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_solve_checks_rhs_length(tmp_path, capsys):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "dense", "--m", "10", "--n", "4", "--seed", "5",
             "--matrix", mx, "--rhs", rhs])
    other_rhs = str(tmp_path / "b2.mtx")
    run_cli(["gen", "--kind", "dense", "--m", "12", "--n", "4", "--seed", "5",
             "--matrix", str(tmp_path / "a2.mtx"), "--rhs", other_rhs])
    capsys.readouterr()
    code = run_cli(["solve", "--matrix", mx, "--rhs", other_rhs])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve"])  # missing required --matrix/--rhs
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", "--matrix", "x", "--rhs", "y", "--solver", "lsqr"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("kaczmarz ")


def test_missing_matrix_file_is_an_input_error(tmp_path, capsys):
    code = run_cli(["solve", "--matrix", str(tmp_path / "nope.mtx"),
                    "--rhs", str(tmp_path / "nope2.mtx")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_sweep_schema_and_determinism(tmp_path, capsys):
    csv1, csv2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    # consistent rhs so the plain row-projection solver can also converge
    argv = ["bench", "--kind", "dense", "--m", "12,16", "--n", "5", "--reps", "2",
            "--consistent", "true", "--solver", "rek,rk", "--eps", "1e-8",
            "--seed", "9", "--csv"]
    assert run_cli(argv + [csv1]) == 0
    assert run_cli(argv + [csv2]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    rows = read_csv(csv1)
    assert len(rows) == 2 * 2 * 2  # points x reps x solvers
    assert list(rows[0]) == BENCH_FIELDS
    assert {r["solver"] for r in rows} == {"rek", "rk"}
    assert {r["m"] for r in rows} == {"12", "16"}
    assert all(r["converged"] == "true" for r in rows)
    assert all(r["forward_err"] != "" for r in rows)  # oracle ran at this size
    assert all(r["atz_norm"] == "" for r in rows if r["solver"] == "rk")

    # wall_time is the only column allowed to differ between identical runs
    assert strip_wall_time(csv1) == strip_wall_time(csv2)


def test_bench_oracle_cap_blanks_forward_err(tmp_path):
    csv_path = str(tmp_path / "r.csv")
    code = run_cli(["bench", "--kind", "dense", "--m", "12", "--n", "5", "--reps", "1",
                    "--solver", "rek", "--eps", "1e-8", "--oracle-cap", "1",
                    "--csv", csv_path])
    assert code == 0
    rows = read_csv(csv_path)
    assert all(r["forward_err"] == "" for r in rows)
    assert all(r["converged"] == "true" for r in rows)


def test_bench_fixed_instance_from_files(tmp_path):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "sparse", "--m", "25", "--n", "10", "--seed", "2",
             "--matrix", mx, "--rhs", rhs])
    csv_path = str(tmp_path / "fixed.csv")
    code = run_cli(["bench", "--matrix", mx, "--rhs", rhs, "--reps", "3",
                    "--solver", "rop", "--eps", "1e-8", "--csv", csv_path])
    assert code == 0
    rows = read_csv(csv_path)
    assert len(rows) == 3
    assert all(r["instance"].startswith("a.mtx-rep") for r in rows)
    assert all(r["residual_norm"] == "" for r in rows)  # no x estimate for this solver


def test_bench_reads_and_solves_a_fixed_instance_once(tmp_path, monkeypatch):
    mx, rhs = str(tmp_path / "a.mtx"), str(tmp_path / "b.mtx")
    run_cli(["gen", "--kind", "sparse", "--m", "25", "--n", "10", "--seed", "2",
             "--matrix", mx, "--rhs", rhs])
    calls = []
    for name in ("read_matrix_market", "min_norm_solve"):
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    argv = ["bench", "--matrix", mx, "--rhs", rhs, "--solver", "rek,rk,rop", "--eps", "1e-8"]
    all_csv, one_csv = str(tmp_path / "all.csv"), str(tmp_path / "one.csv")
    assert run_cli(argv + ["--seed", "4", "--reps", "3", "--csv", all_csv]) == 0
    assert calls == ["read_matrix_market", "min_norm_solve"]

    # the same sweep one rep at a time, each rep reading the files afresh
    want = []
    for rep in range(3):
        assert run_cli(argv + ["--seed", str(4 + rep), "--reps", "1", "--csv", one_csv]) == 0
        for row in strip_wall_time(one_csv):
            want.append(dict(row, instance="a.mtx-rep%d" % rep))
    assert len(calls) == 2 * 4
    assert strip_wall_time(all_csv) == want


@pytest.mark.parametrize("flags, message", [
    (["--reps", "0"], "--reps must be >= 1, got 0"),
    (["--reps", "-3"], "--reps must be >= 1, got -3"),
    (["--solver", ","], "--solver names no solver"),
])
def test_bench_refuses_no_reps_and_no_solvers(tmp_path, capsys, monkeypatch, flags, message):
    generated = []
    monkeypatch.setattr(cli, "generate", lambda spec: generated.append(spec))
    csv_path = tmp_path / "r.csv"
    code = run_cli(["bench", "--kind", "dense", "--m", "20", "--n", "5", *flags,
                    "--csv", str(csv_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not generated and not csv_path.exists()


def test_log_level_does_not_change_outputs(tmp_path, monkeypatch):
    csv1, csv2 = str(tmp_path / "q1.csv"), str(tmp_path / "q2.csv")
    argv = ["bench", "--kind", "dense", "--m", "10", "--n", "4", "--reps", "1",
            "--solver", "rek", "--eps", "1e-8", "--csv"]
    assert run_cli(argv + [csv1]) == 0
    monkeypatch.setenv("KACZMARZ_LOG", "debug")
    assert run_cli(argv + [csv2]) == 0
    assert strip_wall_time(csv1) == strip_wall_time(csv2)


def test_invalid_log_level_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("KACZMARZ_LOG", "chatty")
    code = run_cli(["gen", "--kind", "dense", "--m", "4", "--n", "2",
                    "--matrix", "x", "--rhs", "y"])
    assert code == 1
    assert "KACZMARZ_LOG" in capsys.readouterr().err


def test_verify_passes_on_sane_instance(tmp_path, capsys):
    code = run_cli(["verify", "--kind", "dense", "--m", "24", "--n", "8",
                    "--seed", "6", "--reps", "20"])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 7  # the full battery
    assert all(ln.startswith("PASS ") for ln in out_lines)


README_VERIFY_LINES = [
    "PASS rek-envelope: max mean/bound ratio 0.00796 over T=[250, 500, 999] (100 runs)",
    "PASS rk-envelope: max mean/bound ratio 0.166 over k=[250, 500, 999] (100 runs)",
    "PASS rop-rate: max mean/bound ratio 0.031 over k=[250, 500] (100 runs)",
    "PASS one-step-contraction: rk 37.1<=38.4; rop 29.7<=30.7 ...",
    "PASS iteration-bound: 100/100 runs terminated within T*=9067 (need 90)",
    "PASS flop-model: dense: 1044000 flops == (4(m+n)+2)*2000: True",
    "PASS forward-error: rel err 2.51e-10 <= bound 1.36e-08 (3120 iters)",
]


def test_readme_verify_example_prints_its_pinned_lines(capsys):
    code = run_cli(["verify", "--kind", "dense", "--m", "100", "--n", "30",
                    "--seed", "3", "--reps", "100"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == README_VERIFY_LINES


def test_verify_subset_and_failure_exit_code(capsys, monkeypatch):
    code = run_cli(["verify", "--kind", "dense", "--m", "20", "--n", "6",
                    "--seed", "8", "--reps", "5", "--checks", "rek-envelope,rop-rate"])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 2

    # an absurd slack must flip the battery to FAIL and exit 2
    monkeypatch.setattr(verify, "SLACK", 1e-12)
    code = run_cli(["verify", "--kind", "dense", "--m", "20", "--n", "6",
                    "--seed", "8", "--reps", "5", "--checks", "rek-envelope"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_flop_model_on_a_sparse_instance(capsys):
    # the sparse branch compares the mean booked flops per iteration with the
    # model 4(nnz/m + nnz/n) + 2 within 5%
    code = run_cli(["verify", "--kind", "sparse", "--m", "100", "--n", "30",
                    "--density", "0.3", "--seed", "3", "--checks", "flop-model"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS flop-model: sparse: 167.00 flops/iter vs model 165.63"]


def test_verify_unknown_check_name(capsys):
    code = run_cli(["verify", "--kind", "dense", "--m", "10", "--n", "4",
                    "--checks", "no-such-check"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


_CHECK_NAMES = ("rek-envelope, rk-envelope, rop-rate, one-step-contraction, iteration-bound, "
                "flop-model, forward-error")


@pytest.mark.parametrize("flags, message", [
    (["--reps", "0"], "reps must be >= 1, got 0"),
    (["--reps", "-3"], "reps must be >= 1, got -3"),
    (["--reps", "0", "--checks", "iteration-bound"], "reps must be >= 1, got 0"),
    (["--checks", "flop-model,flopmodel"],
     "unknown check 'flopmodel'; the checks are " + _CHECK_NAMES),
    (["--checks", ","], "no check selected; the checks are " + _CHECK_NAMES),
    (["--checks", ""], "no check selected; the checks are " + _CHECK_NAMES),
])
def test_verify_refuses_empty_runs_before_the_oracle(capsys, monkeypatch, flags, message):
    solved = []
    monkeypatch.setattr(verify, "min_norm_solve", lambda a, b: solved.append(a))
    code = run_cli(["verify", "--kind", "dense", "--m", "30", "--n", "8", "--seed", "3", *flags])
    assert code == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: %s\n" % message)
    assert not solved


def test_verify_matrix_needs_its_rhs(capsys):
    assert run_cli(["verify", "--matrix", "A.mtx"]) == 1
    assert capsys.readouterr().err == "error: --rhs is required when --matrix is given\n"


def test_verify_refuses_the_tolerance_flags_it_never_read(capsys):
    for flag in ("--eps", "--delta"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--kind", "dense", "--m", "10", "--n", "4", flag, "1e-3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


_IMPORT_SCRIPT = """
import sys
from kaczmarz.cli import main
code = main(["verify", "--kind", "dense", "--m", "12", "--n", "4", "--seed", "1", "--reps", "3"])
print(code, sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_cli_runs_without_loading_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kaczmarz.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code in ("0", "2") and loaded.strip() == "[]"
