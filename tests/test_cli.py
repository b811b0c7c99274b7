"""Black-box command-line tests: exit codes, CSV schemas, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracbvp as fb
from fracbvp import cli
from fracbvp import config as config_module
from fracbvp import solver
from fracbvp.cli import bundled_config_path, main
from fracbvp.config import build_problem, load_config
from fracbvp.green import green_values

from conftest import ACCEL_CONFIG

E41 = str(bundled_config_path("example41"))
E42 = str(bundled_config_path("example42"))


def read_csv(path):
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                continue
            rows.append([float(p) for p in line.split(",")])
    return header, np.asarray(rows)


def test_check_example41_exists_positive(capsys):
    code = main(["check", E41, "--grid", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exists-positive" in out


def test_check_assembles_no_operator_and_solve_one(tmp_path, monkeypatch, capsys):
    builds = []
    assemble = solver.operator_matrix
    monkeypatch.setattr(solver, "operator_matrix",
                        lambda kernel, grid: builds.append(grid.panels) or assemble(kernel, grid))
    assert main(["check", E41, "--grid", "64"]) == 0
    assert builds == []
    assert main(["solve", E41, "--grid", "64", "-o", str(tmp_path / "u.csv")]) == 0
    assert builds == [64]
    capsys.readouterr()


def test_check_example42_unique(capsys):
    code = main(["check", E42, "--grid", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unique-solution" in out


def test_check_json_structure(capsys):
    code = main(["check", E42, "--grid", "256", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["certificate"]["verdict"] == "unique-solution"
    assert payload["kernel"]["positivity_ok"] is True


def test_check_beta_above_bound_exits_2(tmp_path, capsys):
    # beta above its bound makes mu < 0, where the threshold fails and
    # lambda is only recorded: the certificate fails, it does not raise
    text = Path(E42).read_text()
    for name, old, new in (("beta6", "beta = 4", "beta = 6"),
                           ("beta8", "beta = 4", "beta = 8"),
                           ("beta12", "beta = 4", "beta = 12"),
                           ("beta20", "beta = 4", "beta = 20"),
                           ("alpha205", "alpha = 2.5", "alpha = 2.05")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text.replace(old, new))
        code = main(["check", str(cfg), "--grid", "256"])
        captured = capsys.readouterr()
        assert code == 2, (name, captured.err)
        assert "no-certificate" in captured.out
        assert "[FAIL    ] beta_below_bound" in captured.out
        # with mu < 0, lambda is no contraction factor: recorded, not passed
        assert "[recorded] lambda_below_half: not a contraction factor: mu < 0" in captured.out
    # the solve of such a config is best-effort and writes its outputs
    code = main(["solve", str(tmp_path / "beta8.cfg"), "--grid", "256",
                 "-o", str(tmp_path / "beta8.csv")])
    assert code in (0, 3)
    assert (tmp_path / "beta8.csv").exists()
    assert "label                 best-effort" in (tmp_path / "beta8.report.txt").read_text()


def test_check_solve_only_mode_rejected(tmp_path, capsys):
    cfg = tmp_path / "so.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\nf = zero\nmode = solve-only\n")
    assert main(["check", str(cfg)]) == 1


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 2.5\nbogus_key = 1\n")
    code = main(["check", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bogus_key" in err


def test_missing_config_exits_1(capsys):
    assert main(["check", "/nonexistent/x.cfg"]) == 1


@pytest.mark.parametrize("argv", [["solve", E42, "--grid", "64"],
                                  ["green", E42, "--resolution", "3"]], ids=["solve", "green"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_1_naming_the_path(argv, target, tmp_path, capsys):
    # a path under a missing directory fails to open; a directory fails
    # to be replaced, after its .tmp file was written
    out = tmp_path / "missing" / "u.csv" if target == "missing-dir" else tmp_path / "u.csv"
    if target == "directory":
        out.mkdir()
    code = main(argv + ["-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
    assert [p.name for p in tmp_path.iterdir()] == ([] if target == "missing-dir" else ["u.csv"])


def test_unwritable_sidecar_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # both .tmp files are written before either is moved; the sidecar,
    # moved first, fails onto the directory, so no CSV appears
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.report.txt").mkdir()
    assert main(["solve", E42, "--grid", "64", "-o", "u.csv"]) == 1
    assert "cannot write 'u.report.txt'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["u.report.txt"]
    assert not any((tmp_path / "u.report.txt").iterdir())


def test_solve_zero_f_writes_zero_csv(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\nf = zero\n"
                   "mode = solve-only\ngrid_size = 128\n")
    out = tmp_path / "zero.csv"
    code = main(["solve", str(cfg), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    header, data = read_csv(out)
    assert header == "t,u"
    assert data.shape == (256, 2)
    assert np.all(data[:, 1] == 0.0)
    assert (tmp_path / "zero.report.txt").exists()


def test_solve_example42_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "e42.csv"
    code = main(["solve", E42, "-o", str(out), "--grid", "256"])
    capsys.readouterr()
    assert code == 0
    header, data = read_csv(out)
    assert header == "t,u"
    # written floats parse back to the exact in-memory values
    again = tmp_path / "again.csv"
    assert main(["solve", E42, "-o", str(again), "--grid", "256"]) == 0
    capsys.readouterr()
    assert out.read_text() == again.read_text()
    report = (tmp_path / "e42.report.txt").read_text()
    assert "certified:unique-solution" in report


def test_solve_mu_zero_exits_1(tmp_path, capsys):
    cfg = tmp_path / "mu0.cfg"
    cfg.write_text("alpha = 3\nbeta = 2\neta = 1\nphi = identity\nf = zero\nmode = solve-only\n")
    code = main(["solve", str(cfg), "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: kernel requires mu != 0\n"
    assert not (tmp_path / "x.csv").exists()


# alpha = 3, beta = 2, eta = 1 on the identity map gives mu = 0
@pytest.mark.parametrize("argv,body", [
    pytest.param(["check"], "f = custom-expression\nf.expr = sin(u)\n"
                 "g = custom-expression\ng.expr = 1\nmode = uniqueness\n", id="check-uniqueness"),
    pytest.param(["check"], "f = zero\nmode = positive-existence\n", id="check-positive-existence"),
    pytest.param(["green", "-o", "g.csv"], "f = zero\nmode = solve-only\n", id="green"),
])
def test_mu_zero_exits_1_with_one_error_line(argv, body, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "mu0.cfg"
    cfg.write_text("alpha = 3\nbeta = 2\neta = 1\nphi = identity\n" + body)
    code = main(argv[:1] + [str(cfg)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: kernel requires mu != 0\n"
    assert captured.out == ""
    assert not (tmp_path / "g.csv").exists()


def test_check_zero_envelope_is_unique(tmp_path, capsys):
    # g = 0 gives lambda = 0, a contraction with every factor below 1/2
    cfg = tmp_path / "g0.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\n"
                   "f = custom-expression\nf.expr = 1 + t\n"
                   "g = custom-expression\ng.expr = 0\nmode = uniqueness\ngrid_size = 64\n")
    code = main(["check", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass    ] lambda_below_half: lambda = 0," in out
    assert "verdict               unique-solution" in out


@pytest.mark.parametrize("expr,max_iter", [
    pytest.param("200*u + 1", 10, id="iteration-cap"),
    pytest.param("1e6*u + 1", 2000, id="overflow"),  # diverges until the iterates overflow
])
def test_solve_nonconvergence_exits_3_with_partial_output(expr, max_iter, tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 4\neta = 0.3333333333333333\nphi = sqrt_half\n"
                   f"f = custom-expression\nf.expr = {expr}\nmode = solve-only\n"
                   f"grid_size = 128\nmax_iter = {max_iter}\n")
    out = tmp_path / "div.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", str(cfg), "-o", str(out)])
    assert capsys.readouterr().err == ""
    assert code == 3
    assert out.exists()
    report = (tmp_path / "div.report.txt").read_text()
    assert "converged             False" in report
    assert "best-effort" in report


@pytest.mark.parametrize("f, mode, cause", [
    ("example41", "positive-existence", "f = example41"),
    ("example42", "uniqueness", "uniqueness threshold"),
])
def test_check_tiny_phi_range_is_a_configuration_error(tmp_path, capsys, f, mode, cause):
    # phi'(1) * phi(1)**(alpha - 1) = 1e-360 underflows to 0 in both the
    # example41 slope and the uniqueness threshold, which used to divide by it
    ts = np.linspace(0.0, 1.0, 33)
    (tmp_path / "tiny.csv").write_text("\n".join(f"{float(t)!r},{1e-120 * float(t)!r}"
                                                 for t in ts) + "\n")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"alpha = 3\nbeta = 0.5\neta = 0.5\nphi = table\nphi.table = tiny.csv\n"
                   f"f = {f}\nmode = {mode}\ngrid_size = 64\n")
    assert main(["check", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err and "underflows to 0" in err


def test_table_phi_identity_reproduces_builtin(tmp_path, capsys):
    ts = np.linspace(0.0, 1.0, 33)
    table = tmp_path / "ident.csv"
    table.write_text("\n".join(f"{float(t)!r},{float(t)!r}" for t in ts) + "\n")
    base = ("alpha = 2.5\nbeta = 0.5\neta = 0.5\nf = custom-expression\n"
            "f.expr = t + 1\nmode = solve-only\ngrid_size = 128\n")
    cfg_a = tmp_path / "builtin.cfg"
    cfg_a.write_text(base + "phi = identity\n")
    cfg_b = tmp_path / "table.cfg"
    cfg_b.write_text(base + "phi = table\nphi.table = ident.csv\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", str(cfg_a), "-o", str(out_a)]) == 0
    assert main(["solve", str(cfg_b), "-o", str(out_b)]) == 0
    capsys.readouterr()
    _, data_a = read_csv(out_a)
    _, data_b = read_csv(out_b)
    assert np.array_equal(data_a, data_b)


def test_green_small_resolution(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["green", E41, "-o", str(out), "--resolution", "3"])
    capsys.readouterr()
    assert code == 0
    header, data = read_csv(out)
    assert header == "t,s,G"
    assert data.shape == (9, 3)
    t0_rows = data[data[:, 0] == 0.0]
    assert np.all(t0_rows[:, 2] == 0.0)
    text = out.read_text()
    assert "# mu:" in text and "# beta_bound:" in text


def test_green_classical_spot_value(tmp_path, capsys):
    cfg = tmp_path / "cls.cfg"
    cfg.write_text("alpha = 3\nbeta = 0\neta = 0.5\nphi = identity\nf = zero\nmode = solve-only\n")
    out = tmp_path / "g.csv"
    assert main(["green", str(cfg), "-o", str(out), "--resolution", "5"]) == 0
    capsys.readouterr()
    _, data = read_csv(out)
    row = data[(data[:, 0] == 0.5) & (data[:, 1] == 0.25)]
    assert row.shape == (1, 3)
    assert row[0, 2] == pytest.approx(0.0625, abs=1e-12)


def test_green_interior_positive_example42(tmp_path, capsys):
    out = tmp_path / "g200.csv"
    assert main(["green", E42, "-o", str(out), "--resolution", "200"]) == 0
    capsys.readouterr()
    _, data = read_csv(out)
    interior = data[(data[:, 0] > 0) & (data[:, 0] < 1) & (data[:, 1] > 0) & (data[:, 1] < 1)]
    assert np.all(interior[:, 2] > 0.0)


@pytest.mark.parametrize("config", [E41, E42])
def test_green_csv_round_trips_exact_values(tmp_path, capsys, config):
    out = tmp_path / "g37.csv"
    assert main(["green", config, "-o", str(out), "--resolution", "37"]) == 0
    capsys.readouterr()
    _, data = read_csv(out)
    pts = np.linspace(0.0, 1.0, 37)
    kernel = build_problem(load_config(config)).kernel
    assert np.array_equal(data[:, 0], np.repeat(pts, 37))
    assert np.array_equal(data[:, 1], np.tile(pts, 37))
    assert np.array_equal(data[:, 2], green_values(kernel, pts[:, None], pts[None, :]).ravel())


def test_green_bad_resolution(tmp_path, capsys):
    assert main(["green", E41, "-o", str(tmp_path / "g.csv"), "--resolution", "1"]) == 1


def test_green_resolution_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_GREEN_RESOLUTION", 8)
    out = tmp_path / "g.csv"
    # refused before the config is even read
    assert main(["green", str(tmp_path / "missing.cfg"), "-o", str(out), "--resolution", "9"]) == 1
    assert capsys.readouterr().err == "error: --resolution must lie in [2, 8], got 9\n"
    assert not out.exists()
    assert main(["green", E41, "-o", str(out), "--resolution", "8"]) == 0
    capsys.readouterr()
    assert read_csv(out)[1].shape == (64, 3)


def test_green_json_payload(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["green", E41, "-o", str(out), "--resolution", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["resolution"] == 4
    assert payload["mu"] == pytest.approx(0.22703, abs=1e-4)
    assert out.exists()


def test_solve_json_payload(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["solve", E42, "-o", str(out), "--grid", "128", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["certificate"]["verdict"] == "unique-solution"
    assert payload["fixed_point_residual"] <= 1e-6
    # the iteration's history: one squared step per iteration, a ratio per
    # pair of consecutive steps
    steps, ratios = payload["step_distances"], payload["observed_ratios"]
    assert payload["tol"] == 1e-16
    assert len(steps) == payload["iterations"] and len(ratios) == len(steps) - 1
    assert steps[-1] == payload["final_step_distance"]
    assert ratios == [b / a for a, b in zip(steps, steps[1:])]
    # reported in --json only: the sidecar stays as it was
    assert payload["accelerated_steps"] == 0
    assert "accelerated" not in (tmp_path / "s.report.txt").read_text()


def test_verify_paper_passes_and_is_deterministic(capsys):
    assert main(["verify-paper"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-paper"]) == 0
    second = capsys.readouterr().out
    assert first == second
    for token in ("2.95903", "0.22703", "5.60946", "0.0346236", "0.895984", "1.95333"):
        assert token in first


def test_verify_paper_json(capsys):
    assert main(["verify-paper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_within_tolerance"] is True
    assert payload["tolerance"] == 1e-4
    assert len(payload["rows"]) == 6
    assert all(row["abs_diff"] <= 1e-4 for row in payload["rows"])


def test_seed_env_var_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRACBVP_SEED", "777")
    assert main(["check", E41, "--grid", "256"]) == 0
    out = capsys.readouterr().out
    assert "seed: 777" in out
    monkeypatch.setenv("FRACBVP_SEED", "not-a-number")
    assert main(["check", E41, "--grid", "256"]) == 1


@pytest.mark.parametrize("config", [E41, E42], ids=["example41", "example42"])
def test_negative_seed_env_var_exits_1(capsys, monkeypatch, config):
    monkeypatch.setenv("FRACBVP_SEED", "-5")
    assert main(["check", config, "--grid", "256"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "FRACBVP_SEED" in err


def _run_threads(argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "fracbvp", *argv], capture_output=True,
                          text=True, env=env)


# at 1024 panels the operator's 16 memory blocks have 128 rows each
@pytest.mark.parametrize("config, grid", [(E41, "256"), (E42, "256"), (E41, "1024"), (E42, "1024")],
                         ids=["example41", "example42", "example41-grid1024", "example42-grid1024"])
def test_solve_csv_independent_of_blas_threads(tmp_path, config, grid):
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        out_dir.mkdir()
        proc = _run_threads(["solve", config, "--grid", grid, "-o", str(out_dir / "u.csv")],
                            threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert set(outputs[0]) == {"u.csv", "u.report.txt"}
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and at least 2 usable CPUs")
def test_solve_csv_independent_of_cpu_count(tmp_path):
    # at 1536 panels the operator is filled on one worker thread per CPU
    grid = "1536"
    assert sum((i1 - i0) * i1 for i0, i1 in solver._memory_layout(2 * int(grid))) \
        >= solver._PARALLEL_ELEMENTS
    cpus = sorted(os.sched_getaffinity(0))
    outputs = []
    for chosen in (cpus[:1], cpus[:2]):
        out_dir = tmp_path / str(len(chosen))
        out_dir.mkdir()
        proc = subprocess.run([sys.executable, "-m", "fracbvp", "solve", E42, "--grid", grid,
                               "-o", str(out_dir / "u.csv")], capture_output=True, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, chosen))
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert set(outputs[0]) == {"u.csv", "u.report.txt"}
    assert outputs[0] == outputs[1]


def test_accelerated_solve_csv_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "accel.cfg"
    cfg.write_text(ACCEL_CONFIG)
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        out_dir.mkdir()
        proc = _run_threads(["solve", str(cfg), "--grid", "256", "-o", str(out_dir / "u.csv"),
                             "--json"], threads)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["accelerated_steps"] > 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]


def test_solve_json_independent_of_blas_threads(tmp_path):
    # example41's certified solve at its shipped 1024 panels, whose one
    # operator the solve assembles; both runs write to the same path, so
    # their --json payloads name the same files
    runs, reports = [], []
    for threads in ("1", "2"):
        runs.append(_run_threads(["solve", E41, "-o", str(tmp_path / "u.csv"), "--json"],
                                 threads))
        reports.append((tmp_path / "u.report.txt").read_bytes())
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert '"certified:exists-positive"' in runs[0].stdout
    assert runs[0].stdout == runs[1].stdout and reports[0] == reports[1]


def test_bad_grid_override_exits_1_naming_the_setting(capsys):
    assert main(["check", E42, "--grid", "63"]) == 1
    assert "'grid_size'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", E42, "--tol", "1e-3"],
    ["check", E42, "--max-iter", "5"],
    ["green", E42, "-o", "g.csv", "--grid", "256"],
    ["green", E42, "-o", "g.csv", "--tol", "1e-3"],
], ids=["check-tol", "check-max-iter", "green-grid", "green-tol"])
def test_flags_outside_their_command_exit_1(argv, tmp_path, monkeypatch, capsys):
    # only solve reads tol and max_iter; green reads no grid setting
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_json_writes_non_finite_numbers_as_null(tmp_path, capsys):
    # eta near 0: Se**(alpha-1) underflows, so the positivity bound is inf
    cfg = tmp_path / "tiny_eta.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 1\neta = 1e-300\nphi = identity\nf = zero\n"
                   "mode = positive-existence\ngrid_size = 64\n")
    assert main(["check", str(cfg), "--json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["certificate"]["beta_bound"] is None
    assert payload["kernel"]["beta_bound"] is None
    # a diverging solve: A applied to its last iterate overflows, so the
    # fixed-point residual is null; the boundary residuals are those of
    # that finite iterate itself
    cfg = tmp_path / "div.cfg"
    cfg.write_text("alpha = 2.5\nbeta = 1\neta = 0.5\nphi = identity\n"
                   "f = custom-expression\nf.expr = exp(u)*50\ngrid_size = 64\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["solve", str(cfg), "-o", str(tmp_path / "div.csv"), "--json"]) == 3
    payload = _strict_json(capsys.readouterr().out)
    assert payload["converged"] is False
    assert payload["fixed_point_residual"] is None
    b0, b1, b2 = payload["boundary_residuals"]
    assert isinstance(b0, float) and b1 > 1e3
    # recomputed from the iterate the CSV holds
    problem = build_problem(load_config(cfg))
    values = read_csv(tmp_path / "div.csv")[1][:, 1]
    u = fb.GridFunction(grid=problem.grid(), values=values)
    assert [b0, b1, b2] == [abs(u(0.0)), abs(u.deriv(0.0)), abs(u.deriv(1.0) - u(0.5))]


def test_solve_oversized_grid_exits_1_before_allocating(tmp_path):
    # a 2097152 x 2097152 matrix would need 32 TiB; the guard refuses it
    proc = subprocess.run([sys.executable, "-m", "fracbvp", "solve", E41, "--grid", "1048576",
                           "-o", str(tmp_path / "u.csv")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "grid_size 1048576" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["check", "solve"])
def test_oversized_grid_refused_before_the_grid_is_built(command, tmp_path, capsys,
                                                         monkeypatch):
    # Config refuses the grid_size, so no O(N) grid work starts at all
    def unreachable(*args, **kwargs):
        raise AssertionError("build_grid reached")

    monkeypatch.setattr(config_module, "build_grid", unreachable)
    argv = [command, E41, "--grid", "1048576"]
    if command == "solve":
        argv += ["-o", str(tmp_path / "u.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key 'grid_size'") and "grid_size 1048576" in err
    assert not any(tmp_path.iterdir())


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_console_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "fracbvp", "verify-paper"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all within" in proc.stdout
