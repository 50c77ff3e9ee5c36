"""End-to-end tests for the command-line driver, run in process."""

from dataclasses import replace

import numpy as np
import pytest

from daegrad import cli
from daegrad.cli import main
from daegrad.problems import make_problem

SMHS_HEADER = "step,t,V,V_err,constraint_norm,c_norm,newton_iters,newton_residual,H,H_err,g"
SINH_GORDON_HEADER = "step,t,V,V_err,constraint_norm,c_norm,newton_iters,newton_residual,F"


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_csv_with_fixed_header(tmp_path):
    out = tmp_path / "series.csv"
    code = run_cli("run", "--problem", "smhs", "--steps", "20", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SMHS_HEADER
    assert len(lines) == 22  # header + initial record + 20 steps
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[3]) == 0.0  # V_err starts at zero by construction


def test_run_rows_roundtrip_to_float64(tmp_path):
    out = tmp_path / "series.csv"
    run_cli("run", "--problem", "smhs", "--steps", "5", "--out", str(out))
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        # 17 significant digits reproduce the double exactly
        assert float(cells[2]) == np.float64(cells[2])


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--problem", "sinh-gordon", "--grid", "12", "--steps", "15", "--dt", "0.1"]
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == SINH_GORDON_HEADER  # V is H; no duplicate column


def test_run_defaults_to_stdout(capsys):
    code = run_cli("run", "--problem", "linear-test", "--steps", "3")
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("step,t,V,V_err,")
    assert len(lines) == 5
    assert "# elapsed:" in captured.err  # timing stays off the data stream


def test_run_scheme_defaults_to_recommendation(tmp_path, capsys):
    code = run_cli("run", "--problem", "pendulum", "--steps", "5")
    assert code == 0
    assert "pendulum/gonzalez" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--problem", "lorenz"),
        ("run", "--problem", "smhs", "--scheme", "leapfrog"),
        ("run", "--problem", "smhs", "--scheme", "dg-avf"),  # no gradient form
        ("run", "--problem", "smhs", "--grid", "16"),
        ("run", "--problem", "smhs", "--dt", "-0.5"),
        ("run", "--problem", "smhs", "--steps", "0"),
        ("run", "--problem", "smhs", "--snapshot-every", "5"),  # needs --out
        ("run", "--problem", "linear-test", "--scheme", "gonzalez"),
        ("run",),  # no problem anywhere
        ("run", "--problem", "smhs", "--steps", "eight"),
        ("run", "--problem", "smhs", "--bogus", "1"),
        ("run", "--problem", "smhs", "--newton-tol", "0"),
        (),  # no subcommand
        ("run", "--problem", "sinh-gordon", "--scheme", "dg-midpoint"),  # not accepted
    ],
)
def test_bad_invocations_exit_one(argv, capsys, tmp_path):
    assert run_cli(*argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["pendulum", "friction"])
@pytest.mark.parametrize("scheme", ["dg-avf", "dg-proper", "dg-index1"])
def test_index3_problems_refuse_unconstrained_schemes(problem, scheme, tmp_path, capsys):
    # these schemes drift off the pendulum's index-3 constraint (dg-avf) or
    # fail within a dozen steps (dg-proper, dg-index1), so the run never starts
    out = tmp_path / "series.csv"
    assert run_cli("run", "--problem", problem, "--scheme", scheme, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"problem {problem!r}" in err
    assert f"does not accept scheme {scheme!r}" in err
    assert "accepted: " in err and "dg-midpoint, implicit-euler" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "problem, scheme",
    [
        ("pendulum", "gonzalez"),
        ("pendulum", "dg-midpoint"),
        ("pendulum", "implicit-euler"),
        ("friction", "dg-midpoint"),
        ("friction", "implicit-euler"),
    ],
)
def test_index3_problems_still_run_accepted_schemes(problem, scheme, tmp_path):
    out = tmp_path / "series.csv"
    assert run_cli("run", "--problem", problem, "--scheme", scheme, "--steps", "5", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.parametrize(
    "argv, fragment",
    [(("-h",), "usage: daegrad"), (("run", "-h"), "--snapshot-every")],
)
def test_help_prints_to_stdout_and_returns_zero(argv, fragment, capsys):
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert fragment in captured.out
    assert captured.err == ""


def test_unwritable_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "series.csv"
    assert run_cli("run", "--problem", "smhs", "--out", str(target)) == 1
    assert "cannot write" in capsys.readouterr().err


def test_solver_failure_keeps_partial_csv_and_exits_two(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = run_cli(
        "run", "--problem", "smhs", "--steps", "10",
        "--newton-max-iters", "1", "--out", str(out),
    )
    assert code == 2
    lines = out.read_text().splitlines()
    assert lines[0] == SMHS_HEADER
    assert lines[-1] == "# failed at step 1"
    assert len(lines) == 3  # header, initial record, failure marker
    assert "step 1 failed" in capsys.readouterr().err


def test_failed_start_projection_keeps_initial_row_and_exits_two(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = run_cli(
        "run", "--problem", "sinh-gordon", "--scheme", "dg-index1", "--steps", "3",
        "--newton-tol", "1e-300", "--newton-max-iters", "1", "--out", str(out),
    )
    assert code == 2
    lines = out.read_text().splitlines()
    assert lines[-1] == "# failed at step 0"
    assert len(lines) == 3  # header, initial record, failure marker
    assert "error: step 0 failed: no convergence" in capsys.readouterr().err


def test_config_file_supplies_values_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smoke configuration\n"
        "problem = linear-test\n"
        "steps = 8\n"
        "dt = 0.05   # keep it short\n"
        "out = {}\n".format(tmp_path / "from-file.csv")
    )
    assert run_cli("run", "--config", str(cfg)) == 0
    assert len((tmp_path / "from-file.csv").read_text().splitlines()) == 10

    override = tmp_path / "override.csv"
    assert run_cli("run", "--config", str(cfg), "--steps", "3", "--out", str(override)) == 0
    assert len(override.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("wibble = 3\n", "unknown key"),
        ("steps eight\n", "expected 'key = value'"),
        ("steps = eight\n", "bad value"),
        ("dt = -0.5\n", "bad value"),  # file values get the flags' range checks
    ],
)
def test_malformed_config_exits_one(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    assert run_cli("run", "--config", str(cfg), "--problem", "smhs") == 1
    assert fragment in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_batch_requires_distinct_out_paths(tmp_path, capsys):
    cfg_a = tmp_path / "a.cfg"
    cfg_b = tmp_path / "b.cfg"
    shared = tmp_path / "shared.csv"
    for cfg in (cfg_a, cfg_b):
        cfg.write_text(f"problem = linear-test\nsteps = 2\nout = {shared}\n")
    assert run_cli("run", "--config", str(cfg_a), "--config", str(cfg_b)) == 1
    assert "distinct" in capsys.readouterr().err

    cfg_c = tmp_path / "c.cfg"
    cfg_c.write_text("problem = linear-test\nsteps = 2\n")  # no out at all
    assert run_cli("run", "--config", str(cfg_a), "--config", str(cfg_c)) == 1


def test_batch_runs_every_config(tmp_path):
    outs = []
    for i, problem in enumerate(["linear-test", "smhs"]):
        cfg = tmp_path / f"job{i}.cfg"
        out = tmp_path / f"job{i}.csv"
        cfg.write_text(f"problem = {problem}\nsteps = 4\nout = {out}\n")
        outs.append((cfg, out))
    code = run_cli("run", "--config", str(outs[0][0]), "--config", str(outs[1][0]))
    assert code == 0
    for _, out in outs:
        assert len(out.read_text().splitlines()) == 6


def test_batch_exit_code_is_worst_of_jobs(tmp_path):
    good = tmp_path / "good.cfg"
    bad = tmp_path / "bad.cfg"
    good.write_text(f"problem = linear-test\nsteps = 2\nout = {tmp_path/'g.csv'}\n")
    bad.write_text(
        f"problem = smhs\nsteps = 5\nnewton-max-iters = 1\nout = {tmp_path/'b.csv'}\n"
    )
    code = run_cli("run", "--config", str(good), "--config", str(bad))
    assert code == 2


def test_snapshots_written_alongside_series(tmp_path):
    out = tmp_path / "series.csv"
    code = run_cli(
        "run", "--problem", "smhs", "--steps", "10",
        "--snapshot-every", "5", "--out", str(out),
    )
    assert code == 0
    snap_lines = (tmp_path / "series.csv.states.csv").read_text().splitlines()
    assert snap_lines[0] == "step,t,z0,z1,z2"
    assert [line.split(",")[0] for line in snap_lines[1:]] == ["0", "5", "10"]
    # snapshots and the series agree on the clock
    assert snap_lines[1].split(",")[1] == out.read_text().splitlines()[1].split(",")[1]


# ---------------------------------------------------------------- check


def test_check_reports_properness_split(capsys):
    assert run_cli("check", "smhs") == 0
    text = capsys.readouterr().out
    assert "mass matrix rank: 2, nullity: 1" in text
    assert "H: proper" in text
    assert "V: NOT proper" in text
    assert "g: NOT proper" in text
    assert "structure: none declared (general right-hand side)" in text


def test_check_conservative_structure(capsys):
    assert run_cli("check", "pendulum") == 0
    text = capsys.readouterr().out
    assert "structure: conservative, constant S" in text
    assert "A^+S skew: residual" in text
    assert "(pass)" in text


def test_check_constant_s_label_follows_the_system(monkeypatch, capsys):
    # the pendulum's S, but as a fresh copy per call
    spec = make_problem("pendulum")
    S0 = spec.dae.S(spec.default_initial_state)
    fresh = replace(spec, dae=replace(spec.dae, S=lambda z: S0.copy()))
    monkeypatch.setattr(cli, "make_problem", lambda *args, **kwargs: fresh)
    assert run_cli("check", "pendulum") == 0
    text = capsys.readouterr().out
    assert "structure: conservative\n" in text
    assert "conservative, constant S" not in text


def test_check_dissipative_structure(capsys):
    assert run_cli("check", "friction") == 0
    text = capsys.readouterr().out
    assert "A^+S negative semidefinite: max eigenvalue" in text
    assert "(pass)" in text


def test_check_lattice_problem_accepts_grid(capsys):
    assert run_cli("check", "sinh-gordon", "--grid", "8") == 0
    text = capsys.readouterr().out
    assert "state dimension: 8" in text
    assert "H: proper" in text
    # F is the enforced constraint, held at zero by the dynamics rather
    # than by gradient orthogonality
    assert "F: NOT proper" in text
    assert "A^+S skew: residual" in text


def test_check_unknown_problem_exits_one(capsys):
    assert run_cli("check", "brusselator") == 1
    assert "unknown problem" in capsys.readouterr().err
