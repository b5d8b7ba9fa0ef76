"""Command-line surface: exit codes, report shape, reproducibility."""

import json

import numpy as np
import pytest

import liberlab.cli as cli
from liberlab.errors import NumericalError

from conftest import CONTRADICTING_DOCUMENTS, FIXTURES

UNIFORM = str(FIXTURES / "uniform.json")
BAD_ATOMS = str(FIXTURES / "bad_atoms.json")
FREE_HALF = str(FIXTURES / "free_half.json")
TILT = str(FIXTURES / "tilt_quad.json")
TABLE_BUMP = str(FIXTURES / "table_bump.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_report_on_stdout(capsys):
    code, out, _ = run(capsys, "chi", "--law", UNIFORM, "--grid", "4096")
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == pytest.approx(-0.375 + np.log(2.0) / 2.0, abs=1e-9)
    assert report["generic"] is True
    assert report["moments"] == 8192
    assert report["config"]["law"] == UNIFORM
    assert report["config"]["grid"] == 4096
    assert "version" in report


def test_negative_infinity_serializes_as_string(capsys):
    code, out, _ = run(capsys, "chi", "--law", BAD_ATOMS)
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == "-inf"
    assert report["generic"] is False


def test_fisher_and_lsi_agree_with_chi(capsys):
    code, fisher_out, _ = run(capsys, "fisher", "--law", UNIFORM)
    assert code == 0
    code, lsi_out, _ = run(capsys, "lsi", "--law", UNIFORM)
    assert code == 0
    fisher = json.loads(fisher_out)
    lsi = json.loads(lsi_out)
    assert lsi["phi_star"] == pytest.approx(fisher["phi_star"], rel=1e-12)
    assert lsi["margin"] == pytest.approx(
        lsi["chi"] + lsi["phi_star"], abs=1e-12
    )


@pytest.mark.parametrize(("law", "grid", "nodes"), [(UNIFORM, "100", 192), (FREE_HALF, "100", 100)])
def test_fisher_and_lsi_report_the_nodes_they_ran(capsys, law, grid, nodes):
    for command in ("fisher", "lsi"):
        code, out, _ = run(capsys, command, "--law", law, "--grid", grid)
        assert code == 0
        report = json.loads(out)
        assert report["nodes"] == nodes
        assert report["config"]["grid"] == int(grid)


def test_missing_law_is_a_usage_error(capsys):
    code, _, err = run(capsys, "chi")
    assert code == 1
    assert "error" in err.lower()


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, "entropy", "--law", UNIFORM)
    assert code == 1


def test_unreadable_law_file(capsys):
    code, _, err = run(capsys, "chi", "--law", "/nonexistent/law.json")
    assert code == 1
    assert "error" in err.lower()


def test_broken_law_content(tmp_path, capsys):
    bad = tmp_path / "law.json"
    bad.write_text('{"alpha": 0.5}')
    code, _, err = run(capsys, "chi", "--law", str(bad))
    assert code == 1


@pytest.mark.parametrize(("flag", "document"), [
    ("--law", {"alpha": 0.5, "beta": 0.5, "density": [1, 2]}),
    ("--law", {"alpha": 0.5, "beta": 0.5, "density": {"kind": "uniform", "mass": "one"}}),
    ("--law", {"alpha": 0.5, "beta": 0.5,
               "density": {"kind": "table", "nodes": ["a", "b"], "values": [1.0, 1.0]}}),
    ("--law", {"alpha": 0.5, "beta": 0.5, "density": {"kind": "uniform", "support": [0.2]}}),
    ("--h", [0.0, 1.0]),
    ("--h", {"kind": "poly", "coeffs": ["x"]}),
])
def test_malformed_document_is_a_usage_error(tmp_path, capsys, flag, document):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    law = str(path) if flag == "--law" else FREE_HALF
    argv = ["equilibrium", "--law", law, "--grid", "64", "--out", str(tmp_path / "report.json")]
    if flag == "--h":
        argv += ["--h", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", CONTRADICTING_DOCUMENTS)
def test_contradicting_law_document_exits_one(tmp_path, capsys, name):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(CONTRADICTING_DOCUMENTS[name]))
    code, out, err = run(capsys, "chi", "--law", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "contradicts" in err


def test_numerical_failure_exits_two(capsys, monkeypatch):
    def boom(config):
        raise NumericalError("synthetic instability")

    monkeypatch.setitem(cli._COMMANDS, "chi", boom)
    code, _, err = run(capsys, "chi", "--law", UNIFORM)
    assert code == 2
    assert "numerical failure" in err


def test_nan_in_report_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    import liberlab.fisher as fisher

    def nan_report(law, h, c1, c2, grid):
        return fisher.LsiReport(chi=-0.1, phi_star=float("nan"), margin=float("nan"), vacuous=False)

    monkeypatch.setattr(fisher, "check_lsi", nan_report)
    out = tmp_path / "lsi.json"
    code, _, err = run(capsys, "lsi", "--law", UNIFORM, "--out", str(out))
    assert code == 2
    assert "NaN" in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(NumericalError):
        cli._format_cell(float("nan"))


@pytest.mark.parametrize("law", [UNIFORM, FREE_HALF])
@pytest.mark.parametrize("grid", ["0", "-4"])
def test_nonpositive_grid_is_a_usage_error(tmp_path, capsys, law, grid):
    out = tmp_path / "chi.json"
    code, _, err = run(capsys, "chi", "--law", law, "--grid", grid, "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "--grid" in err
    assert list(tmp_path.iterdir()) == []


def test_lsi_matrix_grid_below_the_point_count_is_a_usage_error(tmp_path, capsys):
    model = ("lsi-matrix", "--N", "4", "--k", "2", "--l", "2", "--psi", "poly:0,0.1")
    out = tmp_path / "lsi_matrix.json"
    code, _, err = run(capsys, *model, "--grid", "1", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "--grid" in err
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run(capsys, *model, "--grid", "300", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["mode"] == "quadrature"


def test_lsi_matrix_report_does_not_depend_on_the_seed(tmp_path, capsys):
    out = tmp_path / "lsi_matrix.json"
    reports = []
    for seed in ("1", "2"):
        code, _, _ = run(capsys, "lsi-matrix", "--N", "4", "--k", "2", "--l", "2",
                         "--psi", "poly:0,0,0.5", "--seed", seed, "--out", str(out))
        assert code == 0
        reports.append(out.read_text().replace(f'"seed": {seed}', '"seed": 0'))
    assert reports[0] == reports[1]


def test_unresolved_lsi_matrix_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "lsi_matrix.json"
    code, _, err = run(capsys, "lsi-matrix", "--N", "1024", "--k", "512", "--l", "512",
                       "--psi", "poly:0,2", "--out", str(out))
    assert code == 2
    assert err.startswith("numerical failure:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("sample", "--N", "3", "--k", "2", "--l", "2"),
    ("verify-ricci", "--N", "3", "--k", "1"),
    ("verify-gradient", "--N", "3"),
])
@pytest.mark.parametrize("bad", [
    pytest.param(("--trials", "0"), id="0"),
    pytest.param(("--trials", "-3"), id="-3"),
    # numpy's default_rng refuses a negative seed
    pytest.param(("--seed", "-1"), id="seed"),
])
def test_nonpositive_trials_is_a_usage_error(tmp_path, capsys, command, bad):
    out = tmp_path / "report"
    code, _, err = run(capsys, *command, *bad, "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and bad[0] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(("command", "flag"), [
    (("verify-gradient", "--N", "1"), "--N"),
    (("verify-gradient", "--N", "0"), "--N"),
    (("lsi", "--law", UNIFORM, "--c1", "nan"), "--c1"),
    (("lsi", "--law", UNIFORM, "--c2", "inf"), "--c2"),
])
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "report"
    code, _, err = run(capsys, *command, "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("chi", "--law", UNIFORM),
    ("lsi", "--law", UNIFORM, "--grid", "256"),
    ("sample", "--N", "3", "--k", "2", "--l", "2", "--trials", "10"),
])
def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "report.json"
    code, stdout, err = run(capsys, *command, "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "--out" in err and "Traceback" not in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_lsi_on_a_table_law(tmp_path, capsys):
    out = tmp_path / "lsi_table.json"
    code, _, _ = run(capsys, "lsi", "--law", TABLE_BUMP, "--grid", "4096", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert np.isfinite(report["chi"]) and np.isfinite(report["phi_star"])
    assert report["margin"] >= 0.0
    assert report["nodes"] == 4104


@pytest.mark.parametrize("command", ["liberate", "istar"])
def test_zero_particles_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "report"
    code, _, err = run(capsys, command, "--law", UNIFORM, "--particles", "0", "--out", str(out))
    assert code == 1
    assert err.startswith("error:") and "--particles" in err
    assert list(tmp_path.iterdir()) == []


def test_unconverged_tilted_solve_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    import dataclasses

    import liberlab.entropy as entropy

    solve = entropy.equilibrium_solve

    def unconverged(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), converged=False)

    monkeypatch.setattr(entropy, "equilibrium_solve", unconverged)
    out = tmp_path / "lsi.json"
    code, _, err = run(
        capsys, "lsi", "--law", UNIFORM, "--h", TILT, "--c1", "0.3", "--c2", "0.3",
        "--grid", "512", "--out", str(out),
    )
    assert code == 2
    assert "did not converge" in err
    assert list(tmp_path.iterdir()) == []


def test_capped_tilted_solve_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    import liberlab.entropy as entropy

    monkeypatch.setattr(entropy, "_PCG_MAX", 1)
    out = tmp_path / "lsi.json"
    # on the uniform law every round keeps all nodes, where the
    # preconditioner is exact and one iteration solves; this law's
    # support shrinks over several rounds
    code, _, err = run(
        capsys, "lsi", "--law", str(FIXTURES / "free_asym.json"), "--h", TILT,
        "--c1", "0.3", "--c2", "0.3", "--grid", "512", "--out", str(out),
    )
    assert code == 2
    assert "did not converge" in err
    assert list(tmp_path.iterdir()) == []


def test_sample_csv_shape(tmp_path, capsys):
    out = tmp_path / "spectra.csv"
    code, stdout, _ = run(
        capsys,
        "sample", "--N", "3", "--k", "2", "--l", "2",
        "--trials", "5", "--seed", "11", "--out", str(out),
    )
    assert code == 0
    assert f"wrote {out}" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# liberlab ")
    assert lines[1] == "trial,eigenvalue_index,value"
    assert len(lines) == 2 + 5
    trial, index, value = lines[2].split(",")
    assert (trial, index) == ("0", "0")
    assert 0.0 <= float(value) <= 1.0


def test_liberate_csv_columns(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    code, stdout, _ = run(
        capsys,
        "liberate", "--law", UNIFORM, "--particles", "16",
        "--tmax", "0.5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# liberlab ")
    # the flow line carries the istar JSON's run fields, by the same names
    code, istar_out, _ = run(capsys, "istar", "--law", UNIFORM, "--particles", "16", "--tmax", "0.5")
    assert code == 0
    report = json.loads(istar_out)
    assert lines[1].startswith("# flow {")
    flow = json.loads(lines[1][len("# flow "):])
    names = ["steps", "rejected_steps", "evals", "dt_min", "dt_max", "min_gap", "energy_gap"]
    assert sorted(flow) == sorted(names)
    assert flow == {name: report[name] for name in names}
    table = [line for line in lines if not line.startswith("#")]
    assert table[0] == "t,chi,phi_star,half_integral"
    assert len(table) == 2 + flow["steps"]
    first = table[1].split(",")
    assert float(first[0]) == 0.0
    last = table[-1].split(",")
    assert float(last[0]) == pytest.approx(0.5, abs=1e-9)
    assert float(last[1]) >= float(first[1])


def test_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["lsi", "--law", FREE_HALF, "--grid", "512", "--seed", "7",
            "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()

    eq_out = tmp_path / "eq.json"
    eq_argv = ["equilibrium", "--law", str(FIXTURES / "free_asym.json"), "--h", TILT,
               "--grid", "1024", "--out", str(eq_out)]
    assert cli.main(eq_argv) == 0
    first = eq_out.read_bytes()
    assert cli.main(eq_argv) == 0
    assert eq_out.read_bytes() == first
    capsys.readouterr()

    csv_out = tmp_path / "spectra.csv"
    csv_argv = ["sample", "--N", "2", "--k", "1", "--l", "1",
                "--trials", "3", "--seed", "5", "--out", str(csv_out)]
    assert cli.main(csv_argv) == 0
    first = csv_out.read_bytes()
    assert cli.main(csv_argv) == 0
    assert csv_out.read_bytes() == first
    capsys.readouterr()


def test_no_partial_files_remain(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["chi", "--law", UNIFORM, "--out", str(out)]) == 0
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_equilibrium_command_reports_a_density(capsys):
    code, out, _ = run(
        capsys, "equilibrium", "--law", FREE_HALF, "--grid", "512"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rho"] == pytest.approx(0.5, abs=1e-12)
    quantiles = np.asarray(report["density_quantiles"], dtype=float)
    assert quantiles.size == 101
    assert np.all(np.diff(quantiles) > 0.0)


def test_equilibrium_command_reports_the_mass_support(capsys):
    law = str(FIXTURES / "free_asym.json")
    code, out, _ = run(capsys, "equilibrium", "--law", law, "--grid", "1024")
    assert code == 0
    report = json.loads(out)
    lo, hi = report["support"]
    assert lo == pytest.approx(0.0916, abs=1e-4)
    assert hi == pytest.approx(0.9890, abs=1e-4)
    assert report["solve_iterations"] >= report["iterations"] > 0


def test_istar_command(capsys):
    code, out, _ = run(
        capsys, "istar", "--law", UNIFORM, "--particles", "48",
        "--tmax", "6.0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["minus_chi"] == pytest.approx(0.375 - np.log(2.0) / 2.0, abs=1e-9)
    assert report["relative_gap"] < 0.3


@pytest.mark.parametrize("command", ["istar", "liberate"])
@pytest.mark.parametrize("tmax", ["inf", "nan", "-1"])
def test_unreachable_flow_horizon_is_a_usage_error(tmp_path, capsys, command, tmax):
    out = tmp_path / "flow.out"
    code, _, err = run(
        capsys, command, "--law", UNIFORM, "--particles", "16",
        "--tmax", tmax, "--out", str(out),
    )
    assert code == 1
    assert "error" in err.lower()
    assert list(tmp_path.iterdir()) == []


def test_istar_reports_how_the_flow_ran(capsys):
    from liberlab.laws import load_law
    from liberlab.liberation import istar

    code, out, _ = run(capsys, "istar", "--law", UNIFORM, "--particles", "16", "--tmax", "0.05")
    assert code == 0
    report = json.loads(out)
    rep = istar(load_law(UNIFORM), 16, 0.05)
    # steps counts accepted steps, not the t = 0 record
    assert report["steps"] == len(rep.state.history) - 1 == 9
    assert report["rejected_steps"] == rep.rejected_steps
    # one pair sum at the start, then at least two per accepted step
    assert report["evals"] == rep.evals >= 1 + 2 * report["steps"]
    assert report["dt_min"] == rep.dt_min and report["dt_max"] == rep.dt_max
    assert 0.0 < report["dt_min"] <= report["dt_max"] < 0.05
    assert report["min_gap"] == rep.min_gap
    assert 0.0 < report["min_gap"] <= np.diff(rep.state.particles).min()
    assert report["floored"] is False


def test_istar_reports_the_energy_gap(capsys):
    from liberlab.laws import load_law
    from liberlab.liberation import istar

    code, out, _ = run(capsys, "istar", "--law", UNIFORM, "--particles", "16", "--tmax", "0.05")
    assert code == 0
    report = json.loads(out)
    rep = istar(load_law(UNIFORM), 16, 0.05)
    history = rep.state.history
    gap = history[-1].half_integral - (history[-1].chi_hat - history[0].chi_hat)
    assert report["energy_gap"] == rep.energy_gap == gap
