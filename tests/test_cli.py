"""Command-line interface: subcommands, artifacts, exit codes."""

import csv

import pytest

from mgshare import serialize_scenario
from mgshare.cli import main
from mgshare.simulate import CSV_HEADER


def test_simulate_writes_artifacts(tmp_path, capsys):
    rc = main(["simulate", "lv5", "--t-end", "12", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulated lv5" in out
    csv_path = tmp_path / "lv5_timeseries.csv"
    plot_path = tmp_path / "plot_lv5.py"
    assert csv_path.exists() and plot_path.exists()
    with open(csv_path) as fh:
        header = next(csv.reader(fh))
    assert header == CSV_HEADER
    text = plot_path.read_text()
    assert "matplotlib" in text and "lv5_timeseries.csv" in text
    compile(text, str(plot_path), "exec")  # generated script must be valid python


def test_simulate_overrides(tmp_path):
    rc = main(["simulate", "lv5", "--t-end", "2", "--sample-ms", "100",
               "--rel-tol", "1e-6", "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "lv5_timeseries.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 21 * 5  # 2 s at 100 ms, 5 units


def test_steady_state_proposed(capsys):
    rc = main(["steady-state", "lv5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equilibrium (proposed)" in out
    assert out.splitlines()[0].endswith(" Newton iterations")
    assert "overall                   : PASS" in out


def test_steady_state_no_operating_point_exits_1(lv5_overloaded, tmp_path, capsys):
    path = tmp_path / "overloaded.scn"
    path.write_text(serialize_scenario(lv5_overloaded))
    assert main(["steady-state", str(path)]) == 1
    assert "error: Newton did not converge" in capsys.readouterr().err


def test_steady_state_droop(capsys):
    assert main(["steady-state", "lv5", "--mode", "droop"]) == 0
    assert "equilibrium (droop)" in capsys.readouterr().out


def test_stability_report(capsys):
    rc = main(["stability", "lv5", "--ratios", "0.1,0.01,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    assert out.count("stable") >= 3
    assert "ratio tau_d/tau_v = 0 " in out


def test_tune_report(capsys):
    rc = main(["tune", "lv5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "k = k_d / sigma2" in out
    assert "7.236" in out
    assert "PASS" in out


def test_missing_scenario_exits_2(capsys):
    assert main(["simulate", "/no/such/file.scn"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[bases]\ns_base 100e3 VA\n")
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "missing" in err


@pytest.mark.parametrize("flag, value", [("--sample-ms", "0"), ("--sample-ms", "-10"),
                                         ("--rel-tol", "0"), ("--t-end", "nan")])
def test_bad_simulate_override_exits_2(tmp_path, capsys, flag, value):
    assert main(["simulate", "lv5", flag, value, "--out-dir", str(tmp_path)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "lv5_timeseries.csv").exists()


def test_bad_ratios_exits_2(capsys):
    for ratios in ("a,b", "nan", "-0.1", "inf", "0.1,-inf"):
        assert main(["stability", "lv5", "--ratios", ratios]) == 2, ratios
        captured = capsys.readouterr()
        assert "--ratios must be comma-separated nonnegative finite numbers" in captured.err
        assert captured.out == ""


def test_no_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_stability_seed_option_removed(capsys):
    """The LMI search is deterministic; --seed is an unknown option, not a no-op."""
    with pytest.raises(SystemExit) as exc:
        main(["stability", "lv5", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
