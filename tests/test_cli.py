"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import math
import re
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest

from mgshare import cli, serialize_scenario, stability
from mgshare.cli import main
from mgshare.errors import ScenarioFormatError
from mgshare.scenario_io import bundled_scenario_path, parse_scenario_text
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


def test_steady_state_prints_the_api_equilibrium(lv5, lv5_equilibrium, capsys):
    """The Hz and Q/S lines are the API's omega_syn_dev / 2 pi and Q / S_rated."""
    eq = lv5_equilibrium
    assert main(["steady-state", "lv5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    hz = eq.omega_syn_dev / (2 * math.pi)
    assert f"sync frequency deviation  : {hz:+.5f} Hz" in lines
    q_ratio = np.array2string(eq.Q / lv5.params.s_rated, precision=5)
    assert f"Q ratio                   : {q_ratio}" in lines


def test_steady_state_no_operating_point_exits_1(lv5_overloaded, tmp_path, capsys):
    path = tmp_path / "overloaded.scn"
    path.write_text(serialize_scenario(lv5_overloaded))
    assert main(["steady-state", str(path)]) == 1
    assert "error: Newton did not converge" in capsys.readouterr().err


def test_steady_state_droop(capsys):
    assert main(["steady-state", "lv5", "--mode", "droop"]) == 0
    assert "equilibrium (droop)" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_stability_report(capsys, name):
    rc = main(["stability", name, "--ratios", "0.1,0.01,0"])
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


@pytest.mark.parametrize("args, edit, rc, line", [
    (["--rocof", "0.1"], ("", ""), 0,
     "warning: tau_v = 25 s is outside the 1-10 s voltage response range of IEEE 1547"),
    ([], ("tau_d 0.1\n", "tau_d 0.05\n"), 1,
     "  violated: tau_d >= 10 * tau_p  (slow dual vs primal filter)"),
])
def test_tune_prints_warnings_and_violations(tmp_path, capsys, args, edit, rc, line):
    path = tmp_path / "lv5.scn"
    text = bundled_scenario_path("lv5").read_text()
    assert edit[0] in text
    path.write_text(text.replace(*edit))
    assert main(["tune", str(path), *args]) == rc
    assert line in capsys.readouterr().out.splitlines()


def test_stability_without_certificate_exits_1(monkeypatch, capsys):
    solve_lmi = stability.solve_lmi
    monkeypatch.setattr(stability, "solve_lmi",
                        lambda blocks, beta: replace(solve_lmi(blocks, beta), feasible=False))
    assert main(["stability", "lv5"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("LMI certificate           : INFEASIBLE (margin ")
    assert out.endswith("\nno certificate found; the sweep above is the empirical fallback\n")


def test_module_entry_point(monkeypatch, capsys):
    """``python -m mgshare.cli`` exits with main's return code. It runs here through
    runpy, as ``-m`` does, so that a tracer in this process sees it."""
    monkeypatch.setattr(sys, "argv", ["mgshare", "tune", "lv5"])
    monkeypatch.delitem(sys.modules, "mgshare.cli")     # runpy warns on a module already imported
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("mgshare.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "scenario gain validation  : PASS" in capsys.readouterr().out


def test_missing_scenario_exits_2(tmp_path, capsys, monkeypatch):
    """A file that cannot be read or written is bad input: exit 2 with a message, no traceback."""
    assert main(["simulate", "/no/such/file.scn"]) == 2
    assert "error" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes("# café\n".encode("latin-1") + bundled_scenario_path("lv5").read_bytes())
    for path in (tmp_path, latin1):
        assert main(["steady-state", str(path)]) == 2, path
        assert f"error: cannot read scenario file {path}" in capsys.readouterr().err

    def no_simulate(*_args):
        raise AssertionError("simulated before the output directory was made")

    monkeypatch.setattr("mgshare.simulate.simulate", no_simulate)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["simulate", "lv5", "--out-dir", str(a_file)]) == 2
    assert f"error: cannot create output directory {a_file}" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[bases]\ns_base 100e3 VA\n")
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "missing" in err


@pytest.mark.parametrize("old, new, match", [
    ("1 1.10 0.95 1.05", "1 1.10 1.05 0.95", "need v_min < v_max"),
    ("tau_v 1\n", "tau_v 0\n", "tau_v must be positive"),
    ("k 7.24", "k -1", "k must be positive"),
    ("k 7.24", "k abc", "k must be a number"),
    ("5 1\n\n[controller-gains]", "5 1\n1 1\n\n[controller-gains]", "self-loop"),
    ("1 2 0.20 0.30", "1 2 -0.20 0.30", "negative resistance"),
    ("1 2 0.20 0.30", "1 2 0 0", "zero impedance"),
    ("1 2\n2 3\n3 4\n4 5\n5 1\n", "1 2\n3 4\n4 5\n5 3\n", "graph is disconnected"),
    ("rel_tol 1e-7\n", "rel_tl 1e-3\n", "line 74: simulation entries are 'key value'"),
    ("f_nom 50 Hz\n", "f_nom 50 Hz\nfoo 3\n", "line 8: bases entries are 'key value'"),
    ("s_base 100e3 VA", "s_base 100 kVA", "line 5: s_base takes unit VA, got 'kVA'"),
    ("[ibrs]", "[ibrs] unit=ohm", "line 40: [ibrs] takes no unit, got 'unit=ohm'"),
    ("10 activate", "nan activate", "line 68: event time must be a finite number, got 'nan'"),
    ("1 1.10 0.95 1.05", "1 nan 0.95 1.05", "line 42: s_rated must be a finite number"),
    ("40 scale-load 5 1.0", "40 scale-load 5 -1",
     "event at t=40.0: scale-load factor must be finite and nonnegative"),
    ("t_end 50\n", "t_end 50\nt_end 45\n", "line 74: repeated key t_end in [simulation]"),
    ("[connectors] unit=ohm", "[connectors] unit=pu",
     "lines and connectors must use the same impedance unit"),
    ("5 load", "6 load", "bus ids must be 1..n_bus without duplicates or gaps"),
    ("5 1.30 0.95 1.05", "6 1.30 0.95 1.05", "ibr ids must be 1..n without duplicates or gaps"),
    ("4 5 0.15 0.22", "4 6 0.15 0.22", "line (4,6) references unknown bus 6"),
    ("5 5 0.07 0.20", "5 7 0.07 0.20", "connector of IBR 5 references unknown bus 7"),
    ("5 1\n\n[controller-gains]", "5 6\n\n[controller-gains]",
     "graph edge (5,6) references unknown IBR 6"),
    ("40 scale-load 5 1.0", "40 scale-load 5 1.0\n45 set-limits 0.96 1.04 7",
     "event at t=45.0 references unknown IBR 7"),
    ("[buses]\n1 load", "[buses]\n1.5 load", "line 10: id must be an integer, got '1.5'"),
    ("2 load", "2 sink", "line 11: kind must be load|junction|main, got 'sink'"),
    ("[graph]", "[graph", "line 48: unterminated section header"),
    ("1 2 0.20 0.30", "1 2 0.20", "line 18: lines rows are 'from_bus to_bus r x'"),
], ids=["band", "tau_v", "k-negative", "k-text", "self-loop", "negative-r", "zero-z",
        "disconnected", "unknown-simulation-key", "unknown-bases-key", "bases-unit",
        "unit-on-ibrs", "nan-event-time", "nan-s_rated", "negative-factor", "repeated-key",
        "mixed-impedance-units", "bus-ids", "ibr-ids", "line-bus", "connector-bus",
        "graph-ibr", "set-limits-ibr", "int-text", "bus-kind", "unterminated-header",
        "row-fields"])
def test_invalid_values_are_format_errors(tmp_path, capsys, old, new, match):
    """A value the constructors reject is a ScenarioFormatError: exit 2, no traceback."""
    text = bundled_scenario_path("lv5").read_text()
    assert text.count(old) == 1
    text = text.replace(old, new)
    with pytest.raises(ScenarioFormatError, match=re.escape(match)):
        parse_scenario_text(text)
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["steady-state", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--sample-ms", "0"), ("--sample-ms", "-10"),
                                         ("--rel-tol", "0"), ("--t-end", "nan")])
def test_bad_simulate_override_exits_2(tmp_path, capsys, flag, value):
    assert main(["simulate", "lv5", flag, value, "--out-dir", str(tmp_path)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "lv5_timeseries.csv").exists()


def test_rel_tol_below_the_integrator_floor_exits_2(tmp_path, capsys):
    """solve_ivp would raise such a tolerance to its floor behind a warning."""
    assert main(["simulate", "lv5", "--rel-tol", "1e-20", "--out-dir", str(tmp_path)]) == 2
    assert "rel_tol must be at least 2.22e-14, got 1e-20" in capsys.readouterr().err
    assert not (tmp_path / "lv5_timeseries.csv").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--rocof", "nan", "rocof_star"), ("--rocof", "-1", "rocof_star"),
    ("--delta-f-max", "0", "delta_f_max"), ("--k-d", "inf", "k_d"),
    ("--beta-budget", "0", "beta_error_budget"),
])
def test_bad_tune_option_exits_2(capsys, flag, value, field):
    assert main(["tune", "lv5", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tuning spec field {field} must be positive and finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_steady_state_tol_exits_2(capsys, monkeypatch, value):
    def no_newton(*_args, **_kw):
        raise AssertionError("Newton ran before --tol was checked")

    monkeypatch.setattr(cli, "solve_equilibrium", no_newton)
    assert main(["steady-state", "lv5", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --tol must be positive and finite, got {float(value)}\n"
    assert captured.out == ""


def test_bad_ratios_exits_2(capsys):
    for ratios in ("a,b", "nan", "-0.1", "inf", "0.1,-inf", "", ","):
        assert main(["stability", "lv5", "--ratios", ratios]) == 2, ratios
        captured = capsys.readouterr()
        assert "--ratios must be comma-separated nonnegative finite numbers" in captured.err
        assert captured.out == ""


def test_stability_passes_analysis_errors_through(monkeypatch):
    """A ValueError from inside analyze is not reported as a bad --ratios."""
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(stability, "analyze", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["stability", "lv5"])


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
