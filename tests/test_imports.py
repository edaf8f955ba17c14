"""Import footprint: analysis and parsing run without scipy; the integrator loads with simulate."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import mgshare as mg

SRC = str(Path(mg.__file__).resolve().parents[1])


def run_fresh(code: str):
    """Run ``code`` in a new interpreter that imports this checkout's mgshare."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_analysis_runs_with_scipy_blocked():
    run_fresh("""
        import sys
        sys.modules["scipy"] = None
        import mgshare as mg
        from mgshare import cli, stability as st
        from mgshare.network import jacobians

        sc = mg.parse_scenario("lv5")
        red = mg.kron_reduce(sc.network)
        eq = mg.solve_equilibrium(red, sc.graph, sc.params, mode="proposed")
        blocks = st.assemble_blocks(jacobians(red, eq.theta, eq.V), sc.graph, sc.params)
        assert st.solve_lmi(blocks, sc.params.beta).feasible
        st.boundary_layer_check(blocks)
        result = st.analyze(red, sc.graph, sc.params, [0.1, 0.0])
        assert result.certificate.feasible and all(a < 0 for _, a in result.sweep)
        for cmd in ("steady-state", "stability", "tune"):
            assert cli.main([cmd, "lv5"]) == 0, cmd
    """)


def test_import_and_parse_leave_scipy_unloaded():
    run_fresh("""
        import sys
        import mgshare as mg
        mg.parse_scenario("lv5")
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)


def test_simulate_submodule_loads_the_integrator():
    """The integrator is imported with the module, never inside a timed first simulate()."""
    run_fresh("""
        import sys
        import types
        import mgshare.simulate as m
        assert "scipy.integrate" in sys.modules
        assert isinstance(m, types.ModuleType) and m is sys.modules["mgshare.simulate"]
    """)


def test_simulate_callable_in_either_import_order():
    body = """
        from dataclasses import replace
        sc = mg.parse_scenario("lv5")
        ts = mg.simulate(replace(sc, t_end=1.0, sample_ms=100.0, events=()))
        assert ts.t.size == 11 and isinstance(ts, mg.TimeSeries)
        assert mg.simulate is sys.modules["mgshare.simulate"]
    """
    run_fresh("import sys\nimport mgshare as mg\n" + textwrap.dedent(body)
              + "import mgshare.simulate as m\nassert m is mg.simulate\n")
    run_fresh("import sys\nimport mgshare.simulate as m\nimport mgshare as mg\n"
              + "assert m is mg.simulate\n" + textwrap.dedent(body))


def test_lazy_names_listed_and_shared():
    assert {"simulate", "TimeSeries", "detect_saturated_set", "sharing_error"} <= set(dir(mg))
    assert set(mg.__all__) <= set(dir(mg))
    assert mg.simulate.Scenario is mg.Scenario and mg.simulate.Event is mg.Event
    assert mg.sharing_error is mg.simulate.sharing_error



def test_every_all_entry_resolves():
    """No module lists a name it does not define; the deleted model copies stay gone."""
    gone = {"reduced_rhs", "lyapunov_value", "integrator_rhs", "consensus_gain_matrix",
            "spectral_abscissa", "kkt_residual", "transform_matrix", "to_per_unit",
            "laplacian", "algebraic_connectivity", "LinearizedModel"}
    modules = [mg] + [importlib.import_module(f"mgshare.{m.name}")
                      for m in pkgutil.iter_modules(mg.__path__)]
    for module in modules:
        listed = getattr(module, "__all__", ())
        assert [n for n in listed if not hasattr(module, n)] == [], module.__name__
        assert not gone & set(listed), module.__name__
