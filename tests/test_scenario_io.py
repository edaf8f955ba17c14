"""Scenario format: bundled data fidelity, round-trips, error reporting."""

from dataclasses import replace

import numpy as np
import pytest

import mgshare as mg
from mgshare import scenario_io as sio
from mgshare.errors import ScenarioFormatError

Z_BASE_LV = 220.0**2 / 100e3


def test_lv5_matches_reference_tables(lv5):
    p = lv5.params
    assert np.allclose(p.s_rated, [1.1, 0.6, 0.8, 0.75, 1.3])
    assert np.allclose(p.v_min, 0.95) and np.allclose(p.v_max, 1.05)
    assert np.allclose(p.m_omega, 1.57) and np.allclose(p.m_v, 0.05)
    assert (p.tau_omega, p.tau_v, p.tau_p, p.tau_d) == (0.1, 1.0, 0.01, 0.1)
    assert (p.beta, p.k) == (0.01, 7.24)
    loads = {ld.bus: (ld.s, ld.pf) for ld in lv5.network.loads}
    assert loads[1] == (0.9, 0.85) and loads[5] == (1.0, 0.87)
    # ohm -> pu happened at ingestion
    assert lv5.network.impedance_unit == "pu"
    assert lv5.network.lines[1].r == pytest.approx(0.19 / Z_BASE_LV)
    assert lv5.t_end == 50.0
    kinds = [e.kind for e in lv5.events]
    assert kinds == ["activate", "scale-load", "scale-load"]
    assert [e.time for e in lv5.events] == [10.0, 25.0, 40.0]


def test_lv5_graph_is_unit_ring(lv5):
    A = lv5.graph.adjacency
    assert A.sum() == pytest.approx(10.0)  # 5 edges, weight 1, symmetric
    assert mg.algebraic_connectivity(lv5.graph) == pytest.approx(
        2 - 2 * np.cos(2 * np.pi / 5), abs=1e-12)


def test_mv9_template_parses():
    s = mg.parse_scenario("mv9-template")
    assert s.network.n_bus == 9 and s.params.n == 9
    assert np.allclose(s.params.v_min, 0.98) and np.allclose(s.params.v_max, 1.02)


def test_roundtrip_identity(lv5):
    limits = replace(lv5, events=lv5.events + (
        sio.Event(time=45.0, kind="set-limits", v_min=0.96, v_max=1.04),
        sio.Event(time=48.0, kind="set-limits", v_min=0.97, v_max=1.03, ibr=2),
    ))
    for sc in (lv5, limits):
        again = sio.parse_scenario_text(mg.serialize_scenario(sc), name=sc.name)
        assert again.network == sc.network
        assert again.events == sc.events
        assert again.t_end == sc.t_end and again.rel_tol == sc.rel_tol
        assert np.array_equal(again.graph.adjacency, sc.graph.adjacency)
        for f in ("s_rated", "m_omega", "m_v", "v_min", "v_max"):
            assert np.array_equal(getattr(again.params, f), getattr(sc.params, f))
        for f in ("tau_omega", "tau_v", "tau_p", "tau_d", "beta", "k"):
            assert getattr(again.params, f) == getattr(sc.params, f)


def _gains(lv5, **gains):
    return replace(lv5, params=replace(lv5.params, **gains))


@pytest.mark.parametrize("change, match", [
    (lambda s: _gains(s, m_omega=1.57 * np.arange(1.0, 6.0)), "m_omega"),
    (lambda s: _gains(s, m_v=[0.05, 0.05, 0.05, 0.05, 0.06]), "m_v"),
    (lambda s: replace(s, initial_theta=np.zeros(5)), "initial_theta"),
    (lambda s: replace(s, initial_state=np.zeros(20)), "initial_state"),
    (lambda s: replace(s, out_dir="my out"), "out_dir"),
    (lambda s: replace(s, out_dir="out#1"), "out_dir"),
], ids=["m_omega", "m_v", "initial_theta", "initial_state", "out_dir-space", "out_dir-hash"])
def test_serialize_rejects_what_the_format_cannot_express(lv5, change, match):
    """Serialization raises rather than write a text that parses to a different scenario."""
    with pytest.raises(ScenarioFormatError, match=match):
        mg.serialize_scenario(change(lv5))


def test_unknown_bundled_name():
    with pytest.raises(ScenarioFormatError, match="no bundled scenario"):
        sio.bundled_scenario_path("lv99")


def test_missing_file():
    with pytest.raises(ScenarioFormatError, match="not found"):
        mg.parse_scenario("/nonexistent/path.scn")


def test_unknown_section():
    with pytest.raises(ScenarioFormatError, match="unknown section"):
        sio.parse_scenario_text("[nonsense]\nx 1\n")


def test_data_before_section():
    with pytest.raises(ScenarioFormatError, match="before any section"):
        sio.parse_scenario_text("1 2 3\n")


def test_semantic_errors_all_listed(lv5):
    """Multiple independent mistakes must all appear in one error message."""
    text = mg.serialize_scenario(lv5)
    text = text.replace("[loads] unit=pu\n1 ", "[loads] unit=pu\n9 ")   # unknown bus
    text = text.replace("25.0 scale-load 5", "25.0 scale-load 77")     # unknown event bus
    with pytest.raises(ScenarioFormatError) as err:
        sio.parse_scenario_text(text)
    msg = str(err.value)
    assert "unknown bus 9" in msg
    assert "unknown bus 77" in msg


def test_missing_gain_reported(lv5):
    text = mg.serialize_scenario(lv5).replace("beta 0.01\n", "")
    with pytest.raises(ScenarioFormatError, match="beta"):
        sio.parse_scenario_text(text)


def test_bad_event_kind():
    with pytest.raises(ScenarioFormatError, match="unknown event kind"):
        sio.parse_scenario_text("[events]\n5 explode\n")


def test_non_numeric_field():
    with pytest.raises(ScenarioFormatError, match="must be a number"):
        sio.parse_scenario_text("[lines] unit=ohm\n1 2 abc 0.3\n")


def test_parse_by_path(tmp_path, lv5):
    p = tmp_path / "copy.scn"
    p.write_text(mg.serialize_scenario(lv5))
    s = mg.parse_scenario(p)
    assert s.name == "copy"
    assert s.network == lv5.network
