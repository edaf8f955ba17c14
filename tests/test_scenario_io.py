"""Scenario format: bundled data fidelity, round-trips, error reporting."""

from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgshare as mg
from mgshare import scenario_io as sio
from mgshare.controller import ClosedLoop
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
    # ohm -> pu happened at ingestion, by one division per value
    assert lv5.network.lines[1].r == 0.19 / Z_BASE_LV
    assert lv5.network.connectors[0] == mg.Connector(1, 1, 0.03 / Z_BASE_LV, 0.09 / Z_BASE_LV)
    assert lv5.t_end == 50.0
    kinds = [e.kind for e in lv5.events]
    assert kinds == ["activate", "scale-load", "scale-load"]
    assert [e.time for e in lv5.events] == [10.0, 25.0, 40.0]


def _section_rows(text, section):
    """The number rows of ``[section]`` in ``text``, as floats, in file order."""
    body = text.split(f"[{section}]", 1)[1].split("\n[", 1)[0].splitlines()[1:]
    return [tuple(map(float, ln.split())) for ln in body if ln.strip() and ln[0] != "#"]


def test_parser_units():
    """unit=pu values pass through bitwise; unit=ohm divides by z_base and unit=va by s_base."""
    text = sio.bundled_scenario_path("lv5").read_text()
    pu = text.replace("[lines] unit=ohm", "[lines] unit=pu")
    pu = pu.replace("[connectors] unit=ohm", "[connectors] unit=pu")
    va = text.replace("[loads] unit=pu", "[loads] unit=va")
    net, net_pu, net_va = (sio.parse_scenario_text(t).network for t in (text, pu, va))
    z_base, s_base = Z_BASE_LV, 100e3
    lines, connectors = _section_rows(text, "lines"), _section_rows(text, "connectors")
    assert [astuple(ln)[2:] for ln in net_pu.lines] == [r[2:] for r in lines]
    assert [astuple(c)[2:] for c in net_pu.connectors] == [r[2:] for r in connectors]
    assert [astuple(ln)[2:] for ln in net.lines] == [(r / z_base, x / z_base) for *_, r, x in lines]
    assert [astuple(c)[2:] for c in net.connectors] == [(r / z_base, x / z_base)
                                                        for *_, r, x in connectors]
    loads = _section_rows(text, "loads")
    assert [(ld.s, ld.pf) for ld in net.loads] == [(s, pf) for _, s, pf in loads]
    assert [(ld.s, ld.pf) for ld in net_va.loads] == [(s / s_base, pf) for _, s, pf in loads]
    assert net_va.lines == net.lines and net_pu.loads == net.loads


def test_lv5_graph_is_unit_ring(lv5):
    A = lv5.graph.adjacency
    assert A.sum() == pytest.approx(10.0)  # 5 edges, weight 1, symmetric
    assert lv5.graph.sigma2 == pytest.approx(
        2 - 2 * np.cos(2 * np.pi / 5), abs=1e-12)


def test_mv9_template_parses():
    s = mg.parse_scenario("mv9-template")
    assert s.network.n_bus == 9 and s.params.n == 9
    assert np.allclose(s.params.v_min, 0.98) and np.allclose(s.params.v_max, 1.02)


_POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def _lv5_variants(draw, lv5):
    """lv5 with generated events of every kind, gains and solver and output settings."""
    t_end = draw(st.floats(1e-3, 1e3))
    times = sorted(draw(st.lists(st.floats(0.0, t_end), unique=True, max_size=6)))
    events = []
    for t in times:
        kind = draw(st.sampled_from(["activate", "scale-load", "set-limits"]))
        if kind == "scale-load":
            events.append(sio.Event(t, kind, bus=draw(st.integers(1, 5)),
                                    factor=draw(st.floats(0.0, 10.0))))
        elif kind == "set-limits":
            v_min, v_max = sorted(draw(st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2,
                                                unique=True)))
            events.append(sio.Event(t, kind, v_min=v_min, v_max=v_max,
                                    ibr=draw(st.none() | st.integers(1, 5))))
        else:
            events.append(sio.Event(t, kind))
    params = replace(lv5.params, **{name: draw(_POSITIVE) for name in (
        "m_omega", "m_v", "tau_omega", "tau_v", "tau_p", "tau_d", "k")},
        beta=draw(st.floats(0.0, 1e3)))
    out_dir = draw(st.text(st.characters(exclude_categories=("Z", "C"), exclude_characters="#"),
                           min_size=1, max_size=12))
    return replace(lv5, params=params, events=tuple(events), t_end=t_end,
                   initial_mode=draw(st.sampled_from(["droop", "proposed"])),
                   rel_tol=draw(st.floats(1e-12, 1e-2)), sample_ms=draw(_POSITIVE),
                   out_dir=out_dir)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_roundtrip_identity(lv5, data):
    """parse(serialize(s)) == s, and serialize is a fixed point, on generated lv5 variants."""
    sc = data.draw(_lv5_variants(lv5))
    text = mg.serialize_scenario(sc)
    again = sio.parse_scenario_text(text, name=sc.name)
    assert again == sc
    assert mg.serialize_scenario(again) == text


def test_scenario_value_equality(lv5):
    """Scenarios, and the graphs and arrays inside them, compare by value."""
    assert mg.parse_scenario("lv5") == mg.parse_scenario("lv5")
    assert mg.parse_scenario("lv5") != mg.parse_scenario("mv9-template")
    theta = replace(lv5, initial_theta=np.linspace(0.0, 0.04, 5))
    assert theta == replace(lv5, initial_theta=np.linspace(0.0, 0.04, 5))
    assert theta != lv5 and theta != replace(theta, initial_theta=np.zeros(5))
    assert lv5 != replace(lv5, graph=mg.CommGraph.ring(5, weight=2.0))
    assert (lv5 == "lv5") is False


def _records(lv5):
    """One instance of each of the eleven record types, the frozen dataclasses that hold arrays;
    two scenarios, one with initial_theta and one with initial_state."""
    red = mg.kron_reduce(lv5.network)
    result = mg.analyze(red, lv5.graph, lv5.params, [0.1])
    report = mg.verify_properties(result.equilibrium, lv5.params)
    tuned = mg.tune(mg.TuningSpec(delta_f_max=0.005, rocof_star=2.5), lv5.graph,
                    lv5.params.v_min, lv5.params.v_max)
    model = ClosedLoop("proposed", lv5.params, red, lv5.graph)
    with_theta = replace(lv5, initial_theta=np.zeros(5))
    with_state = replace(lv5, initial_state=np.zeros(15))
    records = (lv5.graph, lv5.params, red, with_theta, with_state, result.equilibrium,
               result.blocks, result.certificate, report, tuned, model, result)
    assert len({type(r) for r in records}) == 11
    return records


def test_value_compared_types_are_unhashable(lv5):
    """Types that compare arrays by value refuse hash() by their own name."""
    for obj in _records(lv5):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(obj).__name__}'"):
            hash(obj)


def test_record_arrays_are_read_only(lv5):
    """Every array field of every record type refuses writes."""
    for obj in _records(lv5):
        arrays = [a for a in (getattr(obj, f.name) for f in fields(obj)) if isinstance(a, np.ndarray)]
        assert arrays, type(obj).__name__
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0


def test_records_keep_their_own_copy_of_a_callers_arrays(lv5):
    """Constructors leave the arrays they are given writable and untied from the record."""
    red = mg.kron_reduce(lv5.network)
    adjacency, G, B = lv5.graph.adjacency.copy(), red.G.copy(), red.B.copy()
    s_rated, v_min = lv5.params.s_rated.copy(), lv5.params.v_min.copy()
    theta, x0 = np.zeros(5), np.zeros(15)
    graph = mg.CommGraph(adjacency)
    net = mg.ReducedNetwork(G=G, B=B)
    params = replace(lv5.params, s_rated=s_rated, v_min=v_min)
    with_theta = replace(lv5, initial_theta=theta)
    with_state = replace(lv5, initial_state=x0)
    for given, stored in ((adjacency, graph.adjacency), (G, net.G), (B, net.B),
                          (s_rated, params.s_rated), (v_min, params.v_min),
                          (theta, with_theta.initial_theta), (x0, with_state.initial_state)):
        kept = stored.copy()
        given += 1.0    # raises ValueError if the constructor froze the caller's array
        assert np.array_equal(stored, kept)


def test_closed_loop_and_analysis_compare_by_value(lv5):
    """Records built from equal inputs are equal, and differ when an input does."""
    red, g = mg.kron_reduce(lv5.network), lv5.graph
    model = ClosedLoop("proposed", lv5.params, red, g)
    assert model == ClosedLoop("proposed", lv5.params, mg.kron_reduce(lv5.network),
                               mg.CommGraph(g.adjacency.copy()))
    assert model != ClosedLoop("droop", lv5.params, red, g)
    assert model != ClosedLoop("proposed", lv5.params.with_limits(0.96, 1.05), red, g)
    assert model != ClosedLoop("proposed", lv5.params, red, mg.CommGraph.ring(5, weight=2.0))
    assert all(f", {name}=" not in repr(model) for name in ("tau", "at", "M", "K"))
    result = mg.analyze(red, lv5.graph, lv5.params, [0.1, 0])
    assert result == mg.analyze(mg.kron_reduce(lv5.network), lv5.graph, lv5.params, [0.1, 0])
    assert result != mg.analyze(red, lv5.graph, lv5.params, [0.1])
    assert result != mg.analyze(red, lv5.graph, lv5.params.with_limits(0.96, 1.05), [0.1, 0])


def _gains(lv5, **gains):
    return replace(lv5, params=replace(lv5.params, **gains))


@pytest.mark.parametrize("change, match", [
    (lambda s: _gains(s, m_omega=1.57 * np.arange(1.0, 6.0)), "m_omega"),
    (lambda s: _gains(s, m_v=[0.05, 0.05, 0.05, 0.05, 0.06]), "m_v"),
    (lambda s: replace(s, initial_theta=np.zeros(5)), "initial_theta"),
    (lambda s: replace(s, initial_state=np.zeros(15)), "initial_state"),
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


@pytest.mark.parametrize("old, new, section", [
    # a second [graph] would add a sixth edge to the ring
    ("[controller-gains]", "[graph]\n1 3\n\n[controller-gains]", "graph"),
    # line 1 in per unit, then the other rows in ohm: the ohm section would
    # divide the per-unit row by z_base again
    ("[lines] unit=ohm\n# from to r x\n1 2 0.20 0.30\n",
     "[lines] unit=pu\n1 2 0.413 0.620\n[lines] unit=ohm\n", "lines"),
], ids=["graph", "lines"])
def test_repeated_section_rejected(old, new, section):
    text = sio.bundled_scenario_path("lv5").read_text()
    assert text.count(old) == 1
    lines = text.replace(old, new).splitlines()
    lineno = max(i for i, ln in enumerate(lines, 1) if ln.startswith(f"[{section}]"))
    with pytest.raises(ScenarioFormatError, match=rf"line {lineno}: repeated section \[{section}\]"):
        sio.parse_scenario_text("\n".join(lines))


@pytest.mark.parametrize("old, new", [
    ("[graph]\n", "[graph]\n2 1 5.0\n"),    # the weight 5.0 would be lost to 1 2's default 1.0
    ("[graph]\n", "[graph]\n1 2\n"),
    ("5 1\n", "5 1\n2 1 5.0\n"),
], ids=["reversed-before", "same-before", "reversed-after"])
def test_repeated_graph_edge_rejected(old, new):
    """An edge listed twice, in either order, is a semantic error, not a silent overwrite."""
    text = sio.bundled_scenario_path("lv5").read_text()
    assert text.count(old) == 1
    with pytest.raises(ScenarioFormatError, match=r"- graph edge \(1,2\) listed twice$"):
        sio.parse_scenario_text(text.replace(old, new))


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


def test_inverted_set_limits_event_rejected():
    """An inverted band is a parse error, not a crash when the event is applied."""
    text = sio.bundled_scenario_path("lv5").read_text()
    text = text.replace("40 scale-load 5 1.0\n", "40 scale-load 5 1.0\n45 set-limits 1.05 0.95\n")
    with pytest.raises(ScenarioFormatError, match="v_min < v_max"):
        sio.parse_scenario_text(text)
    with pytest.raises(ScenarioFormatError, match="v_min < v_max"):
        sio.Event(time=2.0, kind="set-limits", v_min=1.0, v_max=1.0)


def test_event_rejects_nan_time_and_foreign_fields():
    with pytest.raises(ScenarioFormatError, match="t=nan: time must be finite"):
        sio.Event(time=float("nan"), kind="activate")
    with pytest.raises(ScenarioFormatError, match="activate takes no bus"):
        sio.Event(time=1.0, kind="activate", bus=3)


def test_non_numeric_field():
    with pytest.raises(ScenarioFormatError, match="must be a number"):
        sio.parse_scenario_text("[lines] unit=ohm\n1 2 abc 0.3\n")


def test_parse_by_path(tmp_path, lv5):
    p = tmp_path / "copy.scn"
    p.write_text(mg.serialize_scenario(lv5))
    s = mg.parse_scenario(p)
    assert s.name == "copy"
    assert s.network == lv5.network
