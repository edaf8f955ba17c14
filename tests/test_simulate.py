"""Time-domain simulator: events, sampling, conservation, CSV output."""

import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgshare as mg
import mgshare.simulate as sim
from mgshare.controller import ClosedLoop
from mgshare.simulate import CSV_HEADER, _check_containment

# the Case-1 trajectory every 100 ms, seed0_V and seed0_q_ratio (501 x 5 each)
REFERENCE = Path(__file__).resolve().parent / "data" / "case1-reference.npz"
CSV_CHANNELS = ("theta", "omega_dev", "f", "v", "lam", "zeta",
                "V", "P", "Q", "p_ratio", "q_ratio", "rho")


def test_sampling_grid(lv5):
    """The grid starts at 0, steps by sample_ms and ends at or before t_end."""
    for t_end, sample_ms, t_last in (
        (50.0, 10.0, 50.0),
        (1.0, 250.0, 1.0),
        (0.3, 100.0, 0.3),      # 0.3 / 0.1 rounds to 2.9999999999999996
        (1.0, 600.0, 0.6),      # sample_ms does not divide t_end
    ):
        ts = mg.simulate(replace(lv5, t_end=t_end, sample_ms=sample_ms, events=()))
        assert ts.t.size == round(t_last * 1000 / sample_ms) + 1
        assert ts.t[0] == 0.0 and ts.t[-1] == pytest.approx(t_last)
        assert ts.t[-1] <= t_end + 1e-12
        assert np.allclose(np.diff(ts.t), sample_ms / 1000)
        assert ts.V.shape == (ts.t.size, lv5.params.n)


@pytest.mark.parametrize("events", [
    (),
    (mg.Event(time=5.0, kind="scale-load", bus=2, factor=0.5),
     mg.Event(time=12.0, kind="scale-load", bus=4, factor=1.1)),
    (mg.Event(time=5.0, kind="activate"),),
], ids=["no-events", "load-steps", "activate"])
def test_simulate_holds_one_copy_of_the_trajectory(lv5, events):
    """Samples are written in place: the peak traced memory of a run stays
    within 1.35x the arrays of the TimeSeries it returns (1.31x measured
    with no events, where one power-flow batch covers the whole run)."""
    sc = replace(lv5, t_end=20.0, sample_ms=1.0, events=events)
    tracemalloc.start()
    try:
        ts = mg.simulate(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in vars(ts).values() if isinstance(a, np.ndarray))
    assert ts.t.size == 20001
    assert peak <= 1.35 * held, peak / held


def test_mode_switches_at_activation(case1_timeseries):
    ts = case1_timeseries
    assert np.all(ts.mode[ts.t < 10.0] == 0)
    assert np.all(ts.mode[ts.t >= 10.0] == 1)


def test_segments_match_events(case1_timeseries):
    assert case1_timeseries.segment_starts == [0.0, 10.0, 25.0, 40.0]


def test_case1_matches_stored_reference(case1_timeseries):
    """Case-1 agrees with the stored 100 ms reference trajectory to 1e-7 in V and Q/S."""
    ts = case1_timeseries
    with np.load(REFERENCE) as ref:
        assert np.abs(ts.V[::10] - ref["seed0_V"]).max() <= 1e-7
        assert np.abs(ts.q_ratio[::10] - ref["seed0_q_ratio"]).max() <= 1e-7


def test_case1_integration_cost(lv5, monkeypatch):
    """A stiff integrator needs a few thousand RHS calls; an explicit one needs ~230k."""
    solve_ivp = sim.solve_ivp
    nfev = []

    def counting_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(sim, "solve_ivp", counting_solve_ivp)
    mg.simulate(lv5)
    assert len(nfev) == 4
    assert sum(nfev) < 10_000


def test_containment_check_on_accepted_steps(lv5, lv5_reduced):
    """A proposed-mode step with V at v_max raises at that step's time; droop is unchecked."""
    n = lv5.params.n
    y = np.zeros((5 * n, 4))
    y[2 * n + 3, 2] = 1.0          # tanh(v/Delta) rounds to 1: V == v_max
    sol = SimpleNamespace(t=np.array([0.0, 0.1, 0.25, 0.4]), y=y)
    _check_containment(ClosedLoop("droop", lv5.params, lv5_reduced, lv5.graph), sol)
    with pytest.raises(mg.SimulationError) as err:
        _check_containment(ClosedLoop("proposed", lv5.params, lv5_reduced, lv5.graph), sol)
    assert err.value.time == 0.25


@pytest.mark.parametrize("error, wrapped", [(RuntimeError, False), (mg.NetworkDataError, True)])
def test_only_network_data_errors_become_simulation_errors(lv5, monkeypatch, error, wrapped):
    """kron_reduce reports bad data as NetworkDataError, a SimulationError here; other errors pass."""
    def failing_kron_reduce(*args):
        raise error("stub")

    monkeypatch.setattr(sim, "kron_reduce", failing_kron_reduce)
    with pytest.raises(Exception) as err:
        mg.simulate(replace(lv5, t_end=1.0, events=()))
    if wrapped:
        assert type(err.value) is mg.SimulationError
        assert str(err.value) == "network re-reduction failed: stub"
        assert type(err.value.__cause__) is error
    else:
        assert type(err.value) is error and str(err.value) == "stub"


def test_time_series_compares_by_value(lv5):
    """Two runs of one scenario are equal, a run on another grid is not, and hash() is refused."""
    s = replace(lv5, t_end=1.0, events=())
    ts = mg.simulate(s)
    assert ts == mg.simulate(s)
    assert ts != mg.simulate(replace(s, sample_ms=5.0))
    with pytest.raises(TypeError, match="unhashable type: 'TimeSeries'"):
        hash(ts)


def test_droop_phase_reaches_droop_equilibrium(lv5, lv5_reduced):
    ts = mg.simulate(replace(lv5, t_end=15.0, events=()))
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="droop")
    assert np.abs(ts.V[-1] - eq.V).max() <= 1e-6
    assert np.abs((ts.theta[-1] - ts.theta[-1][0]) - eq.theta).max() <= 1e-6


def test_voltage_continuous_at_activation(case1_timeseries):
    ts = case1_timeseries
    i = ts.index_at(10.0)
    assert np.abs(ts.V[i] - ts.V[i - 1]).max() <= 1e-4


def test_lambda_seeded_from_ratio_at_activation(case1_timeseries):
    ts = case1_timeseries
    i = ts.index_at(10.0)
    assert np.abs(ts.lam[i] - ts.q_ratio[i]).max() <= 1e-4
    assert np.abs(ts.zeta[i]).max() <= 1e-6


def test_containment_on_samples(case1_timeseries):
    ts = case1_timeseries
    sel = ts.mode == 1
    assert np.all(ts.V[sel] > ts.v_min[sel])
    assert np.all(ts.V[sel] < ts.v_max[sel])


def test_zeta_sum_conserved_between_events(case1_timeseries):
    ts = case1_timeseries
    z = ts.zeta.sum(axis=1)
    bounds = ts.segment_starts + [ts.t[-1] + 1]
    for a, b in zip(bounds, bounds[1:]):
        w = ts.window(a, b - 1e-9)
        if w.size:
            assert np.abs(z[w] - z[w[0]]).max() <= 1e-8


def test_noop_event_is_exactly_idempotent(lv5):
    """Scaling a load by its current factor must not perturb the trajectory."""
    base = replace(lv5, t_end=8.0, events=())
    noop = replace(lv5, t_end=8.0,
                   events=(mg.Event(time=4.0, kind="scale-load", bus=3, factor=1.0),))
    a, b = mg.simulate(base), mg.simulate(noop)
    assert np.abs(a.V - b.V).max() <= 1e-12
    assert np.abs(a.theta - b.theta).max() <= 1e-12
    assert b.segment_starts == [0.0]


def _limits(v_min, v_max, ibr=None, t=0.0):
    return mg.Event(time=t, kind="set-limits", v_min=v_min, v_max=v_max, ibr=ibr)


ACTIVATE = mg.Event(time=2.0, kind="activate")
STEP = mg.Event(time=4.0, kind="scale-load", bus=5, factor=0.2)


def _events(*events):
    return lambda sc: replace(sc, events=events)


@pytest.mark.parametrize("events, without, starts", [
    ((_limits(0.97, 1.03), ACTIVATE),
     lambda sc: replace(sc, params=sc.params.with_limits(0.97, 1.03), events=(ACTIVATE,)),
     [0.0, 2.0]),
    ((ACTIVATE, mg.Event(time=6.0, kind="scale-load", bus=5, factor=0.2)), _events(ACTIVATE),
     [0.0, 2.0]),
    ((ACTIVATE, mg.Event(time=3.0, kind="activate"), STEP), _events(ACTIVATE, STEP),
     [0.0, 2.0, 4.0]),
    ((ACTIVATE, _limits(0.95, 1.05, t=3.0), _limits(1.0, 1.05, ibr=1, t=4.0)),
     _events(ACTIVATE, _limits(1.0, 1.05, ibr=1, t=4.0)), [0.0, 2.0, 4.0]),
    ((_limits(0.97, 1.03, t=1.0), _limits(0.97, 1.03, ibr=2, t=1.5), ACTIVATE),
     _events(_limits(0.97, 1.03, t=1.0), ACTIVATE), [0.0, 1.0, 2.0]),
], ids=["event-at-0", "effective-event-at-t_end", "repeated-activate", "unchanged-set-limits",
        "set-limits-in-droop"])
def test_edge_timelines(lv5, events, without, starts):
    """Events at t = 0 fold into the first segment, and an event at t_end or one
    that leaves the run state unchanged starts none: the run is bitwise equal to
    ``without``, the scenario without them (an event at t = 0 moved into it)."""
    sc = replace(lv5, t_end=6.0, events=events)
    ts, ref = mg.simulate(sc), mg.simulate(without(sc))
    assert ts.segment_starts == ref.segment_starts == starts
    for name, a in vars(ts).items():
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, getattr(ref, name)), name


def test_load_step_moves_the_system(case1_timeseries):
    ts = case1_timeseries
    before = ts.V[ts.index_at(24.9)]
    after = ts.V[ts.index_at(27.0)]
    assert np.abs(after - before).max() > 1e-3


def test_frequency_channel(case1_timeseries, lv5):
    ts = case1_timeseries
    f_nom = lv5.network.bases.f_nom
    assert np.allclose(ts.f, f_nom + ts.omega_dev / (2 * np.pi), atol=1e-12)
    # loaded microgrid droops below nominal
    assert np.all(ts.f[ts.index_at(20.0)] < f_nom)


def test_active_sharing_proportional_on_trajectory(case1_timeseries):
    """P_i/S_i is common to all units once each phase settles, in droop and proposed mode."""
    ts = case1_timeseries
    for t in (9.0, 24.0, 39.0, 49.0):
        p_ratio = ts.p_ratio[ts.index_at(t)]
        assert p_ratio.max() - p_ratio.min() <= 1e-4, t


def test_set_limits_remaps_state_continuously(lv5):
    events = (
        mg.Event(time=5.0, kind="activate"),
        mg.Event(time=10.0, kind="set-limits", v_min=1.01, v_max=1.05),
    )
    ts = mg.simulate(replace(lv5, t_end=12.0, events=events))
    i = ts.index_at(10.0)
    # voltages that were already inside the new band do not jump
    inside = ts.V[i - 1] > 1.0101
    if inside.any():
        assert np.abs(ts.V[i][inside] - ts.V[i - 1][inside]).max() <= 1e-3
    assert np.all(ts.v_max[i] == 1.05) and np.all(ts.v_min[i] == 1.01)
    assert np.all(ts.v_min[i - 1] == 0.95)


def test_limit_change_holds_voltage(lv5):
    """A proposed-mode limit change re-maps v onto the new band: V is continuous
    across the boundary when the new band holds every voltage."""
    events = (mg.Event(time=2.0, kind="activate"),
              mg.Event(time=4.0, kind="set-limits", v_min=0.94, v_max=1.07))
    ts = mg.simulate(replace(lv5, t_end=5.0, events=events))
    i = ts.index_at(4.0)
    assert ts.segment_starts == [0.0, 2.0, 4.0] and ts.v_max[i - 1, 0] == 1.05
    assert np.abs(ts.V[i] - ts.V[i - 1]).max() <= 1e-4


def test_per_ibr_limit_event(lv5):
    events = (
        mg.Event(time=5.0, kind="activate"),
        mg.Event(time=8.0, kind="set-limits", v_min=0.97, v_max=1.03, ibr=2),
    )
    ts = mg.simulate(replace(lv5, t_end=10.0, events=events))
    i = ts.index_at(9.0)
    assert ts.v_min[i][1] == 0.97 and ts.v_min[i][0] == 0.95


def test_csv_output(tmp_path, case1_timeseries):
    """Every row equals a per-value .12g rendering, sample-major, with integer ibr ids."""
    ts = case1_timeseries
    path = tmp_path / "ts.csv"
    ts.to_csv(path)
    expected = [",".join(CSV_HEADER)]
    for s in range(ts.t.size):
        for i in range(ts.n):
            expected.append(",".join(
                [format(float(ts.t[s]), ".12g"), str(i + 1)]
                + [format(float(getattr(ts, c)[s, i]), ".12g") for c in CSV_CHANNELS]
            ))
    assert len(expected) == 1 + 5001 * 5
    text = path.read_text()
    assert text.endswith("\n")
    got = text[:-1].split("\n")
    assert len(got) == len(expected)
    bad = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert bad is None, f"CSV line {bad + 1}: {got[bad]!r} != {expected[bad]!r}"


def _csv_values(xs):
    """Render xs through the CSV kernel as a one-column table, one value per line."""
    return sim._csv_rows(np.asarray(xs, dtype=float).reshape(-1, 1)).decode().split("\n")[:-1]


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.floats(),                                      # NaN, +-inf, subnormals, signed zeros
    st.integers(0, 2**64 - 1).map(_from_bits),        # random bit patterns
    st.floats(1e-12, 1e13), st.floats(-1e13, -1e-12),   # the fast path and its edges
), min_size=1, max_size=64))
def test_csv_values_match_format_on_any_double(xs):
    assert _csv_values(xs) == [format(x, ".12g") for x in xs]


def test_csv_values_match_format_on_edge_cases():
    xs = [0.0, 5e-324,
          0.5, 2.5, 1.0000000000005, 123456789012.5, 999999999999.5,   # halfway values
          9.99999999999995e-5, 99999999999.95,                         # carry to the next exponent
          # decimal ties whose scaled product rounds to the other side of the tie
          0.1577929935805, 8.830796520945, 5530.275689985, 8.271467107625e-11]
    for k in range(-13, 14):
        for base in (float(f"1e{k}") * f for f in (1 - 5e-13, 1.0, 1 + 5e-13)):
            x = base
            for _ in range(3):
                x = np.nextafter(x, 0.0)
            for _ in range(7):                        # three nextafter steps either side
                xs.append(float(x))
                x = np.nextafter(x, np.inf)
    xs += [-x for x in xs]
    assert _csv_values(xs) == [format(x, ".12g") for x in xs]


def _savetxt_oracle(ts, path) -> bytes:
    """The CSV of ``ts`` as np.savetxt(fmt="%.12g") writes it."""
    cols = [np.repeat(ts.t, ts.n), np.tile(np.arange(1.0, ts.n + 1), ts.t.size)]
    cols += [getattr(ts, c).ravel() for c in CSV_CHANNELS]
    np.savetxt(path, np.column_stack(cols), fmt="%.12g", delimiter=",",
               header=",".join(CSV_HEADER), comments="")
    return path.read_bytes()


@pytest.mark.parametrize("t_end, n_samples", [(1.0, 1001), (5e-4, 1)])
def test_csv_matches_savetxt_oracle(tmp_path, lv5, monkeypatch, t_end, n_samples):
    """to_csv is byte-identical to np.savetxt(fmt="%.12g") at the default block
    size, by the caller alone and with a helper: over two full blocks and a
    partial one (5,005 rows = 2 x 2,048 + 909), and for one sample."""
    ts = mg.simulate(replace(lv5, t_end=t_end, sample_ms=1.0, events=()))
    assert ts.t.size == n_samples
    assert (n_samples * ts.n) % sim._CSV_BLOCK_ROWS != 0
    oracle = _savetxt_oracle(ts, tmp_path / "oracle.csv")
    for cpus in (1, 2):
        monkeypatch.setattr(sim, "_cpus", lambda c=cpus: c)
        ts.to_csv(tmp_path / "ts.csv")
        assert (tmp_path / "ts.csv").read_bytes() == oracle, f"{cpus} CPUs"


@pytest.mark.parametrize("cpus", [1, 2])
def test_csv_blocks_stay_in_row_order(tmp_path, lv5, monkeypatch, cpus):
    """Hundreds of small blocks, formatted by the caller alone or with a helper
    thread under a short switch interval, are written in row order."""
    ts = mg.simulate(replace(lv5, t_end=1.0, sample_ms=1.0, events=()))
    monkeypatch.setattr(sim, "_CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(sim, "_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ts.to_csv(tmp_path / "ts.csv")
    finally:
        sys.setswitchinterval(interval)
    assert ts.t.size * ts.n // 7 > 700
    assert (tmp_path / "ts.csv").read_bytes() == _savetxt_oracle(ts, tmp_path / "oracle.csv")


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_csv_formatter_error_propagates(tmp_path, lv5, monkeypatch, where):
    """An error while formatting a block, in either thread, leaves to_csv, and
    no helper thread outlives the call."""
    ts = mg.simulate(replace(lv5, t_end=0.1, sample_ms=1.0, events=()))
    rows = sim._csv_rows

    def failing(X):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"{where} block")
        return rows(X)

    monkeypatch.setattr(sim, "_CSV_BLOCK_ROWS", 64)
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    monkeypatch.setattr(sim, "_csv_rows", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{where} block"):
        ts.to_csv(tmp_path / "ts.csv")
    assert threading.active_count() == threads


def test_event_validation():
    with pytest.raises(mg.ScenarioFormatError):
        mg.Event(time=1.0, kind="scale-load", bus=None, factor=0.5)
    with pytest.raises(mg.ScenarioFormatError):
        mg.Event(time=1.0, kind="noop")


def test_scenario_validation(lv5):
    with pytest.raises(mg.ScenarioFormatError, match="strictly increasing"):
        replace(lv5, events=(mg.Event(time=5.0, kind="activate"),
                             mg.Event(time=5.0, kind="scale-load", bus=1, factor=0.5)))
    with pytest.raises(mg.ScenarioFormatError, match="within"):
        replace(lv5, events=(mg.Event(time=99.0, kind="activate"),))
    with pytest.raises(mg.ScenarioFormatError, match="unknown bus"):
        replace(lv5, events=(mg.Event(time=5.0, kind="scale-load", bus=9, factor=0.5),))
    with pytest.raises(mg.ScenarioFormatError, match="event at t=5.0: unknown IBR 6"):
        replace(lv5, events=(mg.Event(time=5.0, kind="set-limits", v_min=0.96, v_max=1.04, ibr=6),))
    with pytest.raises(mg.ScenarioFormatError, match="unknown mode 'fast'"):
        replace(lv5, initial_mode="fast")
    with pytest.raises(mg.ScenarioFormatError, match=r"graph \(4\) and params \(5\) must match"):
        replace(lv5, graph=mg.CommGraph.ring(4))
    params4 = replace(lv5.params, s_rated=np.ones(4), m_omega=1.57, m_v=0.05, v_min=0.95, v_max=1.05)
    with pytest.raises(mg.ScenarioFormatError, match=r"graph \(5\) and params \(4\) must match"):
        replace(lv5, params=params4)
    for name, value in (("sample_ms", 0.0), ("sample_ms", -10.0), ("sample_ms", np.nan),
                        ("sample_ms", np.inf), ("rel_tol", 0.0), ("rel_tol", -1e-7),
                        ("t_end", 0.0), ("t_end", np.nan), ("t_end", np.inf)):
        with pytest.raises(mg.ScenarioFormatError, match=f"{name} must be positive and finite"):
            replace(lv5, **{name: value})
    for mode, name, value, match in (
        ("droop", "initial_theta", np.zeros(3), r"initial_theta needs 5 finite values .* \(3,\)"),
        ("droop", "initial_theta", np.full(5, np.nan), "initial_theta needs 5 finite values"),
        ("droop", "initial_state", np.zeros(16), r"initial_state needs 15 .* \(16,\)"),
        ("droop", "initial_state", np.zeros(25), r"needs 15 finite values \(the droop-mode state\)"),
        ("proposed", "initial_state", np.zeros(15), r"needs 25 finite values \(the proposed-mode"),
        ("proposed", "initial_state", np.r_[np.zeros(24), np.nan], "initial_state needs 25 finite"),
    ):
        with pytest.raises(mg.ScenarioFormatError, match=match):
            replace(lv5, initial_mode=mode, **{name: value})


def test_window_and_index(case1_timeseries):
    ts = case1_timeseries
    w = ts.window(22.0, 25.0)
    assert ts.t[w[0]] >= 22.0 and ts.t[w[-1]] <= 25.0
    with pytest.raises(ValueError):
        ts.index_at(99.0)


def test_detect_saturated_and_sharing_error(case1_timeseries):
    sat = mg.detect_saturated_set(case1_timeseries, 38.0)
    assert sat  # nonempty under the light-load interval
    err = mg.sharing_error(case1_timeseries, 24.0)
    assert err.shape == (5,)
    assert np.all(err >= 0)


def test_sharing_error_is_the_distance_from_the_mean():
    """Q/S values 0.1 and 0.3 lie 0.1 either side of their mean 0.2."""
    one = np.zeros((1, 2))
    ts = sim.TimeSeries(t=np.zeros(1), mode=np.zeros(1, dtype=int),
                        **{name: one for name in sim._STATE_CHANNELS if name != "q_ratio"},
                        q_ratio=np.array([[0.1, 0.3]]))
    assert mg.sharing_error(ts, 0.0) == pytest.approx([0.1, 0.1], abs=1e-15)
