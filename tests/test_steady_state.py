"""Equilibrium solver: gauges, residuals, property verification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mgshare as mg
from mgshare import controller as ctrl
from mgshare import steady_state as ss

from conftest import kkt_residual


def test_residual_small(lv5_equilibrium):
    assert lv5_equilibrium.residual <= 1e-10


def test_gauges_fixed(lv5_equilibrium):
    eq = lv5_equilibrium
    assert eq.theta[0] == 0.0
    assert abs(eq.zeta.sum()) <= 1e-10


def test_equilibrium_satisfies_dynamics(lv5, lv5_reduced, lv5_equilibrium):
    """The closed-loop rhs vanishes at the solution, except theta' = Omega."""
    eq = lv5_equilibrium
    P, Q = mg.power_flow(lv5_reduced, eq.theta, eq.V)
    assert np.allclose(P, eq.P, atol=1e-10) and np.allclose(Q, eq.Q, atol=1e-10)
    model = ctrl.ClosedLoop("proposed", lv5.params, lv5_reduced, lv5.graph)
    f = model.rhs(0.0, np.concatenate([eq.theta, eq.Omega, eq.v, eq.lam, eq.zeta]))
    assert np.array_equal(f[: eq.n], eq.Omega)
    assert np.allclose(f[eq.n:], 0.0, atol=1e-9)


def test_lambda_equals_mean_ratio(lv5_equilibrium):
    """Dual consensus: every lambda entry equals the mean reactive ratio."""
    eq = lv5_equilibrium
    assert np.abs(eq.lam - eq.alpha_Q).max() <= 1e-8
    assert eq.lam.max() - eq.lam.min() <= 1e-8


def test_active_sharing_exact(lv5, lv5_equilibrium):
    p_ratio = lv5_equilibrium.P / lv5.params.s_rated
    assert p_ratio.max() - p_ratio.min() <= 1e-9


def test_alpha_p_is_the_common_active_ratio(lv5, lv5_equilibrium):
    """alpha_P is the P_i/S_i every unit shares (S_i ranges over 0.6-1.3 on lv5)."""
    eq = lv5_equilibrium
    assert np.abs(eq.P / lv5.params.s_rated - eq.alpha_P).max() <= 1e-12


def test_property_report_allows_ten_tol_of_active_spread():
    """The active-ratio spread passes up to 10 tol: 5 tol passes, 20 tol fails."""
    def report(spread):
        return mg.PropertyReport(
            p_ratio_spread=spread, containment_margin_low=0.01, containment_margin_high=0.01,
            sharing_identity_error=np.zeros(0), sharing_bound_slack=np.zeros(0),
            unsaturated=(), saturated=(), tol=1e-6)
    assert report(5e-6).all_pass
    assert not report(20e-6).all_pass


def test_strict_containment(lv5, lv5_equilibrium):
    eq = lv5_equilibrium
    assert np.all(eq.V > lv5.params.v_min) and np.all(eq.V < lv5.params.v_max)


def test_property_report_passes(lv5, lv5_equilibrium):
    report = mg.verify_properties(lv5_equilibrium, lv5.params)
    assert report.all_pass, "\n".join(report.lines())


def test_nominal_saturated_set(lv5_equilibrium):
    """Phasor-model outcome at nominal load, frozen as a regression value."""
    assert lv5_equilibrium.saturated == frozenset({1, 5})


def test_property_report_unit_ids(lv5, lv5_equilibrium):
    """The report lists 1-based unit ids, split by active leakage."""
    report = mg.verify_properties(lv5_equilibrium, lv5.params)
    assert report.saturated == (1, 5)
    assert report.unsaturated == (2, 3, 4)


def test_zeta_sum_pinning(lv5, lv5_reduced):
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params,
                              mode="proposed", zeta_sum=2.5)
    assert eq.zeta.sum() == pytest.approx(2.5, abs=1e-9)
    _check_solution(eq, lv5_reduced, lv5.graph, lv5.params, zeta_sum=2.5)
    # physical outputs are invariant to the conserved quantity's value
    eq0 = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="proposed")
    assert np.abs(eq.V - eq0.V).max() <= 1e-8
    assert np.abs(eq.Q - eq0.Q).max() <= 1e-8


def test_droop_mode(lv5, lv5_reduced):
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="droop")
    assert eq.residual <= 1e-10
    # droop trades sharing accuracy for simplicity: ratios spread widely
    q_ratio = eq.Q / lv5.params.s_rated
    assert q_ratio.max() - q_ratio.min() > 1e-3
    # droop law holds at the fixed point: v = -m_V Q/S with V = 1 + v
    assert np.allclose(eq.v, -lv5.params.m_v * q_ratio, atol=1e-9)
    assert np.allclose(eq.V, 1.0 + eq.v, atol=1e-12)


def test_light_load_equilibrium_moves(lv5, lv5_equilibrium):
    scale = np.ones(5)
    scale[4] = 0.2
    red = mg.kron_reduce(lv5.network, scale)
    eq = mg.solve_equilibrium(red, lv5.graph, lv5.params, mode="proposed")
    assert eq.residual <= 1e-10
    assert np.abs(eq.V - lv5_equilibrium.V).max() > 1e-3
    assert len(eq.saturated) > 0


def test_unknown_mode_rejected(lv5, lv5_reduced):
    with pytest.raises(ValueError):
        mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="magic")


def test_newton_never_reevaluates_a_state(lv5, lv5_reduced, monkeypatch):
    """Each residual evaluation is at a new state: accepted trials are reused."""
    seen = []
    brackets = ctrl.ClosedLoop.brackets

    def recording(self, x):
        seen.append(x.tobytes())
        return brackets(self, x)

    monkeypatch.setattr(ctrl.ClosedLoop, "brackets", recording)
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="proposed")
    assert eq.residual < 1e-11
    assert eq.iterations > 0
    assert len(seen) == len(set(seen))


def _check_solution(eq, red, graph, params, zeta_sum=0.0):
    """The properties, plus the full closed loop and the KKT system at the assembled state."""
    report = mg.verify_properties(eq, params)
    assert report.all_pass, "\n".join(report.lines())
    assert np.abs(eq.lam - eq.alpha_Q).max() <= 1e-8
    assert eq.residual < 1e-11
    model = ctrl.ClosedLoop(eq.mode, params, red, graph)
    f = model.rhs(0.0, np.concatenate([eq.theta, eq.Omega, eq.v, eq.lam, eq.zeta]))
    assert np.abs(f[eq.n:]).max() <= 1e-9
    for part in kkt_residual(graph, params.k, eq.lam, eq.zeta, eq.Q / params.s_rated):
        assert np.abs(part).max() <= 1e-9
    assert eq.zeta.sum() == pytest.approx(zeta_sum, abs=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    scale=st.lists(st.floats(0.2, 1.2), min_size=5, max_size=5),
    shift_lo=st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5),
    shift_hi=st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5),
)
def test_operating_points_solve(lv5, scale, shift_lo, shift_hi):
    """Random loads and per-unit limit bands within 20% of the nominal half-width."""
    p = lv5.params
    params = p.with_limits(p.v_min + np.array(shift_lo) * p.delta,
                           p.v_max + np.array(shift_hi) * p.delta)
    red = mg.kron_reduce(lv5.network, np.array(scale))
    eq = mg.solve_equilibrium(red, lv5.graph, params, mode="proposed")
    _check_solution(eq, red, lv5.graph, params)


def test_saturated_point_past_kink(lv5):
    """A light-load point whose Newton path crosses the leakage kink."""
    params = lv5.params.with_limits(0.948, 1.042)
    red = mg.kron_reduce(lv5.network, np.array([0.76, 0.53, 1.13, 0.54, 0.44]))
    eq = mg.solve_equilibrium(red, lv5.graph, params, mode="proposed")
    _check_solution(eq, red, lv5.graph, params)
    assert eq.saturated  # units that end past their kink, |v| > 3 Delta


@pytest.mark.parametrize("scale, v_min, v_max", [
    ((0.4056821388919341, 1.045529183999304, 0.5124513345125516, 0.9801483370210704,
      0.5046503978818597), 0.9479650617435497, 1.041638750619336),
    ((0.25551210845077627, 1.138132927039621, 0.5414031092987657, 0.30783526271845735,
      0.6756795452687041), 0.9495545938560275, 1.0450453723082804),
    ((0.3385951853985297, 0.32253426587014594, 0.5039700521458028, 1.0567053503219377,
      0.615860353717318), 0.9499658298324496, 1.0450937711552912),
    ((0.6964721866974264, 0.9354764816142895, 0.3274277193212252, 1.0152242362841384,
      0.5985145949131978), 0.9562605339772509, 1.0547370360489965),
])
def test_full_step_with_flat_residual_is_not_stagnation(lv5, scale, v_min, v_max):
    """Two units settle just past their kinks; on the way a full, uncut Newton
    step moves v far while the residual norm falls by less than 0.1%."""
    params = lv5.params.with_limits(v_min, v_max)
    red = mg.kron_reduce(lv5.network, np.array(scale))
    eq = mg.solve_equilibrium(red, lv5.graph, params, mode="proposed")
    _check_solution(eq, red, lv5.graph, params)
    assert len(eq.saturated) == 2


def test_start_on_kink_converges(lv5, lv5_reduced, lv5_equilibrium):
    """Every unit's v starts on its kink (exactly, or one ulp inside or outside it),
    on the side of its solution; round-off off the kink does not cut steps."""
    n = lv5.params.n
    kink = 3.0 * lv5.params.delta
    iterations = []
    for start in (kink, np.nextafter(kink, 0.0), np.nextafter(kink, np.inf)):
        x0 = np.zeros(2 * n + 1)          # [theta_rel, Omega_common, v, c]
        x0[n:2 * n] = start * np.sign(lv5_equilibrium.v)
        eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, initial_guess=x0)
        _check_solution(eq, lv5_reduced, lv5.graph, lv5.params)
        assert np.abs(eq.V - lv5_equilibrium.V).max() <= 1e-8
        iterations.append(eq.iterations)
    assert max(iterations[1:]) <= iterations[0], iterations


# a point's relative offset from a kink: on it, within round-off or 1e-12 of it, or
# anywhere from -3 Delta, through the band, to past +3 Delta
KINK_OFFSET = st.one_of(
    st.sampled_from([0.0, 2.0**-53, -(2.0**-53), 2.0**-52, -(2.0**-52), 1e-12, -1e-12]),
    st.floats(-1e-15, 1e-15), st.floats(-1e-11, 1e-11), st.floats(-2.0, 2.0))


@st.composite
def near_kinks(draw):
    """(v, dv, delta) with v and v + dv each drawn around +3 Delta or -3 Delta per unit,
    and dv then moved by up to two ulps, so v + dv can round onto a kink it passes."""
    n = draw(st.integers(1, 6))
    delta = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))

    def point():
        return np.array([draw(st.sampled_from([3.0, -3.0])) * (1.0 + draw(KINK_OFFSET))
                         for _ in range(n)]) * delta

    v = point()
    dv = point() - v
    for _ in range(draw(st.integers(0, 2))):
        dv = np.nextafter(dv, draw(st.sampled_from([np.inf, -np.inf])))
    return v, dv, delta


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=near_kinks())
# v + dv passes 3 Delta = 0.15000000000000002 by less than half an ulp and rounds onto it
@example(case=(np.array([0.1]), np.array([np.nextafter(3.0 * 0.05 - 0.1, 1.0)]), np.array([0.05])))
def test_kink_step_fast_path_matches_the_search(case):
    """Newton's kink step returns exactly what the full crossing search returns."""
    v, dv, delta = case
    assert ss._kink_step(v, dv, delta) == ss._kink_search(v, dv, delta)


@pytest.mark.parametrize("mode", ["proposed", "droop"])
@pytest.mark.parametrize("n", range(2, 13))
def test_embedding_is_cached_read_only_and_places_the_unknowns(mode, n):
    """E y puts theta_1 = 0, Omega = Omega_common 1, v = v and, proposed, lambda = c 1, zeta = 0."""
    E, fold, rows = ss._embedding(mode, n)
    assert ss._embedding(mode, n)[0] is E and ss._embedding(mode, n)[1] is fold
    for a in (E, fold):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    s, u = ctrl.STATE[mode].at(n), ss.UNKNOWNS[mode].at(n)
    y = np.random.default_rng(n).uniform(0.5, 1.5, u[-1].stop)
    x = E @ y
    assert x[s.theta][0] == 0.0 and np.array_equal(x[s.theta][1:], y[u.theta_rel])
    assert np.array_equal(x[s.Omega], np.repeat(y[u.Omega_common], n))
    assert np.array_equal(x[s.v], y[u.v])
    if mode == "proposed":
        assert np.array_equal(x[s.lam], np.repeat(y[u.c], n))
        assert np.array_equal(x[s.zeta], np.zeros(n))
    assert rows == slice(s.theta.stop, None) and fold.shape == (u[-1].stop, x[rows].size)


@pytest.mark.parametrize("mode, length", [("proposed", 11), ("droop", 10)])
def test_initial_guess_length_checked(lv5, lv5_reduced, mode, length):
    """The guess is [theta_rel, Omega_common, v] plus c in proposed mode: 2n + 1 or 2n."""
    layout = "theta_rel, Omega_common, v" + (", c" if mode == "proposed" else "")
    for bad in (length - 1, length + 1, 4 * lv5.params.n):
        with pytest.raises(ValueError, match=rf"initial_guess must be \[{layout}\] of length {length}"):
            mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params,
                                 initial_guess=np.zeros(bad), mode=mode)
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params,
                              initial_guess=np.zeros(length), mode=mode)
    assert eq.residual < 1e-11


@pytest.mark.parametrize("mode", ["proposed", "droop"])
def test_overload_raises_without_retrying(lv5_overloaded, mode, monkeypatch):
    """Newton fails within max_iter Jacobian solves, with the residual it reached;
    in proposed mode, kink-cut steps that stall end the solve long before that."""
    solves = []
    brackets_jac = ctrl.ClosedLoop.brackets_jac

    def counting(self, x):
        solves.append(1)
        return brackets_jac(self, x)

    monkeypatch.setattr(ctrl.ClosedLoop, "brackets_jac", counting)
    sc = lv5_overloaded
    with pytest.raises(mg.ConvergenceError, match="Newton did not converge") as info:
        mg.solve_equilibrium(mg.kron_reduce(sc.network), sc.graph, sc.params, mode=mode)
    assert info.value.residual > 1e-11
    assert 0 < len(solves) <= (20 if mode == "proposed" else 60)
