"""Equilibrium solver: gauges, residuals, property verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgshare as mg
from mgshare import controller as ctrl
from mgshare.graph import laplacian


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
    model = ctrl.ClosedLoop("proposed", lv5.params, lv5_reduced, laplacian(lv5.graph))
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


def test_strict_containment(lv5, lv5_equilibrium):
    eq = lv5_equilibrium
    assert np.all(eq.V > lv5.params.v_min) and np.all(eq.V < lv5.params.v_max)


def test_property_report_passes(lv5, lv5_equilibrium):
    report = mg.verify_properties(lv5_equilibrium, lv5.params)
    assert report.all_pass, "\n".join(report.lines())


def test_nominal_saturated_set(lv5_equilibrium):
    """Phasor-model outcome at nominal load, frozen as a regression value."""
    assert lv5_equilibrium.saturated == frozenset({1, 5})


def test_zeta_sum_pinning(lv5, lv5_reduced):
    eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params,
                              mode="proposed", zeta_sum=2.5)
    assert eq.zeta.sum() == pytest.approx(2.5, abs=1e-9)
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


def _check_solution(eq, params):
    report = mg.verify_properties(eq, params)
    assert report.all_pass, "\n".join(report.lines())
    assert np.abs(eq.lam - eq.alpha_Q).max() <= 1e-8
    assert eq.residual < 1e-11


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
    _check_solution(eq, params)


def test_saturated_point_past_kink(lv5):
    """A light-load point whose Newton path crosses the leakage kink."""
    params = lv5.params.with_limits(0.948, 1.042)
    red = mg.kron_reduce(lv5.network, np.array([0.76, 0.53, 1.13, 0.54, 0.44]))
    eq = mg.solve_equilibrium(red, lv5.graph, params, mode="proposed")
    _check_solution(eq, params)
    assert eq.saturated  # units that end past their kink, |v| > 3 Delta


def test_start_on_kink_converges(lv5, lv5_reduced, lv5_equilibrium):
    """Every unit's v starts on its kink (exactly, or one ulp inside or outside it),
    on the side of its solution; round-off off the kink does not cut steps."""
    n = lv5.params.n
    kink = 3.0 * lv5.params.delta
    iterations = []
    for start in (kink, np.nextafter(kink, 0.0), np.nextafter(kink, np.inf)):
        x0 = np.zeros(4 * n)              # [theta_rel, Omega, v, lam, zeta]
        x0[n:2 * n] = start * np.sign(lv5_equilibrium.v)
        eq = mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, initial_guess=x0)
        _check_solution(eq, lv5.params)
        assert np.abs(eq.V - lv5_equilibrium.V).max() <= 1e-8
        iterations.append(eq.iterations)
    assert max(iterations[1:]) <= iterations[0], iterations


@pytest.mark.parametrize("mode", ["proposed", "droop"])
def test_overload_raises_without_retrying(lv5_overloaded, mode, monkeypatch):
    """Newton fails within max_iter Jacobian solves, with the residual it reached."""
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
    assert 0 < len(solves) <= 60
