"""Controller primitives: saturation, leakage, channel right-hand sides."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgshare as mg
from mgshare import controller as ctrl

from conftest import kkt_residual


def make_params(n=3, v_min=0.95, v_max=1.05, **kw):
    defaults = dict(
        s_rated=np.ones(n),
        m_omega=np.full(n, 1.57),
        m_v=np.full(n, 0.05),
        v_min=np.full(n, v_min),
        v_max=np.full(n, v_max),
        tau_omega=0.1, tau_v=1.0, tau_p=0.01, tau_d=0.1, beta=0.01, k=7.24,
    )
    defaults.update(kw)
    return mg.IbrParams(**defaults)


def test_v_star_and_delta():
    p = make_params()
    assert np.allclose(p.v_star, 1.0)
    assert np.allclose(p.delta, 0.05)


def test_band_arrays_derived_once():
    """v_star and delta are read-only, recomputed by every copy, outside equality."""
    p = make_params(v_min=np.array([0.95, 0.96, 0.97]), v_max=1.05)
    assert p.delta is p.delta
    for a in (p.v_star, p.delta):
        with pytest.raises(ValueError):
            a[0] = 0.0
    q = replace(p, v_max=np.full(3, 1.07))
    assert np.array_equal(q.v_star, 0.5 * (q.v_max + q.v_min))
    assert np.array_equal(q.delta, 0.5 * (q.v_max - q.v_min))
    r = p.with_limits(1.01, 1.05)
    assert np.allclose(r.v_star, 1.03) and np.allclose(r.delta, 0.02)
    assert [f.name for f in fields(p) if f.compare] == [f.name for f in fields(p) if f.init]
    assert p == p and "delta" not in repr(p)


def test_params_value_equality(lv5):
    p = lv5.params
    assert p == replace(p)
    assert p != p.with_limits(1.01, 1.05)
    assert p != replace(p, s_rated=2.0 * p.s_rated)
    assert (p == "lv5") is False and (p != "lv5") is True


def test_voltage_output_midband_at_zero():
    p = make_params()
    assert np.allclose(ctrl.voltage_output(p, np.zeros(3)), 1.0)


@settings(max_examples=100, deadline=None)
@given(v=st.floats(-0.75, 0.75, allow_nan=False))
def test_strict_containment_everywhere(v):
    """The tanh-shaped output never reaches the limits on the reachable range.

    Beyond |v/Delta| ~ 17 double precision rounds V onto the limit itself, so
    strictness is only meaningful on states the leaky integrator can actually
    reach (leakage pins them near 3-6 Delta; 0.75 is 15 Delta here).
    """
    p = make_params(n=1)
    V = ctrl.voltage_output(p, np.array([v]))
    assert p.v_min[0] < V[0] < p.v_max[0]


def test_inverse_roundtrip_inside_band():
    p = make_params()
    v = np.array([-2.3, 0.0, 1.7]) * p.delta
    V = ctrl.voltage_output(p, v)
    assert np.allclose(ctrl.v_from_voltage(p, V), v, atol=1e-9)


def test_inverse_clips_out_of_band_voltages():
    p = make_params()
    v = ctrl.v_from_voltage(p, np.array([0.90, 1.0, 1.10]))
    assert np.all(np.isfinite(v))
    # clipped at 0.999 of the band half-width
    assert v[0] == pytest.approx(p.delta[0] * np.arctanh(-0.999))
    assert v[2] == pytest.approx(p.delta[2] * np.arctanh(0.999))


def test_leakage_kink_oracle():
    p = make_params(n=1)
    d = p.delta[0]
    assert ctrl.leakage(p, np.array([2.9 * d]))[0] == 0.0
    assert ctrl.leakage(p, np.array([3.0 * d]))[0] == 0.0
    assert ctrl.leakage(p, np.array([-4.0 * d]))[0] == pytest.approx(1.0)
    assert ctrl.leakage(p, np.array([5.5 * d]))[0] == pytest.approx(2.5)


def test_droop_rhs_oracle(ring3_reduced):
    p = make_params()
    red = ring3_reduced
    theta = np.array([0.02, 0.0, -0.01])
    Omega = np.array([0.1, 0.0, -0.2])
    v = np.array([0.01, 0.0, -0.01])
    model = ctrl.ClosedLoop("droop", p, red, mg.CommGraph.ring(3))
    b = model.brackets(np.concatenate([theta, Omega, v]))
    P, Q = mg.power_flow(red, theta, 1.0 + v)
    assert np.allclose(b[:3], Omega)
    assert np.allclose(b[3:6], -Omega - 1.57 * P)
    assert np.allclose(b[6:], -v - 0.05 * Q)


def test_integrator_rhs_components(ring3_reduced):
    """v rows of the proposed brackets: V_star (lam - Q/S) - beta Delta tanh(v/Delta) - rho(v) v."""
    p = make_params()
    d = p.delta[0]
    model = ctrl.ClosedLoop("proposed", p, ring3_reduced, mg.CommGraph.ring(3))
    theta = np.array([0.02, 0.0, -0.01])
    # unit 0 unsaturated (leakage term absent); unit 1 saturated, rho = 2
    v = np.array([d, 5.0 * d, 0.0])
    lam = np.full(3, 0.4)
    b = model.brackets(np.concatenate([theta, np.zeros(3), v, lam, np.zeros(3)]))
    _, Q = mg.power_flow(ring3_reduced, theta, ctrl.voltage_output(p, v))
    expect = 1.0 * (0.4 - Q[0]) - 0.01 * d * np.tanh(1.0)
    assert b[6] == pytest.approx(expect, abs=1e-12)
    expect = 1.0 * (0.4 - Q[1]) - 0.01 * d * np.tanh(5.0) - 2.0 * 5.0 * d
    assert b[7] == pytest.approx(expect, abs=1e-12)


def test_primal_dual_rhs_oracle(ring3_reduced):
    g = mg.CommGraph.ring(3)
    L = g.L
    p = make_params(k=2.0)
    red = ring3_reduced
    theta = np.array([0.02, 0.0, -0.01])
    v = np.array([0.01, 0.0, -0.01])
    lam = np.array([0.3, 0.5, 0.1])
    zeta = np.array([0.0, 0.2, -0.2])
    model = ctrl.ClosedLoop("proposed", p, red, g)
    b = model.brackets(np.concatenate([theta, np.zeros(3), v, lam, zeta]))
    _, Q = mg.power_flow(red, theta, ctrl.voltage_output(p, v))
    assert np.allclose(b[6:9], p.v_star * (lam - Q / p.s_rated)
                       - p.beta * p.delta * np.tanh(v / p.delta) - ctrl.leakage(p, v) * v)
    assert np.allclose(b[9:12], Q / p.s_rated - lam - L @ zeta - 2.0 * (L @ lam))
    assert np.allclose(b[12:], L @ lam)


@pytest.mark.parametrize("mode", ["droop", "proposed"])
def test_brackets_are_the_affine_part_minus_s(lv5, lv5_reduced, mode):
    """brackets = M x + K [P; Q] - (beta Delta tanh(v/Delta) + rho(v) v), bitwise, with v past +/-3 Delta.

    voltage_output and leakage, whose laws brackets shares, are also pinned bitwise to their docstrings.
    """
    p = lv5.params
    model = ctrl.ClosedLoop(mode, p, lv5_reduced, lv5.graph)
    rng = np.random.default_rng(29)
    for _ in range(8):
        x = rng.normal(0.0, 0.05, model.dim)
        v = p.delta * rng.uniform(-6.0, 6.0, p.n)
        v[:2] = p.delta[:2] * np.array([-4.5, 3.5])    # past both kinks
        x[model.at.v] = v
        V = 1.0 + v if mode == "droop" else ctrl.voltage_output(p, v)
        P, Q = mg.power_flow(lv5_reduced, model.block(x, "theta"), V)
        expect = model.M @ x + model.K @ np.concatenate([P, Q])
        if mode == "proposed":
            expect[model.at.v] -= p.beta * p.delta * np.tanh(v / p.delta) + ctrl.leakage(p, v) * v
            assert np.array_equal(V, p.v_star + p.delta * np.tanh(v / p.delta))
            assert np.array_equal(ctrl.leakage(p, v), np.maximum(np.abs(v / p.delta) - 3.0, 0.0))
        assert np.array_equal(model.brackets(x), expect)


def test_closed_loop_jac_matches_central_differences(lv5, lv5_reduced, lv5_equilibrium):
    """Analytic model Jacobian against central differences of the model rhs.

    Covers both modes on random states and at the lv5 equilibria. Proposed
    states have units past the leakage kink (|v| > 3 Delta), but every
    |v|/Delta stays at least 0.1 from 3, so no stencil straddles it.
    """
    p = lv5.params
    n = p.n
    rng = np.random.default_rng(7)
    eq = {"proposed": lv5_equilibrium,
          "droop": mg.solve_equilibrium(lv5_reduced, lv5.graph, p, mode="droop")}
    h = 1e-7
    for mode in ("droop", "proposed"):
        model = ctrl.ClosedLoop(mode, p, lv5_reduced, lv5.graph)
        e = eq[mode]
        states = [np.concatenate([e.theta, e.Omega, e.v, e.lam, e.zeta][: model.dim // n])]
        for _ in range(4):
            x = rng.normal(0.0, 0.05, model.dim)
            if mode == "proposed":
                u = np.concatenate([rng.uniform(3.2, 6.0, 2), rng.uniform(0.0, 2.8, n - 2)])
                x[2 * n:3 * n] = p.delta * u * rng.choice([-1.0, 1.0], n)
            states.append(x)
        for x in states:
            if mode == "proposed":
                assert np.all(np.abs(np.abs(x[2 * n:3 * n]) / p.delta - 3.0) >= 0.1)
            J = model.jac(0.0, x)
            fd = np.empty_like(J)
            for k in range(model.dim):
                dx = np.zeros(model.dim)
                dx[k] = h
                fd[:, k] = (model.rhs(0.0, x + dx) - model.rhs(0.0, x - dx)) / (2 * h)
            assert np.abs(fd - J).max() <= 1e-6 * np.abs(J).max(), mode


def test_free_brackets_jacobian_is_the_model_jacobian(lv5, lv5_reduced):
    """``brackets_jacobian`` at the state's linearization equals ``brackets_jac`` bitwise."""
    p = lv5.params
    n = p.n
    rng = np.random.default_rng(19)
    for mode in ("droop", "proposed"):
        model = ctrl.ClosedLoop(mode, p, lv5_reduced, lv5.graph)
        for _ in range(3):
            x = rng.normal(0.0, 0.05, model.dim)
            x[2 * n:3 * n] = p.delta * rng.uniform(-5.0, 5.0, n)
            v = x[2 * n:3 * n]
            lin = mg.jacobians(lv5_reduced, x[:n], model.voltage(v))
            J = ctrl.brackets_jacobian(mode, p, lv5.graph, lin, v)
            assert J.shape == (model.dim, model.dim)
            assert np.array_equal(J, model.brackets_jac(x)), mode


def test_closed_loop_takes_a_comm_graph(lv5, lv5_reduced):
    """A bare matrix, which no graph has checked, is refused when the loop is built."""
    with pytest.raises(TypeError, match="^graph must be a CommGraph, got ndarray$"):
        ctrl.ClosedLoop("proposed", lv5.params, lv5_reduced, np.ones((5, 5)))
    assert ctrl.ClosedLoop("proposed", lv5.params, lv5_reduced, lv5.graph).graph is lv5.graph


@pytest.mark.parametrize("mode, net, graph, sizes", [
    ("droop", "lv5", 3, "5, 5 and 3"),
    ("proposed", "lv5", 3, "5, 5 and 3"),
    ("proposed", "ring3", 5, "5, 3 and 5"),
], ids=["droop-graph", "proposed-graph", "proposed-net"])
def test_closed_loop_inputs_agree_on_n(lv5, lv5_reduced, ring3_reduced, mode, net, graph, sizes):
    """lv5's params with a 3-unit graph or network is refused when the loop is built, in either mode."""
    red = {"lv5": lv5_reduced, "ring3": ring3_reduced}[net]
    with pytest.raises(ValueError, match=f"^params, net and graph must agree on n, got {sizes} units$"):
        ctrl.ClosedLoop(mode, lv5.params, red, mg.CommGraph.ring(graph))


def test_kkt_zero_iff_consensus():
    g = mg.CommGraph.ring(4)
    q = np.array([0.5, 0.3, 0.6, 0.2])
    lam = np.full(4, q.mean())
    # consensus residual vanishes; stationarity fixes L zeta = q - mean
    r_stat, r_cons = kkt_residual(g, 2.0, lam, np.zeros(4), q)
    assert np.allclose(r_cons, 0.0, atol=1e-12)
    zeta = np.linalg.lstsq(g.L, q - lam, rcond=None)[0]
    r_stat, r_cons = kkt_residual(g, 2.0, lam, zeta, q)
    assert np.allclose(r_stat, 0.0, atol=1e-10)
    assert np.allclose(r_cons, 0.0, atol=1e-12)


def test_with_limits_preserves_gains():
    p = make_params()
    p2 = p.with_limits(np.full(3, 1.01), np.full(3, 1.05))
    assert np.allclose(p2.v_star, 1.03)
    assert np.allclose(p2.delta, 0.02)
    assert p2.tau_v == p.tau_v and p2.beta == p.beta


def test_bad_limits_rejected():
    with pytest.raises(ValueError, match="need v_min < v_max for every unit"):
        make_params(v_min=1.05, v_max=0.95)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", [f.name for f in fields(mg.IbrParams) if f.init])
def test_non_finite_params_rejected(name, bad):
    """Every field must be finite; one bad entry of a per-unit array is enough."""
    value = getattr(make_params(), name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[1] = bad
    else:
        value = bad
    with pytest.raises(ValueError, match=rf"^{name} must be (\w+ and )?finite"):
        make_params(**{name: value})


@pytest.mark.parametrize("name", ["m_omega", "m_v", "v_min", "v_max"])
def test_per_unit_lengths_must_agree(name):
    """s_rated sets n; another per-unit array of a different length (not one scalar) is refused."""
    p = make_params()
    kw = {f.name: getattr(p, f.name) for f in fields(p) if f.init}
    with pytest.raises(ValueError, match=f"^{name} must have length 3$"):
        mg.IbrParams(**{**kw, name: kw[name][:2]})


def test_band_overflowing_to_infinity_rejected():
    """Finite limits whose half-width overflows leave a non-finite delta: the named error, no warning."""
    with pytest.raises(ValueError, match="^delta must be finite"):
        make_params(v_min=-1e308, v_max=1e308)


def test_zero_rating_rejected():
    with pytest.raises(ValueError, match="s_rated must be positive"):
        make_params(s_rated=np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("mode, names", [("droop", ["theta", "Omega", "v"]),
                                         ("proposed", ["theta", "Omega", "v", "lam", "zeta"])])
def test_state_views_follow_the_documented_order(ring3_reduced, lv5_reduced, mode, names):
    """Block k of a state is x[k n:(k + 1) n], on one state and on a batch; ``state`` inverts it."""
    rng = np.random.default_rng(3)
    for red in (ring3_reduced, lv5_reduced):
        n = red.n
        model = ctrl.ClosedLoop(mode, make_params(n), red, mg.CommGraph.ring(n))
        assert model.dim == len(names) * n
        x, X = rng.normal(size=model.dim), rng.normal(size=(4, model.dim))
        for k, name in enumerate(names):
            assert np.array_equal(model.block(x, name), x[k * n:(k + 1) * n])
            assert np.array_equal(model.block(X, name), X[:, k * n:(k + 1) * n])
        assert np.array_equal(model.state(**{name: model.block(x, name) for name in names}), x)
        assert np.array_equal(model.state(v=x[2 * n:3 * n]), np.r_[np.zeros(2 * n), x[2 * n:3 * n],
                                                                    np.zeros((len(names) - 3) * n)])
