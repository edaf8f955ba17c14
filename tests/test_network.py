"""Electrical network: per-unit conversion, Kron reduction, power flow, Jacobians."""

from dataclasses import replace

import numpy as np
import pytest

import mgshare as mg
from mgshare.network import _singular_buses, full_admittance, jacobians, load_admittance

from conftest import flow_blocks

Z_BASE_LV = 220.0**2 / 100e3  # 0.484 ohm


# ---------------------------------------------------------------------------
# per-unit conversion
# ---------------------------------------------------------------------------

def test_per_unit_line_oracle(lv5):
    # 0.2 ohm / 0.484 ohm, hand-computed
    ln = lv5.network.lines[0]
    assert ln.from_bus == 1 and ln.to_bus == 2
    assert ln.r == pytest.approx(0.2 / Z_BASE_LV, abs=1e-9)
    assert ln.r == pytest.approx(0.41322, abs=1e-5)


def test_per_unit_connector_oracle(lv5):
    c = lv5.network.connectors[0]
    assert (c.r, c.x) == (pytest.approx(0.06198, abs=1e-5), pytest.approx(0.18595, abs=1e-5))


def test_network_data_is_per_unit_of_its_bases(lv5):
    """A NetworkData built in code keeps its values as given: they are per unit
    already, so the bases do not enter the reduction."""
    data = mg.NetworkData(
        bases=mg.Bases(100e3, 220.0, 50.0), n_bus=2,
        lines=(mg.Line(1, 2, 0.1, 0.2),),
        connectors=(mg.Connector(1, 1, 0.05, 0.1), mg.Connector(2, 2, 0.05, 0.1)),
        loads=(mg.Load(2, 0.5, 0.9),),
    )
    assert data.lines == (mg.Line(1, 2, 0.1, 0.2),) and data.loads == (mg.Load(2, 0.5, 0.9),)
    red = mg.kron_reduce(data)
    assert red == mg.kron_reduce(replace(data, bases=mg.Bases(1.0, 1.0, 60.0)))
    assert mg.kron_reduce(lv5.network) == mg.kron_reduce(
        replace(lv5.network, bases=mg.Bases(1.0, 1.0, 50.0)))


def test_bad_base_rejected():
    for bases in [(0.0, 220.0, 50.0), (np.nan, 220.0, 50.0),
                  (100e3, np.inf, 50.0), (100e3, 220.0, -50.0)]:
        with pytest.raises(mg.NetworkDataError, match="bases must all be positive and finite"):
            mg.Bases(*bases)


@pytest.mark.parametrize("field, value, match", [
    ("loads", mg.Load(1, np.nan, 0.9), r"load at bus 1 needs a finite s >= 0 and pf in \(0,1\]"),
    ("loads", mg.Load(1, np.inf, 0.9), r"load at bus 1 needs a finite s >= 0 and pf in \(0,1\]"),
    ("loads", mg.Load(1, 0.9, 0.0), r"load at bus 1 needs a finite s >= 0 and pf in \(0,1\]"),
    ("lines", mg.Line(1, 2, np.nan, 0.3), r"non-finite impedance on line \(1,2\)"),
    ("lines", mg.Line(1, 2, 0.2, np.inf), r"non-finite impedance on line \(1,2\)"),
    ("connectors", mg.Connector(1, 1, 0.03, np.nan), "non-finite impedance on connector of IBR 1"),
], ids=["nan-load", "inf-load", "zero-pf", "nan-r", "inf-x", "nan-connector-x"])
def test_non_finite_network_values_rejected(lv5, field, value, match):
    """NaN, infinities and a zero power factor fail the positive-form checks."""
    net = lv5.network
    rows = (value,) + getattr(net, field)[1:]
    with pytest.raises(mg.NetworkDataError, match=match):
        replace(net, **{field: rows})


@pytest.mark.parametrize("edit, match", [
    (lambda net: {"n_bus": 0}, "^need at least one main bus$"),
    (lambda net: {"connectors": net.connectors[1:]}, "^connector ibr ids must be 1..n without gaps$"),
    (lambda net: {"lines": net.lines + (mg.Line(5, 6, 0.1, 0.2),)}, "^line references unknown bus 6$"),
    (lambda net: {"connectors": (mg.Connector(1, 0, 0.03, 0.1),) + net.connectors[1:]},
     "^connector references unknown bus 0$"),
    (lambda net: {"loads": net.loads + (mg.Load(7, 0.5, 0.9),)}, "^load references unknown bus 7$"),
], ids=["no-bus", "ibr-gap", "line-bus", "connector-bus", "load-bus"])
def test_bad_network_tables_rejected(lv5, edit, match):
    """Each table may only reference the declared main buses, and the IBRs are numbered 1..n."""
    with pytest.raises(mg.NetworkDataError, match=match):
        replace(lv5.network, **edit(lv5.network))


# ---------------------------------------------------------------------------
# Kron reduction
# ---------------------------------------------------------------------------

def test_kron_two_ibr_series_oracle():
    """Two IBRs joined through junction buses: transfer magnitude y1 y2/(y1+y2)."""
    b = mg.Bases(1.0, 1.0, 50.0)
    data = mg.NetworkData(
        bases=b, n_bus=1,
        lines=(),
        connectors=(mg.Connector(1, 1, 0.0, 0.5), mg.Connector(2, 1, 0.0, 0.25)),
        loads=(),
    )
    red = mg.kron_reduce(data)
    y1, y2 = 1 / 0.5, 1 / 0.25
    expect = y1 * y2 / (y1 + y2)
    assert abs(complex(red.G[0, 1], red.B[0, 1])) == pytest.approx(expect, abs=1e-12)


def test_kron_load_scale_locality(lv5):
    """Scaling the bus-5 load changes the reduction only via that shunt: rebuild oracle."""
    scale = np.ones(5)
    scale[4] = 0.2
    red_a = mg.kron_reduce(lv5.network, scale)
    # independent oracle: rebuild full Y with modified shunt, Schur-complement
    # by hand (node order is [internal buses | main buses])
    Y = full_admittance(lv5.network, scale)
    n = lv5.network.n_ibr
    Yred = Y[:n, :n] - Y[:n, n:] @ np.linalg.solve(Y[n:, n:], Y[n:, :n])
    Yred = 0.5 * (Yred + Yred.T)
    assert np.allclose(red_a.G, Yred.real, atol=1e-12)
    assert np.allclose(red_a.B, Yred.imag, atol=1e-12)
    red_b = mg.kron_reduce(lv5.network)
    assert not np.allclose(red_a.B, red_b.B)


def test_singular_eliminated_block_names_its_buses(lv5):
    """A bus 6 tied to bus 5 by j0.1 and -j0.1 in parallel has an all-zero admittance row."""
    net = lv5.network
    net = replace(net, n_bus=6, lines=net.lines + (mg.Line(5, 6, 0.0, 0.1), mg.Line(5, 6, 0.0, -0.1)))
    with pytest.raises(mg.NetworkDataError,
                       match=r"^cannot eliminate main buses \[6\]: eliminated block is singular$"):
        mg.kron_reduce(net)


def test_nonsingular_block_names_no_buses():
    assert _singular_buses(np.array([[2.0, -1.0], [-1.0, 2.0]])) == []


def test_full_admittance_is_a_fresh_stamp():
    """Lines, then connectors, then loads, two of them on one bus, stamped from zero: bitwise.

    With these values, stamping the connectors first or the loads in reverse changes the sums' bits.
    """
    data = mg.NetworkData(
        bases=mg.Bases(1.0, 1.0, 50.0), n_bus=3,
        lines=(mg.Line(1, 2, 0.1, 0.2), mg.Line(2, 3, 0.05, 0.3), mg.Line(1, 3, 0.2, 0.1)),
        connectors=(mg.Connector(2, 3, 0.04, 0.12), mg.Connector(1, 1, 0.05, 0.15)),
        loads=(mg.Load(3, 0.5, 0.9), mg.Load(2, 0.3, 0.8), mg.Load(3, 0.7, 0.85)),
    )
    scale = np.array([1.0, 0.7, 1.3])
    Y = np.zeros((5, 5), dtype=complex)    # [internal buses | main buses]
    branches = [(2 + ln.from_bus - 1, 2 + ln.to_bus - 1, ln) for ln in data.lines]
    for a, b, br in branches + [(c.ibr - 1, 2 + c.bus - 1, c) for c in data.connectors]:
        y = 1.0 / complex(br.r, br.x)
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y
    for ld in data.loads:
        Y[2 + ld.bus - 1, 2 + ld.bus - 1] += scale[ld.bus - 1] * load_admittance(ld.s, ld.pf)
    assert np.array_equal(full_admittance(data, scale), Y)
    assert not np.array_equal(full_admittance(data), Y)
    full_admittance(data, scale)[:] = 0.0     # a writable copy: the data's own array is untouched
    assert np.array_equal(full_admittance(data, scale), Y)
    with pytest.raises(ValueError):
        data.Y_branch[0, 0] = 0.0


@pytest.mark.parametrize("factor, match", [
    (np.nan, "load_scale must be finite and nonnegative"),
    (np.inf, "load_scale must be finite and nonnegative"),
    (-np.inf, "load_scale must be finite and nonnegative"),
    (-1.0, "load_scale must be finite and nonnegative"),
    (None, "load_scale must have length 5"),
], ids=["nan", "inf", "-inf", "negative", "short"])
def test_bad_load_scale_rejected(lv5, factor, match):
    """Every load factor must be finite and >= 0, as the scenario parser's scale-load factors are."""
    scale = np.ones(4) if factor is None else np.array([1.0, 1.0, 1.0, 1.0, factor])
    with pytest.raises(mg.NetworkDataError, match=match):
        mg.kron_reduce(lv5.network, scale)


@pytest.mark.parametrize("name, bad", [("G", np.nan), ("G", np.inf), ("B", np.nan), ("B", -np.inf)])
def test_non_finite_reduced_admittance_rejected(name, bad):
    """A non-finite G or B is a NetworkDataError before the passivity eigvalsh sees it."""
    a = {"G": 2.0 * np.eye(2) - 1.0, "B": np.full((2, 2), -4.0)}
    a[name][0, 1] = a[name][1, 0] = bad
    with pytest.raises(mg.NetworkDataError, match=r"reduced admittance G \+ jB must be finite"):
        mg.ReducedNetwork(**a)


@pytest.mark.parametrize("G, B", [(np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))),
                                  (np.ones(2), np.ones(2))], ids=["sizes", "not-square", "vector"])
def test_reduced_admittance_must_be_square(G, B):
    with pytest.raises(mg.NetworkDataError, match="^G and B must be equal-size square matrices$"):
        mg.ReducedNetwork(G=G, B=B)


def test_reduced_symmetry_and_passivity(lv5_reduced):
    red = lv5_reduced
    assert np.allclose(red.G, red.G.T)
    assert np.allclose(red.B, red.B.T)
    assert np.linalg.eigvalsh(red.G).min() >= -1e-9


def test_asymmetric_reduced_network_rejected(lv5_reduced):
    """A relative asymmetry of 5e-6 in G or B is not reciprocal; round-off is."""
    for name in ("G", "B"):
        a = getattr(lv5_reduced, name).copy()
        a[0, 1] *= 1 + 5e-6
        with pytest.raises(mg.NetworkDataError, match="symmetric"):
            replace(lv5_reduced, **{name: a})
        a[0, 1] = np.nextafter(a[1, 0], np.inf)
        replace(lv5_reduced, **{name: a})


def test_negative_definite_conductance_rejected():
    """A reduced network whose conductance is -I generates power: not passive."""
    with pytest.raises(mg.NetworkDataError, match="negative eigenvalue"):
        mg.ReducedNetwork(G=-np.eye(2), B=np.eye(2))


def test_load_admittance_draws_rated_power():
    y = load_admittance(0.9, 0.85)
    s = np.conj(y) * 1.0  # S = V^2 conj(y) at V = 1
    assert abs(s) == pytest.approx(0.9, abs=1e-12)
    assert s.real == pytest.approx(0.9 * 0.85, abs=1e-12)
    assert s.imag == pytest.approx(0.9 * np.sin(np.arccos(0.85)), abs=1e-12)


def test_isolated_island_rejected():
    b = mg.Bases(1.0, 1.0, 50.0)
    with pytest.raises(mg.NetworkDataError, match="electrical graph .* is disconnected"):
        mg.NetworkData(
            bases=b, n_bus=2,
            lines=(),  # bus 2 unreachable
            connectors=(mg.Connector(1, 1, 0.0, 0.1),),
            loads=(),
        )


def test_disconnected_electrical_network_rejected():
    """Two islands, each with its own inverter and load: every bus is reachable
    from some inverter, but not from every other one."""
    b = mg.Bases(1.0, 1.0, 50.0)
    with pytest.raises(mg.NetworkDataError, match="electrical graph .* is disconnected"):
        mg.NetworkData(
            bases=b, n_bus=4,
            lines=(mg.Line(1, 2, 0.01, 0.05), mg.Line(3, 4, 0.01, 0.05)),
            connectors=(mg.Connector(1, 1, 0.0, 0.1), mg.Connector(2, 3, 0.0, 0.1)),
            loads=(mg.Load(2, 0.5, 0.9), mg.Load(4, 0.5, 0.9)),
        )


# ---------------------------------------------------------------------------
# power flow and Jacobians
# ---------------------------------------------------------------------------

def test_power_flow_against_nodal_oracle(lv5, lv5_reduced):
    """Reduced-network injections must match a direct complex nodal solve.

    A short batch of operating points, shape (S, n), gives exactly the
    row-by-row results; theta and V of different shapes are rejected.
    """
    net = lv5.network
    n = net.n_ibr
    Y = full_admittance(net)  # node order [internal buses | main buses]
    rng = np.random.default_rng(1)
    thetas = rng.normal(0, 0.05, (5, n))
    Vs = 1 + rng.normal(0, 0.03, (5, n))
    rows = []
    for theta, V in zip(thetas, Vs):
        Vt = V * np.exp(1j * theta)
        Vb = np.linalg.solve(Y[n:, n:], -Y[n:, :n] @ Vt)
        S = Vt * np.conj(Y[:n, :n] @ Vt + Y[:n, n:] @ Vb)
        P, Q = mg.power_flow(lv5_reduced, theta, V)
        assert np.allclose(P, S.real, atol=1e-12)
        assert np.allclose(Q, S.imag, atol=1e-12)
        rows.append((P, Q))
    P, Q = mg.power_flow(lv5_reduced, thetas, Vs)
    assert P.shape == Q.shape == (5, n)
    assert np.array_equal(P, np.array([r[0] for r in rows]))
    assert np.array_equal(Q, np.array([r[1] for r in rows]))
    for theta, V in ((thetas, Vs[0]), (thetas[0], Vs), (thetas[:, :-1], Vs[:, :-1])):
        with pytest.raises(ValueError):
            mg.power_flow(lv5_reduced, theta, V)


def test_long_batch_power_flow_within_one_ulp(lv5_reduced):
    """A long batch gives P and Q bitwise as row-by-row calls do."""
    rng = np.random.default_rng(2)
    thetas = rng.normal(0, 0.05, (4000, 5))
    Vs = 1 + rng.normal(0, 0.03, (4000, 5))
    P, Q = mg.power_flow(lv5_reduced, thetas, Vs)
    rows = [mg.power_flow(lv5_reduced, theta, V) for theta, V in zip(thetas, Vs)]
    assert np.array_equal(P, np.array([r[0] for r in rows]))
    assert np.array_equal(Q, np.array([r[1] for r in rows]))


@pytest.mark.parametrize("points", [1, 3276, 3277, 4000])
def test_power_flow_is_the_phasor_expression(lv5_reduced, points):
    """The in-place evaluation is bitwise np.multiply(E, conj(Y E)) at every batch size."""
    rng = np.random.default_rng(points)
    thetas = rng.normal(0, 0.05, (points, 5))
    Vs = 1 + rng.normal(0, 0.03, (points, 5))
    E = Vs * np.exp(1j * thetas)
    S = np.multiply(E, np.conj((lv5_reduced.Y @ E[..., None])[..., 0]))
    P, Q = mg.power_flow(lv5_reduced, thetas, Vs)
    assert np.array_equal(P, S.real) and np.array_equal(Q, S.imag)


def test_jacobian_rotational_invariance(lv5_reduced):
    rng = np.random.default_rng(7)
    theta = rng.normal(0, 0.1, 5)
    V = 1 + rng.normal(0, 0.05, 5)
    J_theta_P, _, J_theta_Q, _ = flow_blocks(jacobians(lv5_reduced, theta, V))
    assert np.linalg.norm(J_theta_P @ np.ones(5)) <= 1e-9
    assert np.linalg.norm(J_theta_Q @ np.ones(5)) <= 1e-9


def test_jacobians_match_finite_differences(lv5_reduced):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        theta = rng.normal(0, 0.1, 5)
        V = 1 + rng.normal(0, 0.04, 5)
        J_theta_P, J_V_P, J_theta_Q, J_V_Q = flow_blocks(jacobians(lv5_reduced, theta, V))
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            Pp, Qp = mg.power_flow(lv5_reduced, theta + e, V)
            Pm, Qm = mg.power_flow(lv5_reduced, theta - e, V)
            assert np.allclose((Pp - Pm) / (2 * h), J_theta_P[:, k], atol=1e-6)
            assert np.allclose((Qp - Qm) / (2 * h), J_theta_Q[:, k], atol=1e-6)
            Pp, Qp = mg.power_flow(lv5_reduced, theta, V + e)
            Pm, Qm = mg.power_flow(lv5_reduced, theta, V - e)
            assert np.allclose((Pp - Pm) / (2 * h), J_V_P[:, k], atol=1e-6)
            assert np.allclose((Qp - Qm) / (2 * h), J_V_Q[:, k], atol=1e-6)


# ---------------------------------------------------------------------------
# phasor form against the trigonometric formulas
# ---------------------------------------------------------------------------

def trig_flow_kernels(net, theta):
    """(MP, MQ) with P = V * (MP @ V), Q = V * (MQ @ V); batched over leading axes."""
    dth = theta[..., :, None] - theta[..., None, :]
    cos, sin = np.cos(dth), np.sin(dth)
    return net.G * cos + net.B * sin, net.G * sin - net.B * cos


def trig_power_flow(net, theta, V):
    MP, MQ = trig_flow_kernels(net, theta)
    return V * (MP @ V[..., None])[..., 0], V * (MQ @ V[..., None])[..., 0]


def trig_jacobians(net, theta0, V0):
    """The four flow_blocks of jacobians from the P_i = sum_j V_i V_j (...) formulas."""
    MP, MQ = trig_flow_kernels(net, theta0)
    MPV, MQV = MP @ V0, MQ @ V0
    VV = np.outer(V0, V0)
    Jt_P = VV * MQ
    np.fill_diagonal(Jt_P, 0.0)
    np.fill_diagonal(Jt_P, -Jt_P.sum(axis=1))
    Jt_Q = -VV * MP
    np.fill_diagonal(Jt_Q, 0.0)
    np.fill_diagonal(Jt_Q, -Jt_Q.sum(axis=1))
    Jv_P = V0[:, None] * MP + np.diag(MPV)
    Jv_Q = V0[:, None] * MQ + np.diag(MQV)
    return Jt_P, Jv_P, Jt_Q, Jv_Q


def assert_close_relative(a, b, rtol=1e-12):
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


@pytest.fixture(params=["lv5", "mv9-template", "ring3"])
def any_reduced(request):
    if request.param == "ring3":
        return request.getfixturevalue("ring3_reduced")
    return mg.kron_reduce(mg.parse_scenario(request.param).network)


def test_phasor_form_matches_trig_oracle(any_reduced):
    """power_flow, single and batched, and every jacobians array within 1e-12 relative."""
    net = any_reduced
    rng = np.random.default_rng(3)
    thetas = rng.normal(0, 0.2, (8, net.n))
    Vs = 1 + rng.normal(0, 0.05, (8, net.n))
    for P, P_ref in zip(mg.power_flow(net, thetas, Vs), trig_power_flow(net, thetas, Vs)):
        assert_close_relative(P, P_ref)
    for theta, V in zip(thetas, Vs):
        for P, P_ref in zip(mg.power_flow(net, theta, V), trig_power_flow(net, theta, V)):
            assert_close_relative(P, P_ref)
        blocks = flow_blocks(jacobians(net, theta, V))
        for got, ref in zip(blocks, trig_jacobians(net, theta, V), strict=True):
            assert_close_relative(got, ref)


@pytest.mark.parametrize("order", ["C", "F"])
def test_jacobians_are_the_docstring_expressions(any_reduced, order):
    """Every jacobians array bitwise from the module docstring's MATPOWER expressions, np.diag and
    all, also when the reduced network holds Fortran-ordered G and B (as ``G.T`` would give)."""
    net = mg.ReducedNetwork(*(np.asarray(a, order=order) for a in (any_reduced.G, any_reduced.B)))
    assert net.Y.flags[f"{order}_CONTIGUOUS"]
    rng = np.random.default_rng(5)
    for theta, V in zip(rng.normal(0, 0.2, (4, net.n)), 1 + rng.normal(0, 0.05, (4, net.n))):
        U = np.exp(1j * theta)
        E = V * U
        I = net.Y @ E
        dS_dtheta = 1j * E[:, None] * np.conj(np.diag(I) - net.Y * E)
        dS_dV = E[:, None] * np.conj(net.Y * U) + np.diag(np.conj(I) * U)
        J_theta_P, J_V_P, J_theta_Q, J_V_Q = flow_blocks(jacobians(net, theta, V))
        for got, want in ((J_theta_P, dS_dtheta.real), (J_theta_Q, dS_dtheta.imag),
                          (J_V_P, dS_dV.real), (J_V_Q, dS_dV.imag)):
            assert np.array_equal(got, want)


def test_linearization_is_the_four_jacobians(lv5_reduced):
    """jacobians is the flow's derivatives only, one float (2n, 2n) array: no constant term,
    no operating point."""
    lin = jacobians(lv5_reduced, np.zeros(5), np.ones(5))
    assert type(lin) is np.ndarray and lin.dtype == float and lin.shape == (10, 10)
    assert not hasattr(lin, "predict")


def test_jacobians_reject_anything_but_two_vectors(lv5_reduced):
    theta, V = np.zeros(5), np.ones(5)
    for bad in ((np.zeros((3, 5)), np.ones((3, 5))), (theta[:4], V[:4]), (theta, V[:4]),
                (theta, np.ones((1, 5))), (0.0, 1.0)):
        with pytest.raises(ValueError, match="theta and V"):
            jacobians(lv5_reduced, *bad)


def test_reduced_network_and_linearization_value_equality(lv5, lv5_reduced):
    red = mg.kron_reduce(lv5.network)
    assert red is not lv5_reduced and red == lv5_reduced and replace(red) == red
    assert red != mg.kron_reduce(lv5.network, np.full(5, 0.5))
    assert (red == "lv5") is False and "Y=" not in repr(red)
    assert np.array_equal(red.Y, red.G + 1j * red.B)
    with pytest.raises(ValueError):
        red.Y[0, 0] = 0.0
