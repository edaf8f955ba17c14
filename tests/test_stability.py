"""Stability analysis: transform, cascade blocks, LMI, boundary layer, sweep."""

from dataclasses import replace

import numpy as np
import pytest

import mgshare as mg
from mgshare import stability as st
from mgshare.controller import STATE, ClosedLoop, brackets_jacobian, leakage, voltage_output
from mgshare.errors import MgshareError
from mgshare.network import jacobians
from mgshare.scenario_io import parse_scenario_text

from conftest import flow_blocks


SWEEP_RATIOS = [0.5, 0.2, 0.1, 0.05, 0.01, 0.0]


@pytest.fixture(scope="module")
def lv5_analysis(lv5, lv5_reduced):
    return st.analyze(lv5_reduced, lv5.graph, lv5.params, SWEEP_RATIOS)


@pytest.fixture(scope="module")
def lv5_blocks(lv5_analysis):
    return lv5_analysis.blocks


@pytest.fixture(scope="module")
def lv5_lin(lv5_analysis):
    return lv5_analysis.lin


def transform(n):
    """Averaging/difference transform T: first row 1/n, then the n-1 neighbour differences."""
    return np.vstack([np.full(n, 1.0 / n), np.diff(np.eye(n), axis=0)])


def flow_offset(net, lin, theta0, V0):
    """(w_P, w_Q): the constant term of the flow linearized at (theta0, V0), S - J [theta0; V0]."""
    P, Q = mg.power_flow(net, theta0, V0)
    J_theta_P, J_V_P, J_theta_Q, J_V_Q = flow_blocks(lin)
    return (P - J_theta_P @ theta0 - J_V_P @ V0,
            Q - J_theta_Q @ theta0 - J_V_Q @ V0)


def test_transform_maps_ones_to_e1():
    """The relative maps' (D, N) complete to the averaging/difference transform
    and its inverse, and T annihilates uniform theta and zeta shifts exactly."""
    for n in (2, 3, 5, 8):
        T, Ti = st._relative_maps(n)
        at, to = STATE["proposed"].at(n), st.BASIS.at(n)
        D, N = T[to.r_theta, at.theta], Ti[at.theta, to.r_theta]
        full, inverse = np.vstack([np.full(n, 1.0 / n), D]), np.hstack([np.ones((n, 1)), N])
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.allclose(full @ np.ones(n), e1, atol=1e-12)
        assert np.allclose(full @ inverse, np.eye(n), atol=1e-12)
        for block in ("theta", "zeta"):
            shift = np.zeros(at.zeta.stop)
            shift[getattr(at, block)] = 1.0
            assert np.array_equal(T @ shift, np.zeros(to.lam.stop)), block


@pytest.mark.parametrize("n", range(2, 13))
def test_transform_and_elimination_order_are_cached_read_only(n):
    """(T, Ti) is built once per n, read-only; T Ti = I, and FAST comes last in STATE order."""
    T, Ti = st._relative_maps(n)
    assert st._relative_maps(n)[0] is T and st._relative_maps(n)[1] is Ti
    for a in (T, Ti):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1
    assert np.abs(T @ Ti - np.eye(T.shape[0])).max() <= 1e-15
    at, relative = STATE["proposed"].at(n), st.RELATIVE.dim(n)
    fast = np.concatenate([np.arange(at.zeta.stop)[getattr(at, b)] for b in st.FAST])
    assert list(st.FAST) == [b for b in at._fields if b in st.FAST]
    assert np.array_equal(T[relative:], np.eye(at.zeta.stop)[fast])
    assert np.array_equal(Ti[:, relative:], np.eye(at.zeta.stop)[:, fast])
    assert not T[:relative, fast].any() and not Ti[fast, :relative].any()


def literal_blocks(lin, w, g, params):
    """The cascade-block formulas written out with T, K = (I + kL)^-1 and inverses.

    Besides the blocks, intermediate ones included, it returns the offsets
    of the linearized flow's constant term w = (w_P, w_Q): d_theta, d_v,
    d_zeta and the quasi-steady d_v_new, which ``reduced_rhs`` below adds.
    """
    n = params.n
    J_theta_P, J_V_P, J_theta_Q, J_V_Q = flow_blocks(lin)
    w_P, w_Q = w
    T = transform(n)
    Tinv = np.linalg.inv(T)
    Ir = np.hstack([np.zeros((n - 1, 1)), np.eye(n - 1)])
    L = g.L
    K = np.linalg.inv(np.eye(n) + params.k * L)
    invS = np.diag(1.0 / params.s_rated)
    mS = np.diag(params.m_omega / params.s_rated)
    Vs = np.diag(params.v_star)
    KmI = K - np.eye(n)
    tv = params.tau_v
    b = dict(
        R_theta=-Ir @ T @ mS @ J_theta_P @ Tinv @ Ir.T,
        R_thetaV=-Ir @ T @ mS @ J_V_P,
        R_vtheta=Vs @ KmI @ invS @ J_theta_Q @ Tinv @ Ir.T,
        R_vV=Vs @ KmI @ invS @ J_V_Q,
        R_vzeta=-Vs @ K @ L @ Tinv @ Ir.T,
        R_zetatheta=Ir @ (T @ L @ K @ invS @ J_theta_Q @ Tinv @ Ir.T) / tv,
        R_zetaV=Ir @ (T @ L @ K @ invS @ J_V_Q) / tv,
        R_zeta=-Ir @ (T @ L @ K @ L @ Tinv @ Ir.T) / tv,
        d_theta=-Ir @ T @ mS @ w_P,
        d_v=params.beta * params.v_star + Vs @ KmI @ invS @ w_Q,
        d_zeta=Ir @ (T @ L @ K @ invS @ w_Q) / tv,
    )
    Rz_inv = np.linalg.inv(b["R_zeta"])
    b["R_vtheta_new"] = b["R_vtheta"] - b["R_vzeta"] @ Rz_inv @ b["R_zetatheta"]
    b["R_vV_new"] = b["R_vV"] - b["R_vzeta"] @ Rz_inv @ b["R_zetaV"]
    b["d_v_new"] = b["d_v"] - b["R_vzeta"] @ Rz_inv @ b["d_zeta"]
    return b


KEPT = {"R_theta", "R_thetaV", "R_zeta", "R_vtheta_new", "R_vV_new"}


def reduced_rhs(b, params):
    """Right-hand side of the slow reduced system, state [r_theta, v], from ``literal_blocks``."""
    m = params.n - 1

    def rhs(_t, x):
        r = x[:m]
        v = x[m:]
        V = voltage_output(params, v)
        dr = b["R_theta"] @ r + b["R_thetaV"] @ V + b["d_theta"]
        dv = (
            b["R_vtheta_new"] @ r
            + (b["R_vV_new"] - params.beta * np.eye(params.n)) @ V
            - leakage(params, v) * v
            + b["d_v_new"]
        ) / params.tau_v
        return np.concatenate([dr, dv])

    return rhs


def lyapunov_value(cert, params, r_theta, v, r_theta_bar, v_bar):
    """Slow-subsystem Lyapunov function, integral term in closed form.

    The integral of the shifted tanh uses the log-cosh antiderivative, so
    the non-increase test along trajectories is exact up to round-off.
    """
    rt = r_theta - r_theta_bar
    quad = 0.5 * rt @ cert.P_theta @ rt
    d = np.diag(cert.D_v)
    delta = params.delta
    vt = v - v_bar
    integral = (
        delta**2 * (np.log(np.cosh(v / delta)) - np.log(np.cosh(v_bar / delta)))
        - delta * vt * np.tanh(v_bar / delta)
    )
    return float(quad + params.tau_v * np.sum(d * integral))


def bundled_lin(name):
    """(scenario, flow linearized at its proposed-mode equilibrium, that equilibrium)."""
    sc = mg.parse_scenario(name)
    result = st.analyze(mg.kron_reduce(sc.network), sc.graph, sc.params, [])
    return sc, result.lin, result.equilibrium


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_analyze_matches_separate_chain(name):
    """One analysis pass gives bitwise what the separate public calls give."""
    sc = mg.parse_scenario(name)
    p = sc.params
    red = mg.kron_reduce(sc.network)
    result = st.analyze(red, sc.graph, p, SWEEP_RATIOS)
    eq = mg.solve_equilibrium(red, sc.graph, p, mode="proposed")
    lin = jacobians(red, eq.theta, eq.V)
    blocks = st.assemble_blocks(lin, sc.graph, p)
    P_y, alpha_f = st.boundary_layer_check(blocks)
    assert np.array_equal(result.lin, lin) and not result.lin.flags.writeable
    assert result.equilibrium == eq and result.blocks == blocks
    assert result.certificate == st.solve_lmi(blocks, p.beta)
    assert np.array_equal(result.P_y, P_y) and result.alpha_f == alpha_f
    assert result.sweep == st.epsilon_sweep(lin, sc.graph, p, eq.v, SWEEP_RATIOS)


def test_analyze_rejects_non_hurwitz_zeta(lv5, lv5_reduced, monkeypatch):
    """The boundary layer's eig is the one Hurwitz check, and analyze always runs it."""
    complement = st._complement

    def flipped(lin, g, params, v):
        R = complement(lin, g, params, v)
        R[-(params.n - 1):, -(params.n - 1):] *= -1.0
        return R

    monkeypatch.setattr(st, "_complement", flipped)
    with pytest.raises(MgshareError, match="not Hurwitz"):
        st.analyze(lv5_reduced, lv5.graph, lv5.params, [0.1])


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_blocks_match_literal_formulas(name):
    """Blocks derived from the closed-loop Jacobian equal the written-out formulas."""
    sc, lin, eq = bundled_lin(name)
    blocks = st.assemble_blocks(lin, sc.graph, sc.params)
    w = flow_offset(mg.kron_reduce(sc.network), lin, eq.theta, eq.V)
    ref = literal_blocks(lin, w, sc.graph, sc.params)
    assert set(st.ReducedBlocks.__dataclass_fields__) == KEPT
    for f in KEPT:
        got = getattr(blocks, f)
        assert got.shape == ref[f].shape, f
        assert np.abs(got - ref[f]).max() <= 1e-10 * np.abs(ref[f]).max(), f


def test_block_shapes(lv5_blocks):
    b = lv5_blocks
    n = b.n
    assert b.R_theta.shape == (n - 1, n - 1)
    assert b.R_thetaV.shape == (n - 1, n)
    assert b.R_vtheta_new.shape == (n, n - 1)
    assert b.R_vV_new.shape == (n, n)
    assert b.R_zeta.shape == (n - 1, n - 1)


def test_tau_v_scales_only_the_zeta_block(lv5, lv5_lin):
    """The complement is taken before the tau scaling, so tau_v = 2 halves R_zeta exactly
    and leaves the slow blocks bitwise unchanged."""
    one = st.assemble_blocks(lv5_lin, lv5.graph, replace(lv5.params, tau_v=1.0))
    two = st.assemble_blocks(lv5_lin, lv5.graph, replace(lv5.params, tau_v=2.0))
    assert np.array_equal(two.R_zeta, one.R_zeta / 2.0)
    for name in ("R_theta", "R_thetaV", "R_vtheta_new", "R_vV_new"):
        assert np.array_equal(getattr(two, name), getattr(one, name)), name


def test_zeta_block_real_negative_spectrum(lv5_blocks):
    """R_zeta inherits L K L's nonzero spectrum: real and strictly negative."""
    w = np.linalg.eigvals(lv5_blocks.R_zeta)
    assert np.abs(w.imag).max() <= 1e-9
    assert w.real.max() < 0


def test_lmi_feasible_and_self_verifies(lv5, lv5_blocks):
    cert = st.solve_lmi(lv5_blocks, lv5.params.beta)
    assert cert.feasible
    assert np.linalg.eigvalsh(cert.P_theta).min() > 0
    assert np.diag(cert.D_v).min() > 0
    Q = st._q_matrix(lv5_blocks, lv5.params.beta, cert.P_theta, np.diag(cert.D_v))
    assert np.linalg.eigvalsh(Q + Q.T).max() < 0
    assert cert.verify(lv5_blocks, lv5.params.beta)


def contrived_blocks(n=4):
    """Diagonal, obviously contractive cascade; identity start must succeed fast."""
    m = n - 1
    z_mn = np.zeros((m, n))
    z_nm = np.zeros((n, m))
    I_m = np.eye(m)
    return st.ReducedBlocks(R_theta=-I_m, R_thetaV=z_mn, R_zeta=-I_m,
                            R_vtheta_new=z_nm, R_vV_new=-np.eye(n))


def test_lmi_contrived_case_fast():
    import time
    t0 = time.time()
    cert = st.solve_lmi(contrived_blocks(), beta=0.01)
    assert cert.feasible
    assert time.time() - t0 < 10.0


def test_lmi_infeasible_case_reported(monkeypatch):
    """Flip the voltage block unstable: solver must not claim feasibility."""
    b = contrived_blocks()
    bad = replace(b, R_vV_new=+np.eye(4))
    eig_calls = []
    eig = np.linalg.eig

    def counting(a):
        eig_calls.append(1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    cert = st.solve_lmi(bad, beta=0.01)
    assert not cert.feasible
    # R_vV_new - beta I = 0.99 I gives u < 0: no Riccati candidate is tried,
    # and the identity pair is what is reported
    assert not eig_calls
    assert np.array_equal(cert.P_theta, np.eye(3))
    assert np.array_equal(cert.D_v, np.eye(4))
    assert cert.margin > 0


def narrow_band_lv5():
    """(blocks, params) of a loaded lv5 point with a narrow band."""
    sc = mg.parse_scenario("lv5")
    n = sc.params.n
    params = sc.params.with_limits(np.full(n, 0.947), np.full(n, 1.042))
    red = mg.kron_reduce(sc.network, np.array([1.18, 0.78, 0.24, 0.29, 0.40]))
    eq = mg.solve_equilibrium(red, sc.graph, params, mode="proposed")
    return st.assemble_blocks(jacobians(red, eq.theta, eq.V), sc.graph, params), params


def test_lmi_riccati_certifies_where_identity_fails():
    """A loaded lv5 point with a narrow band: the identity pair is infeasible,
    and the M-matrix D_v with the Riccati P_theta is a certificate that verifies."""
    blocks, params = narrow_band_lv5()
    n = params.n
    Q = st._q_matrix(blocks, params.beta, np.eye(n - 1), np.ones(n))
    assert np.linalg.eigvalsh(Q + Q.T).max() > 0
    cert = st.solve_lmi(blocks, params.beta)
    assert cert.feasible
    assert cert.verify(blocks, params.beta)
    assert cert.margin <= -1e-2


@pytest.mark.parametrize("gap, yields", [(1e-16, False), (1e-8, False), (2e-8, True)])
def test_riccati_step_near_imaginary_axis_yields_nothing(monkeypatch, gap, yields):
    """An epsilon step whose Hamiltonian has an eigenvalue with |Re| at most
    1e-8 max|H| yields no candidate, though its stable count is right: the
    sign of that real part is round-off."""
    blocks, params = narrow_band_lv5()
    eig = np.linalg.eig

    def near_axis(a):     # moves the eigenvalue nearest the axis to |Re| = gap max|a|, same side
        lam, V = eig(a)
        k = np.argmin(np.abs(lam.real))
        lam.real[k] = np.copysign(gap * np.abs(a).max(), lam.real[k])
        return lam, V

    first = next(st._riccati_candidates(blocks, params.beta))
    monkeypatch.setattr(np.linalg, "eig", near_axis)
    got = list(st._riccati_candidates(blocks, params.beta))
    assert len(got) == (8 if yields else 0)
    if yields:
        assert all(np.array_equal(a, b) for a, b in zip(got[0], first))


def test_riccati_candidates_end_on_a_singular_voltage_block():
    """R_vV_new = beta I leaves R = 0, whose LinAlgError ends the candidates;
    the identity pair, which fails, is reported."""
    beta = 0.01
    blocks = replace(contrived_blocks(), R_vV_new=beta * np.eye(4))
    assert list(st._riccati_candidates(blocks, beta)) == []
    cert = st.solve_lmi(blocks, beta)
    assert not cert.feasible
    assert np.array_equal(cert.P_theta, np.eye(3)) and np.array_equal(cert.D_v, np.eye(4))


def chorded_ring_text(n, rng):
    """lv5-style fleet: a ring of lines plus a chord from every third bus to the
    opposite side, loads 0.5-1.0 pu, ratings 1.1-1.4x the local load, a
    communication ring and the lv5 gains."""
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(i, (i - 1 + n // 2) % n + 1) for i in range(1, n + 1, 3)]
    load = rng.uniform(0.5, 1.0, n)
    rating = load * rng.uniform(1.1, 1.4, n)

    def rows(*cols):
        return "\n".join(" ".join(f"{c:.4g}" for c in row) for row in zip(*cols))

    bus = np.arange(1, n + 1)
    a, b = np.array(edges).T
    return "\n".join([
        "[bases]", "s_base 100e3 VA", "v_base 220 V", "f_nom 50 Hz",
        "[buses]", "\n".join(f"{i} load" for i in bus),
        "[lines] unit=ohm",
        rows(a, b, rng.uniform(0.15, 0.22, a.size), rng.uniform(0.19, 0.32, a.size)),
        "[connectors] unit=ohm",
        rows(bus, bus, rng.uniform(0.03, 0.10, n), rng.uniform(0.09, 0.25, n)),
        "[loads] unit=pu", rows(bus, load, rng.uniform(0.85, 0.92, n)),
        "[ibrs]", rows(bus, rating, np.full(n, 0.95), np.full(n, 1.05)),
        "[graph]", rows(bus, bus % n + 1),
        "[controller-gains]", "mode proposed", "m_omega 1.57", "m_v 0.05",
        "tau_omega 0.1", "tau_v 1", "tau_p 0.01", "tau_d 0.1", "beta 0.01", "k 7.24",
        "[simulation]", "t_end 20", "rel_tol 1e-7", "sample_ms 10",
    ])


def test_lmi_certifies_chorded_fleet():
    """A 40-unit chorded ring certifies with a margin well clear of round-off."""
    sc = parse_scenario_text(chorded_ring_text(40, np.random.default_rng(0)))
    red = mg.kron_reduce(sc.network)
    eq = mg.solve_equilibrium(red, sc.graph, sc.params, mode="proposed")
    blocks = st.assemble_blocks(jacobians(red, eq.theta, eq.V), sc.graph, sc.params)
    cert = st.solve_lmi(blocks, sc.params.beta)
    assert cert.feasible
    assert cert.verify(blocks, sc.params.beta)
    assert cert.margin <= -1e-3


@pytest.mark.parametrize("seed", [0, 1])
def test_lmi_later_epsilon_step_certifies_fleet(seed, monkeypatch):
    """A 60-unit chorded ring: the identity pair fails by far, the first epsilon
    step gives no candidate, and the second one's candidate certifies.

    The first step's Hamiltonian has eigenvalues on the imaginary axis to
    round-off, so it yields nothing, whatever the last bits of R.
    """
    sc = parse_scenario_text(chorded_ring_text(60, np.random.default_rng(seed)))
    red = mg.kron_reduce(sc.network)
    eq = mg.solve_equilibrium(red, sc.graph, sc.params, mode="proposed")
    blocks = st.assemble_blocks(jacobians(red, eq.theta, eq.V), sc.graph, sc.params)
    beta = sc.params.beta
    identity = st._certificate(blocks, beta, np.eye(59), np.ones(60))
    assert not identity.feasible and identity.margin > 10
    steps = []
    eig = np.linalg.eig

    def counting(a):
        steps.append(1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    tried = []     # (epsilon step, feasible) per Riccati candidate, up to the first that certifies
    for P, d in st._riccati_candidates(blocks, beta):
        tried.append((len(steps), st._certificate(blocks, beta, P, d)))
        if tried[-1][1].feasible:
            break
    assert [(k, c.feasible) for k, c in tried] == [(2, True)]
    cert = st.solve_lmi(blocks, beta)
    assert cert.feasible and cert.verify(blocks, beta)
    assert np.array_equal(cert.P_theta, tried[-1][1].P_theta) and cert.margin == tried[-1][1].margin


def test_boundary_layer(lv5_blocks):
    P_y, alpha_f = st.boundary_layer_check(lv5_blocks)
    assert alpha_f == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(P_y).min() > 0
    M = P_y @ lv5_blocks.R_zeta + lv5_blocks.R_zeta.T @ P_y
    assert np.allclose(M, -np.eye(lv5_blocks.n - 1), atol=1e-9)


def random_hurwitz(rng, m):
    """Gaussian matrix shifted left of the imaginary axis; its spectrum is mostly complex."""
    A = rng.normal(size=(m, m))
    return A - (np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)) * np.eye(m)


def assert_matches_scipy_lyapunov(R):
    from scipy.linalg import solve_continuous_lyapunov

    m = R.shape[0]
    P_y, _ = st.boundary_layer_check(replace(contrived_blocks(m + 1), R_zeta=R))
    ref = solve_continuous_lyapunov(R.T, -np.eye(m))
    assert np.abs(P_y - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_boundary_layer_matches_scipy_on_bundled_blocks(name):
    sc, lin, _ = bundled_lin(name)
    assert_matches_scipy_lyapunov(st.assemble_blocks(lin, sc.graph, sc.params).R_zeta)


def test_boundary_layer_matches_scipy_on_random_hurwitz():
    rng = np.random.default_rng(7)
    complex_spectra = 0
    for _ in range(200):
        R = random_hurwitz(rng, int(rng.integers(1, 10)))
        complex_spectra += bool(np.iscomplexobj(np.linalg.eigvals(R)))
        assert_matches_scipy_lyapunov(R)
    assert complex_spectra > 100


@pytest.mark.parametrize("R", [
    np.diag([-1.0, 0.5, -2.0]),
    np.array([[0.1, 1.0], [-1.0, 0.1]]),      # complex pair, positive real part
    np.array([[0.0, 1.0], [-1.0, 0.0]]),      # on the imaginary axis
])
def test_boundary_layer_rejects_non_hurwitz(R):
    with pytest.raises(MgshareError, match="not Hurwitz"):
        st.boundary_layer_check(replace(contrived_blocks(R.shape[0] + 1), R_zeta=R))


def test_reduced_matrix_matches_rhs_fd(lv5, lv5_reduced, lv5_lin, lv5_equilibrium):
    """The sweep's ratio-0 matrix equals finite differences of the nonlinear rhs."""
    p = lv5.params
    R = st._complement(lv5_lin, lv5.graph, p, lv5_equilibrium.v)
    A = st._timescale_matrix(R, p, 0.0)
    [(_, a0)] = st.epsilon_sweep(lv5_lin, lv5.graph, p, lv5_equilibrium.v, [0.0])
    assert a0 == np.linalg.eigvals(A).real.max()
    eq = lv5_equilibrium
    w = flow_offset(lv5_reduced, lv5_lin, eq.theta, eq.V)
    rhs = reduced_rhs(literal_blocks(lv5_lin, w, lv5.graph, p), p)
    m = 2 * p.n - 1
    r_bar = (transform(p.n) @ eq.theta)[1:]
    x0 = np.concatenate([r_bar, lv5_equilibrium.v])
    h = 1e-7
    J = np.empty((m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = h
        J[:, k] = (rhs(0.0, x0 + e) - rhs(0.0, x0 - e)) / (2 * h)
    assert np.abs(J - A).max() <= 1e-5 * max(1.0, np.abs(A).max())


def test_sweep_stable_at_reference_ratio(lv5, lv5_lin, lv5_equilibrium):
    out = st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, lv5_equilibrium.v, [0.1])
    assert out[0][1] < 0


def test_sweep_never_assembles_blocks(lv5, lv5_lin, lv5_equilibrium, monkeypatch):
    def no_blocks(*_args, **_kw):
        raise AssertionError("assemble_blocks called by the sweep")

    args = (lv5.graph, lv5.params, lv5_equilibrium.v, [0.1, 0.01, 0.0])
    with monkeypatch.context() as m:
        m.setattr(st, "assemble_blocks", no_blocks)
        assert len(st.epsilon_sweep(lv5_lin, *args)) == 3
    # the uniform-angle-shift check still guards every ratio
    bad = lv5_lin.copy()
    flow_blocks(bad)[0][...] += 1e-3 * np.eye(lv5.params.n)     # dP/dtheta, through a view
    with pytest.raises(MgshareError, match="uniform-angle-shift"):
        st.epsilon_sweep(bad, *args)
    with pytest.raises(MgshareError, match="uniform-angle-shift"):
        st.assemble_blocks(bad, lv5.graph, lv5.params)


def test_complement_rejects_lin_of_another_size(lv5, lv5_equilibrium):
    """A lin for 9 units with lv5's graph and params raises a named ValueError, not numpy's."""
    _, lin9, _ = bundled_lin("mv9-template")
    msg = r"lin must have shape \(10, 10\) for 5 units, got \(18, 18\)"
    with pytest.raises(ValueError, match=msg):
        st.assemble_blocks(lin9, lv5.graph, lv5.params)
    with pytest.raises(ValueError, match=msg):
        st.epsilon_sweep(lin9, lv5.graph, lv5.params, lv5_equilibrium.v, [0.1])


def test_complement_rejects_graph_or_voltage_state_of_another_size(lv5, lv5_lin):
    """A graph or voltage state of the wrong size raises a named ValueError, not numpy's."""
    with pytest.raises(ValueError, match="graph must have 5 nodes for 5 units, got 6"):
        st.assemble_blocks(lv5_lin, mg.CommGraph.ring(6), lv5.params)
    with pytest.raises(ValueError, match="graph must have 5 nodes for 5 units, got 6"):
        st.epsilon_sweep(lv5_lin, mg.CommGraph.ring(6), lv5.params, np.zeros(5), [0.1])
    with pytest.raises(ValueError, match=r"voltage state must have shape \(5,\) for 5 units, got \(4,\)"):
        st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, np.zeros(4), [0.1])


@pytest.mark.parametrize("ratio", [-0.1, np.nan, np.inf, -np.inf])
def test_sweep_rejects_bad_ratio(lv5, lv5_reduced, lv5_lin, lv5_equilibrium, ratio, monkeypatch):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, lv5_equilibrium.v, [0.1, ratio])

    def no_newton(*_args, **_kw):
        raise AssertionError("Newton ran before the ratios were checked")

    monkeypatch.setattr(st, "solve_equilibrium", no_newton)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        st.analyze(lv5_reduced, lv5.graph, lv5.params, [0.1, ratio])


def test_sweep_converges_to_reduced_limit(lv5, lv5_lin, lv5_equilibrium):
    """As tau_d/tau_v -> 0 the slow abscissa approaches the reduced system's."""
    [(_, a_red)] = st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, lv5_equilibrium.v, [0.0])
    out = st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, lv5_equilibrium.v,
                           [0.1, 0.01, 0.001])
    gaps = [abs(a - a_red) for _, a in out]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3


def abscissa_without_zero_modes(A):
    """Spectral abscissa after dropping the two eigenvalues of smallest modulus,
    which must be the structural zeros of the uniform angle and dual shifts."""
    w = np.linalg.eigvals(A)
    order = np.argsort(np.abs(w))
    assert np.abs(w[order[:2]]).max() <= 1e-6
    return float(w[order[2:]].real.max())


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_sweep_matches_full_coordinate_oracle(name):
    """The relative-coordinate sweep equals the abscissa of the full (theta, v,
    zeta) complement with rows scaled by [1, tau_v, ratio tau_v] and its two
    zero modes dropped."""
    sc, lin, eq = bundled_lin(name)
    p = sc.params
    J = brackets_jacobian("proposed", p, sc.graph, lin, eq.v)
    at, index = STATE["proposed"].at(p.n), np.arange(J.shape[0])
    slow = np.concatenate([index[at.theta], index[at.v], index[at.zeta]])
    fast = np.concatenate([index[at.Omega], index[at.lam]])
    S = (J[np.ix_(slow, slow)]
         - J[np.ix_(slow, fast)] @ np.linalg.solve(J[np.ix_(fast, fast)], J[np.ix_(fast, slow)]))
    ratios = [0.5, 0.2, 0.1, 0.05, 0.01]
    for r, a in st.epsilon_sweep(lin, sc.graph, p, eq.v, ratios):
        tau = np.repeat([1.0, p.tau_v, r * p.tau_v], p.n)
        ref = abscissa_without_zero_modes(S / tau[:, None])
        assert abs(a - ref) <= 1e-10, r
        assert np.sign(a) == np.sign(ref)


def test_sweep_is_singular_limit_of_full_model(lv5, lv5_reduced, lv5_lin, lv5_equilibrium):
    """With tau_omega and tau_p scaled by 1e-3, the full closed loop's slow
    abscissa matches the sweep's (fast states eliminated) at the same ratio."""
    p = lv5.params
    fast = replace(p, tau_omega=1e-3 * p.tau_omega, tau_p=1e-3 * p.tau_p, tau_d=0.1 * p.tau_v)
    eq = lv5_equilibrium
    model = ClosedLoop("proposed", fast, lv5_reduced, lv5.graph)
    J = model.jac(0.0, np.concatenate([eq.theta, eq.Omega, eq.v, eq.lam, eq.zeta]))
    a_full = abscissa_without_zero_modes(J)
    [(_, a_sweep)] = st.epsilon_sweep(lv5_lin, lv5.graph, p, eq.v, [0.1])
    assert abs(a_full - a_sweep) <= 1e-5


def test_lyapunov_decreases_along_reduced_flow(lv5, lv5_reduced, lv5_lin, lv5_blocks,
                                               lv5_equilibrium):
    """The certified function decays along the nonlinear reduced trajectory."""
    from scipy.integrate import solve_ivp

    p = lv5.params
    cert = st.solve_lmi(lv5_blocks, p.beta)
    assert cert.feasible
    eq = lv5_equilibrium
    r_bar = (transform(lv5_blocks.n) @ eq.theta)[1:]
    v_bar = eq.v
    rng = np.random.default_rng(5)
    x0 = np.concatenate([r_bar + rng.normal(0, 1e-3, 4),
                         v_bar + rng.normal(0, 1e-3, 5)])
    w = flow_offset(lv5_reduced, lv5_lin, eq.theta, eq.V)
    sol = solve_ivp(reduced_rhs(literal_blocks(lv5_lin, w, lv5.graph, p), p), (0, 5.0), x0,
                    rtol=1e-9, atol=1e-12, dense_output=True)
    ts = np.linspace(0, 5.0, 30)
    vals = [lyapunov_value(cert, p, x[:4], x[4:], r_bar, v_bar)
            for x in sol.sol(ts).T]
    vals = np.array(vals)
    assert vals[0] > 0
    assert np.all(np.diff(vals) <= 1e-12 + 1e-6 * vals[:-1])
    assert vals[-1] < 0.5 * vals[0]
