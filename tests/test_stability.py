"""Stability analysis: transform, cascade blocks, LMI, boundary layer, sweep."""

from dataclasses import replace

import numpy as np
import pytest

import mgshare as mg
from mgshare import stability as st
from mgshare.controller import ClosedLoop, brackets_jacobian
from mgshare.errors import MgshareError
from mgshare.network import jacobians


@pytest.fixture(scope="module")
def lv5_blocks(lv5, lv5_reduced, lv5_equilibrium):
    lin = jacobians(lv5_reduced, lv5_equilibrium.theta, lv5_equilibrium.V)
    return st.assemble_blocks(lin, lv5.graph, lv5.params)


@pytest.fixture(scope="module")
def lv5_lin(lv5_reduced, lv5_equilibrium):
    return jacobians(lv5_reduced, lv5_equilibrium.theta, lv5_equilibrium.V)


def test_transform_maps_ones_to_e1():
    for n in (2, 3, 5, 8):
        T, Tinv = st.transform_matrix(n)
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.allclose(T @ np.ones(n), e1, atol=1e-12)
        assert np.allclose(T @ Tinv, np.eye(n), atol=1e-12)


def literal_blocks(lin, g, params):
    """The cascade-block formulas written out with T, K = (I + kL)^-1 and inverses."""
    n = lin.n
    T, _ = st.transform_matrix(n)
    Tinv = np.linalg.inv(T)
    Ir = np.hstack([np.zeros((n - 1, 1)), np.eye(n - 1)])
    L = mg.laplacian(g)
    K = mg.consensus_gain_matrix(g, params.k)
    invS = np.diag(1.0 / params.s_rated)
    mS = np.diag(params.m_omega / params.s_rated)
    Vs = np.diag(params.v_star)
    KmI = K - np.eye(n)
    tv = params.tau_v
    b = dict(
        R_theta=-Ir @ T @ mS @ lin.J_theta_P @ Tinv @ Ir.T,
        R_thetaV=-Ir @ T @ mS @ lin.J_V_P,
        R_vtheta=Vs @ KmI @ invS @ lin.J_theta_Q @ Tinv @ Ir.T,
        R_vV=Vs @ KmI @ invS @ lin.J_V_Q,
        R_vzeta=-Vs @ K @ L @ Tinv @ Ir.T,
        R_zetatheta=Ir @ (T @ L @ K @ invS @ lin.J_theta_Q @ Tinv @ Ir.T) / tv,
        R_zetaV=Ir @ (T @ L @ K @ invS @ lin.J_V_Q) / tv,
        R_zeta=-Ir @ (T @ L @ K @ L @ Tinv @ Ir.T) / tv,
        d_theta=-Ir @ T @ mS @ lin.w_P,
        d_v=params.beta * params.v_star + Vs @ KmI @ invS @ lin.w_Q,
        d_zeta=Ir @ (T @ L @ K @ invS @ lin.w_Q) / tv,
    )
    Rz_inv = np.linalg.inv(b["R_zeta"])
    b["R_vtheta_new"] = b["R_vtheta"] - b["R_vzeta"] @ Rz_inv @ b["R_zetatheta"]
    b["R_vV_new"] = b["R_vV"] - b["R_vzeta"] @ Rz_inv @ b["R_zetaV"]
    b["d_v_new"] = b["d_v"] - b["R_vzeta"] @ Rz_inv @ b["d_zeta"]
    return b


def bundled_lin(name):
    """(scenario, flow linearized at its proposed-mode equilibrium, that equilibrium)."""
    sc = mg.parse_scenario(name)
    red = mg.kron_reduce(sc.network)
    eq = mg.solve_equilibrium(red, sc.graph, sc.params, mode="proposed")
    return sc, jacobians(red, eq.theta, eq.V), eq


@pytest.mark.parametrize("name", ["lv5", "mv9-template"])
def test_blocks_match_literal_formulas(name):
    """Blocks derived from the closed-loop Jacobian equal the written-out formulas."""
    sc, lin, _ = bundled_lin(name)
    blocks = st.assemble_blocks(lin, sc.graph, sc.params)
    ref = literal_blocks(lin, sc.graph, sc.params)
    assert set(ref) == set(st.ReducedBlocks.__dataclass_fields__)
    for f in ref:
        got = getattr(blocks, f)
        assert got.shape == ref[f].shape, f
        assert np.abs(got - ref[f]).max() <= 1e-10 * np.abs(ref[f]).max(), f


def test_block_shapes(lv5_blocks):
    b = lv5_blocks
    n = b.n
    assert b.R_theta.shape == (n - 1, n - 1)
    assert b.R_thetaV.shape == (n - 1, n)
    assert b.R_vtheta.shape == (n, n - 1)
    assert b.R_vV.shape == (n, n)
    assert b.R_zeta.shape == (n - 1, n - 1)


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
    return st.ReducedBlocks(
        R_theta=-I_m, R_thetaV=z_mn, R_vtheta=z_nm, R_vV=-np.eye(n),
        R_vzeta=z_nm, R_zetatheta=I_m * 0, R_zetaV=z_mn, R_zeta=-I_m,
        d_theta=np.zeros(m), d_v=np.zeros(n), d_zeta=np.zeros(m),
        R_vtheta_new=z_nm, R_vV_new=-np.eye(n), d_v_new=np.zeros(n),
    )


def test_lmi_contrived_case_fast():
    import time
    t0 = time.time()
    cert = st.solve_lmi(contrived_blocks(), beta=0.01)
    assert cert.feasible
    assert time.time() - t0 < 10.0


def test_lmi_infeasible_case_reported():
    """Flip the voltage block unstable: solver must not claim feasibility."""
    b = contrived_blocks()
    bad = st.ReducedBlocks(**{
        **{f: getattr(b, f) for f in b.__dataclass_fields__},
        "R_vV_new": +np.eye(4),
    })
    cert = st.solve_lmi(bad, beta=0.01)
    assert not cert.feasible


def test_lmi_subgradient_certifies_where_identity_fails():
    """A loaded lv5 point with a narrow band: the identity start is infeasible,
    and the subgradient steps reach a certificate that verifies."""
    sc = mg.parse_scenario("lv5")
    n = sc.params.n
    params = sc.params.with_limits(np.full(n, 0.947), np.full(n, 1.042))
    red = mg.kron_reduce(sc.network, np.array([1.18, 0.78, 0.24, 0.29, 0.40]))
    eq = mg.solve_equilibrium(red, sc.graph, params, mode="proposed")
    blocks = st.assemble_blocks(jacobians(red, eq.theta, eq.V), sc.graph, params)
    Q = st._q_matrix(blocks, params.beta, np.eye(n - 1), np.ones(n))
    assert np.linalg.eigvalsh(Q + Q.T).max() > 0
    cert = st.solve_lmi(blocks, params.beta)
    assert cert.feasible
    assert cert.verify(blocks, params.beta)


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


def test_reduced_matrix_matches_rhs_fd(lv5, lv5_lin, lv5_blocks, lv5_equilibrium):
    """The sweep's ratio-0 matrix equals finite differences of the nonlinear rhs."""
    p = lv5.params
    J = brackets_jacobian("proposed", p, mg.laplacian(lv5.graph), lv5_lin, lv5_equilibrium.v)
    A = st._timescale_matrix(st._relative(st._eliminate_fast(J)), p, 0.0)
    [(_, a0)] = st.epsilon_sweep(lv5_lin, lv5.graph, p, lv5_equilibrium.v, [0.0])
    assert a0 == st.spectral_abscissa(A)
    rhs = st.reduced_rhs(lv5_blocks, p)
    m = 2 * lv5_blocks.n - 1
    T, _ = st.transform_matrix(lv5_blocks.n)
    r_bar = (T @ lv5_equilibrium.theta)[1:]
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
    bad = replace(lv5_lin, J_theta_P=lv5_lin.J_theta_P + 1e-3 * np.eye(lv5_lin.n))
    with pytest.raises(MgshareError, match="uniform-angle-shift"):
        st.epsilon_sweep(bad, *args)


@pytest.mark.parametrize("ratio", [-0.1, np.nan, np.inf, -np.inf])
def test_sweep_rejects_bad_ratio(lv5, lv5_lin, lv5_equilibrium, ratio):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        st.epsilon_sweep(lv5_lin, lv5.graph, lv5.params, lv5_equilibrium.v, [0.1, ratio])


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
    S = st._eliminate_fast(brackets_jacobian("proposed", p, mg.laplacian(sc.graph), lin, eq.v))
    ratios = [0.5, 0.2, 0.1, 0.05, 0.01]
    for r, a in st.epsilon_sweep(lin, sc.graph, p, eq.v, ratios):
        tau = np.repeat([1.0, p.tau_v, r * p.tau_v], lin.n)
        ref = abscissa_without_zero_modes(S / tau[:, None])
        assert abs(a - ref) <= 1e-10, r
        assert np.sign(a) == np.sign(ref)


def test_sweep_is_singular_limit_of_full_model(lv5, lv5_reduced, lv5_lin, lv5_equilibrium):
    """With tau_omega and tau_p scaled by 1e-3, the full closed loop's slow
    abscissa matches the sweep's (fast states eliminated) at the same ratio."""
    p = lv5.params
    fast = replace(p, tau_omega=1e-3 * p.tau_omega, tau_p=1e-3 * p.tau_p, tau_d=0.1 * p.tau_v)
    eq = lv5_equilibrium
    model = ClosedLoop("proposed", fast, lv5_reduced, mg.laplacian(lv5.graph))
    J = model.jac(0.0, np.concatenate([eq.theta, eq.Omega, eq.v, eq.lam, eq.zeta]))
    a_full = abscissa_without_zero_modes(J)
    [(_, a_sweep)] = st.epsilon_sweep(lv5_lin, lv5.graph, p, eq.v, [0.1])
    assert abs(a_full - a_sweep) <= 1e-5


def test_lyapunov_decreases_along_reduced_flow(lv5, lv5_blocks, lv5_equilibrium):
    """The certified function decays along the nonlinear reduced trajectory."""
    from scipy.integrate import solve_ivp

    p = lv5.params
    cert = st.solve_lmi(lv5_blocks, p.beta)
    assert cert.feasible
    T, _ = st.transform_matrix(lv5_blocks.n)
    r_bar = (T @ lv5_equilibrium.theta)[1:]
    v_bar = lv5_equilibrium.v
    rng = np.random.default_rng(5)
    x0 = np.concatenate([r_bar + rng.normal(0, 1e-3, 4),
                         v_bar + rng.normal(0, 1e-3, 5)])
    sol = solve_ivp(st.reduced_rhs(lv5_blocks, p), (0, 5.0), x0,
                    rtol=1e-9, atol=1e-12, dense_output=True)
    ts = np.linspace(0, 5.0, 30)
    vals = [st.lyapunov_value(cert, p, x[:4], x[4:], r_bar, v_bar)
            for x in sol.sol(ts).T]
    vals = np.array(vals)
    assert vals[0] > 0
    assert np.all(np.diff(vals) <= 1e-12 + 1e-6 * vals[:-1])
    assert vals[-1] < 0.5 * vals[0]
