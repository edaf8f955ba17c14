"""Solve the operating point directly and certify its local stability.

Instead of integrating the closed loop, the Newton solver lands on the
steady state in milliseconds, and the analysis pipeline then (a) verifies
the four steady-state guarantees numerically, (b) searches a structured
Lyapunov certificate for the slow reduced dynamics, and (c) sweeps the
dual/voltage timescale ratio to show the two-timescale argument in action.

Run:  python3 demos/02_steady_state_and_certificate.py
"""

import numpy as np

import mgshare as mg
from mgshare import stability as st
from mgshare.network import jacobians

scenario = mg.parse_scenario("lv5")
red = mg.kron_reduce(scenario.network)
params = scenario.params

eq = mg.solve_equilibrium(red, scenario.graph, params, mode="proposed")
print(f"Newton residual {eq.residual:.1e}; synchronous frequency deviation "
      f"{eq.omega_syn_dev / (2 * np.pi):+.4f} Hz")
print("V [p.u.] :", np.round(eq.V, 5))
print("Q/S      :", np.round(eq.Q / params.s_rated, 5), f"(alpha_Q = {eq.alpha_Q:.5f})")
print("saturated:", sorted(eq.saturated))

print("\nsteady-state guarantees:")
for line in mg.verify_properties(eq, params).lines():
    print(" ", line)

print("\nLyapunov certificate for the slow reduced system:")
lin = jacobians(red, eq.theta, eq.V)
blocks = st.assemble_blocks(lin, scenario.graph, params)
cert = st.solve_lmi(blocks, params.beta)
print(f"  feasible = {cert.feasible}, margin = {cert.margin:+.3e} "
      f"(max eig of Q + Q^T; negative certifies decay)")
print(f"  independently re-verified: {cert.verify(blocks, params.beta)}")

P_y, alpha_f = st.boundary_layer_check(blocks)
print(f"  boundary layer (fast dual consensus): alpha_f = {alpha_f:.3f}")

print("\ntimescale-ratio sweep (tau_d / tau_v):")
for ratio, absc in st.epsilon_sweep(lin, scenario.graph, params, eq.v,
                                    [0.5, 0.2, 0.1, 0.05, 0.01]):
    print(f"  ratio {ratio:<5g} spectral abscissa {absc:+.5f}"
          f"  {'stable' if absc < 0 else 'UNSTABLE'}")
[(_, a_red)] = st.epsilon_sweep(lin, scenario.graph, params, eq.v, [0.0])
print(f"  singular-perturbation limit (ratio 0, reduced system): {a_red:+.5f}")
