"""Solve the operating point directly and certify its local stability.

Instead of integrating the closed loop, one call to ``stability.analyze``
lands on the steady state by Newton in milliseconds and runs the whole
analysis pass there. The demo then (a) verifies the four steady-state
guarantees numerically, (b) reports the structured Lyapunov certificate for
the slow reduced dynamics and the boundary layer, and (c) shows the sweep of
the dual/voltage timescale ratio, the two-timescale argument in action.

Run:  python3 demos/02_steady_state_and_certificate.py
"""

import numpy as np

import mgshare as mg

scenario = mg.parse_scenario("lv5")
params = scenario.params
result = mg.analyze(mg.kron_reduce(scenario.network), scenario.graph, params,
                    [0.5, 0.2, 0.1, 0.05, 0.01, 0.0])

eq = result.equilibrium
print(f"Newton residual {eq.residual:.1e}; synchronous frequency deviation "
      f"{eq.omega_syn_dev / (2 * np.pi):+.4f} Hz")
print("V [p.u.] :", np.round(eq.V, 5))
print("Q/S      :", np.round(eq.Q / params.s_rated, 5), f"(alpha_Q = {eq.alpha_Q:.5f})")
print("saturated:", sorted(eq.saturated))

print("\nsteady-state guarantees:")
for line in mg.verify_properties(eq, params).lines():
    print(" ", line)

print("\nLyapunov certificate for the slow reduced system:")
cert = result.certificate
print(f"  feasible = {cert.feasible}, margin = {cert.margin:+.3e} "
      f"(max eig of Q + Q^T; negative certifies decay)")
print(f"  independently re-verified: {cert.verify(result.blocks, params.beta)}")
print(f"  boundary layer (fast dual consensus): alpha_f = {result.alpha_f:.3f}")

print("\ntimescale-ratio sweep (tau_d / tau_v):")
*sweep, (_, a_red) = result.sweep
for ratio, absc in sweep:
    print(f"  ratio {ratio:<5g} spectral abscissa {absc:+.5f}"
          f"  {'stable' if absc < 0 else 'UNSTABLE'}")
print(f"  singular-perturbation limit (ratio 0, reduced system): {a_red:+.5f}")
