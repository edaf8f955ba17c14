"""Parameter selection heuristics and validation.

Sizing rules: voltage droop gain equals the allowed band half-width, the
frequency droop gain follows from the allowed steady-state frequency
deviation, tau_Omega from the worst-case initial rate of change of
frequency after a full power step, the consensus gain from the graph's
algebraic connectivity, and beta from a user sharing-error budget. The
timescale ratios enforce the two-timescale separation the stability
analysis relies on; tau_v is additionally expected to land in the 1-10 s
voltage-response range of IEEE 1547.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import MgshareError
from .graph import CommGraph, Record

__all__ = ["TuningSpec", "TunedParams", "tune", "validate", "ValidationReport"]

BETA_CAP = 0.01
TAU_D_FLOOR = 0.1


@dataclass(frozen=True)
class TuningSpec:
    """User targets driving the selection procedure."""

    delta_f_max: float            # p.u. of f_nom
    rocof_star: float             # Hz/s
    tau_p: float = 0.01
    k_d: float = 10.0
    beta_error_budget: float = 5e-4
    f_nom: float = 50.0
    v_base: float = 220.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise MgshareError(f"tuning spec field {f.name} must be positive and finite")


@dataclass(frozen=True, eq=False)
class TunedParams(Record):
    """Complete gain set produced by ``tune``; m_v is reported in both units."""

    m_star: float                 # rad/s per p.u. power
    m_v_pu: np.ndarray            # = Delta_i
    m_v_volt: np.ndarray
    tau_omega: float
    tau_p: float
    tau_d: float
    tau_v: float
    k: float
    sigma2: float
    beta: float
    warnings: tuple[str, ...] = ()


def tune(spec: TuningSpec, g: CommGraph, v_min, v_max) -> TunedParams:
    """Run the selection procedure for the fleet with limits (v_min, v_max) p.u."""
    v_min = np.atleast_1d(np.asarray(v_min, dtype=float))
    v_max = np.atleast_1d(np.asarray(v_max, dtype=float))
    v_min, v_max = np.broadcast_arrays(v_min, v_max)
    if not np.all(np.isfinite(v_min) & np.isfinite(v_max)):
        raise MgshareError(f"voltage limits must be finite, got v_min={v_min}, v_max={v_max}")
    if np.any(v_min >= v_max):
        raise MgshareError("need v_min < v_max")
    delta = 0.5 * (v_max - v_min)
    v_star = 0.5 * (v_max + v_min)

    m_star = 2.0 * math.pi * spec.delta_f_max * spec.f_nom
    tau_omega = m_star / (2.0 * math.pi * spec.rocof_star)
    tau_d = max(10.0 * spec.tau_p, TAU_D_FLOOR)
    tau_v = max(10.0 * tau_omega, 10.0 * tau_d)
    k = spec.k_d / g.sigma2

    beta = BETA_CAP
    worst = float(np.max(delta / v_star))
    for _ in range(60):
        if beta * worst <= spec.beta_error_budget * (1 + 1e-12):
            break
        beta *= 0.5
    else:
        raise MgshareError(
            f"sharing-error budget {spec.beta_error_budget} unreachable "
            f"(needs beta < {spec.beta_error_budget / worst:.3e})"
        )

    warnings = []
    if not (1.0 <= tau_v <= 10.0):
        warnings.append(
            f"tau_v = {tau_v:.3g} s is outside the 1-10 s voltage response "
            "range of IEEE 1547"
        )
    return TunedParams(
        m_star=m_star,
        m_v_pu=delta,
        m_v_volt=delta * spec.v_base,
        tau_omega=tau_omega,
        tau_p=spec.tau_p,
        tau_d=tau_d,
        tau_v=tau_v,
        k=k,
        sigma2=g.sigma2,
        beta=beta,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ValidationReport:
    """Per-rule outcome of ``validate``; empty ``violations`` means pass."""

    violations: tuple[str, ...]
    checked: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(params, beta_error_budget: float | None = None) -> ValidationReport:
    """Check an IbrParams set against the timescale and sharing-budget rules.

    Boundary values (exactly 10x) pass; the reference gain table itself
    sits on them. ``beta_error_budget`` None skips the sharing rule; any
    other budget must be positive and finite.
    """
    if beta_error_budget is not None and not 0 < beta_error_budget < math.inf:
        raise ValueError(f"beta_error_budget must be positive and finite, got {beta_error_budget}")
    checked = []
    violations = []

    def rule(name, ok):
        checked.append(name)
        if not ok:
            violations.append(name)

    eps = 1e-12
    rule(
        "tau_v >= 10 * max(tau_omega, tau_d)  (slow voltage channel)",
        params.tau_v + eps >= 10.0 * max(params.tau_omega, params.tau_d),
    )
    rule(
        "tau_d >= 10 * tau_p  (slow dual vs primal filter)",
        params.tau_d + eps >= 10.0 * params.tau_p,
    )
    if beta_error_budget is not None:
        worst = float(np.max(params.beta * params.delta / params.v_star))
        rule(
            f"beta * Delta / V_star <= {beta_error_budget}  (sharing accuracy)",
            worst <= beta_error_budget * (1 + 1e-9),
        )
    return ValidationReport(violations=tuple(violations), checked=tuple(checked))
