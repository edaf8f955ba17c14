"""Physical AC network model.

``NetworkData`` holds impedances and loads in per unit of its ``bases``;
the scenario parser converts ohm and VA tables once, as it reads them.
The module assembles the full nodal admittance matrix Y from these tables
(``NetworkData`` stamps its lines, then its connectors, into ``Y_branch`` once;
``full_admittance`` adds each load's scaled shunt to a copy, in table order),
Kron-reduces Y onto the inverter internal buses, and evaluates the
nonlinear power flow in phasor form, S = P + jQ = E conj(I) with
E = V e^{j theta}, I = Y E and Y = G + jB. Its linearization,
``LinearizedModel``, is the analytic Jacobians alone, in complex matrix
notation (Zimmerman, MATPOWER Technical Note 2):

    dS/dtheta = j diag(E) conj(diag(I) - Y diag(E))
    dS/dV     = diag(E) conj(Y diag(e^{j theta})) + conj(diag(I)) diag(e^{j theta})

Loads are modeled as constant admittances sized to draw the declared apparent
power at the stated lagging power factor when the bus sits at nominal
voltage; this is what makes the reduced admittance description exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NetworkDataError
from .graph import Record, _connected, read_only

__all__ = [
    "Bases",
    "Line",
    "Connector",
    "Load",
    "NetworkData",
    "ReducedNetwork",
    "LinearizedModel",
    "kron_reduce",
    "power_flow",
    "jacobians",
]


@dataclass(frozen=True)
class Bases:
    """Per-unit system bases: apparent power [VA], RMS voltage [V], frequency [Hz]."""

    s_base: float
    v_base: float
    f_nom: float

    def __post_init__(self):
        if not all(0 < b < math.inf for b in (self.s_base, self.v_base, self.f_nom)):
            raise NetworkDataError("bases must all be positive and finite")

    @property
    def z_base(self) -> float:
        return self.v_base**2 / self.s_base


@dataclass(frozen=True)
class Line:
    """Series branch between two main buses (1-based ids); r, x in per unit."""

    from_bus: int
    to_bus: int
    r: float
    x: float


@dataclass(frozen=True)
class Connector:
    """Output connector joining inverter ``ibr`` (1-based) to main bus ``bus``."""

    ibr: int
    bus: int
    r: float
    x: float


@dataclass(frozen=True)
class Load:
    """Constant-admittance load: apparent power ``s`` at lagging power factor ``pf``."""

    bus: int
    s: float
    pf: float


@dataclass(frozen=True)
class NetworkData:
    """Network description mirroring the scenario file tables.

    Line and connector impedances are in per unit of ``bases.z_base``, and
    load apparent powers in per unit of ``bases.s_base``. ``Y_branch`` holds the
    lines' and connectors' nodal admittance, derived once, outside equality.
    """

    bases: Bases
    n_bus: int
    lines: tuple[Line, ...]
    connectors: tuple[Connector, ...]
    loads: tuple[Load, ...]
    Y_branch: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_bus < 1:
            raise NetworkDataError("need at least one main bus")
        for ln in self.lines:
            self._check_branch(ln.r, ln.x, f"line ({ln.from_bus},{ln.to_bus})")
            self._check_bus(ln.from_bus, "line")
            self._check_bus(ln.to_bus, "line")
        ibrs = [c.ibr for c in self.connectors]
        if sorted(ibrs) != list(range(1, len(ibrs) + 1)):
            raise NetworkDataError("connector ibr ids must be 1..n without gaps")
        for c in self.connectors:
            self._check_branch(c.r, c.x, f"connector of IBR {c.ibr}")
            self._check_bus(c.bus, "connector")
        for ld in self.loads:
            self._check_bus(ld.bus, "load")
            if not (0 <= ld.s < math.inf and 0 < ld.pf <= 1):
                raise NetworkDataError(f"load at bus {ld.bus} needs a finite s >= 0 and pf in (0,1]")
        n = self.n_ibr
        Y = np.zeros((n + self.n_bus,) * 2, dtype=complex)    # internal buses, then main buses
        a = np.zeros(Y.shape)
        ends = [(n + ln.from_bus - 1, n + ln.to_bus - 1, ln) for ln in self.lines]
        for i, j, branch in ends + [(c.ibr - 1, n + c.bus - 1, c) for c in self.connectors]:
            a[i, j] = a[j, i] = 1.0
            y = 1.0 / complex(branch.r, branch.x)
            Y[i, i] += y
            Y[j, j] += y
            Y[i, j] -= y
            Y[j, i] -= y
        if not _connected(a):
            raise NetworkDataError("electrical graph (buses+lines+connectors) is disconnected")
        object.__setattr__(self, "Y_branch", read_only(Y))

    def _check_bus(self, b: int, kind: str):
        if not (1 <= b <= self.n_bus):
            raise NetworkDataError(f"{kind} references unknown bus {b}")

    @staticmethod
    def _check_branch(r: float, x: float, what: str):
        if not (0 <= r < math.inf and abs(x) < math.inf):
            raise NetworkDataError(f"negative resistance or non-finite impedance on {what}")
        if r == 0 and x == 0:
            raise NetworkDataError(f"{what} has zero impedance")

    @property
    def n_ibr(self) -> int:
        return len(self.connectors)


@dataclass(frozen=True, eq=False)
class ReducedNetwork(Record):
    """Kron-reduced admittance G + jB seen from the inverter internal buses (p.u.)."""

    G: np.ndarray
    B: np.ndarray
    Y: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        G = np.array(self.G, dtype=float)
        B = np.array(self.B, dtype=float)
        if G.shape != B.shape or G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise NetworkDataError("G and B must be equal-size square matrices")
        if not (np.isfinite(G).all() and np.isfinite(B).all()):
            raise NetworkDataError("reduced admittance G + jB must be finite")
        if any(np.abs(a - a.T).max() > 1e-9 * max(1.0, np.abs(a).max()) for a in (G, B)):
            raise NetworkDataError("reduced admittance must be symmetric (reciprocal network)")
        # passivity sanity: conductance part must not be negative definite
        if np.linalg.eigvalsh(0.5 * (G + G.T)).min() < -1e-9:
            raise NetworkDataError("reduced conductance has a negative eigenvalue")
        for name, a in (("G", G), ("B", B), ("Y", G + 1j * B)):
            object.__setattr__(self, name, a)
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.G.shape[0]


def load_admittance(s: float, pf: float) -> complex:
    """Constant shunt admittance drawing (s, pf lagging) at 1.0 p.u. voltage."""
    return s * (pf - 1j * math.sin(math.acos(pf)))


def full_admittance(data: NetworkData, load_scale=None) -> np.ndarray:
    """Nodal admittance over [internal buses | main buses]: ``data.Y_branch`` plus scaled load shunts."""
    n = data.n_ibr
    nb = data.n_bus
    scale = np.ones(nb) if load_scale is None else np.asarray(load_scale, dtype=float)
    if scale.shape != (nb,):
        raise NetworkDataError(f"load_scale must have length {nb}")
    if not np.all((scale >= 0) & (scale < np.inf)):
        raise NetworkDataError(f"load_scale must be finite and nonnegative, got {scale}")
    Y = data.Y_branch.copy()
    for ld in data.loads:
        Y[n + ld.bus - 1, n + ld.bus - 1] += scale[ld.bus - 1] * load_admittance(ld.s, ld.pf)
    return Y


def kron_reduce(data: NetworkData, load_scale=None) -> ReducedNetwork:
    """Schur-complement all main buses away, retaining the internal buses.

    Y_red = Y_AA - Y_AB Y_BB^-1 Y_BA over the partition A = internal,
    B = main. The eliminated block must be nonsingular (no isolated island).
    """
    n = data.n_ibr
    Y = full_admittance(data, load_scale)
    try:
        Yred = _schur(Y, n)
    except np.linalg.LinAlgError:
        bad = _singular_buses(Y[n:, n:])
        raise NetworkDataError(
            f"cannot eliminate main buses {bad}: eliminated block is singular"
        ) from None
    Yred = 0.5 * (Yred + Yred.T)  # symmetrize round-off
    return ReducedNetwork(G=Yred.real, B=Yred.imag)


def _schur(M: np.ndarray, k: int) -> np.ndarray:
    """Schur complement of M over its rows and columns from k on."""
    return M[:k, :k] - M[:k, k:] @ np.linalg.solve(M[k:, k:], M[k:, :k])


def _singular_buses(Ybb: np.ndarray) -> list[int]:
    """Best-effort identification of buses in the singular null space (1-based)."""
    _, s, vh = np.linalg.svd(Ybb)
    null = vh[s < 1e-12 * max(s[0], 1.0)]
    if null.size == 0:
        return []
    mask = np.abs(null).max(axis=0) > 1e-8
    return [int(i) + 1 for i in np.nonzero(mask)[0]]


def power_flow(net: ReducedNetwork, theta: np.ndarray, V: np.ndarray):
    """Evaluate (P, Q) injections at the reduced buses; pure algebra, no iteration.

    ``theta`` and ``V`` share one shape (..., n); leading axes are a batch of
    independent operating points, evaluated at once. Every step runs in
    place, so a batch holds two complex arrays at a time, and each point's
    P and Q are bitwise those of a call on that point alone.
    """
    theta, V = np.asarray(theta, dtype=float), np.asarray(V, dtype=float)
    if theta.shape[-1:] != (net.n,) or V.shape != theta.shape:
        raise ValueError(f"theta and V must share one shape (..., {net.n})")
    E = 1j * theta
    np.exp(E, out=E)
    np.multiply(V, E, out=E)
    S = (net.Y @ E[..., None])[..., 0]
    np.conjugate(S, out=S)
    np.multiply(E, S, out=S)
    return S.real, S.imag


@dataclass(frozen=True, eq=False)
class LinearizedModel(Record):
    """The power flow's partial derivatives at one operating point.

    The angle Jacobians annihilate the all-ones vector (uniform angle shifts
    do not change power flows).
    """

    J_theta_P: np.ndarray
    J_V_P: np.ndarray
    J_theta_Q: np.ndarray
    J_V_Q: np.ndarray

    @property
    def n(self) -> int:
        return self.J_V_P.shape[0]


def jacobians(net: ReducedNetwork, theta0: np.ndarray, V0: np.ndarray) -> LinearizedModel:
    """Analytic partial derivatives of the power flow at one point (theta0, V0)."""
    theta0, V0 = np.asarray(theta0, dtype=float), np.asarray(V0, dtype=float)
    if theta0.shape != (net.n,) or V0.shape != (net.n,):
        raise ValueError(f"theta and V must both have shape ({net.n},)")
    U = np.exp(1j * theta0)
    E = V0 * U
    I = net.Y @ E
    A = -(net.Y * E)
    np.einsum("ii->i", A)[:] += I     # diag(I) - Y diag(E), through a view of A's diagonal
    dS_dtheta = 1j * E[:, None] * np.conj(A)
    dS_dV = E[:, None] * np.conj(net.Y * U)
    np.einsum("ii->i", dS_dV)[:] += np.conj(I) * U
    return LinearizedModel(dS_dtheta.real, dS_dV.real, dS_dtheta.imag, dS_dV.imag)
