"""Shared fixtures; the heavy simulation runs are session-scoped."""

import time
from dataclasses import replace

import numpy as np
import pytest

import mgshare as mg
from mgshare.controller import FLOW

RUNTIMES: dict[str, float] = {}


def kkt_residual(g, k, lam, zeta, q_ratio):
    """Stationarity and consensus residuals of the sharing problem's optimality system.

    Both vanish exactly at (and only at) the optimizer's equilibria.
    """
    L = g.L
    stationarity = lam - q_ratio + L @ zeta + k * (L @ lam)
    consensus = L @ lam
    return stationarity, consensus


def flow_blocks(lin):
    """(dP/dtheta, dP/dV, dQ/dtheta, dQ/dV): the n x n blocks of a ``jacobians`` array."""
    n = lin.shape[0] // 2
    f = FLOW.at(n)
    P, Q = lin[:n], lin[n:]
    return P[:, f.theta], P[:, f.V], Q[:, f.theta], Q[:, f.V]


@pytest.fixture(scope="session")
def lv5():
    return mg.parse_scenario("lv5")


@pytest.fixture(scope="session")
def lv5_reduced(lv5):
    return mg.kron_reduce(lv5.network)


@pytest.fixture(scope="session")
def ring3_reduced():
    """Reduced network of a uniform 3-bus line ring with a small shunt at every bus."""
    lap = mg.CommGraph.ring(3).L
    return mg.ReducedNetwork(G=2.0 * lap + 0.5 * np.eye(3), B=-8.0 * lap - 0.2 * np.eye(3))


@pytest.fixture(scope="session")
def lv5_equilibrium(lv5, lv5_reduced):
    return mg.solve_equilibrium(lv5_reduced, lv5.graph, lv5.params, mode="proposed")


@pytest.fixture(scope="session")
def lv5_overloaded(lv5):
    """lv5 with every load's apparent power x4: no operating point in either mode."""
    loads = tuple(replace(load, s=4.0 * load.s) for load in lv5.network.loads)
    return replace(lv5, network=replace(lv5.network, loads=loads))


@pytest.fixture(scope="session")
def case1_timeseries(lv5):
    """Full Case-1 timeline: activate at 10 s, -80% load at bus 5 at 25 s, restore at 40 s."""
    t0 = time.perf_counter()
    ts = mg.simulate(lv5)
    RUNTIMES["case1"] = time.perf_counter() - t0
    return ts


@pytest.fixture(scope="session")
def case2_timeseries(lv5):
    """Case-2 behavior on the lv5 network: limit shift to (1.01, 1.05) at 20 s."""
    events = (
        mg.Event(time=10.0, kind="activate"),
        mg.Event(time=20.0, kind="set-limits", v_min=1.01, v_max=1.05),
    )
    t0 = time.perf_counter()
    ts = mg.simulate(replace(lv5, t_end=40.0, events=events))
    RUNTIMES["case2"] = time.perf_counter() - t0
    return ts
