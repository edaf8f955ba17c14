"""Communication-graph invariants and oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgshare import CommGraph, DisconnectedGraphError

RING5_SIGMA2 = 2.0 - 2.0 * np.cos(2.0 * np.pi / 5.0)  # frozen spectral oracle


def test_ring_laplacian_structure():
    g = CommGraph.ring(5)
    L = g.L
    assert np.allclose(L @ np.ones(5), 0.0)
    assert np.allclose(L, L.T)
    assert np.allclose(np.diag(L), 2.0)


def test_ring5_algebraic_connectivity_oracle():
    assert CommGraph.ring(5).sigma2 == pytest.approx(RING5_SIGMA2, abs=1e-12)


def test_two_node_connectivity():
    g = CommGraph.from_edges(2, [(0, 1)])
    # path graph K2: sigma2 = 2 (eigenvalues 0, 2)
    assert g.sigma2 == pytest.approx(2.0, abs=1e-12)


def test_disconnected_rejected():
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    with pytest.raises(DisconnectedGraphError):
        CommGraph(A)


def test_value_equality():
    g = CommGraph.ring(3)
    assert g == CommGraph.ring(3) and g == CommGraph(g.adjacency.copy())
    assert g != CommGraph.ring(4) and g != CommGraph.ring(3, weight=2.0)
    assert g != CommGraph.from_edges(3, [(0, 1), (1, 2)])
    assert (g == "ring") is False and (g != "ring") is True


@pytest.mark.parametrize("edge", [(0, -1), (0, 3), (3, 1)])
def test_edge_outside_the_nodes_rejected(edge):
    """A node index outside 0..n-1 is an error, not a wrapped or out-of-bounds index."""
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) has a node outside 0..2"):
        CommGraph.from_edges(3, [edge, (1, 2)])


def test_asymmetric_rejected():
    A = np.zeros((3, 3))
    A[0, 1] = 1.0
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        CommGraph(A)


def test_negative_weight_rejected():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = -1.0
    A[1, 2] = A[2, 1] = 1.0
    with pytest.raises(ValueError, match="edge weights must be nonnegative"):
        CommGraph(A)


@pytest.mark.parametrize("A, match", [
    (np.zeros((2, 3)), r"^adjacency must be square, got shape \(2, 3\)$"),
    (np.zeros((1, 1)), "^graph needs at least 2 nodes$"),
    (np.ones((3, 3)), "^adjacency diagonal must be zero$"),
], ids=["not-square", "one-node", "self-loop"])
def test_malformed_adjacency_rejected(A, match):
    with pytest.raises(ValueError, match=match):
        CommGraph(A)


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_rejected(weight):
    """A non-finite weight is named, not left to the sign and symmetry checks or to eigvalsh."""
    A = np.array([[0.0, weight, 1.0], [weight, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=rf"edge weights must be finite, got {weight} at \(0, 1\), "
                                         rf"{weight} at \(1, 0\)$"):
        CommGraph(A)


@pytest.mark.parametrize("n", range(2, 13))
def test_laplacian_is_a_new_copy_of_the_graphs_own(n):
    """The graph holds its own L = D - A, a new read-only array."""
    rng = np.random.default_rng(n)
    g = CommGraph.from_edges(n, [(i, (i + 1) % n, rng.uniform(0.5, 2.0)) for i in range(n - 1)]
                             + [(0, n - 1, 1.0)] * (n > 2))
    expected = np.diag(g.adjacency.sum(axis=1)) - g.adjacency
    with pytest.raises(ValueError, match="read-only"):
        g.L[0, 0] = 0.0
    assert np.array_equal(g.L, expected) and not np.shares_memory(g.L, g.adjacency)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 10_000))
def test_random_connected_graph_properties(n, seed):
    """On a ring plus random chords: L psd with a single zero mode, sigma2 > 0."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(rng.integers(0, n)):
        i, j = rng.choice(n, 2, replace=False)
        edges.append((int(i), int(j)))
    g = CommGraph.from_edges(n, [(i, j) for i, j in edges if i != j])
    w = np.linalg.eigvalsh(g.L)
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert w[1] > 1e-9
    assert g.sigma2 == pytest.approx(w[1], abs=1e-9)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_sigma2_is_held_by_the_graph(n):
    """The graph holds sigma2, bitwise eigvalsh(g.L)[1], outside equality."""
    rng = np.random.default_rng(n)
    a = np.triu(rng.uniform(0.5, 2.0, (n, n)), 1)
    g = CommGraph(a + a.T)
    assert g.sigma2 == np.linalg.eigvalsh(g.L)[1]
    assert type(g.sigma2) is float and "sigma2" not in repr(g)
