"""Undirected weighted communication graph between inverter units.

Provides the Laplacian algebra used by the distributed optimizer and the
stability machinery: L = D - A and the algebraic connectivity sigma_2, which
a graph computes once when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DisconnectedGraphError

__all__ = ["CommGraph"]


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place."""
    a.setflags(write=False)
    return a


def value_eq(a, b) -> bool:
    """``__eq__`` of a dataclass with array fields: same type, compared fields equal by value."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)


class Record:
    """Base of the frozen dataclasses that hold arrays, inputs and results alike.

    A record compares its compared fields by value (``value_eq``), refuses
    ``hash()``, since no hash agrees with array equality, and makes every
    ndarray field read-only in place. Subclasses are declared
    ``@dataclass(frozen=True, eq=False)``. An input record takes arrays from
    callers: its own ``__post_init__`` stores a copy of each, so the caller's
    array is neither frozen nor shared, and ends with ``super().__post_init__()``.
    A result record holds arrays the package built for it and copies nothing.
    """

    __eq__ = value_eq
    __hash__ = None

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            a = getattr(self, name)
            if isinstance(a, np.ndarray):
                read_only(a)


@dataclass(frozen=True, eq=False)
class CommGraph(Record):
    """Connected, undirected, weighted communication topology.

    ``adjacency`` is the symmetric nonnegative matrix [a_ij] with zero
    diagonal; one node per inverter unit. Construction fails on a
    non-finite weight, and on a disconnected graph so downstream consensus
    results are well defined. The Laplacian ``L`` = D - A and its second-smallest
    eigenvalue ``sigma2`` are derived once, read-only and outside equality.
    """

    adjacency: np.ndarray
    L: np.ndarray = field(init=False, compare=False, repr=False)
    sigma2: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("graph needs at least 2 nodes")
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            found = ", ".join(f"{a[i, j]} at ({i}, {j})" for i, j in bad)
            raise ValueError(f"edge weights must be finite, got {found}")
        if np.any(a < 0):
            raise ValueError("edge weights must be nonnegative")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency diagonal must be zero")
        object.__setattr__(self, "adjacency", a)
        if not _connected(a):
            raise DisconnectedGraphError(
                "communication graph is disconnected; consensus is impossible"
            )
        object.__setattr__(self, "L", np.diag(a.sum(axis=1)) - a)
        object.__setattr__(self, "sigma2", float(np.linalg.eigvalsh(self.L)[1]))
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected edge list as (i, j, weight) with i < j, 0-based."""
        a = self.adjacency
        ii, jj = np.nonzero(np.triu(a) > 0)
        return [(int(i), int(j), float(a[i, j])) for i, j in zip(ii, jj)]

    @staticmethod
    def from_edges(n: int, edges, default_weight: float = 1.0) -> "CommGraph":
        """Build from 0-based (i, j) or (i, j, weight) pairs; each edge is listed once."""
        a = np.zeros((n, n))
        seen = set()
        for e in edges:
            if len(e) == 2:
                i, j = e
                w = default_weight
            else:
                i, j, w = e
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) has a node outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if frozenset((i, j)) in seen:
                raise ValueError(f"edge ({i}, {j}) is listed twice")
            seen.add(frozenset((i, j)))
            a[i, j] = a[j, i] = w
        return CommGraph(a)

    @staticmethod
    def ring(n: int, weight: float = 1.0) -> "CommGraph":
        """Unit-weight ring on n nodes (the bundled default topology); on 2 nodes, one edge."""
        return CommGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n - (n == 2))], weight)


def _connected(a: np.ndarray) -> bool:
    """Breadth-first search reachability over positive-weight edges."""
    n = a.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(a[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())
