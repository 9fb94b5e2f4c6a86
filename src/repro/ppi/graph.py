"""The known protein-protein interaction graph ``G``.

"The database is represented as an interaction graph G where every protein
corresponds to a vertex in G and every interaction between two proteins X
and Y corresponds to an edge between X and Y" (Sec. 2.2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.sequences.protein import Protein

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["InteractionGraph"]


class InteractionGraph:
    """An undirected PPI graph over a fixed proteome.

    Parameters
    ----------
    proteins:
        The full proteome; every interaction endpoint must name one of
        these.  Order is preserved and defines the integer protein index
        used by all matrix-form views.
    interactions:
        Iterable of ``(name_a, name_b)`` pairs.  Duplicate pairs (in either
        orientation) are collapsed; self-interactions (homodimers) are kept
        as self-loops.
    """

    def __init__(
        self,
        proteins: Sequence[Protein],
        interactions: Iterable[tuple[str, str]] = (),
    ) -> None:
        if not proteins:
            raise ValueError("an interaction graph needs at least one protein")
        self._proteins: list[Protein] = list(proteins)
        self._index: dict[str, int] = {}
        for i, p in enumerate(self._proteins):
            if p.name in self._index:
                raise ValueError(f"duplicate protein {p.name!r} in proteome")
            self._index[p.name] = i
        self._adjacency: list[set[int]] = [set() for _ in self._proteins]
        self._num_edges = 0
        for a, b in interactions:
            self.add_interaction(a, b)

    @classmethod
    def from_adjacency(
        cls, proteins: Sequence[Protein], adjacency: sp.spmatrix
    ) -> "InteractionGraph":
        """The graph whose :meth:`adjacency_matrix` is ``adjacency`` (a
        symmetric 0/1 matrix in ``proteins`` order), built in one pass
        over its rows rather than one :meth:`add_interaction` per edge."""
        graph = cls(proteins)
        csr = sp.csr_matrix(adjacency)
        if csr.shape != (len(graph), len(graph)):
            raise ValueError(
                f"adjacency of shape {csr.shape} for {len(graph)} proteins"
            )
        indices = csr.indices.tolist()
        bounds = csr.indptr.tolist()
        graph._adjacency = [set(indices[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        graph._num_edges = (csr.nnz + int(np.count_nonzero(csr.diagonal()))) // 2
        return graph

    # -- construction -------------------------------------------------------

    def add_interaction(self, a: str, b: str) -> bool:
        """Add an undirected edge; returns False when it already existed."""
        ia, ib = self.index_of(a), self.index_of(b)
        if ib in self._adjacency[ia]:
            return False
        self._adjacency[ia].add(ib)
        self._adjacency[ib].add(ia)
        self._num_edges += 1
        return True

    # -- lookups -------------------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown protein {name!r}") from None

    def protein(self, name: str) -> Protein:
        return self._proteins[self.index_of(name)]

    @property
    def proteins(self) -> list[Protein]:
        return list(self._proteins)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self._proteins]

    def __len__(self) -> int:
        return len(self._proteins)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, a: str, b: str) -> bool:
        return self.index_of(b) in self._adjacency[self.index_of(a)]

    def neighbors(self, name: str) -> list[str]:
        """Names of all interaction partners of ``name``."""
        return sorted(
            self._proteins[j].name for j in self._adjacency[self.index_of(name)]
        )

    def degree(self, name: str) -> int:
        return len(self._adjacency[self.index_of(name)])

    def edges(self) -> list[tuple[str, str]]:
        """All edges, each reported once with endpoints in index order."""
        out: list[tuple[str, str]] = []
        for i, nbrs in enumerate(self._adjacency):
            for j in sorted(nbrs):
                if j >= i:
                    out.append((self._proteins[i].name, self._proteins[j].name))
        return out

    # -- matrix views --------------------------------------------------------

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Sparse symmetric 0/1 adjacency in protein-index order.

        Self-loops contribute a diagonal 1 (one homodimer edge).
        """
        rows: list[int] = []
        cols: list[int] = []
        for i, nbrs in enumerate(self._adjacency):
            for j in nbrs:
                rows.append(i)
                cols.append(j)
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix(
            (data, (rows, cols)), shape=(len(self._proteins), len(self._proteins))
        )

    def to_networkx(self) -> nx.Graph:
        """Export to :mod:`networkx` for topology analytics.

        networkx is imported here, not with the module: nothing on the
        design or scoring path uses it, and importing it costs every
        process ~12 MB of RSS."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.names)
        g.add_edges_from(self.edges())
        return g

    def degree_histogram(self) -> np.ndarray:
        """Degree counts indexed by degree (used by interactome tests)."""
        degrees = [len(n) for n in self._adjacency]
        return np.bincount(degrees) if degrees else np.zeros(1, dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"InteractionGraph(proteins={len(self._proteins)}, "
            f"edges={self._num_edges})"
        )
