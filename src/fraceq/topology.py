"""Spanning tree / cotree and the Kirchhoff matrices of a circuit.

Tree-branch fluxes and cotree-link charges are the generalized coordinates.
Expressing every branch flux through the cut-set matrix Q and every branch
charge through the loop matrix B makes both Kirchhoff laws hold identically,
so the simulator never carries explicit constraint equations.  Q and B use
exact integer entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .errors import DegenerateTopologyError

# tree selection priority: sources and capacitors first so state variables
# land on tree fluxes; deterministic tie-break by declaration order
_PRIORITY = {"V": 0, "OC": 1, "C": 1, "R": 2, "M": 3, "L": 4, "I": 5}


@dataclass(frozen=True, eq=False)
class Topology:
    """A circuit's tree/cotree partition and the maps it defines.

    Q (rows = tree branches) is the fundamental cut-set matrix and B
    (rows = links) the fundamental loop matrix; their columns follow element
    declaration order and Q B^T = 0.  The coordinate maps are

        branch fluxes  = flux_map   @ tree fluxes   (flux_map = Q^T)
        branch charges = charge_map @ loop charges  (charge_map = B^T)

    Every array is read-only.
    """

    names: tuple  # element names, in branch order
    tree: tuple  # branch indices forming the spanning tree, sorted
    links: tuple  # the other branches, sorted
    Q: np.ndarray  # |tree| x branches, integer
    B: np.ndarray  # |links| x branches, integer
    flux_map: np.ndarray  # branches x |tree|
    charge_map: np.ndarray  # branches x |links|

    @property
    def flux_coord_names(self) -> tuple:
        return tuple(self.names[b] for b in self.tree)

    @property
    def charge_coord_names(self) -> tuple:
        return tuple(self.names[b] for b in self.links)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _select_tree(circuit: Circuit) -> tuple:
    """Priority spanning tree: V > C/OC > R > M > L > I, declaration order ties.

    Returns (tree, links), both sorted.  Raises DegenerateTopologyError for
    voltage-source loops (a V forced into the cotree) and current-source
    cut-sets (an I forced into the tree), and for disconnected graphs.
    """
    elements = circuit.elements
    order = sorted(range(len(elements)), key=lambda b: (_PRIORITY[elements[b].kind], b))
    nodes = circuit.nodes
    uf = _UnionFind(nodes)
    tree = [b for b in order if uf.union(elements[b].n_plus, elements[b].n_minus)]
    if len(tree) != len(nodes) - 1:
        raise DegenerateTopologyError("graph is not connected; no spanning tree exists")
    tree_set = set(tree)
    for b in tree:
        if elements[b].kind == "I":
            raise DegenerateTopologyError(f"current source {elements[b].name} forms a cut-set of current sources")
    links = [b for b in range(len(elements)) if b not in tree_set]
    for b in links:
        if elements[b].kind == "V":
            raise DegenerateTopologyError(f"voltage source {elements[b].name} closes a loop of voltage sources")
    return tuple(sorted(tree)), tuple(links)


def _kirchhoff_matrices(circuit: Circuit, tree: tuple, links: tuple) -> tuple:
    """Fundamental loop matrix from tree paths, cut-set matrix from B.

    Each link's loop follows the link from n_plus to n_minus and returns
    through the tree; a tree branch traversed along its own orientation gets
    +1 in the loop row.  Q is the identity on the tree columns and
    -B_tree^T on the link columns.
    """
    elements = circuit.elements
    # tree adjacency: node -> list of (branch, neighbor, sign when leaving via n_plus)
    adj = {n: [] for n in circuit.nodes}
    for b in tree:
        u, v = elements[b].n_plus, elements[b].n_minus
        adj[u].append((b, v, +1))
        adj[v].append((b, u, -1))

    def tree_path(src, dst):
        # BFS through the tree; returns [(branch, direction)] from src to dst
        prev = {src: None}
        queue = [src]
        while queue:
            n = queue.pop(0)
            if n == dst:
                break
            for b, m, s in adj[n]:
                if m not in prev:
                    prev[m] = (n, b, s)
                    queue.append(m)
        path = []
        n = dst
        while prev[n] is not None:
            p, b, s = prev[n]
            path.append((b, s))
            n = p
        return path[::-1]

    B = np.zeros((len(links), len(elements)), dtype=np.int64)
    for r, b in enumerate(links):
        B[r, b] = 1
        for tb, s in tree_path(elements[b].n_minus, elements[b].n_plus):
            B[r, tb] = s
    Q = np.zeros((len(tree), len(elements)), dtype=np.int64)
    Q[:, list(tree)] = np.eye(len(tree), dtype=np.int64)
    Q[:, list(links)] = -B[:, list(tree)].T
    return Q, B


def build_topology(circuit: Circuit) -> Topology:
    """Select the spanning tree and build Q, B and the coordinate maps."""
    tree, links = _select_tree(circuit)
    Q, B = _kirchhoff_matrices(circuit, tree, links)
    arrays = (Q, B, Q.T.astype(float), B.T.astype(float))
    for a in arrays:
        a.flags.writeable = False
    return Topology(tuple(e.name for e in circuit.elements), tree, links, *arrays)
