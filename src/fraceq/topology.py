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

from .circuit import Circuit, Diagnostic
from .errors import ValidationError

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


def _select_tree(circuit: Circuit) -> tuple:
    """Priority spanning tree: V > C/OC > R > M > L > I, declaration order ties.

    Branches are taken greedily in priority order; a branch joins the tree
    when it connects two components, and every node of one component then
    takes the other's label.  Returns (tree, links), both sorted.  Raises
    ValidationError with the diagnostic disconnected for a disconnected
    graph, current-source-cutset for an I forced into the tree and
    voltage-source-loop for a V forced into the cotree.
    """
    elements = circuit.elements
    order = sorted(range(len(elements)), key=lambda b: (_PRIORITY[elements[b].kind], b))
    nodes = circuit.nodes
    component = {n: n for n in nodes}
    tree = []
    for b in order:
        old, new = component[elements[b].n_plus], component[elements[b].n_minus]
        if old != new:
            tree.append(b)
            component = {n: new if label == old else label for n, label in component.items()}
    if len(tree) != len(nodes) - 1:
        raise ValidationError([Diagnostic("disconnected", "graph is not connected; no spanning tree exists")])
    for b in tree:
        if elements[b].kind == "I":
            message = f"current source {elements[b].name} forms a cut-set of current sources"
            raise ValidationError([Diagnostic("current-source-cutset", message)])
    links = sorted(set(range(len(elements))).difference(tree))
    for b in links:
        if elements[b].kind == "V":
            message = f"voltage source {elements[b].name} closes a loop of voltage sources"
            raise ValidationError([Diagnostic("voltage-source-loop", message)])
    return tuple(sorted(tree)), tuple(links)


def _kirchhoff_matrices(circuit: Circuit, tree: tuple, links: tuple) -> tuple:
    """Cut-set matrix Q = A_T^-1 A and loop matrix B = [-Q_L^T | I].

    A is the reduced incidence matrix: one row per node but the first (the
    graph is connected, so any one row is redundant), +1 where a branch
    leaves the node (n_plus) and -1 where it enters (n_minus).  A_T, its
    tree columns, is unimodular, so every entry of Q is -1, 0 or 1 and
    rounding the solve gives it exactly.  A link's loop row follows the link
    from n_plus to n_minus and returns through the tree.
    """
    elements = circuit.elements
    row = {n: r for r, n in enumerate(circuit.nodes)}
    A = np.zeros((len(row), len(elements)))
    for b, e in enumerate(elements):
        A[row[e.n_plus], b] += 1.0
        A[row[e.n_minus], b] -= 1.0
    A = A[1:]
    Q = np.rint(np.linalg.solve(A[:, list(tree)], A)).astype(np.int64)
    B = np.zeros((len(links), len(elements)), dtype=np.int64)
    B[:, list(tree)] = -Q[:, list(links)].T
    B[:, list(links)] = np.eye(len(links), dtype=np.int64)
    return Q, B


def build_topology(circuit: Circuit) -> Topology:
    """Select the spanning tree and build Q, B and the coordinate maps."""
    tree, links = _select_tree(circuit)
    Q, B = _kirchhoff_matrices(circuit, tree, links)
    arrays = (Q, B, Q.T.astype(float), B.T.astype(float))
    for a in arrays:
        a.flags.writeable = False
    return Topology(tuple(e.name for e in circuit.elements), tree, links, *arrays)
