import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraceq.circuit import Circuit, Element, Waveform, parse_netlist
from fraceq.errors import ValidationError
from fraceq.topology import build_topology

SERIES_RC = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"


class TestSelectTree:
    def test_series_rc_priority(self):
        topo = build_topology(parse_netlist(SERIES_RC))
        # V and C are the tree (priority over R), R is the only link
        assert topo.tree == (0, 2)
        assert topo.links == (1,)

    @pytest.mark.parametrize(
        "net, code, message",
        [
            (
                "V v1 a 0 w=const(1)\nV v2 a 0 w=const(2)\n",
                "voltage-source-loop",
                "voltage source v2 closes a loop of voltage sources",
            ),
            ("I i1 a 0 w=const(1)\n", "current-source-cutset", "current source i1 forms a cut-set of current sources"),
            ("R r1 a 0 g=1\nR r2 b c g=1\n", "disconnected", "graph is not connected; no spanning tree exists"),
        ],
        ids=["v-loop", "i-cutset", "disconnected"],
    )
    def test_no_valid_tree_is_a_diagnostic(self, net, code, message):
        with pytest.raises(ValidationError) as info:
            build_topology(parse_netlist(net))
        assert [(d.code, d.message) for d in info.value.diagnostics] == [(code, message)]
        assert str(info.value) == f"{code}: {message}"

    def test_single_resistor_tree(self):
        topo = build_topology(parse_netlist("R r1 a 0 g=1\n"))
        assert topo.tree == (0,)
        assert topo.links == ()

    def test_deterministic(self):
        ckt = parse_netlist(SERIES_RC)
        topos = [build_topology(ckt) for _ in range(3)]
        assert topos[0].tree == topos[1].tree == topos[2].tree
        assert topos[0].links == topos[1].links == topos[2].links
        assert all(np.array_equal(topos[0].Q, t.Q) and np.array_equal(topos[0].B, t.B) for t in topos)


class TestKirchhoffMatrices:
    def test_series_loop_B_row(self):
        topo = build_topology(parse_netlist(SERIES_RC))
        assert topo.B.shape == (1, 3)
        assert np.all(np.abs(topo.B[0]) == 1)  # single loop through all branches
        assert np.all(topo.Q @ topo.B.T == 0)

    def test_acyclic_star(self):
        topo = build_topology(parse_netlist("R r1 a m g=1\nR r2 m 0 g=1\n"))
        assert topo.Q.shape == (2, 2)
        assert topo.B.shape == (0, 2)

    def test_identity_blocks(self):
        topo = build_topology(parse_netlist(SERIES_RC + "R r2 1 0 g=2\n"))
        assert np.array_equal(topo.Q[:, list(topo.tree)], np.eye(len(topo.tree), dtype=int))
        assert np.array_equal(topo.B[:, list(topo.links)], np.eye(len(topo.links), dtype=int))


@st.composite
def random_connected_circuits(draw):
    n_nodes = draw(st.integers(2, 12))
    nodes = ["0"] + [f"n{i}" for i in range(1, n_nodes)]
    elements = []
    for i, node in enumerate(nodes[1:]):
        other = nodes[draw(st.integers(0, i))]
        elements.append(Element("R", f"t{i}", node, other, g=1.0))
    extra = draw(st.integers(0, max(0, 30 - len(elements))))
    for j in range(extra):
        a = draw(st.integers(0, n_nodes - 1))
        b = draw(st.integers(0, n_nodes - 1))
        if a == b:
            continue
        kind = draw(st.sampled_from(["R", "C", "L"]))
        kw = {"R": dict(g=1.0), "C": dict(c=1.0), "L": dict(l=1.0)}[kind]
        elements.append(Element(kind, f"x{j}", nodes[a], nodes[b], **kw))
    return Circuit(tuple(elements))


class TestStructuralProperties:
    @given(random_connected_circuits())
    @settings(max_examples=100, deadline=None)
    def test_orthogonality_exact(self, ckt):
        topo = build_topology(ckt)
        prod = topo.Q @ topo.B.T
        assert prod.dtype.kind == "i"  # integer arithmetic throughout
        assert np.all(prod == 0)

    @given(random_connected_circuits())
    @settings(max_examples=100, deadline=None)
    def test_matrices_agree_with_the_graph(self, ckt):
        # Q B^T = 0 holds by construction, so check Q and B against the
        # incidence matrix built here from each element's nodes: +1 where
        # a branch leaves a node, -1 where it enters
        nodes = ckt.nodes
        A = np.zeros((len(nodes), len(ckt.elements)), dtype=np.int64)
        for b, e in enumerate(ckt.elements):
            A[nodes.index(e.n_plus), b] += 1
            A[nodes.index(e.n_minus), b] -= 1
        topo = build_topology(ckt)
        tree, links = list(topo.tree), list(topo.links)
        assert topo.Q.dtype.kind == topo.B.dtype.kind == "i"
        assert np.all(A @ topo.B.T == 0)  # every loop current obeys KCL at every node
        assert np.array_equal(A[:, tree] @ topo.Q, A)
        assert np.array_equal(topo.Q[:, tree], np.eye(len(tree), dtype=np.int64))
        assert np.array_equal(topo.B[:, links], np.eye(len(links), dtype=np.int64))

    @given(random_connected_circuits())
    @settings(max_examples=50, deadline=None)
    def test_coordinate_count_and_kvl_kcl_residuals(self, ckt):
        topo = build_topology(ckt)
        nb = len(ckt.elements)
        assert len(topo.tree) + len(topo.links) == nb
        rng = np.random.default_rng(42)
        tree_flux = rng.normal(size=len(topo.tree))
        loop_charge = rng.normal(size=len(topo.links))
        branch_flux = topo.flux_map @ tree_flux
        branch_charge = topo.charge_map @ loop_charge
        # KVL: loop sums of branch voltages (here fluxes) vanish
        assert np.allclose(topo.B @ branch_flux, 0, atol=1e-12)
        # KCL: cut-set sums of branch currents (here charges) vanish
        assert np.allclose(topo.Q @ branch_charge, 0, atol=1e-12)

    @given(random_connected_circuits())
    @settings(max_examples=25, deadline=None)
    def test_injective_coordinate_maps(self, ckt):
        topo = build_topology(ckt)
        if len(topo.tree):
            assert np.linalg.matrix_rank(topo.flux_map) == len(topo.tree)
        if len(topo.links):
            assert np.linalg.matrix_rank(topo.charge_map) == len(topo.links)


class TestCoordinateMapExamples:
    def test_series_loop_single_loop_charge(self):
        topo = build_topology(parse_netlist(SERIES_RC))
        charges = topo.charge_map @ np.array([2.5])
        assert np.all(np.abs(charges) == 2.5)  # every branch carries the loop charge

    def test_star_has_no_charge_coords(self):
        topo = build_topology(parse_netlist("R r1 a m g=1\nR r2 m 0 g=1\n"))
        assert topo.charge_map.shape == (2, 0)
        assert topo.flux_map.shape == (2, 2)

    def test_names_and_read_only_maps(self):
        topo = build_topology(parse_netlist(SERIES_RC))
        assert topo.names == ("vin", "r1", "c1")
        assert topo.flux_coord_names == ("vin", "c1")
        assert topo.charge_coord_names == ("r1",)
        assert np.array_equal(topo.flux_map, topo.Q.T) and np.array_equal(topo.charge_map, topo.B.T)
        for a in (topo.Q, topo.B, topo.flux_map, topo.charge_map):
            assert not a.flags.writeable
