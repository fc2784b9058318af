from dataclasses import replace

import numpy as np
import pytest

from fraceq.circuit import Circuit, Element, Waveform, parse_netlist
from fraceq.dynamics import DriveSet, SimConfig, _backward_diff, simulate, trajectory_loss
from fraceq.frac_ops import SampleGrid, caputo_left, rl_derivative_right
from fraceq.lagrangian import (
    PART_KEYS,
    BranchQuantities,
    action_breakdown,
    branch_quantities,
    el_residual,
    element_term,
    half_energies,
    lagrangian_parts,
)
from fraceq.topology import build_topology

LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=0.5 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""

LC_NET = "C c1 n1 0 c=1\nL l1 n1 0 l=1\nI isrc 0 n1 w=step(1,0)\n"


def sample(**values):
    """One branch at one sample: the named quantities, 0 for the rest."""
    return BranchQuantities(**{k: values.get(k, 0.0) for k in BranchQuantities._fields})


def branches(names, **overrides):
    """All branches at one sample (branches x 1): 0 except the named entries."""
    rows = {k: np.zeros((len(names), 1)) for k in BranchQuantities._fields}
    for k, entries in overrides.items():
        for name, value in entries.items():
            rows[k][names.index(name), 0] = value
    return BranchQuantities(**rows)


def random_branches(names, rng, n):
    """n random samples of every branch quantity; a target only on oc1."""
    draws = {k: rng.normal(size=(len(names), n)) for k in BranchQuantities._fields}
    draws["target"][[name != "oc1" for name in names]] = 0.0
    return BranchQuantities(**draws)


def run(net, beta=0.0, drive=None, dt=1e-3, t_end=1.0):
    grid = SampleGrid.from_span(0.0, t_end, dt)
    return simulate(parse_netlist(net), drive or DriveSet(), beta, SimConfig(grid))


class TestElementTerm:
    def test_linear_capacitor_coenergy(self):
        # sign pairs with the inductive term so the variational balance
        # reproduces the current law; the value is +C v^2 / 2
        e = Element("C", "c1", "a", "0", c=1.0)
        assert element_term(e, sample(v=2.0)) == pytest.approx(2.0)

    def test_linear_inductor(self):
        e = Element("L", "l1", "a", "0", l=2.0)
        assert element_term(e, sample(phi=3.0)) == pytest.approx(-(3.0**2) / (2 * 2.0))

    def test_linear_synapse(self):
        e = Element("R", "s1", "a", "0", g=0.5, trainable=True)
        assert element_term(e, sample(psi=2.0)) == pytest.approx(1j)

    def test_linear_memristor_matches_synapse(self):
        from fraceq.circuit import ConstitutiveSpec

        m = Element("M", "m1", "a", "0", spec=ConstitutiveSpec("linear", (0.5,)))
        r = Element("R", "r1", "a", "0", g=0.5)
        assert element_term(m, sample(psi=2.0)) == pytest.approx(element_term(r, sample(psi=2.0)))

    def test_output_capacitor(self):
        e = Element("OC", "oc1", "a", "0", cap_scale=2.0)
        assert element_term(e, sample(v=1.0, target=0.25), beta=0.5) == pytest.approx(-0.5 * 2.0 * 0.75**2)

    def test_current_source_forcing(self):
        e = Element("I", "i1", "a", "0", waveform=Waveform("const", (2.0,)))
        assert element_term(e, sample(i=2.0, phi=3.0)) == pytest.approx(-6.0)

    def test_voltage_source_is_constraint(self):
        e = Element("V", "v1", "a", "0", waveform=Waveform("const", (1.0,)))
        assert element_term(e, sample(phi=5.0, v=1.0)) == 0j

    @pytest.mark.parametrize(
        "element",
        [
            Element("C", "x", "a", "0", c=1.0),
            Element("L", "x", "a", "0", l=1.0),
            Element("R", "x", "a", "0", g=1.0),
            Element("OC", "x", "a", "0", cap_scale=1.0),
            Element("I", "x", "a", "0", waveform=Waveform("const", (1.0,))),
        ],
    )
    def test_zero_state_is_zero(self, element):
        assert element_term(element, sample(), beta=0.3) == 0j


class TestLagrangianParts:
    def test_synapse_plus_free_output(self):
        ckt = Circuit(
            (
                Element("R", "s1", "a", "0", g=0.5, trainable=True),
                Element("OC", "oc1", "a", "0", cap_scale=1.0, waveform=Waveform("const", (0.0,))),
            )
        )
        x = branches(["s1", "oc1"], psi={"s1": 2.0}, v={"oc1": 1.0})
        total = sum(lagrangian_parts(ckt, x, 0.0).values())
        assert total == pytest.approx([1j])

    def test_parts_sum_equals_total_on_random_states(self):
        ckt = parse_netlist(LINNET + "L l1 out 0 l=2\nC cx in1 out c=0.5\nM m1 in2 0 f=tanh(1.0,1.0)\n")
        names = [e.name for e in ckt.elements]
        x = random_branches(names, np.random.default_rng(7), 1000)
        parts = lagrangian_parts(ckt, x, 0.3)
        total = sum(element_term(e, x.branch(b), 0.3) for b, e in enumerate(ckt.elements))
        assert set(parts) == set(PART_KEYS)
        assert sum(parts.values()) == pytest.approx(total)

    def test_real_imag_split(self):
        # real total from L/C/OC parts, imaginary from memristive/synaptic
        ckt = parse_netlist(LINNET + "L l1 out 0 l=2\nM m1 in2 0 f=tanh(1.0,1.0)\n")
        names = [e.name for e in ckt.elements]
        parts = lagrangian_parts(ckt, random_branches(names, np.random.default_rng(3), 1), 0.2)
        for k in ("inductive", "capacitive", "output", "source"):
            assert not np.any(parts[k].imag)
        for k in ("memristive", "synaptic"):
            assert not np.any(parts[k].real)


class TestAction:
    def test_zero_trajectory(self):
        net = "V vin 1 0 w=const(0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
        traj = run(net)
        assert sum(action_breakdown(parse_netlist(net), traj).values()) == pytest.approx(0.0, abs=1e-15)

    def test_additivity_over_time(self):
        net = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
        ckt = parse_netlist(net)
        traj = run(net, t_end=1.0)
        series = sum(lagrangian_parts(ckt, branch_quantities(ckt, traj), traj.beta).values())
        dt = traj.grid.dt
        mid = traj.grid.n // 2
        whole = np.trapezoid(series, dx=dt)
        split = np.trapezoid(series[: mid + 1], dx=dt) + np.trapezoid(series[mid:], dx=dt)
        assert whole == pytest.approx(split, abs=1e-12)
        assert sum(action_breakdown(ckt, traj).values()) == pytest.approx(whole)


class TestActionBetaPartial:
    """The explicit partial of the action in beta is -C times the trajectory loss."""

    def test_perfect_tracking_zero(self):
        net = "V vs out 0 w=const(0)\nR r 1 out g=1\nV vin 1 0 w=const(0)\nOC oc1 out 0 cap=1 w=const(0.0)\n"
        ckt = parse_netlist(net)
        assert -ckt.loss_capacitance * trajectory_loss(run(net)) == 0.0

    def test_unit_mismatch(self):
        net = "V vs out 0 w=const(0)\nR r 1 out g=1\nV vin 1 0 w=const(0)\nOC oc1 out 0 cap=1 w=const(1.0)\n"
        ckt = parse_netlist(net)
        assert -ckt.loss_capacitance * trajectory_loss(run(net)) == pytest.approx(-1.0, rel=2e-3)

    def test_output_part_takes_the_trajectory_beta(self):
        # a parsed circuit carries no beta: the output term is the run's own
        ckt = parse_netlist(LINNET)
        nudged = run(LINNET, beta=0.3)
        output = action_breakdown(ckt, nudged)["output"]
        assert output.imag == 0.0
        assert output.real == pytest.approx(nudged.beta * -ckt.loss_capacitance * trajectory_loss(nudged), rel=1e-9)


def ramp_flux_trajectory(ckt, t_end=1.0, dt=1e-3):
    # hand-built trajectory whose single flux coordinate is phi(t) = t
    grid = SampleGrid.from_span(0.0, t_end, dt)
    from fraceq.dynamics import Trajectory

    return Trajectory(
        grid=grid,
        beta=0.0,
        topology=build_topology(ckt),
        tree_flux=grid.times()[None, :],
        loop_charge=np.zeros((0, grid.n)),
        output_names=(),
        outputs=np.zeros((0, grid.n)),
        targets=np.zeros((0, grid.n)),
    )


class TestActionGPartial:
    """The explicit partial of the action in synapse conductance l is j/2 times
    the half-derivative energy of its branch flux."""

    def test_zero_trajectory(self):
        ckt = parse_netlist(LINNET)
        net_zero = LINNET.replace("const(1.0)", "const(0.0)").replace("const(0.5)", "const(0.0)")
        traj = run(net_zero, beta=0.0)
        for l in ckt.trainables:
            assert 0.5j * half_energies(ckt, traj, [l])[0] == 0j

    def test_ramp_flux_closed_form(self):
        ckt = parse_netlist("R s1 a 0 g=1.0 trainable\n")
        traj = ramp_flux_trajectory(ckt)
        # integral of (half-derivative of t)^2 over [0,1] is 2/pi
        assert 0.5j * half_energies(ckt, traj, [0])[0] == pytest.approx(1j / np.pi, rel=2e-2)

    def test_independent_of_other_conductances(self):
        ckt = parse_netlist(LINNET)
        traj = run(LINNET, beta=1e-3)
        l = ckt.index_of("s1")
        before = 0.5j * half_energies(ckt, traj, [l])[0]
        bumped = ckt.with_conductances({"s2": 0.9})
        assert 0.5j * half_energies(bumped, traj, [l])[0] == before


class TestFrozenTrajectoryPartials:
    """Central differences of the action on a frozen trajectory against the
    explicit partials; the action is linear in beta and in each g, so the
    agreement is limited only by roundoff."""

    def test_beta_partial(self):
        beta, eps = 1e-3, 1e-5
        ckt = parse_netlist(LINNET)
        traj = run(LINNET, beta=beta)
        up, dn = (sum(action_breakdown(ckt, replace(traj, beta=b)).values()) for b in (beta + eps, beta - eps))
        sp = (up - dn) / (2 * eps)
        ref = -ckt.loss_capacitance * trajectory_loss(traj)
        assert abs(sp.imag) < 1e-12
        assert sp.real == pytest.approx(ref, rel=1e-6)

    def test_g_partials(self):
        beta, eps = 1e-3, 1e-5
        ckt = parse_netlist(LINNET)
        traj = run(LINNET, beta=beta)
        for l in ckt.trainables:
            name = ckt.elements[l].name
            g = ckt.elements[l].g
            up = sum(action_breakdown(ckt.with_conductances({name: g + eps}), traj).values())
            dn = sum(action_breakdown(ckt.with_conductances({name: g - eps}), traj).values())
            sp = (up - dn) / (2 * eps)
            ref = 0.5j * half_energies(ckt, traj, [l])[0]
            assert abs(sp.real) < 1e-10
            assert sp.imag == pytest.approx(ref.imag, rel=1e-6)


class TestElResidual:
    def test_zero_trajectory_identically_zero(self):
        net = "V vin 1 0 w=const(0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
        ckt = parse_netlist(net)
        res = el_residual(ckt, run(net))
        for values in res.values():
            assert np.max(np.abs(values)) == 0.0

    def test_voltage_source_coordinates_omitted(self):
        net = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
        res = el_residual(parse_netlist(net), run(net))
        assert "vin" not in res
        assert "c1" in res

    def test_lc_residual_refines(self):
        # interior excludes the switch-on samples, where the step drive puts
        # an O(1) spike of O(dt) width into any finite-difference residual
        ckt = parse_netlist(LC_NET)
        maxima = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = run(LC_NET, dt=dt, t_end=10.0)
            res = el_residual(ckt, traj)["c1"]
            t = traj.grid.times()
            maxima.append(np.max(np.abs(res[(t > 0.1) & (t < 9.9)])))
        assert maxima[0] > maxima[1] > maxima[2]
        # first-order convergence: halving dt roughly halves the residual
        assert maxima[0] / maxima[2] > 2.5

    def test_lc_residual_is_current_balance(self):
        traj = run(LC_NET, dt=1e-3, t_end=2.0)
        ckt = parse_netlist(LC_NET)
        res = el_residual(ckt, traj)["c1"]
        # oracle: minus the nodal current balance with central differences
        t = traj.grid.times()
        dt = traj.grid.dt
        x = branch_quantities(ckt, traj)
        phi = x.phi[ckt.index_of("c1")]
        q_l = x.q[ckt.index_of("l1")]
        v = np.gradient(phi, dt)
        kcl = np.gradient(v, dt) * 1.0 + phi / 1.0 - 1.0
        assert np.max(np.abs(res[2:-2] + kcl[2:-2])) < 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="the right-after-left half-derivative composition is a nonlocal "
        "magnitude operator, not the first derivative, so a resistive branch "
        "variational term does not reproduce the branch current",
    )
    def test_resistive_term_reproduces_current(self):
        grid = SampleGrid.from_span(0.0, 1.0, 1e-3)
        t = grid.times()
        comp = rl_derivative_right(caputo_left(t**2, grid.dt, 0.5), grid.dt, 0.5)
        lo, hi = int(0.2 / 1e-3), int(0.8 / 1e-3)
        assert np.max(np.abs(comp[lo:hi] - 2 * t[lo:hi])) < 5e-2


class TestBranchQuantities:
    def test_consistency_with_trajectory(self):
        ckt = parse_netlist(LINNET)
        traj = run(LINNET, beta=1e-3, t_end=0.1)
        x = branch_quantities(ckt, traj)
        assert all(a.shape == (len(ckt.elements), traj.grid.n) for a in x)
        b = ckt.index_of("s1")
        topo = traj.topology
        phi = topo.flux_map[b] @ traj.tree_flux
        q = topo.charge_map[b] @ traj.loop_charge
        assert np.array_equal(x.phi[b], phi)
        # mapping then differencing rounds differently from the reverse order
        assert np.allclose(x.v[b], _backward_diff(phi, traj.grid.dt), rtol=1e-12, atol=1e-12)
        assert np.allclose(x.i[b], _backward_diff(q, traj.grid.dt), rtol=1e-12, atol=1e-12)
        assert np.all(x.target[ckt.index_of("oc1")] == 0.4)
        assert not np.any(np.delete(x.target, ckt.index_of("oc1"), axis=0))

    def test_wrong_circuit_rejected(self):
        traj = run(LINNET, beta=0.0, t_end=0.01)
        other = parse_netlist("R r1 a 0 g=1\n")
        with pytest.raises(ValueError, match="different circuit"):
            branch_quantities(other, traj)
        with pytest.raises(ValueError, match="different circuit"):
            el_residual(other, traj)
