"""Batched stepping against the frozen scalar step loop, and compile-once.

`scalar_reference.simulate` is the one-trajectory Newton loop the package
used before the batched kernel; `linear_reference.simulate` solves each step
of a linear circuit exactly, with one dense solve.  Every comparison requires
agreement to 1e-12 relative to the largest value of each compared array,
except the bound on how far the secant predictor moves a trajectory from the
dz = 0 start, PREDICTOR_DRIFT, and the outputs of netlists/memnet.net, held
to the bound that the flux bar implies (test_memnet_matches_scalar_reference).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import linear_reference
import scalar_reference
from fraceq import dynamics
from fraceq.circuit import LAW_FAMILIES, Circuit, ConstitutiveSpec, Element, Waveform, parse_netlist
from fraceq.dynamics import DriveSet, Member, SimConfig, compile, simulate, simulate_batch
from fraceq.eqprop import TrainConfig, fd_members, train
from fraceq.errors import DegenerateTopologyError, NewtonDivergenceError
from fraceq.frac_ops import SampleGrid

RTOL = 1e-12

LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=1.0 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""
LINEAR_M = LINNET.replace("R s2 in2 out g=0.25 trainable", "M s2 in2 out f=linear(0.25)")
TANH_M = LINNET.replace("R s3 out 0 g=0.5 trainable", "M s3 out 0 f=tanh(0.5,1.0)")
RC = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
LC = "C c1 n1 0 c=1\nL l1 n1 0 l=1\nI isrc 0 n1 w=step(1,0)\n"
# the drive starts at t = 0.25: until then the free member is at rest and
# converged while the nudged one is pulled by its target
LATE_NONLINEAR = """\
V vin in 0 w=step(1.0,0.25)
M m1 in out f=tanh(1.0,0.5)
C c1 out 0 f=poly(0,1,0,0.5)
L l1 out 0 f=tanh(2.0,1.0)
OC oc1 out 0 cap=1.0 w=sine(0.5,2,0)
"""


def cfg(dt=1e-3, t_end=1.0):
    return SimConfig(SampleGrid.from_span(0.0, t_end, dt))


def assert_close(ref, got):
    for field in ("tree_flux", "loop_charge", "outputs", "targets"):
        a, b = getattr(ref, field), getattr(got, field)
        assert a.shape == b.shape, field
        scale = np.max(np.abs(a)) if a.size else 0.0
        assert np.max(np.abs(a - b), initial=0.0) <= RTOL * scale, field


@pytest.mark.parametrize(
    "net, t_end", [(LINNET, 1.0), (RC, 2.0), (LC, 2.0), (LINEAR_M, 1.0), (TANH_M, 0.5), (LATE_NONLINEAR, 0.5)]
)
@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_batch_of_one_matches_scalar_reference(net, t_end, beta):
    circuit = parse_netlist(net)
    assert_close(
        scalar_reference.simulate(circuit, DriveSet(), beta, cfg(t_end=t_end)),
        simulate(circuit, DriveSet(), beta, cfg(t_end=t_end)),
    )


def test_linear_circuit_matches_scalar_reference_at_fine_dt():
    # the affine recurrence rounds differently from the reference's Newton
    # loop, so its drift over 10^4 steps must stay within RTOL
    circuit = parse_netlist(LINNET)
    assert_close(
        scalar_reference.simulate(circuit, DriveSet(), 1e-3, cfg(dt=1e-4)),
        simulate(circuit, DriveSet(), 1e-3, cfg(dt=1e-4)),
    )


@pytest.mark.parametrize("net, t_end", [(LINNET, 1.0), (RC, 2.0), (LC, 2.0), (LINEAR_M, 1.0)])
def test_exact_linear_reference_matches_scalar_reference(net, t_end):
    circuit = parse_netlist(net)
    assert_close(
        scalar_reference.simulate(circuit, DriveSet(), 1e-3, cfg(t_end=t_end)),
        linear_reference.simulate(circuit, DriveSet(), 1e-3, cfg(t_end=t_end)),
    )


def test_linear_circuit_ignores_newton_pass_limit(monkeypatch):
    circuit = parse_netlist(LINEAR_M)
    default = simulate(circuit, DriveSet(), 1e-3, cfg())
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
    one = simulate(circuit, DriveSet(), 1e-3, cfg())
    for field in ("tree_flux", "loop_charge", "outputs"):
        assert np.array_equal(getattr(one, field), getattr(default, field)), field


@pytest.mark.parametrize("net", [LINNET, LINEAR_M, LATE_NONLINEAR])
def test_batch_of_k_matches_k_batches_of_one(net):
    circuit = parse_netlist(net)
    system = compile(circuit)
    g = system.conductances(circuit)
    batch = [Member("free", 0.0, g), Member("nudged", 1e-2, g), Member("scaled", 0.0, 1.5 * g)]
    together = simulate_batch(system, DriveSet(), cfg(t_end=0.5), batch)
    for member, traj in zip(batch, together):
        (alone,) = simulate_batch(system, DriveSet(), cfg(t_end=0.5), [member])
        assert_close(alone, traj)
        assert traj.beta == member.beta


def test_converged_member_stays_put():
    # the free member's residual stays below the tolerance at every step, so
    # Newton never moves it, while the nudged member is pulled by its target
    circuit = parse_netlist(
        "V vin in 0 w=const(1e-12)\nR r1 in out g=1\nM m2 out 0 f=tanh(1,1)\nOC oc1 out 0 cap=1 w=const(1.0)\n"
    )
    system = compile(circuit)
    g = system.conductances(circuit)
    config = cfg(dt=2e-3)
    free, nudged = simulate_batch(system, DriveSet(), config, [Member("free", 0.0, g), Member("nudged", 1.0, g)])
    assert not np.any(free.tree_flux) and not np.any(free.loop_charge)
    assert np.any(nudged.tree_flux)
    assert_close(scalar_reference.simulate(circuit, DriveSet(), 1.0, config), nudged)


# --- Hypothesis-generated circuits -------------------------------------------

_values = st.floats(0.2, 5.0)
_levels = st.floats(-2.0, 2.0)


@st.composite
def _law(draw):
    if draw(st.booleans()):
        return ConstitutiveSpec("linear", (draw(_values),))
    return ConstitutiveSpec("tanh", (draw(st.floats(0.2, 2.0)), draw(st.floats(0.5, 2.0))))


@st.composite
def _waveform(draw):
    family = draw(st.sampled_from(["const", "step", "sine"]))
    if family == "const":
        return Waveform("const", (draw(_levels),))
    if family == "step":
        return Waveform("step", (draw(_levels), draw(st.floats(0.0, 0.3))))
    return Waveform("sine", (draw(_levels), draw(st.floats(0.5, 3.0)), 0.0))


@st.composite
def random_circuits(draw, memristors=0):
    """A resistor spanning tree to ground plus random R/C/L/M/V/I/OC branches.

    With `memristors` > 0, that many more M branches and a sine current
    source into node n1 are always added, so the memristors carry a signal.
    """
    n_nodes = draw(st.integers(2, 6))
    nodes = ["0"] + [f"n{i}" for i in range(1, n_nodes)]
    elements = []
    for i, node in enumerate(nodes[1:]):
        other = nodes[draw(st.integers(0, i))]
        elements.append(Element("R", f"t{i}", node, other, g=draw(_values)))
    for j in range(draw(st.integers(0, 6))):
        a, b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["R", "C", "L", "M", "V", "I", "OC"]))
        name = f"x{j}"
        if kind == "R":
            elements.append(Element("R", name, a, b, g=draw(_values)))
        elif kind in ("C", "L", "M"):
            law = draw(_law())
            if kind == "C" and law.family == "linear":
                elements.append(Element("C", name, a, b, c=law.params[0]))
            elif kind == "L" and law.family == "linear":
                elements.append(Element("L", name, a, b, l=1.0 / law.params[0]))
            else:
                elements.append(Element(kind, name, a, b, spec=law))
        elif kind == "OC":
            elements.append(Element("OC", name, a, b, cap_scale=1.0, waveform=draw(_waveform())))
        else:
            elements.append(Element(kind, name, a, b, waveform=draw(_waveform())))
    for j in range(memristors):
        a, b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        elements.append(Element("M", f"m{j}", a, b, spec=draw(_law())))
    if memristors:
        drive = Waveform("sine", (draw(st.floats(0.5, 2.0)), draw(st.floats(0.05, 0.5)), 0.0))
        elements.append(Element("I", "drive", "0", "n1", waveform=drive))
    return Circuit(tuple(elements))


def reference_for(circuit):
    """The exact reference for a linear circuit, the scalar loop otherwise.

    On a linear circuit the scalar loop accepts dz = 0 while the residual is
    below the tolerance, so a drive smaller than that (say 1e-132) leaves it
    at exactly 0, where the batched kernel returns the exact response.
    """
    laws = [e.constitutive() for e in circuit.elements if e.kind in ("C", "L", "M")]
    linear = all(law.family == "linear" for law in laws)
    return linear_reference.simulate if linear else scalar_reference.simulate


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=random_circuits())
def test_generated_circuits_match_scalar_reference(circuit):
    assert_free_nudged_match(circuit, cfg(dt=1e-2, t_end=0.5), reference_for(circuit))


def assert_free_nudged_match(circuit, config, reference=scalar_reference.simulate):
    """A free and a nudged member as one batch, each against its reference run."""
    betas = (0.0, 1e-2)
    outcomes = []
    for beta in betas:
        try:
            outcomes.append(reference(circuit, DriveSet(), beta, config))
        except DegenerateTopologyError:
            assume(False)
        except NewtonDivergenceError as exc:
            outcomes.append(exc)
    system = compile(circuit)
    g = system.conductances(circuit)
    batch = [Member(None, beta, g) for beta in betas]
    failures = [o.t for o in outcomes if isinstance(o, NewtonDivergenceError)]
    if failures:
        # the batch stops at the first step where any member fails
        with pytest.raises(NewtonDivergenceError) as got:
            simulate_batch(system, DriveSet(), config, batch)
        assert got.value.t == min(failures)
        return
    for ref, traj in zip(outcomes, simulate_batch(system, DriveSet(), config, batch)):
        assert_close(ref, traj)


# --- the far part of the memristor history -----------------------------------

# four refreshes of the far part, then 64 steps past the last
LONG = 4 * dynamics.HISTORY_BLOCK + 64


def long_cfg(dt):
    return SimConfig(SampleGrid(0.0, dt, LONG + 1))


@settings(max_examples=10, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=random_circuits(memristors=1))
def test_long_memristive_circuits_match_scalar_reference(circuit):
    assert_free_nudged_match(circuit, long_cfg(dt=1e-2), reference_for(circuit))


@pytest.mark.parametrize("net", [TANH_M, LINEAR_M], ids=["tanh", "linear"])
def test_long_memristive_nets_match_scalar_reference(net):
    assert_free_nudged_match(parse_netlist(net), long_cfg(dt=1e-3))


def test_short_blocks_match_scalar_reference(monkeypatch):
    # a refresh every 4 steps, with FFT lengths from 16 to 256
    monkeypatch.setattr(dynamics, "HISTORY_BLOCK", 4)
    assert_free_nudged_match(parse_netlist(LATE_NONLINEAR), cfg(t_end=0.2))


# --- the secant predictor ----------------------------------------------------

MEMNET = (Path(__file__).parent.parent / "netlists" / "memnet.net").read_text()
# a sharp tanh memristor switched on by a step drive at t = 0.25
SHARP_STEP = """\
V vin in 0 w=step(1.0,0.25)
R r1 in n1 g=1.0
M m1 n1 0 f=tanh(1.0,0.05)
OC oc1 n1 0 cap=1.0 w=const(0.3)
"""
# how far the predictor start may move a trajectory from the dz = 0 start,
# relative to the largest value of each field; the outputs moved most,
# 1.9e-9 on memnet to t_end 5 and 3.5e-10 on SHARP_STEP
PREDICTOR_DRIFT = 1e-8


@pytest.mark.parametrize(
    "net, t_end",
    [(MEMNET, 5.0), (SHARP_STEP, 1.0)],  # memnet's step drive turns on at t = 1.97
    ids=["memnet", "sharp-tanh-step"],
)
def test_predictor_drift_is_bounded(net, t_end):
    circuit = parse_netlist(net)
    config = cfg(t_end=t_end)
    secant = scalar_reference.simulate(circuit, DriveSet(), 0.0, config)
    at_rest = scalar_reference.simulate(circuit, DriveSet(), 0.0, config, predictor=False)
    for field in ("tree_flux", "loop_charge", "outputs"):
        a, b = getattr(at_rest, field), getattr(secant, field)
        assert np.max(np.abs(a - b)) <= PREDICTOR_DRIFT * np.max(np.abs(a)), field


def test_memnet_matches_scalar_reference():
    # the simulate-memristive benchmark's net; measured at t_end 2: fluxes
    # 1.95e-15, charges 4.65e-15 and outputs 6.5e-12 relative
    circuit = parse_netlist(MEMNET)
    config = cfg(t_end=2.0)
    ref = scalar_reference.simulate(circuit, DriveSet(), 0.0, config)
    got = simulate(circuit, DriveSet(), 0.0, config)
    for field in ("tree_flux", "loop_charge"):
        a, b = getattr(ref, field), getattr(got, field)
        assert np.max(np.abs(a - b)) <= RTOL * np.max(np.abs(a)), field
    # oc1 is a tree branch, so its flux phi is one of the tree fluxes held
    # above, each sample within RTOL * max|phi| of the reference.  Its output
    # is the backward difference v_m = (phi_m - phi_(m-1)) / dt, so each
    # output sample is within 2 * RTOL * max|phi| / dt of the reference.
    assert circuit.index_of("oc1") in got.topology.tree
    bound = 2 * RTOL * np.max(np.abs(ref.tree_flux)) / config.grid.dt
    assert np.max(np.abs(ref.outputs - got.outputs)) <= bound


def test_predictor_saves_law_evaluations(monkeypatch):
    # per step on memnet to t_end 5, the dz = 0 start measured 6.71 tanh
    # evaluations (3.35 Newton passes of 2 memristors), the predictor 4.76
    tanh = LAW_FAMILIES["tanh"]
    evaluations = []

    def counting(x, params):
        evaluations.append(np.size(x))
        return tanh(x, params)

    monkeypatch.setitem(LAW_FAMILIES, "tanh", counting)
    circuit = parse_netlist(MEMNET)
    config = cfg(t_end=5.0)
    steps = config.grid.n - 1
    scalar_reference.simulate(circuit, DriveSet(), 0.0, config, predictor=False)
    at_rest = sum(evaluations) / steps
    evaluations.clear()
    simulate(circuit, DriveSet(), 0.0, config)
    assert sum(evaluations) / steps <= 0.8 * at_rest


# --- compile once ------------------------------------------------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_train_compiles_once(monkeypatch):
    circuit = parse_netlist(LINNET)
    builds = _count_calls(monkeypatch, dynamics, "build_topology")
    validations = _count_calls(monkeypatch, dynamics, "validate")
    config = TrainConfig(
        epochs=3,
        learning_rate=0.05,
        beta=1e-3,
        sim=cfg(dt=4e-3),
        batch=(DriveSet(), DriveSet(inputs={"v1": Waveform("const", (0.8,))})),
        seed=1,
    )
    train(circuit, config)
    assert len(builds) == 1
    assert len(validations) == 1


def test_conductances_reject_other_circuits():
    system = compile(parse_netlist(LINNET))
    assert list(system.conductances(parse_netlist(LINNET))) == [0.0, 0.0, 1.0, 0.25, 0.5, 0.0]
    with pytest.raises(ValueError, match="compiled"):
        system.conductances(parse_netlist(LINNET.replace("cap=1.0", "cap=2.0")))


# --- divergence reports the member ------------------------------------------


def test_divergence_names_the_member(monkeypatch):
    circuit = parse_netlist(TANH_M)
    system = compile(circuit)
    members = fd_members(circuit, 1e-4, system.conductances(circuit))
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
    with pytest.raises(NewtonDivergenceError, match=r"\(fd s1\+ phase\)") as exc:
        simulate_batch(system, DriveSet(), cfg(), members)
    assert exc.value.phase == "fd s1+"


def test_singular_jacobian_names_its_member():
    # the cubic law's zero slope at the origin leaves the free member's
    # Jacobian singular once the step turns on; the nudged member's output
    # capacitor keeps its Jacobian regular
    net = "I i1 0 n1 w=step(1,0.5)\nM m1 n1 0 f=poly(0,0,0,1)\nOC oc1 n1 0 cap=1.0 w=const(0.1)\n"
    system = compile(parse_netlist(net))
    g = system.conductances(system.circuit)
    members = [Member("nudged", 1.0, g), Member("free", 0.0, g)]
    with pytest.raises(NewtonDivergenceError, match=r"at t=0\.5 \(free phase\)") as exc:
        simulate_batch(system, DriveSet(), cfg(), members)
    assert exc.value.phase == "free"
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_single_simulation_has_no_phase(monkeypatch):
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
    with pytest.raises(NewtonDivergenceError) as exc:
        simulate(parse_netlist(TANH_M), DriveSet(), 0.0, cfg())
    assert exc.value.phase is None
    assert "phase" not in str(exc.value)


# --- a NaN residual is a divergence -------------------------------------------


@pytest.mark.parametrize("net", [LINNET, TANH_M], ids=["linear", "tanh"])
@pytest.mark.parametrize("nan_first", [False, True])
def test_nan_member_diverges_by_name(net, nan_first):
    circuit = parse_netlist(net)
    system = compile(circuit)
    g = system.conductances(circuit)
    g_nan = g.copy()
    g_nan[2] = np.nan  # s1
    batch = [Member("ok", 0.0, g), Member("bad", 0.0, g_nan)]
    if nan_first:
        batch.reverse()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NewtonDivergenceError, match=r"\(bad phase\)") as exc:
            simulate_batch(system, DriveSet(), cfg(t_end=0.1), batch)
    assert exc.value.phase == "bad"
    assert np.isnan(exc.value.residual)


@pytest.mark.parametrize("net", [LINNET, LINEAR_M], ids=["linear", "linear-M"])
@pytest.mark.parametrize("element", ["v1", "oc1"])
def test_infinite_drive_diverges_where_it_turns_infinite(net, element):
    # at dt = 1e-4, t = 0.25 is step 2500, in the fifth block of steps
    circuit = parse_netlist(net)
    system = compile(circuit)
    g = system.conductances(circuit)
    step = Waveform("step", (np.inf, 0.25))
    drive = DriveSet(targets={element: step}) if element == "oc1" else DriveSet(inputs={element: step})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NewtonDivergenceError, match=r"at t=0\.25 \(free phase\)") as exc:
            simulate_batch(system, drive, cfg(dt=1e-4), [Member("free", 0.0, g), Member("nudged", 1e-3, g)])
    assert exc.value.t == 0.25 and exc.value.phase == "free"


def test_nan_single_run_diverges():
    # the parser rejects g=nan, so the NaN goes in past it
    circuit = parse_netlist(RC).with_conductances({"r1": np.nan})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NewtonDivergenceError, match="residual=nan"):
            simulate(circuit, DriveSet(), 0.0, cfg(t_end=0.1))
