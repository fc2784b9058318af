"""Array Lagrangian evaluation against the frozen per-sample path.

`lagrangian_reference.action_breakdown` builds one `CircuitState` per sample
and sums `element_term` sample by sample, as the package did before it
evaluated whole trajectory arrays.  Every comparison requires the same bits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

import lagrangian_reference
from fraceq.circuit import parse_netlist
from fraceq.dynamics import DriveSet, SimConfig, simulate
from fraceq.errors import NewtonDivergenceError, ValidationError
from fraceq.frac_ops import SampleGrid
from fraceq.lagrangian import PART_KEYS, action_breakdown, branch_quantities, lagrangian_parts
from test_batch import LC, LINEAR_M, LINNET, RC, TANH_M, random_circuits, skip_topology_refusal

# the seed-101 input of the simulate-memristive benchmark workload
MEMRISTIVE = """\
V vs in1 0 w=sine(1.0364,0.227,0)
V vp in2 0 w=step(0.54,1.9701)
M m1 in1 n1 f=tanh(1.0811,1.9556)
M m2 in2 n2 f=tanh(0.7708,1.3928)
R r1 n1 0 g=0.5025
C c1 n1 n2 c=1.0483
L l1 n2 0 l=2.1618
R r2 n2 out g=0.9792
OC oc1 out 0 cap=1.0 w=const(0.2781)
"""


def assert_same_bits(circuit, traj):
    ref_series = lagrangian_reference.lagrangian_series(circuit, traj)
    series = lagrangian_parts(circuit, branch_quantities(circuit, traj), traj.beta)
    assert set(series) == set(PART_KEYS)
    for k in PART_KEYS:
        assert series[k].dtype == ref_series[k].dtype, k
        assert series[k].tobytes() == ref_series[k].tobytes(), k
    ref_parts = lagrangian_reference.action_breakdown(circuit, traj).parts
    parts = action_breakdown(circuit, traj)
    for k in PART_KEYS:
        assert np.complex128(parts[k]).tobytes() == np.complex128(ref_parts[k]).tobytes(), k


@pytest.mark.parametrize(
    "net, dt, t_end",
    [
        (LINNET, 1e-3, 1.0),
        (RC, 1e-3, 2.0),
        (LC, 1e-3, 2.0),
        (LINEAR_M, 1e-3, 1.0),
        (TANH_M, 1e-3, 0.5),
        (MEMRISTIVE, 1e-3, 3.0),
    ],
    ids=["linnet", "rc", "lc", "linear-M", "tanh-M", "memristive"],
)
@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_named_circuits_match_reference(net, dt, t_end, beta):
    circuit = parse_netlist(net)
    traj = simulate(circuit, DriveSet(), beta, SimConfig(SampleGrid.from_span(0.0, t_end, dt)))
    assert_same_bits(circuit, traj)


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(circuit=random_circuits())
def test_generated_circuits_match_reference(circuit):
    config = SimConfig(SampleGrid.from_span(0.0, 0.5, 1e-2))
    for beta in (0.0, 0.3):
        try:
            traj = simulate(circuit, DriveSet(), beta, config)
        except NewtonDivergenceError:
            assume(False)
        except ValidationError as exc:
            skip_topology_refusal(exc)
        assert_same_bits(circuit, traj)
