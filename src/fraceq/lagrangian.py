"""Complex-valued circuit Lagrangian, its action by part, EL residual.

The Lagrangian is evaluated along trajectories produced by the simulator.
Inductive/capacitive/output terms are real; memristive and synaptic terms
carry the imaginary unit so that half-order elements enter the action with
an energy-like quadratic form.  The Euler-Lagrange residual is a post-hoc
whole-trajectory check: its third term uses the anti-causal right-sided
derivative and therefore never participates in forward simulation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Element
from .dynamics import Trajectory, TreeFluxRun
from .frac_ops import rl_derivative_right

PART_KEYS = ("inductive", "capacitive", "memristive", "synaptic", "output", "source")

_KIND_PART = {"L": "inductive", "C": "capacitive", "M": "memristive", "R": "synaptic",
              "OC": "output", "V": "source", "I": "source"}


class BranchQuantities(NamedTuple):
    """Branch quantities over the grid, one row per element (branches x N).

    phi/v are branch fluxes and voltages, q/i branch charges and currents,
    psi the left Caputo half-derivative of the flux; target holds the
    output-capacitor target voltages and is 0 on every other branch.  psi is
    nonlocal in time, so a column is only consistent with the trajectory
    history it was extracted from.
    """

    phi: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    q: np.ndarray
    i: np.ndarray
    target: np.ndarray

    def branch(self, b: int) -> "BranchQuantities":
        """The quantities of branch b alone, each an N-array."""
        return BranchQuantities._make(x[b] for x in self)


def branch_quantities(circuit: Circuit, traj: Trajectory) -> BranchQuantities:
    """Map a trajectory's coordinates to branch quantities, once for all samples."""
    _check_circuit(circuit, traj)
    flux, charge = traj.topology.flux_map, traj.topology.charge_map
    target = np.zeros((len(circuit.elements), traj.grid.n))
    for name, row in zip(traj.output_names, traj.targets):
        target[circuit.index_of(name)] = row
    return BranchQuantities(
        phi=flux @ traj.tree_flux,
        v=flux @ traj.tree_voltage,
        psi=flux @ traj.tree_half_velocity,
        q=charge @ traj.loop_charge,
        i=charge @ traj.loop_current,
        target=target,
    )


def _check_circuit(circuit: Circuit, traj: TreeFluxRun) -> None:
    if traj.topology.names != tuple(e.name for e in circuit.elements):
        raise ValueError("trajectory was produced for a different circuit")


def half_energies(circuit: Circuit, traj: TreeFluxRun, branches) -> np.ndarray:
    """Integral of the squared flux half-derivative psi of each listed branch.

    psi comes from the trajectory's tree half-velocities through the flux
    map, the same psi the synaptic Lagrangian term reads; trapezoidal
    quadrature over the grid.
    """
    _check_circuit(circuit, traj)
    psi = traj.topology.flux_map[list(branches)] @ traj.tree_half_velocity
    return np.trapezoid(psi**2, dx=traj.grid.dt, axis=-1)


def element_term(element: Element, x: BranchQuantities, beta: float = 0.0) -> np.ndarray:
    """Lagrangian contribution of one element, sample by sample.

    x holds the element's own branch quantities, as arrays over the samples
    or as scalars for one sample.  Capacitors contribute co-energy
    +int q(v')dv' (not its negative): with the inductive term
    -int i(phi')dphi' this is the sign pair that makes the Euler-Lagrange
    equation reproduce the current balance.  The output term
    -beta*C*(v-T)^2 carries no 1/2 so that d(action)/d(beta) equals -C
    times the trajectory loss exactly.  Voltage sources are driven
    constraints with no energy term; current sources enter as the forcing
    -I(t)*phi that injects their current into the variational balance.
    """
    # squares use float_power, which rounds like the scalar power of the
    # per-sample evaluation this replaced; x**2 is a multiply and differs
    # from it in the last bit for about one sample in a thousand
    if element.kind == "L":
        term = -element.constitutive().antiderivative(x.phi)
    elif element.kind == "C":
        term = element.constitutive().antiderivative(x.v)
    elif element.kind == "M":
        term = 1j * element.constitutive().antiderivative(x.psi)
    elif element.kind == "R":
        term = 0.5j * element.g * np.float_power(x.psi, 2)
    elif element.kind == "OC":
        term = -beta * element.cap_scale * np.float_power(x.v - x.target, 2)
    elif element.kind == "V":
        term = np.zeros_like(x.phi)
    elif element.kind == "I":
        term = -x.i * x.phi
    else:
        raise ValueError(f"unknown element kind {element.kind!r}")
    return np.asarray(term, dtype=complex)


def lagrangian_parts(circuit: Circuit, x: BranchQuantities, beta: float) -> dict:
    """Sum of element terms per part, in element order, over x's samples.

    beta is the nudging strength of the output term.  Explicit-parameter
    derivatives are taken by re-evaluating with a modified circuit or beta
    while the branch quantities stay frozen.
    """
    parts = {k: np.zeros(np.shape(x.phi)[1:], dtype=complex) for k in PART_KEYS}
    for b, e in enumerate(circuit.elements):
        parts[_KIND_PART[e.kind]] += element_term(e, x.branch(b), beta)
    return parts


def action_breakdown(circuit: Circuit, traj: Trajectory) -> dict:
    """Trapezoidal time integral of each Lagrangian part at traj.beta, part -> complex; the action is their sum."""
    series = lagrangian_parts(circuit, branch_quantities(circuit, traj), traj.beta)
    dt = traj.grid.dt
    return {k: complex(np.trapezoid(v, dx=dt)) for k, v in series.items()}


def _central_diff(x: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2 * dt)
    out[0] = (x[1] - x[0]) / dt
    out[-1] = (x[-1] - x[-2]) / dt
    return out


def el_residual(circuit: Circuit, traj: Trajectory) -> dict:
    """Euler-Lagrange residual per flux coordinate, as complex arrays over the grid.

    Evaluates dL/dphi - d/dt(dL/dv) + D_right^{1/2}(dL/dpsi) assembled
    through the cut-set matrix.  It vanishes, up to discretization error at
    interior samples, only on circuits without R or M branches: each R/M
    term is a right half-derivative of a left one, and the two do not
    compose to d/dt (the strict xfail test_resistive_term_reproduces_current),
    so on a dissipative circuit the residual does not shrink with dt.  Time
    derivatives use central differences, deliberately different from the
    solver's backward stencil, so the residual does not echo the solver.
    Coordinates on driven voltage-source branches are constrained, not
    variational, and are omitted.
    """
    _check_circuit(circuit, traj)
    grid = traj.grid
    dt = grid.dt
    elements = circuit.elements
    beta = traj.beta
    topology = traj.topology
    # the branch quantities this residual reads, mapped as branch_quantities
    # maps them; it never reads v or i, so those are not built
    phi = topology.flux_map @ traj.tree_flux
    psi = topology.flux_map @ traj.tree_half_velocity
    q = topology.charge_map @ traj.loop_charge
    targets = dict(zip(traj.output_names, traj.targets))

    contrib = np.zeros((len(elements), grid.n), dtype=complex)
    for b, e in enumerate(elements):
        if e.kind == "L":
            contrib[b] = -e.constitutive()(phi[b])[0]
        elif e.kind == "C":
            v = _central_diff(phi[b], dt)
            contrib[b] = -_central_diff(e.constitutive()(v)[0], dt)
        elif e.kind == "R":
            contrib[b] = 1j * rl_derivative_right(e.g * psi[b], dt, 0.5)
        elif e.kind == "M":
            contrib[b] = 1j * rl_derivative_right(e.constitutive()(psi[b])[0], dt, 0.5)
        elif e.kind == "OC":
            v = _central_diff(phi[b], dt)
            contrib[b] = 2 * beta * e.cap_scale * _central_diff(v - targets[e.name], dt)
        elif e.kind == "I":
            contrib[b] = -_central_diff(q[b], dt)
        # V: driven constraint, no variational contribution

    res = topology.flux_map.T @ contrib
    return {
        name: res[c]
        for c, (branch, name) in enumerate(zip(topology.tree, topology.flux_coord_names))
        if elements[branch].kind != "V"
    }
