"""Frozen per-sample Lagrangian: the post-processing as it was before array evaluation.

`action_breakdown` below builds one `CircuitState` of name-keyed dicts per
sample and sums `element_term` over the elements at each sample.  It is
kept verbatim as the reference that the array evaluation in
`fraceq.lagrangian` is tested against.  It is not used by the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fraceq.circuit import Circuit, Element
from fraceq.dynamics import Trajectory

PART_KEYS = ("inductive", "capacitive", "memristive", "synaptic", "output", "source")

_KIND_PART = {"L": "inductive", "C": "capacitive", "M": "memristive", "R": "synaptic",
              "OC": "output", "V": "source", "I": "source"}


@dataclass(frozen=True)
class CircuitState:
    """Branch-quantity snapshot at one instant, keyed by element name.

    phi/v are branch fluxes and voltages, q/i branch charges and currents,
    psi/r their half-order counterparts; targets holds the output-capacitor
    target voltages.  psi and r are nonlocal in time, so a state is only
    consistent with the trajectory history it was extracted from.
    """

    t: float
    phi: dict
    v: dict
    psi: dict
    q: dict
    i: dict
    r: dict
    targets: dict


@dataclass(frozen=True)
class LagrangianValue:
    """Total Lagrangian with its disjoint parts breakdown; total = sum."""

    parts: dict

    @property
    def total(self) -> complex:
        return complex(sum(self.parts.values()))

    @property
    def hidden(self) -> complex:
        """Everything except the synaptic and output coupling terms."""
        return self.total - self.parts["synaptic"] - self.parts["output"]


def element_term(element: Element, state: CircuitState, beta: float = 0.0) -> complex:
    """Lagrangian contribution of one element at one state.

    Capacitors contribute co-energy +int q(v')dv' (not its negative): with
    the inductive term -int i(phi')dphi' this is the sign pair that makes
    the Euler-Lagrange equation reproduce the current balance.  The output
    term -beta*C*(v-T)^2 carries no 1/2 so that d(action)/d(beta) equals
    -C times the trajectory loss exactly.  Voltage sources are driven
    constraints with no energy term; current sources enter as the forcing
    -I(t)*phi that injects their current into the variational balance.
    """
    name = element.name
    if element.kind == "L":
        return complex(-element.constitutive().antiderivative(state.phi[name]))
    if element.kind == "C":
        return complex(element.constitutive().antiderivative(state.v[name]))
    if element.kind == "M":
        return 1j * float(element.constitutive().antiderivative(state.psi[name]))
    if element.kind == "R":
        return 0.5j * element.g * state.psi[name] ** 2
    if element.kind == "OC":
        diff = state.v[name] - state.targets.get(name, 0.0)
        return complex(-beta * element.cap_scale * diff**2)
    if element.kind == "V":
        return 0j
    if element.kind == "I":
        return complex(-state.i[name] * state.phi[name])
    raise ValueError(f"unknown element kind {element.kind!r}")


def total_lagrangian(circuit: Circuit, state: CircuitState, beta: float) -> LagrangianValue:
    """Sum of element terms, grouped into the parts breakdown.

    beta is the nudging strength, so explicit-parameter derivatives can be
    taken by re-evaluating with a modified circuit or beta while the state
    stays frozen.
    """
    parts = {k: 0j for k in PART_KEYS}
    for e in circuit.elements:
        parts[_KIND_PART[e.kind]] += element_term(e, state, beta)
    return LagrangianValue(parts)


def trajectory_states(circuit: Circuit, traj: Trajectory) -> list:
    """Extract the per-sample CircuitState sequence from a trajectory."""
    topology = traj.topology
    names = list(topology.names)
    if names != [e.name for e in circuit.elements]:
        raise ValueError("trajectory was produced for a different circuit")
    phi = topology.flux_map @ traj.tree_flux
    q = topology.charge_map @ traj.loop_charge
    v = topology.flux_map @ traj.tree_voltage
    i = topology.charge_map @ traj.loop_current
    psi = topology.flux_map @ traj.tree_half_velocity
    r = topology.charge_map @ traj.loop_half_charge_rate
    times = traj.grid.times()
    targets = dict(zip(traj.output_names, traj.targets))
    states = []
    for m in range(traj.grid.n):
        states.append(
            CircuitState(
                t=float(times[m]),
                phi=dict(zip(names, phi[:, m])),
                v=dict(zip(names, v[:, m])),
                psi=dict(zip(names, psi[:, m])),
                q=dict(zip(names, q[:, m])),
                i=dict(zip(names, i[:, m])),
                r=dict(zip(names, r[:, m])),
                targets={k: float(row[m]) for k, row in targets.items()},
            )
        )
    return states


def lagrangian_series(circuit: Circuit, traj: Trajectory) -> dict:
    """Per-part Lagrangian time series (complex arrays over the grid), at traj.beta."""
    values = [total_lagrangian(circuit, s, traj.beta) for s in trajectory_states(circuit, traj)]
    return {k: np.array([v.parts[k] for v in values]) for k in PART_KEYS}


def action_breakdown(circuit: Circuit, traj: Trajectory) -> LagrangianValue:
    """Trapezoidal time integral of each Lagrangian part."""
    series = lagrangian_series(circuit, traj)
    dt = traj.grid.dt
    return LagrangianValue({k: complex(np.trapezoid(v, dx=dt)) for k, v in series.items()})
