"""Causal time-domain simulation in generalized coordinates.

Unknowns are the tree-branch fluxes and cotree loop charges; both Kirchhoff
laws hold identically through the coordinate map, so each time step solves one
constitutive balance equation per branch.  Stepping is first-order implicit
(backward difference) with full-history GL convolutions for the fractional
memristors, evaluated exactly in two parts (a far part refreshed by FFT once
per block of steps and a near part summed per step, after Hairer, Lubich and
Schlichte 1985).  A circuit whose every law is linear steps as one affine
recurrence, checked a block of steps at a time; Newton iteration runs only
for nonlinear constitutive laws, and starts each step from the secant
predictor z_(m-1) + (z_(m-1) - z_(m-2)), which saves about a third of the
passes on the shipped memristive net.

`compile` validates a circuit and builds its topology once; `simulate_batch`
then steps any number of runs that differ in conductances and beta, such as
the free and nudged phases or the finite-difference perturbations, in one
loop.  `simulate` is a batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .circuit import KINDS, LAW_FAMILIES, Circuit, Element, Waveform, validate
from .errors import MissingOutputError, NewtonDivergenceError, ParameterError, ValidationError
from .frac_ops import SampleGrid, _gl_convolve, gl_weights
from .topology import Topology, build_topology

# every step of every run ends with its row-scaled residual max|Fs| at or below this
NEWTON_TOL = 1e-9
# Newton passes per step on a circuit with a nonlinear law; a linear circuit
# solves each step in one affine update and runs none
NEWTON_MAX_ITERS = 50


@dataclass(frozen=True)
class SimConfig:
    grid: SampleGrid


@dataclass(frozen=True)
class DriveSet:
    """Overrides for source inputs and output targets, by element name.

    Elements not named here fall back to the waveform embedded in the
    netlist; an element with neither is a validation error.
    """

    inputs: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)

    def waveform_for(self, element: Element) -> Waveform:
        table = self.targets if element.kind == "OC" else self.inputs
        wf = table.get(element.name, element.waveform)
        if wf is None:
            raise ValidationError([f"{element.name}: no waveform in drive set or netlist"])
        return wf


@dataclass(frozen=True)
class Trajectory:
    """Simulated coordinate signals plus output/target pairs.

    Flux coordinates carry (phi, v, psi); charge coordinates carry (q, i, r).
    Branch quantities are reconstructed through the topology's coordinate
    maps (`lagrangian.branch_quantities`).
    """

    grid: SampleGrid
    beta: float
    topology: Topology
    tree_flux: np.ndarray  # |tree| x N
    loop_charge: np.ndarray  # |links| x N
    output_names: tuple
    outputs: np.ndarray  # |K| x N output voltages v_k
    targets: np.ndarray  # |K| x N target voltages T_k
    _halves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def tree_voltage(self) -> np.ndarray:
        return _backward_diff(self.tree_flux, self.grid.dt)

    @property
    def loop_current(self) -> np.ndarray:
        return _backward_diff(self.loop_charge, self.grid.dt)

    @property
    def tree_half_velocity(self) -> np.ndarray:
        """Psi per flux coordinate: left Caputo half-derivative of the flux."""
        return self._half("psi", self.tree_flux)

    @property
    def loop_half_charge_rate(self) -> np.ndarray:
        """r per charge coordinate: left Caputo half-derivative of the charge."""
        return self._half("r", self.loop_charge)

    def _half(self, key, rows) -> np.ndarray:
        """Half-derivative rows, computed on the first read and kept (read-only).

        All rows go through one GL convolution; each row gets the same bits
        as `caputo_left` of that row alone.
        """
        if key not in self._halves:
            if len(rows):
                rows = _gl_convolve(rows - rows[:, :1], self.grid.dt, 0.5)
                rows.flags.writeable = False
            self._halves[key] = rows
        return self._halves[key]

    def csv_chunks(self):
        """The CSV export: the header line, then chunks of rows, one row per grid sample."""
        cols = self._csv_columns()
        yield ",".join(name for name, _ in cols) + "\n"
        yield from _csv_body([values for _, values in cols])

    def _csv_columns(self) -> list:
        """(header name, values) per CSV column, in column order."""
        cols = [("t", self.grid.times())]
        for name, phi, v, psi in zip(
            self.topology.flux_coord_names, self.tree_flux, self.tree_voltage, self.tree_half_velocity
        ):
            cols += [(f"coord_{name}_phi", phi), (f"coord_{name}_v", v), (f"coord_{name}_psi", psi)]
        for name, q, i, r in zip(
            self.topology.charge_coord_names, self.loop_charge, self.loop_current, self.loop_half_charge_rate
        ):
            cols += [(f"coord_{name}_q", q), (f"coord_{name}_i", i), (f"coord_{name}_r", r)]
        for k, name in enumerate(self.output_names):
            cols += [(f"out_{name}_v", self.outputs[k]), (f"out_{name}_T", self.targets[k])]
        return cols


CSV_CHUNK_ROWS = 2048


def _csv_body(columns):
    """Rows of "%.17g" cells, each ending in a newline, CSV_CHUNK_ROWS rows per string.

    Each chunk stacks only its own slice of the columns and goes to Python
    floats alone, so neither the whole table nor its text exists at once.
    """
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        table = np.stack([col[lo : lo + CSV_CHUNK_ROWS] for col in columns], axis=1)
        yield "".join([fmt % tuple(row) for row in table.tolist()])


def _backward_diff(x: np.ndarray, dt: float) -> np.ndarray:
    """Backward difference along the last (time) axis, zero at the first sample."""
    out = np.empty_like(x)
    out[..., 0] = 0.0
    out[..., 1:] = np.diff(x) / dt
    return out


@dataclass(frozen=True, eq=False)
class StepSystem:
    """A validated circuit with its topology: everything a run keeps fixed.

    P_phi and P_q are the topology's coordinate maps padded to the whole
    coordinate vector z = [tree fluxes; loop charges], the layout the step
    loop works in.  Resistor conductances, beta and drives are data of each
    run; every other element value comes from `circuit`.
    """

    circuit: Circuit
    topology: Topology
    P_phi: np.ndarray  # branches x coordinates
    P_q: np.ndarray  # branches x coordinates
    rows: dict  # element kind -> branch indices
    laws: tuple  # ConstitutiveSpec per C/L/M branch, None elsewhere
    nonlinear: np.ndarray  # C/L/M branches whose law is not linear, by _law_group

    def conductances(self, circuit: Circuit) -> np.ndarray:
        """Per-branch conductances of `circuit` (0 off the resistors).

        `circuit` must be the compiled circuit up to its conductances.
        """
        ref = self.circuit.elements
        if len(circuit.elements) != len(ref) or any(
            replace(e, g=r.g) != r for e, r in zip(circuit.elements, ref)
        ):
            raise ValueError("circuit differs from the compiled one in more than its conductances")
        return np.array([e.g if e.kind == "R" else 0.0 for e in circuit.elements])


def compile(circuit: Circuit) -> StepSystem:
    """Validate the circuit and build its topology, once for any number of runs."""
    diags = validate(circuit)
    if diags:
        raise ValidationError(diags)
    topology = build_topology(circuit)
    nb = len(circuit.elements)
    nt = len(topology.tree)
    nc = nt + len(topology.links)
    P_phi = np.zeros((nb, nc))
    P_phi[:, :nt] = topology.flux_map
    P_q = np.zeros((nb, nc))
    P_q[:, nt:] = topology.charge_map
    kinds = np.array([e.kind for e in circuit.elements])
    laws = tuple(e.constitutive() if e.kind in ("C", "L", "M") else None for e in circuit.elements)
    nonlinear = [b for b, law in enumerate(laws) if law is not None and law.family != "linear"]
    nonlinear.sort(key=lambda b: _law_group(laws[b]))
    return StepSystem(
        circuit=circuit,
        topology=topology,
        P_phi=P_phi,
        P_q=P_q,
        rows={k: np.flatnonzero(kinds == k) for k in KINDS},
        laws=laws,
        nonlinear=np.array(nonlinear, dtype=int),
    )


def _law_group(law) -> tuple:
    """Laws evaluated in one array call: one family (and coefficient count)."""
    return law.family, len(law.params)


# Steps per refresh of the far part of the memristor history.  One FFT over
# the whole past every HISTORY_BLOCK steps plus at most HISTORY_BLOCK near
# terms per step keep the cost per step nearly flat in N.  Of 128-4096, 512
# gave the lowest history cost at N = 2e4 with two memristors (7 us/step);
# at N = 1e5 it costs 18 us/step, 2048 would cost 9.
HISTORY_BLOCK = 512


def _far_history(past: np.ndarray, block: int, kernels: dict) -> np.ndarray:
    """sum_{j<m0} w_(t-j) past_j for t in [m0, m0 + block), m0 = len(past).

    The GL half-order weights w are exact; the sum is one circular
    convolution of length L > m0 + block.  Every lag t - j lies in [1, L),
    so no term wraps around.  Spectra are kept in `kernels` by length.
    """
    m0 = past.shape[-1]
    size = 1 << (m0 + block).bit_length()
    if size not in kernels:
        kernels[size] = np.fft.rfft(gl_weights(0.5, size - 1))
    full = np.fft.irfft(np.fft.rfft(past, size) * kernels[size], size)
    return full[..., m0 : m0 + block]


class Member(NamedTuple):
    """One trajectory of a batch."""

    label: Optional[str]  # names the run in a NewtonDivergenceError
    beta: float
    g: np.ndarray  # per-branch conductances, as StepSystem.conductances


def simulate_batch(system: StepSystem, drive: DriveSet, cfg: SimConfig, members) -> list:
    """Advance every member over the grid in one step loop; one Trajectory each.

    Members share the topology and the drive and differ in conductances and
    beta.  Initial conditions are zero fluxes and charges at t = a, matching
    the lower terminal of every Caputo operator.  With beta = 0 the output
    capacitors carry exactly zero current, so targets cannot influence the
    free phase.

    Each step solves the branch residual F = A dz + D z_prev + c_m = 0 for
    dz = z - z_prev, per member, to a row-scaled residual max|Fs| <=
    NEWTON_TOL.  Nonlinear C/L/M rows subtract their law, and memristor rows
    add the GL history sum to c_m.

    On a circuit whose laws are all linear, Newton does not run: each step
    is the affine recurrence z_m = T z_(m-1) + u_m with T = I - K D and
    u_m = -K c_m, K = J^-1 s built once per member (J the Jacobian of Fs, s
    the row scaling).  The c_m of a block of HISTORY_BLOCK steps are built
    together, and after the block one array pass checks every step of every
    member.  A circuit with a nonlinear law runs Newton with a convergence
    mask per member, starting each step m >= 2 from the secant predictor
    dz = z_(m-1) - z_(m-2) (the first step from dz = 0).  Newton stops at
    NEWTON_TOL, about 1e-11 (relative) short of the converged step, so the
    start is part of the result: on netlists/memnet.net (2e4 steps) the
    predictor moves the voltages and currents by up to 2.3e-9 of their
    largest value from where the dz = 0 start leaves them.
    NEWTON_MAX_ITERS bounds the passes, and a singular Jacobian fails the
    step.  Either way a failed step raises NewtonDivergenceError at the
    earliest failing time, naming the first failing member there.

    Every beta must be finite and non-negative (ParameterError "beta").
    Conductances are not checked: a NaN one fails as a divergence.
    """
    if not members:
        raise ValueError("a batch needs at least one member")
    betas = np.array([mb.beta for mb in members], dtype=float)
    bad = ~(np.isfinite(betas) & (betas >= 0))
    if bad.any():
        raise ParameterError("beta", f"beta must be finite and non-negative, got {betas[bad][0]}")
    g = np.array([mb.g for mb in members], dtype=float)
    k = len(members)
    elements = system.circuit.elements
    rows = system.rows
    P_phi, P_q = system.P_phi, system.P_q
    nb, nc = P_phi.shape
    nt = len(system.topology.tree)
    grid = cfg.grid
    dt = grid.dt
    n = grid.n
    times = grid.times()
    sqrt_dt = math.sqrt(dt)

    # row scaling to bring every residual to current-like units
    row_scale = np.ones((nb, 1))
    row_scale[np.concatenate([rows["C"], rows["V"], rows["I"], rows["OC"]])] = 1.0 / dt
    row_scale[rows["M"]] = 1.0 / sqrt_dt

    # F = dphi phi + dq q + dphi_prev phi_prev + dq_prev q_prev + c_m
    dphi, dq, dphi_prev, dq_prev = (np.zeros((k, nb)) for _ in range(4))
    R = rows["R"]
    dq[:, R], dq_prev[:, R] = 1.0 / dt, -1.0 / dt  # R: i = g v
    dphi[:, R], dphi_prev[:, R] = -g[:, R] / dt, g[:, R] / dt
    dq[:, rows["C"]] = 1.0  # C: q = qhat(v)
    dq[:, rows["L"]], dq_prev[:, rows["L"]] = 1.0 / dt, -1.0 / dt  # L: i = ihat(phi)
    dq[:, rows["M"]] = 1.0 / sqrt_dt  # M: D^(1/2) q = rhat(D^(1/2) phi)
    for b in set(np.concatenate([rows["C"], rows["L"], rows["M"]])) - set(system.nonlinear):
        slope = system.laws[b].params[0]
        if elements[b].kind == "C":
            dphi[:, b], dphi_prev[:, b] = -slope / dt, slope / dt
        elif elements[b].kind == "L":
            dphi[:, b] = -slope
        else:
            dphi[:, b] = -slope / sqrt_dt
    dphi[:, rows["V"]] = 1.0  # V: flux pinned to the integrated source voltage
    dq[:, rows["I"]] = 1.0  # I: charge pinned to the integrated source current
    OC = rows["OC"]  # OC: q = beta C (v - T)
    weight = betas[:, None] * np.array([elements[b].cap_scale for b in OC])
    dq[:, OC] = 1.0
    dphi[:, OC], dphi_prev[:, OC] = -weight / dt, weight / dt

    A = dphi[:, :, None] * P_phi + dq[:, :, None] * P_q
    B = dphi_prev[:, :, None] * P_phi + dq_prev[:, :, None] * P_q
    # with dz = z - z_prev, F = A dz + D z_prev + c_m.  Where a row differences
    # a branch quantity, D = A + B cancels exactly, so the residual at dz = 0
    # is computed as the scalar loop did
    D = A + B
    J_lin = row_scale * A  # Jacobian of the scaled residual Fs = row_scale F

    drives = np.zeros((nb, n))
    for b, e in enumerate(elements):
        if e.kind in ("V", "I", "OC"):
            drives[b] = drive.waveform_for(e)(times)
    # driven source coordinates: backward-rectangle integral of the waveform,
    # consistent with the backward-difference velocity.  This part of c_m is
    # the same for every member; the output-capacitor part beta C T is added
    # per member and the memristor history per step.
    S = np.concatenate([rows["V"], rows["I"]])
    src = np.zeros((nb, n))
    src[S, 1:] = -dt * np.cumsum(drives[S, 1:], axis=1)

    # GL half-derivative history of the memristor branch fluxes and charges
    M = rows["M"]
    has_mem = len(M) > 0
    if has_mem:
        w_rev = gl_weights(0.5, n - 1)[::-1]  # w_rev[n - 1 - j] = w_j
        P_mem = np.concatenate([P_phi[M], P_q[M]])
        mem = np.zeros((k, 2 * len(M), n))
        kernels = {}  # FFT length -> spectrum of w_0..w_(length-1)
    NL = system.nonlinear
    linear = not len(NL)
    if linear:
        # z_m = z_(m-1) - K (D z_(m-1) + c_m), one exact Newton pass.  Summing
        # D z_(m-1) + c_m first keeps the cancellation of the integrated
        # source terms exact; forming T z and K c apart loses it (linnet's
        # outputs drifted by 1.7e-12 relative over 10^4 steps)
        K = np.linalg.inv(J_lin) * row_scale[:, 0]
    else:
        # nonlinear rows: x = (phi + x_off) / x_div is the law's argument
        nl_kind = np.array([elements[b].kind for b in NL], dtype=str)
        nl_C = nl_kind == "C"
        nl_M = nl_kind == "M"
        nl_mem = np.searchsorted(M, NL[nl_M])  # their places among the memristors
        x_div = np.where(nl_C, dt, np.where(nl_M, sqrt_dt, 1.0))
        P_nl = P_phi[NL]
        nl_scale = row_scale[NL, 0]
        # one law call per group and Newton pass (compile sorted NL by group)
        nl_groups = []
        start = 0
        for (family, _), group in itertools.groupby(NL, lambda b: _law_group(system.laws[b])):
            params = np.array([system.laws[b].params for b in group], dtype=float).T
            nl_groups.append((slice(start, start + params.shape[1]), LAW_FAMILIES[family], params))
            start += params.shape[1]
        y = np.empty((k, len(NL)))
        dy = np.empty((k, len(NL)))
        J = J_lin.copy()  # only the nonlinear rows change between Newton passes

    z = np.zeros((k, nc, 1))
    Z = np.zeros((k, nc, n))
    block = HISTORY_BLOCK
    for m0 in range(0, n, block):
        lo, hi = max(m0, 1), min(m0 + block, n)
        # c_m of each step in [lo, hi); memristor rows get their history per step
        c = np.repeat(src[None, :, lo:hi], k, axis=0)
        c[:, OC] += weight[:, :, None] * drives[OC, lo:hi]
        if has_mem:
            # sum_{j<m} w_(m-j) x_j = far part (j < m0) + near part (m0 <= j < m)
            far = _far_history(mem[:, :, :m0], block, kernels) if m0 else np.zeros((k, 2 * len(M), block))
        c_step = np.moveaxis(c, 2, 0)[..., None]  # c_step[m - lo] is c_m, a view of c
        for m in range(lo, hi):
            j = m - lo
            if has_mem:
                hist = far[:, :, m - m0] + mem[:, :, m0:m] @ w_rev[n - 1 - m + m0 : n - 1]
                h_phi, h_q = hist[:, : len(M)], hist[:, len(M) :]
                c[:, M, j] = dq[:, M] * h_q + dphi[:, M] * h_phi
            if linear:
                z = z - K @ (D @ z + c_step[j])
            else:
                z_prev = z
                r = D @ z_prev + c_step[j]
                x_off = (P_nl @ z_prev)[:, :, 0]
                x_off[:, nl_C] = 0.0
                if has_mem:
                    x_off[:, nl_M] += h_phi[:, nl_mem]
                # secant predictor: start from the last step's change
                # (z_0 = 0, so the first step starts from dz = 0)
                dz = z_prev - Z[:, :, max(m - 2, 0), None]
                for _ in range(NEWTON_MAX_ITERS):
                    F = A @ dz + r
                    Fs = row_scale * F
                    x = ((P_nl @ dz)[:, :, 0] + x_off) / x_div
                    for cols, law, params in nl_groups:
                        y[:, cols], dy[:, cols] = law(x[:, cols], params)
                    Fs[:, NL, 0] = nl_scale * (F[:, NL, 0] - y)
                    res = np.abs(Fs).max(axis=(1, 2))
                    active = ~(res <= NEWTON_TOL)  # a NaN residual has not converged
                    if not active.any():
                        break
                    # converged members stay put
                    J[:, NL] = J_lin[:, NL] - (nl_scale * (dy / x_div))[:, :, None] * P_nl
                    try:
                        if active.all():
                            step = np.linalg.solve(J, Fs)
                        else:
                            step = np.zeros_like(Fs)
                            step[active] = np.linalg.solve(J[active], Fs[active])
                    except np.linalg.LinAlgError as exc:
                        # a singular Jacobian ends Newton as divergence does,
                        # naming the first active member whose Jacobian it is
                        i = next(i for i in np.flatnonzero(active) if _singular(J[i]))
                        raise NewtonDivergenceError(times[m], float(res[i]), members[i].label) from exc
                    dz = dz - step
                else:
                    i = int(np.argmax(active))
                    raise NewtonDivergenceError(times[m], float(res[i]), members[i].label)
                z = z_prev + dz
            Z[:, :, m] = z[:, :, 0]
            if has_mem:
                mem[:, :, m] = (P_mem @ z)[:, :, 0]
        if linear:
            # the residual of every step of every member in the block
            Zb = Z[:, :, lo - 1 : hi]
            res = np.abs(row_scale * (A @ np.diff(Zb) + D @ Zb[:, :, :-1] + c)).max(axis=1)
            failed = ~(res <= NEWTON_TOL)  # a NaN residual has failed
            if failed.any():
                j = int(np.argmax(failed.any(axis=0)))
                i = int(np.argmax(failed[:, j]))
                raise NewtonDivergenceError(times[lo + j], float(res[i, j]), members[i].label)

    output_names = tuple(elements[b].name for b in OC)
    outputs = _backward_diff(P_phi[OC] @ Z, dt)
    targets = drives[OC]
    for shared_by_members in (Z, outputs, targets):
        shared_by_members.flags.writeable = False
    return [
        Trajectory(
            grid=grid,
            beta=float(mb.beta),
            topology=system.topology,
            tree_flux=Z[i, :nt],
            loop_charge=Z[i, nt:],
            output_names=output_names,
            outputs=outputs[i],
            targets=targets,
        )
        for i, mb in enumerate(members)
    ]


def _singular(J: np.ndarray) -> bool:
    """Whether np.linalg.solve rejects J as singular."""
    try:
        np.linalg.solve(J, np.zeros(len(J)))
    except np.linalg.LinAlgError:
        return True
    return False


def simulate(circuit: Circuit, drive: DriveSet, beta: float, cfg: SimConfig) -> Trajectory:
    """One trajectory: a batch of one on a freshly compiled circuit."""
    system = compile(circuit)
    (traj,) = simulate_batch(system, drive, cfg, [Member(None, beta, system.conductances(circuit))])
    return traj


def trajectory_loss(traj: Trajectory) -> float:
    """Integrated squared output-target mismatch J over the window."""
    if not len(traj.outputs):
        raise MissingOutputError("trajectory has no output capacitors")
    sq = np.sum((traj.outputs - traj.targets) ** 2, axis=0)
    return float(np.trapezoid(sq, dx=traj.grid.dt))
