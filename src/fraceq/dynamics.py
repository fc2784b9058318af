"""Causal time-domain simulation in generalized coordinates.

Unknowns are the tree-branch fluxes and cotree loop charges; both Kirchhoff
laws hold identically through the coordinate map, so each time step solves one
constitutive balance equation per branch.  Stepping is first-order implicit
(backward difference) with full-history GL convolutions for the fractional
memristors, which `frac_ops.GLHistory` evaluates exactly: a far part by FFT
once per block of steps and a near part per step.  A circuit whose every
law is linear takes each step as one stacked product, [z_m; D z_m] from
[z_(m-1); r_m], checked a block of steps at a time; Newton iteration runs
only for nonlinear constitutive laws, from a second-order predictor and
with an inverse Jacobian kept across steps.  Numpy dispatch bounds the step
loops, so a pass is one stacked product and all a pass or step keeps fixed
is set up once per run or block of steps: `_residual` assembles the step
residual, and `_linear_steps` and `_newton_steps` each set up their kernel
and return the function that steps one block.

`compile` validates a circuit and builds its topology once; `simulate_batch`
then steps any number of runs that differ in conductances and beta, such as
the free and nudged phases or the finite-difference perturbations, in one
loop.  The loop holds one block of steps of every run at a time; over the
whole grid a run keeps only the record its member names: every coordinate
(Trajectory, for `simulate`), the tree fluxes (TreeFluxRun, all the
estimator's free and nudged runs read) or the outputs alone (RunOutputs,
the finite-difference runs, read only through their loss).
`simulate` is a batch of one.  A Trajectory holds arrays and knows no file
format; `cli` writes its CSV.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .circuit import KINDS, LAW_FAMILIES, NO_OUTPUTS, Circuit, Element, Waveform, validate
from .errors import NewtonDivergenceError, ParameterError, ValidationError
from .frac_ops import GLHistory, SampleGrid, caputo_left
from .topology import Topology, build_topology

# every step of every run ends with its row-scaled residual max|Fs| at or below this
NEWTON_TOL = 1e-9
# Newton passes per step on a circuit with a nonlinear law; a linear circuit
# solves each step in one stacked product and runs none
NEWTON_MAX_ITERS = 50


@dataclass(frozen=True)
class SimConfig:
    grid: SampleGrid


@dataclass(frozen=True)
class DriveSet:
    """Overrides for source inputs and output targets, by element name.

    Elements not named here fall back to the waveform embedded in the
    netlist, which `validate` requires of every source, and of every output
    capacitor that is not among the targets every run supplies.
    """

    inputs: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)

    def waveform_for(self, element: Element) -> Waveform:
        table = self.targets if element.kind == "OC" else self.inputs
        return table.get(element.name, element.waveform)


@dataclass(frozen=True)
class RunOutputs:
    """Output/target pairs of a run: all its loss J reads.

    A member whose record is RunOutputs returns this alone; it keeps no
    coordinates, so reading them raises AttributeError.
    """

    grid: SampleGrid
    beta: float
    output_names: tuple
    outputs: np.ndarray  # |K| x N output voltages v_k
    targets: np.ndarray  # |K| x N target voltages T_k


@dataclass(frozen=True)
class TreeFluxRun(RunOutputs):
    """Outputs plus the tree-branch flux coordinates: all the estimator reads.

    Flux coordinates carry (phi, v, psi).  Reading loop charges raises
    AttributeError.
    """

    topology: Topology
    tree_flux: np.ndarray  # |tree| x N
    _halves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def tree_voltage(self) -> np.ndarray:
        return _backward_diff(self.tree_flux, self.grid.dt)

    @property
    def tree_half_velocity(self) -> np.ndarray:
        """Psi per flux coordinate: left Caputo half-derivative of the flux."""
        return self._half("psi", self.tree_flux)

    def _half(self, key, rows) -> np.ndarray:
        """Half-derivative rows, computed on the first read and kept (read-only)."""
        if key not in self._halves:
            if len(rows):
                rows = caputo_left(rows, self.grid.dt, 0.5)
                rows.flags.writeable = False
            self._halves[key] = rows
        return self._halves[key]


@dataclass(frozen=True)
class Trajectory(TreeFluxRun):
    """Simulated coordinate signals plus output/target pairs.

    Charge coordinates carry (q, i, r).  Branch quantities are
    reconstructed through the topology's coordinate maps
    (`lagrangian.branch_quantities`).
    """

    loop_charge: np.ndarray  # |links| x N

    @property
    def loop_current(self) -> np.ndarray:
        return _backward_diff(self.loop_charge, self.grid.dt)

    @property
    def loop_half_charge_rate(self) -> np.ndarray:
        """r per charge coordinate: left Caputo half-derivative of the charge."""
        return self._half("r", self.loop_charge)


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
    run; every other element value comes from `circuit`, whose own
    conductances are kept as `g`, a read-only copy to start runs from.
    """

    circuit: Circuit
    topology: Topology
    P_phi: np.ndarray  # branches x coordinates
    P_q: np.ndarray  # branches x coordinates
    rows: dict  # element kind -> branch indices
    laws: tuple  # ConstitutiveSpec per C/L/M branch, None elsewhere
    nonlinear: np.ndarray  # C/L/M branches whose law is not linear, by _law_group
    g: np.ndarray  # per-branch conductances of `circuit`, 0 off the resistors


def compile(circuit: Circuit, targets=()) -> StepSystem:
    """Validate the circuit, less the output `targets` every run supplies (see
    `validate`), and build its topology, once for any number of runs."""
    diags = validate(circuit, targets)
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
    g = np.array([e.g if e.kind == "R" else 0.0 for e in circuit.elements])
    g.flags.writeable = False
    return StepSystem(
        circuit=circuit,
        topology=topology,
        P_phi=P_phi,
        P_q=P_q,
        rows={k: np.flatnonzero(kinds == k) for k in KINDS},
        laws=laws,
        nonlinear=np.array(nonlinear, dtype=int),
        g=g,
    )


def _law_group(law) -> tuple:
    """Laws evaluated in one array call: one family (and coefficient count)."""
    return law.family, len(law.params)


# Steps per block: per refresh of the memristor history's far part, and per
# stored block of coordinates.  Of 128-4096, 512 gave the lowest history cost
# at N = 2e4 with two memristors (7 us/step); at N = 1e5 it costs 18 us/step.
HISTORY_BLOCK = 512


class Member(NamedTuple):
    """One trajectory of a batch."""

    label: Optional[str]  # names the run in a NewtonDivergenceError
    beta: float
    g: np.ndarray  # per-branch conductances, as StepSystem.g
    record: type = Trajectory  # what the run returns: RunOutputs, TreeFluxRun or Trajectory


def simulate_batch(system: StepSystem, drive: DriveSet, cfg: SimConfig, members) -> list:
    """Advance every member over the grid in one step loop; one record each,
    of the type its member names.

    Members share the topology and the drive and differ in conductances and
    beta.  A RunOutputs member keeps its grid, beta, outputs and targets (all
    `trajectory_loss` reads), a TreeFluxRun member its tree fluxes too, and
    a Trajectory member every coordinate; each steps exactly as a full
    member does, so what it keeps is bitwise the same.  Initial conditions
    are zero fluxes and charges at t = a, matching the lower terminal of
    every Caputo operator.  With beta = 0 the output capacitors carry
    exactly zero current, so targets cannot influence the free phase.

    Each step solves the residual of `_residual` for its increment, per
    member, to a row-scaled residual max|Fs| <= NEWTON_TOL: by one stacked
    product when every law is linear (`_linear_steps`), by Newton otherwise
    (`_newton_steps`).  A failed step raises NewtonDivergenceError at the
    earliest failing time, naming the first failing member there.

    The grid is stepped in blocks of HISTORY_BLOCK steps, the blocks at which
    the memristor history's far part is refreshed.  Per block, the loop
    builds the source drives, their running integral (its sum carried from
    block to block) and each step's forcing c_m; the kernel writes the
    block's coordinates to one buffer of HISTORY_BLOCK + 1 columns, the
    first keeping the step before the block; then the members copy out the
    coordinates they keep, and every member's output voltages are formed.
    Over the whole grid a batch holds those coordinates, every member's
    outputs, the targets and, with memristors, every member's history.

    Every beta must be finite and non-negative (ParameterError "beta").
    Conductances are not checked: a NaN one fails as a divergence.
    """
    if not members:
        raise ValueError("a batch needs at least one member")
    betas = np.array([mb.beta for mb in members], dtype=float)
    bad = ~(np.isfinite(betas) & (betas >= 0))
    if bad.any():
        raise ParameterError("beta", f"beta must be finite and non-negative, got {betas[bad][0]}")
    k = len(members)
    elements = system.circuit.elements
    rows = system.rows
    nb, nc = system.P_phi.shape
    nt = len(system.topology.tree)
    grid = cfg.grid
    dt, n = grid.dt, grid.n
    times = grid.times()
    OC = rows["OC"]
    weight = betas[:, None] * np.array([elements[b].cap_scale for b in OC])
    F = _residual(system, np.array([mb.g for mb in members], dtype=float), weight, dt)

    waves = {b: drive.waveform_for(e) for b, e in enumerate(elements) if e.kind in ("V", "I", "OC")}
    targets = np.zeros((len(OC), n))
    for i, b in enumerate(OC):
        targets[i] = waves[b](times)
    # driven source coordinates: backward-rectangle integral of the waveform,
    # consistent with the backward-difference velocity.  This part of c_m is
    # the same for every member and built a block of steps at a time, the
    # sum carried from block to block (-0.0 adds nothing, not even to -0.0);
    # the output-capacitor part beta C T is added per member and the
    # memristor history per step.
    src = np.concatenate([rows["V"], rows["I"]])
    src_sum = np.full((len(src), 1), -0.0)
    # GL half-derivative history of the memristor branch fluxes and charges
    history = GLHistory((k, 2 * len(rows["M"])), n) if len(rows["M"]) else None

    block = HISTORY_BLOCK
    # step m of the block from m0 goes to column m - m0 + 1 of buf; column 0
    # holds the step before the block
    buf = np.zeros((k, nc, block + 1))
    step_block = (_newton_steps if len(system.nonlinear) else _linear_steps)(system, F, members, grid, buf, history)
    # tree fluxes of the members that keep them, and loop charges of the full ones
    trees = np.flatnonzero([issubclass(mb.record, TreeFluxRun) for mb in members])
    loops = np.flatnonzero([issubclass(mb.record, Trajectory) for mb in members])
    tree_flux, loop_charge = np.zeros((len(trees), nt, n)), np.zeros((len(loops), nc - nt, n))
    P_out = system.P_phi[OC]
    outputs = np.zeros((k, len(OC), n))
    for m0 in range(0, n, block):
        lo, hi = max(m0, 1), min(m0 + block, n)
        width = hi - m0
        level = np.zeros((len(src), hi - lo))
        for i, b in enumerate(src):
            level[i] = waves[b](times[lo:hi])
        running = np.cumsum(np.concatenate([src_sum, level], axis=1), axis=1)
        src_sum = running[:, -1:]
        # c_m of each step in [lo, hi), time first; the kernel adds the
        # memristor history
        c = np.zeros((hi - lo, k, nb))
        c[:, :, src] = -dt * running[:, 1:].T[:, None]
        c[:, :, OC] += (weight[:, :, None] * targets[:, lo:hi]).transpose(2, 0, 1)
        step_block(m0, lo, hi, c, None if history is None else history.far(m0, block))
        tree_flux[:, :, m0:hi] = buf[trees, :nt, 1 : width + 1]
        loop_charge[:, :, m0:hi] = buf[loops, nt:, 1 : width + 1]
        # the output voltages v_m = (phi_m - phi_(m-1)) / dt of the block,
        # phi_(m0-1) from column 0 (zero before the first block, like phi_0)
        outputs[:, :, m0:hi] = np.diff(P_out @ buf[:, :, : width + 1]) / dt
        buf[:, :, 0] = buf[:, :, width]

    output_names = tuple(elements[b].name for b in OC)
    for shared_by_members in (tree_flux, loop_charge, outputs, targets):
        shared_by_members.flags.writeable = False
    runs = []
    tree_rows, loop_rows = iter(tree_flux), iter(loop_charge)
    for i, mb in enumerate(members):
        run = dict(grid=grid, beta=float(mb.beta), output_names=output_names, outputs=outputs[i], targets=targets)
        if issubclass(mb.record, TreeFluxRun):
            run.update(topology=system.topology, tree_flux=next(tree_rows))
        if issubclass(mb.record, Trajectory):
            run.update(loop_charge=next(loop_rows))
        runs.append(mb.record(**run))
    return runs


def _residual(system: StepSystem, g: np.ndarray, weight: np.ndarray, dt: float) -> tuple:
    """(row_scale, dphi, dq, A, D, J) of every member's step residual.

    Per branch row, F = dphi phi + dq q + dphi_prev phi_prev + dq_prev q_prev
    + c_m, which with dz = z - z_prev is F = A dz + D z_prev + c_m.  g holds
    each member's conductances and weight its output capacitors' beta C, the
    weight of their targets in c_m.  A nonlinear C/L/M row has slope 0 here;
    Newton subtracts its law.  A memristor row adds to c_m the GL history of
    its flux and charge, weighted by dphi and dq.  row_scale brings every row
    to current-like units, and J = row_scale A is the Jacobian of the scaled
    residual Fs = row_scale F.
    """
    elements, rows = system.circuit.elements, system.rows
    P_phi, P_q = system.P_phi, system.P_q
    k, nb = g.shape
    sqrt_dt = math.sqrt(dt)
    row_scale = np.ones((nb, 1))
    row_scale[np.concatenate([rows["C"], rows["V"], rows["I"], rows["OC"]])] = 1.0 / dt
    row_scale[rows["M"]] = 1.0 / sqrt_dt

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
    dq[:, OC] = 1.0
    dphi[:, OC], dphi_prev[:, OC] = -weight / dt, weight / dt

    A = dphi[:, :, None] * P_phi + dq[:, :, None] * P_q
    B = dphi_prev[:, :, None] * P_phi + dq_prev[:, :, None] * P_q
    # where a row differences a branch quantity, D = A + B cancels exactly,
    # so the residual at dz = 0 is exact
    D = A + B
    return row_scale, dphi, dq, A, D, row_scale * A


def _linear_steps(system: StepSystem, F: tuple, members, grid: SampleGrid, buf: np.ndarray, history):
    """Stacked steps for a circuit whose every law is linear, set up once per
    run; step(m0, lo, hi, c, far) writes the steps [lo, hi) of block m0 to buf.

    Each step is the exact pass z_m = z_(m-1) - K r_m on r_m = D z_(m-1) +
    c_m, with K = J^-1 s built once per member (s the row scaling).  Forming
    r as D z + c keeps the cancellation of the integrated source terms exact;
    forming T z and K c apart loses it (linnet's outputs drifted by 1.7e-12
    relative over 10^4 steps).  So a step is one product and one add: the
    per-member matrix S = [[I, -K], [D, -D K]] maps v = [z_(m-1); r_m] to
    [z_m; D z_m], and adding the next forcing column [0; c_(m+1)] gives v
    for the next step.  v is rebuilt from the stored z at each block's
    start, and with memristors each forcing column's M rows get their
    history just before it is added.  After the block one array pass checks
    every step of every member at the increment dz = -K r it solved for:
    the difference of the stored z would carry their rounding into a C row's
    residual divided by dt^2.  A step that fails the check raises
    NewtonDivergenceError.
    """
    row_scale, dphi, dq, A, D, J = F
    k, nb, nc = A.shape
    M = system.rows["M"]
    K = np.linalg.inv(J) * row_scale[:, 0]
    S = np.block([[np.broadcast_to(np.eye(nc), (k, nc, nc)), -K], [D, -D @ K]])
    P_mem = np.concatenate([system.P_phi[M], system.P_q[M]])

    # the per-step loop reads only locals
    def step(m0, lo, hi, c, far, S=S, history=history, P_mem=P_mem, M_rows=_run(nc + M), nm=len(M), nc=nc):
        has_mem, matmul, dq_M, dphi_M = far is not None, np.matmul, dq[:, M], dphi[:, M]
        # the forcing columns [0; c_m], one per step (time first)
        forcing = np.concatenate([np.zeros((hi - lo, k, nc)), c], axis=2)
        z = buf[:, :, lo - m0 : lo - m0 + 1]
        zDz = np.concatenate([z, D @ z], axis=1)
        steps = np.empty((hi - lo, k, nc + nb, 1))
        for m, f_m, out in zip(range(lo, hi), forcing[..., None], steps):
            if has_mem:
                hist = far[:, :, m - m0] + history.near(m0, m)
                f_m[:, M_rows, 0] = dq_M * hist[:, nm:] + dphi_M * hist[:, :nm]
            zDz = matmul(S, zDz + f_m, out=out)
            if has_mem:
                history.samples[:, :, m] = (P_mem @ zDz[:, :nc])[:, :, 0]
        buf[:, :, lo - m0 + 1 : hi - m0 + 1] = steps[:, :, :nc, 0].transpose(1, 2, 0)
        steps = zDz = out = None  # the steps are in buf; no view of them is held through the check
        r = D @ buf[:, :, lo - m0 : hi - m0] + forcing[:, :, nc:].transpose(1, 2, 0)
        res = np.abs(row_scale * (r - A @ (K @ r))).max(axis=1)
        failed = ~(res <= NEWTON_TOL)  # a NaN residual has failed
        if failed.any():
            j = int(np.argmax(failed.any(axis=0)))
            i = int(np.argmax(failed[:, j]))
            t = grid.times()[lo + j]
            raise NewtonDivergenceError(t, float(res[i, j]), members[i].label, "step residual check failed")

    return step


def _newton_steps(system: StepSystem, F: tuple, members, grid: SampleGrid, buf: np.ndarray, history):
    """Newton steps for a circuit with a nonlinear law, set up once per run;
    step(m0, lo, hi, c, far) writes the steps [lo, hi) of block m0 to buf.

    A step starts from dz = dz_1 + (dz_1 - dz_2), the last two solved
    increments, and each member iterates under its own convergence mask.
    A correction multiplies by the member's kept inverse Jacobian, which it
    refactors at its current iterate, with its laws' slopes there, only when
    it has none yet or this step's first correction left it unconverged (the
    chord iteration of Hairer and Wanner, Solving ODEs II, IV.8).  Newton
    stops at NEWTON_TOL, about 1e-11 (relative) short of the converged step,
    so the start and the correction are part of the result.  A step not
    converged in NEWTON_MAX_ITERS passes, or whose Jacobian is singular,
    raises NewtonDivergenceError.
    """
    row_scale, dphi, dq, _, D, J_lin = F
    k, nb, nc = J_lin.shape
    M, NL = system.rows["M"], system.nonlinear
    sqrt_dt = math.sqrt(grid.dt)
    # nonlinear rows: x = (phi + x_off) / x_div is the law's argument, with
    # x_off the last step's flux (none for a C, whose x is its voltage)
    # plus, for an M, the flux history
    nl_kind = np.array([system.circuit.elements[b].kind for b in NL], dtype=str)
    nl_M = np.flatnonzero(nl_kind == "M")
    x_div = np.where(nl_kind == "C", grid.dt, np.where(nl_kind == "M", sqrt_dt, 1.0))
    P_x = system.P_phi[NL] / x_div[:, None]
    P_off = np.where((nl_kind == "C")[:, None], 0.0, P_x)
    # G = W dz + b stacks the scaled residual Fs of every law taken as linear
    # and the law arguments x; a pass subtracts the scaled law from Fs's
    # nonlinear rows.  Per step b = Wb z_(m-1) + c_m part + H (history)
    W = np.concatenate([J_lin, np.broadcast_to(P_x, (k, len(NL), nc))], axis=1)
    Wb = np.concatenate([row_scale * D, np.broadcast_to(P_off, (k, len(NL), nc))], axis=1)
    if history is not None:
        P_mem = np.concatenate([system.P_phi[M], system.P_q[M]])
        H = np.zeros((nb + len(NL), 2 * len(M)))
        H[M, np.arange(len(M))] = row_scale[M, 0] * dphi[0, M]
        H[M, np.arange(len(M)) + len(M)] = row_scale[M, 0] * dq[0, M]
        H[nb + nl_M, np.searchsorted(M, NL[nl_M])] = 1.0 / sqrt_dt
        HT = H.T
    nl_scale = np.tile(row_scale[NL, 0], (k, 1))  # per member: the pass does not broadcast it
    # one law call per group and Newton pass (compile sorted NL by group)
    nl_groups, start = [], 0
    for (family, _), group in itertools.groupby(NL, lambda b: _law_group(system.laws[b])):
        params = np.array([system.laws[b].params for b in group], dtype=float).T[:, None].repeat(k, 1)
        nl_groups.append((slice(start, start + params.shape[2]), LAW_FAMILIES[family], params))
        start += params.shape[2]
    (_, law, params), *several = nl_groups
    value = law.value
    NL = _run(NL)
    J_nl = J_lin[:, NL]  # only the nonlinear rows change between Jacobians
    J_inv, has_inv, all_inv = np.zeros((k, nc, nc)), np.zeros(k, dtype=bool), False  # kept across steps
    z = dz1 = dz2 = np.zeros((k, nc, 1))  # dz1, dz2: the last two solved increments

    def step(m0, lo, hi, c, far):
        nonlocal z, dz1, dz2, has_inv, all_inv
        y = np.empty_like(nl_scale)  # law values, with several groups
        # b_m - Wb z_(m-1) - H (near history) for each step of the block
        b_block = np.concatenate([row_scale * c.transpose(1, 2, 0), np.zeros((k, len(P_x), hi - lo))], axis=1)
        if far is not None:
            b_block += H @ far[:, :, lo - m0 : hi - m0]
        b_step = np.moveaxis(b_block, 2, 0)[..., None]
        for m, b_m in zip(range(lo, hi), b_step):
            if far is not None:
                near = history.near(m0, m)
            z_prev = z
            b = Wb @ z_prev + b_m
            if far is not None:
                b += (near @ HT)[:, :, None]
            dz = dz1 + (dz1 - dz2)
            for it in range(NEWTON_MAX_ITERS):
                G = W @ dz + b
                Fs = G[:, :nb]
                x = G[:, nb:, 0]
                if several:
                    for cols, group_law, group_params in nl_groups:
                        y[:, cols] = group_law.value(x[:, cols], group_params)
                else:  # y straight from the one law call, not copied
                    y = value(x, params)
                Fs[:, NL, 0] -= nl_scale * y
                res = np.maximum.reduce(np.abs(Fs), axis=(1, 2))
                if np.maximum.reduce(res) <= NEWTON_TOL:  # a NaN residual has not converged
                    break
                # converged members stay put; a NaN one is active
                active = ~(res <= NEWTON_TOL) if k > 1 and np.fmin.reduce(res) <= NEWTON_TOL else None
                if it or not all_inv:
                    # a member refactors at this iterate if it has no
                    # inverse, or if this step's first correction failed
                    renew = np.full(k, True) if it else ~has_inv
                    if active is not None:
                        renew &= active
                    # the law's slope at this iterate, for those members only
                    x_renew = x[renew]
                    dy = np.empty_like(x_renew)
                    for cols, group_law, group_params in nl_groups:
                        dy[:, cols] = group_law.slope(x_renew[:, cols], group_params[:, renew])
                    J = J_lin[renew]
                    J[:, NL] = J_nl[renew] - (nl_scale[renew] * dy)[:, :, None] * P_x
                    try:
                        J_inv[renew] = np.linalg.inv(J)
                    except np.linalg.LinAlgError as exc:
                        # a singular Jacobian ends Newton as divergence does,
                        # naming the first member whose Jacobian it is
                        i = next(i for i, J_i in zip(np.flatnonzero(renew), J) if _singular(J_i))
                        raise NewtonDivergenceError(grid.times()[m], float(res[i]), members[i].label) from exc
                    has_inv |= renew
                    all_inv = has_inv.all()
                if active is None:
                    dz -= J_inv @ Fs
                else:
                    dz[active] -= J_inv[active] @ Fs[active]
            else:
                i = int(np.argmax(~(res <= NEWTON_TOL)))
                raise NewtonDivergenceError(grid.times()[m], float(res[i]), members[i].label)
            z, dz1, dz2 = z_prev + dz, dz, dz1
            buf[:, :, m - m0 + 1] = z[:, :, 0]
            if far is not None:
                history.samples[:, :, m] = (P_mem @ z)[:, :, 0]

    return step


def _run(idx: np.ndarray):
    """idx as a slice if its indices are one ascending run, else idx itself."""
    start = int(idx[0]) if len(idx) else 0
    return slice(start, start + len(idx)) if np.array_equal(idx, np.arange(start, start + len(idx))) else idx


def _singular(J: np.ndarray) -> bool:
    """Whether np.linalg.inv rejects J as singular."""
    try:
        np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return True
    return False


def simulate(circuit: Circuit, drive: DriveSet, beta: float, cfg: SimConfig) -> Trajectory:
    """One trajectory: a batch of one on a freshly compiled circuit."""
    system = compile(circuit)
    (traj,) = simulate_batch(system, drive, cfg, [Member(None, beta, system.g)])
    return traj


def trajectory_loss(run: RunOutputs) -> float:
    """Integrated squared output-target mismatch J over the window, of a Trajectory or RunOutputs."""
    if not len(run.outputs):
        raise ValidationError([NO_OUTPUTS])
    sq = np.sum((run.outputs - run.targets) ** 2, axis=0)
    return float(np.trapezoid(sq, dx=run.grid.dt))
