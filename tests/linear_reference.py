"""Exact reference for circuits whose every constitutive law is linear.

`simulate` below makes one dense `np.linalg.solve` per step and has no
convergence shortcut: it solves every step, even one whose residual at the
previous coordinates is already below the tolerance.  The residual is built
element by element from the branch laws, as in `scalar_reference`; on a
linear circuit it is affine in the new coordinates, so one Newton pass from
the previous step solves it exactly.  The row-scaled residual at the
increment solved for, r + J dz with r the residual at the previous step, is
then checked against NEWTON_TOL: formed from the difference of the stored
coordinates, it would carry their rounding into a C row divided by dt^2.
Conductances may be complex, so a complex step through `simulate` gives the
exact discrete gradient of the loss (`exact_gradient`).  It is not used by
the package.
"""

import math

import numpy as np

from fraceq.circuit import Circuit, validate
from fraceq.dynamics import NEWTON_TOL, DriveSet, SimConfig, Trajectory
from fraceq.errors import NewtonDivergenceError, ValidationError
from fraceq.frac_ops import gl_weights
from fraceq.topology import build_topology


def simulate(circuit: Circuit, drive: DriveSet, beta: float, cfg: SimConfig, g=None) -> Trajectory:
    """Zero initial coordinates, one exact solve per step.

    `g`, if given, holds each branch's conductance as `StepSystem.g` does and
    replaces the resistors' own; it may be complex, and so is the run then.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    diags = validate(circuit)
    if diags:
        raise ValidationError(diags)
    topology = build_topology(circuit)

    grid = cfg.grid
    dt, n = grid.dt, grid.n
    sqrt_dt = math.sqrt(dt)
    times = grid.times()
    elements = circuit.elements
    nb = len(elements)
    nt = len(topology.tree)
    nc = nt + len(topology.links)
    P_phi = np.zeros((nb, nc))
    P_phi[:, :nt] = topology.flux_map
    P_q = np.zeros((nb, nc))
    P_q[:, nt:] = topology.charge_map

    kind = np.array([e.kind for e in elements])
    of_kind = {k: kind == k for k in ("R", "C", "L", "M", "V", "I", "OC")}
    slope = np.zeros(nb)  # g for R, the law's slope for C, L and M
    for b, e in enumerate(elements):
        if e.kind == "R":
            slope[b] = e.g
        elif e.kind in ("C", "L", "M"):
            law = e.constitutive()
            if law.family != "linear":
                raise ValueError(f"{e.name}: the exact reference needs linear laws")
            slope[b] = law.params[0]
    if g is not None:
        slope = np.where(of_kind["R"], g, slope)
    cap = np.array([e.cap_scale if e.kind == "OC" else 0.0 for e in elements])

    drives = np.zeros((nb, n))
    src = np.zeros((nb, n))  # backward-rectangle integral of the V and I drives
    for b, e in enumerate(elements):
        if e.kind in ("V", "I", "OC"):
            drives[b] = drive.waveform_for(e)(times)
        if e.kind in ("V", "I"):
            src[b, 1:] = dt * np.cumsum(drives[b, 1:])

    row_scale = np.ones(nb)
    row_scale[of_kind["C"] | of_kind["V"] | of_kind["I"] | of_kind["OC"]] = 1.0 / dt
    row_scale[of_kind["M"]] = 1.0 / sqrt_dt

    # d F / d phi and d F / d q per branch, constant on a linear circuit
    d_phi = np.select(
        [of_kind["R"], of_kind["C"], of_kind["L"], of_kind["M"], of_kind["V"], of_kind["OC"]],
        [-slope / dt, -slope / dt, -slope, -slope / sqrt_dt, 1.0, -beta * cap / dt],
    )
    d_q = np.select(
        [of_kind["R"], of_kind["C"], of_kind["L"], of_kind["M"], of_kind["I"], of_kind["OC"]],
        [1.0 / dt, 1.0, 1.0 / dt, 1.0 / sqrt_dt, 1.0, 1.0],
    )
    J = (row_scale * d_phi)[:, None] * P_phi + (row_scale * d_q)[:, None] * P_q

    w = gl_weights(0.5, n - 1)
    phi_hist = np.zeros((nb, n), dtype=slope.dtype)
    q_hist = np.zeros((nb, n), dtype=slope.dtype)

    def scaled_residual(z, m, h_phi, h_q):
        phi, q = P_phi @ z, P_q @ z
        v = (phi - phi_hist[:, m - 1]) / dt
        i = (q - q_hist[:, m - 1]) / dt
        F = np.select(
            [of_kind["R"], of_kind["C"], of_kind["L"], of_kind["M"], of_kind["V"], of_kind["I"], of_kind["OC"]],
            [
                i - slope * v,
                q - slope * v,
                i - slope * phi,
                (q + h_q) / sqrt_dt - slope * (phi + h_phi) / sqrt_dt,
                phi - src[:, m],
                q - src[:, m],
                q - beta * cap * (v - drives[:, m]),
            ],
        )
        return row_scale * F

    z = np.zeros(nc, dtype=slope.dtype)
    Z = np.zeros((nc, n), dtype=slope.dtype)
    for m in range(1, n):
        # GL history sum_{k=1..m} w_k x_(m-k), per branch
        h_phi = phi_hist[:, :m] @ w[m:0:-1]
        h_q = q_hist[:, :m] @ w[m:0:-1]
        r = scaled_residual(z, m, h_phi, h_q)
        dz = -np.linalg.solve(J, r)
        res = float(np.max(np.abs(r + J @ dz)))
        z = z + dz
        if not res <= NEWTON_TOL:
            raise NewtonDivergenceError(times[m], res)
        Z[:, m] = z
        phi_hist[:, m] = P_phi @ z
        q_hist[:, m] = P_q @ z

    oc = np.flatnonzero(of_kind["OC"])
    outputs = np.zeros((len(oc), n), dtype=slope.dtype)
    outputs[:, 1:] = np.diff(phi_hist[oc]) / dt
    return Trajectory(
        grid=grid,
        beta=float(beta),
        topology=topology,
        tree_flux=Z[:nt],
        loop_charge=Z[nt:],
        output_names=tuple(elements[b].name for b in oc),
        outputs=outputs,
        targets=drives[oc],
    )


# a complex step takes no difference, so no rounding cancels: h only has to
# make h^2 negligible against 1 (Squire & Trapp, SIAM Rev. 40:110, 1998)
COMPLEX_STEP = 1e-30


def exact_gradient(circuit: Circuit, drive: DriveSet, cfg: SimConfig) -> tuple:
    """dJ/dg of the free run's loss per trainable synapse, in synapse order,
    as Im J(g + ih) / h: exact for the discrete run up to rounding."""
    g = np.array([e.g if e.kind == "R" else 0.0 for e in circuit.elements], dtype=complex)
    grads = []
    for l in circuit.trainables:
        stepped = g.copy()
        stepped[l] += 1j * COMPLEX_STEP
        run = simulate(circuit, drive, 0.0, cfg, stepped)
        # the loss of `trajectory_loss`, kept complex
        loss = np.trapezoid(np.sum((run.outputs - run.targets) ** 2, axis=0), dx=cfg.grid.dt)
        grads.append(float(loss.imag) / COMPLEX_STEP)
    return tuple(grads)
