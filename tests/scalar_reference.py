"""Frozen scalar step loop: the simulator as it was before batched stepping.

`simulate` below is the one-trajectory Newton loop, kept verbatim as the
reference that the batched kernel in `fraceq.dynamics` is tested against,
with one change: on a nonlinear circuit each step from the second on starts
Newton from the secant predictor z_(m-1) + (z_(m-1) - z_(m-2)), as the
package does.  The start is part of the stepping method: Newton stops at a
residual of NEWTON_TOL, which leaves each step about 1e-11 (relative) from
its converged limit, and where it stops depends on where it starts.  With
`predictor=False` every step starts from the last step's z, the rule before
the predictor.  It is not used by the package.
"""

import math

import numpy as np

from fraceq.circuit import Circuit, validate
from fraceq.dynamics import NEWTON_MAX_ITERS, NEWTON_TOL, DriveSet, SimConfig, Trajectory
from fraceq.errors import NewtonDivergenceError, ValidationError
from fraceq.frac_ops import gl_weights
from fraceq.topology import build_topology


def _backward_diff(x: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(x)
    out[0] = 0.0
    out[1:] = np.diff(x) / dt
    return out


def simulate(circuit: Circuit, drive: DriveSet, beta: float, cfg: SimConfig, predictor: bool = True) -> Trajectory:
    """Advance the generalized coordinates over the grid.

    Initial conditions are zero fluxes and charges at t = a, matching the
    lower terminal of every Caputo operator.  With beta = 0 the output
    capacitors carry exactly zero current, so targets cannot influence the
    free phase.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    diags = validate(circuit)
    if diags:
        raise ValidationError(diags)
    topology = build_topology(circuit)

    grid = cfg.grid
    dt = grid.dt
    n = grid.n
    times = grid.times()
    elements = circuit.elements
    nb = len(elements)
    nt, nl = len(topology.tree), len(topology.links)
    nc = nt + nl

    # branch value maps into the full coordinate vector z = [tree_flux; loop_charge]
    P_phi = np.zeros((nb, nc))
    P_phi[:, :nt] = topology.flux_map
    P_q = np.zeros((nb, nc))
    P_q[:, nt:] = topology.charge_map

    kinds = np.array([e.kind for e in elements])
    specs = [e.constitutive() if e.kind in ("C", "L", "M") else None for e in elements]
    g_vec = np.array([e.g if e.kind == "R" else 0.0 for e in elements])
    oc_idx = [b for b, e in enumerate(elements) if e.kind == "OC"]
    oc_cap = np.array([elements[b].cap_scale for b in oc_idx])
    mem_idx = [b for b, e in enumerate(elements) if e.kind == "M"]

    drives = np.zeros((nb, n))
    for b, e in enumerate(elements):
        if e.kind in ("V", "I", "OC"):
            drives[b] = drive.waveform_for(e)(times)
    # driven source coordinates: backward-rectangle integral of the waveform,
    # consistent with the backward-difference velocity
    src_integral = np.zeros((nb, n))
    for b, e in enumerate(elements):
        if e.kind in ("V", "I"):
            src_integral[b, 1:] = dt * np.cumsum(drives[b, 1:])

    # GL half-derivative weights for the memristor history convolutions
    w_half = gl_weights(0.5, n - 1) if mem_idx else None
    sqrt_dt = math.sqrt(dt)

    # row scaling to bring every residual to current-like units
    row_scale = np.ones(nb)
    for b, e in enumerate(elements):
        if e.kind in ("C", "V", "I", "OC"):
            row_scale[b] = 1.0 / dt
        elif e.kind == "M":
            row_scale[b] = 1.0 / sqrt_dt

    is_R = kinds == "R"
    is_C = kinds == "C"
    is_L = kinds == "L"
    is_M = kinds == "M"
    is_V = kinds == "V"
    is_I = kinds == "I"
    is_OC = kinds == "OC"

    nonlinear = any(
        specs[b] is not None and specs[b].family != "linear" for b in range(nb) if kinds[b] in ("C", "L", "M")
    )

    phi_hist = np.zeros((nb, n))  # branch fluxes over time
    q_hist = np.zeros((nb, n))  # branch charges over time
    z = np.zeros(nc)
    Z = np.zeros((nc, n))

    cached_solve = None

    def spec_eval(mask_idx, x):
        y = np.zeros(len(x))
        dy = np.zeros(len(x))
        for pos, b in enumerate(mask_idx):
            yy, dd = specs[b](x[pos])
            y[pos], dy[pos] = yy, dd
        return y, dy

    C_idx = np.flatnonzero(is_C)
    L_idx = np.flatnonzero(is_L)
    M_idx = np.flatnonzero(is_M)

    for m in range(1, n):
        phi_prev = phi_hist[:, m - 1]
        q_prev = q_hist[:, m - 1]
        t = times[m]

        if mem_idx:
            # sum_{k=1..m} w_k x_{m-k}
            ks = np.arange(1, m + 1)
            wk = w_half[ks]
            mem_phi_hist = phi_hist[np.ix_(M_idx, m - ks)] @ wk
            mem_q_hist = q_hist[np.ix_(M_idx, m - ks)] @ wk
        else:
            mem_phi_hist = mem_q_hist = None

        if predictor and nonlinear and m >= 2:
            z = Z[:, m - 1] + (Z[:, m - 1] - Z[:, m - 2])
        converged = False
        for it in range(NEWTON_MAX_ITERS):
            phi = P_phi @ z
            q = P_q @ z
            v = (phi - phi_prev) / dt
            F = np.zeros(nb)
            dF_dphi = np.zeros(nb)
            dF_dq = np.zeros(nb)

            # R: current balance i = g v
            F[is_R] = (q[is_R] - q_prev[is_R]) / dt - g_vec[is_R] * v[is_R]
            dF_dq[is_R] = 1.0 / dt
            dF_dphi[is_R] = -g_vec[is_R] / dt
            # C: q = qhat(v)
            if len(C_idx):
                y, dy = spec_eval(C_idx, v[C_idx])
                F[C_idx] = q[C_idx] - y
                dF_dq[C_idx] = 1.0
                dF_dphi[C_idx] = -dy / dt
            # L: i = ihat(phi)
            if len(L_idx):
                y, dy = spec_eval(L_idx, phi[L_idx])
                F[L_idx] = (q[L_idx] - q_prev[L_idx]) / dt - y
                dF_dq[L_idx] = 1.0 / dt
                dF_dphi[L_idx] = -dy
            # M: D^(1/2) q = rhat(D^(1/2) phi), GL truncation at this step
            if len(M_idx):
                psi = (phi[M_idx] + mem_phi_hist) / sqrt_dt
                r = (q[M_idx] + mem_q_hist) / sqrt_dt
                y, dy = spec_eval(M_idx, psi)
                F[M_idx] = r - y
                dF_dq[M_idx] = 1.0 / sqrt_dt
                dF_dphi[M_idx] = -dy / sqrt_dt
            # V: flux pinned to the integrated source voltage
            F[is_V] = phi[is_V] - src_integral[is_V, m]
            dF_dphi[is_V] = 1.0
            # I: charge pinned to the integrated source current
            F[is_I] = q[is_I] - src_integral[is_I, m]
            dF_dq[is_I] = 1.0
            # OC: q = beta C (v - T)
            if len(oc_idx):
                F[oc_idx] = q[oc_idx] - beta * oc_cap * (v[oc_idx] - drives[oc_idx, m])
                dF_dq[oc_idx] = 1.0
                dF_dphi[oc_idx] = -beta * oc_cap / dt

            Fs = row_scale * F
            res = np.max(np.abs(Fs))
            if res <= NEWTON_TOL:
                converged = True
                break

            if nonlinear or cached_solve is None:
                J = (row_scale * dF_dphi)[:, None] * P_phi + (row_scale * dF_dq)[:, None] * P_q
                if not nonlinear:
                    cached_solve = np.linalg.inv(J)
                    step = cached_solve @ Fs
                else:
                    step = np.linalg.solve(J, Fs)
            else:
                step = cached_solve @ Fs
            z = z - step

        if not converged:
            raise NewtonDivergenceError(t, res)

        Z[:, m] = z
        phi_hist[:, m] = P_phi @ z
        q_hist[:, m] = P_q @ z

    output_names = tuple(elements[b].name for b in oc_idx)
    out_v = np.stack([_backward_diff(phi_hist[b], dt) for b in oc_idx]) if oc_idx else np.zeros((0, n))
    out_T = drives[oc_idx] if oc_idx else np.zeros((0, n))
    return Trajectory(
        grid=grid,
        beta=float(beta),
        topology=topology,
        tree_flux=Z[:nt].copy(),
        loop_charge=Z[nt:].copy(),
        output_names=output_names,
        outputs=out_v,
        targets=out_T,
    )
