"""Two-trajectory gradient estimator, finite-difference oracle, SGD training.

The estimator contrasts a free trajectory (beta = 0) with a nudged one
(beta > 0) and reads each synapse gradient off the change in its
half-derivative flux energy.  The estimator is real-valued: the imaginary
unit of the synaptic action term is absorbed into a global sign convention
fixed once by calibration against the finite-difference oracle.

The oracle is a central difference of the loss in each synapse conductance,
at beta = 0.  Where an estimate is checked against the oracle, the free,
nudged and perturbed runs step as one batch (`estimates_and_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import Circuit
from .dynamics import (
    DriveSet, Member, SimConfig, StepSystem, Trajectory, _csv_body, compile, simulate_batch, trajectory_loss
)
from .errors import FraceqError, ParameterError, StepTooLargeError
from .lagrangian import half_energies


@dataclass(frozen=True)
class GradientEstimate:
    """Per-synapse gradient values with the raw quantities behind them.

    values[k] = sign_convention * (E_k(beta) - E_k(0)) / (2 * C * beta)
    where E_k is the half-derivative energy of synapse k's branch flux and
    C the output capacitance scale; raw_half_energies keeps the
    (E_k(beta), E_k(0)) pairs so the quotient is re-derivable from the log.
    """

    synapse_names: tuple
    values: tuple
    beta_used: float
    sign_convention: int
    raw_half_energies: tuple
    metadata: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    beta: float
    sim: SimConfig
    batch: tuple  # DriveSets, one per training example
    g_min: float = 1e-6
    seed: int = 0
    sign_convention: int = 1

    def __post_init__(self):
        # NaN fails every check: sgd_step's max(g_min, nan) is g_min, so a NaN
        # learning rate would floor every conductance and still exit 0
        if self.epochs < 1:
            raise ParameterError("epochs", f"epochs must be at least 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ParameterError(
                "learning_rate", f"learning_rate must be finite and non-negative, got {self.learning_rate}"
            )
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ParameterError("beta", f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.g_min) and self.g_min > 0):
            raise ParameterError("g_min", f"g_min must be positive and finite, got {self.g_min}")
        if self.sign_convention not in (-1, 1):
            raise ParameterError("sign_convention", "sign_convention must be +1 or -1")


@dataclass
class TrainingLog:
    """Flat per-update records: (epoch, example, loss, grad_norm, g values)."""

    synapse_names: tuple
    records: list = field(default_factory=list)

    def add(self, epoch, example, loss, grad_norm, conductances):
        self.records.append((epoch, example, loss, grad_norm, tuple(conductances)))

    def losses_by_epoch(self) -> list:
        """Mean loss per epoch, in epoch order."""
        out = {}
        for ep, _, loss, _, _ in self.records:
            out.setdefault(ep, []).append(loss)
        return [float(np.mean(out[ep])) for ep in sorted(out)]

    def csv_chunks(self):
        """The CSV export: the header line, then chunks of rows, one row per
        record (none if the first example failed)."""
        yield "epoch,example,J,grad_norm," + ",".join(f"g_{n}" for n in self.synapse_names) + "\n"
        if self.records:
            epochs, examples, losses, norms, gs = zip(*self.records)
            yield from _csv_body([epochs, examples, losses, norms, *zip(*gs)])


def _check_nudge(beta: float) -> None:
    """The estimator divides by beta; written so that a NaN beta fails too."""
    if not beta > 0:
        raise ParameterError("beta", f"the estimator needs beta > 0, got {beta}")


def _synapses(circuit: Circuit) -> tuple:
    idx = circuit.trainables
    if not idx:
        raise ValueError("circuit has no trainable synapses")
    return idx


def estimate_gradient(
    circuit: Circuit,
    drive: DriveSet,
    beta: float,
    cfg: SimConfig,
    sign_convention: int = 1,
    system: Optional[StepSystem] = None,
) -> GradientEstimate:
    """Two-trajectory gradient estimate for every trainable synapse.

    The free and nudged runs step together as one batch of two.  `system`
    is `circuit` compiled, or compiled from a circuit that differs from it
    only in conductances; it is compiled here when omitted.
    """
    _check_nudge(beta)
    if system is None:
        system = compile(circuit)
    g = system.conductances(circuit)
    free, nudged = simulate_batch(system, drive, cfg, [Member("free", 0.0, g), Member("nudged", beta, g)])
    return estimate_from(circuit, free, nudged, sign_convention)


def estimate_from(circuit: Circuit, free: Trajectory, nudged: Trajectory, sign_convention: int = 1) -> GradientEstimate:
    """The gradient estimate of a free run (beta = 0) and a nudged run (beta > 0) of `circuit`.

    The free run's half-rates are kept on it, so estimates that share one
    free run compute them once.
    """
    beta = nudged.beta
    idx = _synapses(circuit)
    cap = circuit.loss_capacitance
    raw = tuple(zip(half_energies(circuit, nudged, idx).tolist(), half_energies(circuit, free, idx).tolist()))
    return GradientEstimate(
        synapse_names=tuple(circuit.elements[l].name for l in idx),
        values=tuple(sign_convention * (e_nudged - e_free) / (2.0 * cap * beta) for e_nudged, e_free in raw),
        beta_used=float(beta),
        sign_convention=int(sign_convention),
        raw_half_energies=raw,
        metadata={
            "loss_free": trajectory_loss(free),
            "loss_nudged": trajectory_loss(nudged),
        },
    )


def fd_members(circuit: Circuit, eps: float, g: np.ndarray) -> list:
    """The oracle's runs at beta = 0: per trainable synapse, in synapse
    order, its conductance in `g` moved by +eps, then by -eps.

    eps is checked here, against the conductances too, so a bad eps fails
    before any run is stepped.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("eps", f"eps must be positive and finite, got {eps}")
    idx = _synapses(circuit)
    g_floor = min(circuit.elements[l].g for l in idx)
    if eps >= g_floor:
        raise StepTooLargeError(f"eps {eps} would drive conductance {g_floor} non-positive")
    members = []
    for l in idx:
        name = circuit.elements[l].name
        for sign, tag in ((1, "+"), (-1, "-")):
            perturbed = g.copy()
            perturbed[l] += sign * eps
            members.append(Member(f"fd {name}{tag}", 0.0, perturbed))
    return members


def fd_differences(trajectories, eps: float) -> tuple:
    """Central differences dJ/dg of the trajectories of `fd_members`, in their order."""
    losses = [trajectory_loss(traj) for traj in trajectories]
    return tuple((losses[k] - losses[k + 1]) / (2.0 * eps) for k in range(0, len(losses), 2))


def estimates_and_oracle(
    circuit: Circuit, drive: DriveSet, nudges, eps: float, cfg: SimConfig, sign_convention: int = 1
) -> tuple:
    """(one GradientEstimate per nudge, the FD oracle), from one batch.

    `nudges` holds (label, beta) pairs.  The batch is the free run, one
    nudged run per pair, then the runs of `fd_members`; every beta and eps
    is checked before it steps.  Each estimate contrasts its nudged run with
    the one free run and is bitwise what `estimate_gradient` returns; the
    oracle is bitwise what the runs of `fd_members` give stepped alone.
    """
    for _, beta in nudges:
        _check_nudge(beta)
    system = compile(circuit)
    g = system.conductances(circuit)
    oracle_members = fd_members(circuit, eps, g)
    members = [Member("free", 0.0, g)] + [Member(label, beta, g) for label, beta in nudges] + oracle_members
    free, *runs = simulate_batch(system, drive, cfg, members)
    estimates = [estimate_from(circuit, free, nudged, sign_convention) for nudged in runs[: len(nudges)]]
    return estimates, fd_differences(runs[len(nudges) :], eps)


def sgd_step(circuit: Circuit, grads: GradientEstimate, eta: float, g_min: float) -> Circuit:
    """One gradient-descent update on the synapse conductances, floored."""
    updates = {}
    for name, value in zip(grads.synapse_names, grads.values):
        g = circuit.element(name).g
        updates[name] = max(g_min, g - eta * value)
    return circuit.with_conductances(updates)


def calibrate_sign(circuit: Circuit, drive: DriveSet, beta: float, eps: float, cfg: SimConfig) -> int:
    """One-time sign convention: the sign that aligns the raw estimator
    quotient with the finite-difference oracle (by inner product).

    This is the paper's sign-fixing step; only criterion 8's test reaches it.
    The free, nudged and oracle runs step as one batch."""
    (est,), oracle = estimates_and_oracle(circuit, drive, [("nudged", beta)], eps, cfg)
    dot = float(np.dot(est.values, oracle))
    return 1 if dot >= 0 else -1


def agreement_metrics(estimate: GradientEstimate, oracle: tuple) -> dict:
    """Cosine similarity, sign agreement, and max relative error vs oracle."""
    a = np.asarray(estimate.values, dtype=float)
    b = np.asarray(oracle, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    cosine = float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0
    signs = bool(np.all(np.sign(a) == np.sign(b)))
    denom = np.maximum(np.abs(b), 1e-30)
    return {
        "cosine_similarity": cosine,
        "sign_match": signs,
        "max_rel_error": float(np.max(np.abs(a - b) / denom)),
    }


def train(circuit: Circuit, config: TrainConfig):
    """SGD over the batch: shuffle per epoch by seed, estimate, update.

    Returns (trained circuit, TrainingLog).  The circuit is compiled once;
    updates change only its conductances.  A simulation failure mid-run
    re-raises with the epoch and example in its message and as attributes,
    and the partial log attached.
    """
    names = tuple(circuit.elements[l].name for l in _synapses(circuit))
    system = compile(circuit)
    log = TrainingLog(synapse_names=names)
    rng = np.random.default_rng(config.seed)
    current = circuit
    for epoch in range(config.epochs):
        order = rng.permutation(len(config.batch))
        for example in order:
            drive = config.batch[example]
            try:
                grads = estimate_gradient(
                    current, drive, config.beta, config.sim, config.sign_convention, system
                )
            except FraceqError as exc:
                exc.args = (f"epoch {epoch}, example {example}: {exc}",)
                exc.epoch = epoch
                exc.example = int(example)
                exc.partial_log = log
                raise
            norm = float(np.linalg.norm(grads.values))
            log.add(
                epoch,
                int(example),
                grads.metadata["loss_free"],
                norm,
                [current.element(n).g for n in names],
            )
            current = sgd_step(current, grads, config.learning_rate, config.g_min)
    return current, log
