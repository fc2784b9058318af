"""Two-trajectory gradient estimator, finite-difference oracle, SGD training.

The estimator contrasts a free trajectory (beta = 0) with a nudged one
(beta > 0) and reads each synapse gradient off the change in its
half-derivative flux energy.  The estimator is real-valued: the imaginary
unit of the synaptic action term is absorbed into its sign, fixed at +1;
criterion 8 checks that sign against the finite-difference oracle.

The oracle is a central difference of the loss in each synapse conductance,
at beta = 0.  Where an estimate is checked against the oracle, the free,
nudged and perturbed runs step as one batch (`estimates_and_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Diagnostic
from .dynamics import (DriveSet, Member, RunOutputs, SimConfig, StepSystem, TreeFluxRun, compile,
                       simulate_batch, trajectory_loss)
from .errors import FraceqError, ParameterError, ValidationError
from .lagrangian import half_energies


@dataclass(frozen=True)
class GradientEstimate:
    """Per-synapse gradient values with the raw quantities behind them.

    values[k] = (E_k(beta) - E_k(0)) / (2 * C * beta)
    where E_k is the half-derivative energy of synapse k's branch flux and
    C the output capacitance scale; raw_half_energies keeps the
    (E_k(beta), E_k(0)) pairs so the quotient is re-derivable from the log,
    and loss_free is the loss J of the free run.
    """

    synapse_names: tuple
    values: tuple
    raw_half_energies: tuple
    loss_free: float


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    beta: float
    sim: SimConfig
    batch: tuple  # DriveSets, one per training example
    g_min: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # NaN fails every check: a NaN learning rate would make every
        # conductance NaN after the first update
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
        if self.seed < 0:
            raise ParameterError("seed", f"seed must be non-negative, got {self.seed}")


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


def _check_nudge(beta: float) -> None:
    """The estimator divides by beta; written so that a NaN beta fails too."""
    if not beta > 0:
        raise ParameterError("beta", f"the estimator needs beta > 0, got {beta}")


def _synapses(circuit: Circuit) -> tuple:
    """The trainable synapse indices.  The estimator also divides by the
    output cap, so this checks that the circuit has output caps of one value."""
    idx = circuit.trainables
    if not idx:
        raise ValidationError([Diagnostic("no-synapses", "circuit has no trainable synapses")])
    circuit.loss_capacitance  # raises for no output cap or unequal caps
    return idx


def estimate_gradient(system: StepSystem, g: np.ndarray, drive: DriveSet, beta: float, cfg: SimConfig) -> GradientEstimate:
    """Two-trajectory gradient estimate for every trainable synapse, with
    per-branch conductances `g` (as `StepSystem.g`).

    The free and nudged runs step together as one batch of two and keep
    only their tree fluxes.  Only the structure of `system.circuit` is read,
    not its conductances.
    """
    _check_nudge(beta)
    members = [Member("free", 0.0, g, TreeFluxRun), Member("nudged", beta, g, TreeFluxRun)]
    free, nudged = simulate_batch(system, drive, cfg, members)
    return estimate_from(system.circuit, free, nudged)


def estimate_from(circuit: Circuit, free: TreeFluxRun, nudged: TreeFluxRun) -> GradientEstimate:
    """The gradient estimate of a free run (beta = 0) and a nudged run (beta > 0) of `circuit`.

    Only structure is read from `circuit`: synapse indices, names and the
    output cap.  The free run's half-rates are kept on it, so estimates that
    share one free run compute them once.
    """
    beta = nudged.beta
    idx = _synapses(circuit)
    cap = circuit.loss_capacitance
    raw = tuple(zip(half_energies(circuit, nudged, idx).tolist(), half_energies(circuit, free, idx).tolist()))
    return GradientEstimate(
        synapse_names=tuple(circuit.elements[l].name for l in idx),
        values=tuple((e_nudged - e_free) / (2.0 * cap * beta) for e_nudged, e_free in raw),
        raw_half_energies=raw,
        loss_free=trajectory_loss(free),
    )


def fd_members(circuit: Circuit, eps: float, g: np.ndarray) -> list:
    """The oracle's runs at beta = 0: per trainable synapse, in synapse
    order, its conductance in `g` moved by +eps, then by -eps.  Only their
    loss is read, so they return RunOutputs.

    eps is checked here, against the synapse conductances in `g` too, so a
    bad eps fails before any run is stepped.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("eps", f"eps must be positive and finite, got {eps}")
    idx = _synapses(circuit)
    g_floor = min(g[list(idx)])
    if eps >= g_floor:
        raise ParameterError("eps", f"eps {eps} would drive conductance {g_floor} non-positive")
    members = []
    for l in idx:
        name = circuit.elements[l].name
        for sign, tag in ((1, "+"), (-1, "-")):
            perturbed = g.copy()
            perturbed[l] += sign * eps
            members.append(Member(f"fd {name}{tag}", 0.0, perturbed, RunOutputs))
    return members


def fd_differences(runs, eps: float) -> tuple:
    """Central differences dJ/dg of the runs of `fd_members`, in their order."""
    losses = [trajectory_loss(run) for run in runs]
    return tuple((losses[k] - losses[k + 1]) / (2.0 * eps) for k in range(0, len(losses), 2))


def estimates_and_oracle(circuit: Circuit, drive: DriveSet, nudges, eps: float, cfg: SimConfig) -> tuple:
    """(one GradientEstimate per nudge, the FD oracle), from one batch.

    `nudges` holds (label, beta) pairs.  The batch is the free run and one
    nudged run per pair, which keep only their tree fluxes, then the runs of
    `fd_members`; every beta and eps is checked before it steps.  Each
    estimate contrasts its nudged run with the one free run and is bitwise
    what `estimate_gradient` returns; the oracle is bitwise what the runs of
    `fd_members` give stepped alone.
    """
    for _, beta in nudges:
        _check_nudge(beta)
    _synapses(circuit)
    system = compile(circuit)
    g = system.g
    oracle_members = fd_members(circuit, eps, g)
    members = [Member(label, beta, g, TreeFluxRun) for label, beta in [("free", 0.0), *nudges]] + oracle_members
    free, *runs = simulate_batch(system, drive, cfg, members)
    estimates = [estimate_from(circuit, free, nudged) for nudged in runs[: len(nudges)]]
    return estimates, fd_differences(runs[len(nudges) :], eps)


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
    updates act on its conductance vector, and the trained circuit is built
    from it at the end.  An output capacitor needs a target in the netlist
    only if some example gives it none.  A simulation failure mid-run
    re-raises with the epoch and example in its message and the partial log
    attached as `partial_log`.
    """
    idx = list(_synapses(circuit))
    names = tuple(circuit.elements[l].name for l in idx)
    # the targets every example supplies; an empty batch supplies none
    system = compile(circuit, {n for d in config.batch for n in d.targets if all(n in e.targets for e in config.batch)})
    g = system.g.copy()
    log = TrainingLog(synapse_names=names)
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        order = rng.permutation(len(config.batch))
        for example in order:
            drive = config.batch[example]
            try:
                grads = estimate_gradient(system, g, drive, config.beta, config.sim)
            except FraceqError as exc:
                exc.args = (f"epoch {epoch}, example {example}: {exc}",)
                exc.partial_log = log
                raise
            log.add(epoch, int(example), grads.loss_free, float(np.linalg.norm(grads.values)), g[idx].tolist())
            g[idx] = np.maximum(config.g_min, g[idx] - config.learning_rate * np.array(grads.values))
    return circuit.with_conductances(dict(zip(names, g[idx].tolist()))), log
