"""Seeded inputs, CLI argv and output checks for the benchmark workloads.

Each workload writes its netlist (and training config) from a seed.  The
seed moves element values and drive levels but never the element list, so
the cost of a run stays comparable across seeds.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

TRAIN_EPOCHS = 50
TRAIN_EXAMPLES = 4
GRADCHECK_DT = 1e-4
MEM_DT = 1e-3
MEM_T_END = 20.0


def _levels(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


# --- train-linnet ------------------------------------------------------------

_LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=1.0 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""


def _train_inputs(rng: random.Random, in_dir: str) -> list:
    """linnet plus a train.cfg-shaped config: seeded shuffle, drives, targets."""
    net = _write(os.path.join(in_dir, "linnet.net"), _LINNET)
    lines = [
        f"epochs={TRAIN_EPOCHS}",
        "learning_rate=0.05",
        "beta=0.001",
        "dt=0.002",
        "t_end=1.0",
        "g_min=1e-6",
        f"seed={rng.randrange(1, 2**31)}",
        "sign_convention=1",
    ]
    for _ in range(TRAIN_EXAMPLES):
        lines.append(
            "example v1=const(%g) v2=const(%g) oc1=const(%g)"
            % (_levels(rng, 0.6, 1.2), _levels(rng, 0.3, 0.9), _levels(rng, 0.3, 0.45))
        )
    cfg = _write(os.path.join(in_dir, "train.cfg"), "\n".join(lines) + "\n")
    return ["train", net, cfg, "--out-dir", "."]


# --- gradcheck-linnet-fine ---------------------------------------------------


def _gradcheck_inputs(rng: random.Random, in_dir: str) -> list:
    """linnet with seeded conductances, drives and target.

    The ranges keep v2 below and the target below the output voltage for
    every seed, so no gradient component is near zero and its sign is
    well defined.
    """
    text = "\n".join(
        [
            "V v1 in1 0 w=const(%g)" % _levels(rng, 0.9, 1.1),
            "V v2 in2 0 w=const(%g)" % _levels(rng, 0.3, 0.45),
            "R s1 in1 out g=%g trainable" % _levels(rng, 0.8, 1.2),
            "R s2 in2 out g=%g trainable" % _levels(rng, 0.2, 0.3),
            "R s3 out 0 g=%g trainable" % _levels(rng, 0.4, 0.6),
            "OC oc1 out 0 cap=1.0 w=const(%g)" % _levels(rng, 0.25, 0.4),
        ]
    )
    net = _write(os.path.join(in_dir, "linnet.net"), text + "\n")
    return ["gradcheck", net, "--dt", repr(GRADCHECK_DT), "--out", "gradcheck.csv"]


# --- simulate-memristive -----------------------------------------------------


def _memristive_netlist(rng: random.Random) -> str:
    """Two tanh half-order memristors, C, L, two R, sine and step drives, one OC.

    Values move by about 10% around a fixed design, which keeps the Newton
    iteration count per step close to the same for every seed.  The tanh
    laws are mild (slope about 0.5 at the origin, about 3.4 Newton passes
    a step): with sharper ones the per-step Newton cost hides the growth of
    the history sum, and dynamics.step_cost_growth fell to 1.2-1.5.
    """

    def near(x):
        return round(x * rng.uniform(0.9, 1.1), 4)

    return "\n".join(
        [
            "V vs in1 0 w=sine(%g,%g,0)" % (near(1.0), near(0.25)),
            "V vp in2 0 w=step(%g,%g)" % (near(0.6), near(2.0)),
            "M m1 in1 n1 f=tanh(%g,%g)" % (near(1.0), near(2.0)),
            "M m2 in2 n2 f=tanh(%g,%g)" % (near(0.8), near(1.5)),
            "R r1 n1 0 g=%g" % near(0.5),
            "C c1 n1 n2 c=%g" % near(1.0),
            "L l1 n2 0 l=%g" % near(2.0),
            "R r2 n2 out g=%g" % near(1.0),
            "OC oc1 out 0 cap=1.0 w=const(%g)" % near(0.3),
        ]
    ) + "\n"


def _memristive_inputs(rng: random.Random, in_dir: str) -> list:
    net = _write(os.path.join(in_dir, "memnet.net"), _memristive_netlist(rng))
    return [
        "simulate", net, "--dt", repr(MEM_DT), "--t-end", repr(MEM_T_END),
        "--out", "traj.csv", "--dump-action",
    ]


# --- output checks -----------------------------------------------------------


def _numeric_rows(path: str, problems: list, text_cols: int = 0) -> list:
    """Rows of a CSV after its header, numbers as floats.

    Stops at the first ragged, non-numeric or non-finite row and records it.
    """
    name = os.path.basename(path)
    if not os.path.isfile(path):
        problems.append(f"missing output {name}")
        return []
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for lineno, row in enumerate(reader, start=2):
            try:
                values = [float(v) for v in row[text_cols:]]
            except ValueError:
                values = []
            if len(row) != len(header) or len(values) != len(row) - text_cols:
                problems.append(f"{name}:{lineno}: ragged or non-numeric row")
                break
            if not all(map(math.isfinite, values)):
                problems.append(f"{name}:{lineno}: non-finite value")
                break
            rows.append(row[:text_cols] + values)
    return rows


def _check_train(out_dir: str, problems: list) -> dict:
    rows = _numeric_rows(os.path.join(out_dir, "train_log.csv"), problems)
    if len(rows) != TRAIN_EPOCHS * TRAIN_EXAMPLES:
        problems.append(f"train_log.csv has {len(rows)} rows, expected {TRAIN_EPOCHS * TRAIN_EXAMPLES}")
    net_path = os.path.join(out_dir, "trained.net")
    if not os.path.isfile(net_path):
        problems.append("missing output trained.net")
    else:
        from fraceq.circuit import parse_netlist, validate
        from fraceq.errors import FraceqError

        try:
            with open(net_path) as fh:
                diags = validate(parse_netlist(fh.read()))
        except (FraceqError, ValueError) as exc:
            diags = [exc]
        if diags:
            problems.append("trained.net does not re-parse: " + "; ".join(map(str, diags)))
    if not rows:
        return {}
    first = [r[2] for r in rows if r[0] == 0]
    last = [r[2] for r in rows if r[0] == TRAIN_EPOCHS - 1]
    if not first or not last:
        return {}
    return {"train_loss_ratio": (sum(last) / len(last)) / (sum(first) / len(first))}


def _check_gradcheck(out_dir: str, problems: list) -> dict:
    rows = _numeric_rows(os.path.join(out_dir, "gradcheck.csv"), problems, text_cols=1)
    if len(rows) != 3:
        problems.append(f"gradcheck.csv has {len(rows)} synapse rows, expected 3")
    summary = dict(
        (r[0], r[1]) for r in _numeric_rows(os.path.join(out_dir, "gradcheck_summary.csv"), problems, 1)
    )
    cosine = summary.get("cosine_similarity")
    if cosine is None or summary.get("sign_match_all") is None:
        problems.append("gradcheck_summary.csv lacks cosine_similarity or sign_match_all")
        return {}
    if summary["sign_match_all"] != 1:
        problems.append("gradcheck: estimate and oracle signs differ (sign_match_all != 1)")
    if cosine < 0.9:
        problems.append(f"gradcheck: cosine {cosine:.6f} < 0.9")
    return {"grad_cosine_gap": 1.0 - cosine}


def _check_memristive(out_dir: str, problems: list) -> dict:
    n = int(round(MEM_T_END / MEM_DT)) + 1
    rows = _numeric_rows(os.path.join(out_dir, "traj.csv"), problems)
    if len(rows) != n:
        problems.append(f"traj.csv has {len(rows)} rows, expected {n}")
    action = _numeric_rows(os.path.join(out_dir, "traj_action.csv"), problems, text_cols=1)
    names = {r[0] for r in action}
    if "action_total" not in names or not any(k.startswith("el_residual_max_") for k in names):
        problems.append("traj_action.csv lacks action_total or the EL residual rows")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable  # (random.Random, input dir) -> fraceq argv
    check: Callable  # (output dir, problems list) -> accuracy figures
    probe_t_end: float | None = None  # history length of the step-cost probe


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-linnet", _train_inputs, _check_train),
        Workload("gradcheck-linnet-fine", _gradcheck_inputs, _check_gradcheck),
        Workload(
            "simulate-memristive",
            _memristive_inputs,
            _check_memristive,
            probe_t_end=MEM_T_END / 10,
        ),
    )
}
