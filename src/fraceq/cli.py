"""Command-line front end: simulate, gradcheck, train, frac-bench.

Every file a command writes goes through one writer, `_atomic_write`: it
streams the file's text to `<path>.tmp` a chunk at a time (a trajectory or
training-log CSV in chunks of `dynamics.CSV_CHUNK_ROWS` rows), so no run
holds the whole text of an output, and renames it to `<path>` once all of
it is written.  If producing the text fails, the tmp file is removed and
`<path>` keeps what it had.  A run that has written its data files then
writes a plain-text key=value manifest the same way, recording the command,
input hash, flags and those files, so recorded runs can be reproduced
byte-for-byte; a run that fails before then leaves no manifest.  Exit
codes: 0 success,
2 input or configuration error, 3 numerical or simulation failure.
A gradcheck whose estimate misses criterion 8's gate (every sign matching
and cosine at least GRADCHECK_MIN_COSINE) writes its CSVs and exits 3.
Diagnostics go to stderr; stdout carries only result summaries.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys

import numpy as np

from . import __version__
from .circuit import parse_netlist, serialize
from .circuit import _parse_waveform  # shared token grammar for config files
from .dynamics import DriveSet, SimConfig, _backward_diff, _csv_body, simulate
from .eqprop import TrainConfig, agreement_metrics, estimates_and_oracle, train
from .errors import FraceqError, NewtonDivergenceError, ParameterError
from .frac_ops import (
    SampleGrid,
    Signal,
    caputo_left,
    caputo_right,
    rl_derivative_left,
    rl_derivative_right,
    rl_integral_left,
)
from .lagrangian import action_breakdown, el_residual

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# criterion 8's gate on the estimate-vs-oracle cosine, with every sign matching
GRADCHECK_MIN_COSINE = 0.9


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of strings to path.tmp one at a time, then rename it to path.

    Only the chunk being written is held.  If the iterable raises, path.tmp
    is removed, path keeps what it had (or stays absent), and the error
    propagates.
    """
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _lines(lines):
    """Each line with its newline, for _atomic_write."""
    return (line + "\n" for line in lines)


def _write_manifest(path, command, netlist, digest, params, outputs) -> None:
    """Reproducibility record: one key=value per line, atomic write."""
    lines = [f"command={command}", f"version={__version__}", f"netlist={netlist}", f"netlist_sha256={digest}"]
    lines += [f"{k}={v}" for k, v in sorted(params.items())]
    lines.append("outputs=" + ",".join(outputs))
    _atomic_write(path, _lines(lines))


def _read_text(path: str) -> tuple:
    """(the file's bytes, their UTF-8 text); a byte that is not UTF-8 is an
    input error naming the path, line and byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 at byte {exc.start} ({exc.reason})") from None


def _read_netlist(path: str):
    """The parsed circuit and the SHA-256 of the file; `compile` validates it."""
    raw, text = _read_text(path)
    return parse_netlist(text), hashlib.sha256(raw).hexdigest()


def parse_train_config(text: str, circuit) -> TrainConfig:
    """Flat key=value config plus `example` lines of waveform assignments."""
    scalars = {}
    located = {}  # key -> "config line N: key=value", for diagnostics
    batch = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "example":
            inputs, targets = {}, {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ValueError(f"config line {lineno}: malformed example token {tok!r}")
                name, wf_text = tok.split("=", 1)
                try:
                    element = circuit.element(name)
                except KeyError:
                    raise ValueError(f"config line {lineno}: unknown element {name!r}") from None
                try:
                    wf = _parse_waveform(wf_text)
                except ValueError as exc:
                    col = raw.index(tok) + 1
                    raise ValueError(f"config line {lineno}, col {col}: {name}: {exc}") from None
                if element.kind == "OC":
                    targets[name] = wf
                elif element.kind in ("V", "I"):
                    inputs[name] = wf
                else:
                    raise ValueError(f"config line {lineno}: {name} is not a source or output")
            batch.append(DriveSet(inputs=inputs, targets=targets))
        elif len(tokens) == 1 and "=" in tokens[0]:
            key, value = tokens[0].split("=", 1)
            scalars[key] = value
            located[key] = f"config line {lineno}: {key}={value}"
        else:
            raise ValueError(f"config line {lineno}: expected key=value or example line")

    def take(key, cast, default=None):
        if key in scalars:
            value = scalars.pop(key)
            try:
                return cast(value)
            except ValueError:
                raise ValueError(f"{located[key]}: expected {cast.__name__}") from None
        if default is None:
            raise ValueError(f"config is missing required key {key}=")
        return default

    try:
        grid = SampleGrid.from_span(0.0, take("t_end", float, 1.0), take("dt", float, 1e-3))
        cfg = TrainConfig(
            epochs=take("epochs", int),
            learning_rate=take("learning_rate", float),
            beta=take("beta", float),
            sim=SimConfig(grid),
            batch=tuple(batch) if batch else (DriveSet(),),
            g_min=take("g_min", float, 1e-6),
            seed=take("seed", int, 0),
            sign_convention=take("sign_convention", int, 1),
        )
    except ParameterError as exc:
        # a default is never out of range alone; a span that dt does not
        # divide is reported on the line of whichever of the two is set
        key = next(k for k in ({"b": "t_end"}.get(exc.name, exc.name), "t_end", "dt") if k in located)
        raise ValueError(f"{located[key]}: {exc}") from None
    if scalars:
        raise ValueError("; ".join(f"{located[key]}: unknown key" for key in scalars))
    return cfg


# --- simulate --------------------------------------------------------------


def _dump_topology(topology, stem):
    for label, M in (("Q", topology.Q), ("B", topology.B)):
        lines = [",".join(topology.names)]
        lines += [",".join(str(v) for v in row) for row in M]
        _atomic_write(f"{stem}_{label}.csv", _lines(lines))


def _dump_action(circuit, traj, stem):
    bd = action_breakdown(circuit, traj)
    res = el_residual(circuit, traj)
    lines = ["quantity,real,imag"]
    for key in sorted(bd.parts):
        v = bd.parts[key]
        lines.append(f"action_{key},%.17g,%.17g" % (v.real, v.imag))
    total = bd.total
    lines.append("action_total,%.17g,%.17g" % (total.real, total.imag))
    for name, sig in res.items():
        interior = sig.values[1:-1]
        norm = float(np.max(np.abs(interior))) if len(interior) else 0.0
        lines.append(f"el_residual_max_{name},%.17g,0" % norm)
    path = f"{stem}_action.csv"
    _atomic_write(path, _lines(lines))
    return [path]


def cmd_simulate(args) -> int:
    circuit, digest = _read_netlist(args.netlist)
    stem = os.path.splitext(args.out)[0]
    outputs = [args.out]
    if args.dump_topology:
        outputs += [f"{stem}_Q.csv", f"{stem}_B.csv"]
    if args.dump_action:
        outputs += [f"{stem}_action.csv"]
    params = {"beta": args.beta, "dt": args.dt, "t_end": args.t_end}
    traj = simulate(circuit, DriveSet(), args.beta, SimConfig(SampleGrid.from_span(0.0, args.t_end, args.dt)))
    _atomic_write(args.out, traj.csv_chunks())
    if args.dump_topology:
        _dump_topology(traj.topology, stem)
    if args.dump_action:
        _dump_action(circuit, traj, stem)
    _write_manifest(stem + ".manifest", "simulate", args.netlist, digest, params, outputs)
    print(f"wrote {args.out} ({traj.grid.n} samples)")
    return EXIT_OK


# --- gradcheck -------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    circuit, digest = _read_netlist(args.netlist)
    cfg = SimConfig(SampleGrid.from_span(0.0, args.t_end, args.dt))
    stem = os.path.splitext(args.out)[0]
    summary_path = stem + "_summary.csv"
    params = {"beta": args.beta, "eps": args.eps, "dt": args.dt, "t_end": args.t_end}

    # the estimates at beta and beta/2 share one free run and the oracle's batch
    nudges = [("nudged", args.beta), ("nudged beta/2", args.beta / 2)]
    (est, est_half), oracle = estimates_and_oracle(circuit, DriveSet(), nudges, args.eps, cfg, args.sign)
    metrics = agreement_metrics(est, oracle)
    metrics_half = agreement_metrics(est_half, oracle)

    lines = ["synapse,estimate,oracle,ratio,sign_match,e_nudged,e_free"]
    mismatched = []
    for name, value, ref, (e_n, e_f) in zip(
        est.synapse_names, est.values, oracle, est.raw_half_energies
    ):
        ratio = value / ref if ref != 0 else math.inf
        match = int(np.sign(value) == np.sign(ref))
        if not match:
            mismatched.append(name)
        lines.append(f"{name},%.17g,%.17g,%.17g,{match},%.17g,%.17g" % (value, ref, ratio, e_n, e_f))
    _atomic_write(args.out, _lines(lines))

    summary = [
        "metric,value",
        "cosine_similarity,%.17g" % metrics["cosine_similarity"],
        "cosine_similarity_half_beta,%.17g" % metrics_half["cosine_similarity"],
        "max_rel_error,%.17g" % metrics["max_rel_error"],
        f"sign_match_all,{int(metrics['sign_match'])}",
        f"sign_convention,{est.sign_convention}",
        "beta,%.17g" % args.beta,
        "dt,%.17g" % args.dt,
    ]
    _atomic_write(summary_path, _lines(summary))
    _write_manifest(stem + ".manifest", "gradcheck", args.netlist, digest, params, [args.out, summary_path])
    print(
        "cosine=%.6f sign_match=%s max_rel_error=%.3g"
        % (metrics["cosine_similarity"], metrics["sign_match"], metrics["max_rel_error"])
    )
    if mismatched or metrics["cosine_similarity"] < GRADCHECK_MIN_COSINE:
        signs = f", first sign mismatch at {mismatched[0]}" if mismatched else ""
        print(
            "gradcheck gate missed: cosine=%.6f (needs >= %g and every sign matching)%s"
            % (metrics["cosine_similarity"], GRADCHECK_MIN_COSINE, signs),
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


# --- train -----------------------------------------------------------------


def cmd_train(args) -> int:
    circuit, digest = _read_netlist(args.netlist)
    _, text = _read_text(args.config)
    try:
        config = parse_train_config(text, circuit)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    os.makedirs(args.out_dir, exist_ok=True)
    log_path = os.path.join(args.out_dir, "train_log.csv")
    net_path = os.path.join(args.out_dir, "trained.net")
    params = {
        "config": args.config,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "beta": config.beta,
        "seed": config.seed,
        "sign_convention": config.sign_convention,
        "examples": len(config.batch),
    }
    try:
        final, log = train(circuit, config)
    except FraceqError as exc:
        if hasattr(exc, "partial_log"):
            # the exception itself names the epoch and example
            _atomic_write(log_path, exc.partial_log.csv_chunks())
            print(f"partial log flushed to {log_path}", file=sys.stderr)
        raise
    _atomic_write(log_path, log.csv_chunks())
    _atomic_write(net_path, [serialize(final)])
    manifest_path = os.path.join(args.out_dir, "train.manifest")
    _write_manifest(manifest_path, "train", args.netlist, digest, params, [log_path, net_path])
    losses = log.losses_by_epoch()
    print("epochs=%d loss %.6g -> %.6g" % (config.epochs, losses[0], losses[-1]))
    return EXIT_OK


# --- frac-bench ------------------------------------------------------------

_OPS = {
    "caputo-left": caputo_left,
    "caputo-right": caputo_right,
    "rl-left": rl_derivative_left,
    "rl-right": rl_derivative_right,
    "rl-integral": rl_integral_left,
}

# analytic self-test matrix: (label, signal, exact result, threshold)
def _self_test_cases():
    grid = SampleGrid.from_span(0.0, 1.0, 1e-3)
    t = grid.times()
    g15 = math.gamma(2.5) / math.gamma(2.0)
    return grid, t, [
        ("caputo_left t a=0.5", lambda s: caputo_left(s, 0.5), t, 2 * np.sqrt(t / np.pi), 2e-2),
        ("caputo_left t^1.5 a=0.5", lambda s: caputo_left(s, 0.5), t**1.5, g15 * t, 2e-3),
        (
            "half-half composition t^2",
            lambda s: caputo_left(caputo_left(s, 0.5), 0.5),
            t**2,
            2 * t,
            5e-2,
        ),
        ("caputo_right 1-t a=0.5", lambda s: caputo_right(s, 0.5), 1 - t, 2 * np.sqrt((1 - t) / np.pi), 2e-2),
        ("rl_integral t a=0.5", lambda s: rl_integral_left(s, 0.5), t, t**1.5 / g15, 1e-12),
        ("caputo_left sin a=1", lambda s: caputo_left(s, 1.0), np.sin(t), _backward_diff(np.sin(t), 1e-3), 1e-12),
    ]


def _run_self_test() -> int:
    grid, _, cases = _self_test_cases()
    ok = True
    print("case,max_error,threshold,pass")
    for label, op, values, exact, threshold in cases:
        result = op(Signal(grid, values)).values
        err = float(np.max(np.abs(result - exact)))
        good = err <= threshold
        ok = ok and good
        print("%s,%.3e,%.3e,%s" % (label, err, threshold, "yes" if good else "NO"))
    return EXIT_OK if ok else EXIT_NUMERIC


def _read_signal_csv(path: str) -> Signal:
    """t,value rows; only the first line that is not blank or a comment may be a header.

    A bad row, or the first time off the uniform grid, is an error naming path:line."""
    rows = []  # (line number, t, value)
    first = True
    for lineno, line in enumerate(_read_text(path)[1].splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            if len(parts) < 2:
                raise ValueError
            row = (lineno, float(parts[0]), float(parts[1]))
        except ValueError:
            if not first:
                raise ValueError(f"{path}:{lineno}: expected numeric t,value, got {line!r}") from None
        else:
            if not all(map(math.isfinite, row[1:])):
                raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
            rows.append(row)
        first = False
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 numeric t,value rows")
    linenos, t, v = (np.array(col) for col in zip(*rows))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite step is off the grid
        steps = np.diff(t)
        dt = steps[0]
        off = ~(np.abs(steps - dt) <= 1e-9 * max(1.0, abs(dt)))
    off[0] |= not (np.isfinite(dt) and dt > 0)
    if off.any():
        raise ValueError(f"{path}:{linenos[np.argmax(off) + 1]}: time column is not a uniform grid")
    return Signal(SampleGrid(float(t[0]), float(dt), len(t)), v)


def cmd_fracbench(args) -> int:
    if args.self_test:
        return _run_self_test()
    if args.signal is None:
        raise ValueError("frac-bench needs a signal CSV (or --self-test)")
    sig = _read_signal_csv(args.signal)
    result = _OPS[args.op](sig, args.alpha)
    _atomic_write(args.out, itertools.chain(["t,value\n"], _csv_body([sig.grid.times(), np.real(result.values)])))
    print(f"wrote {args.out}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraceq")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory and export CSV")
    sim.add_argument("netlist")
    sim.add_argument("--beta", type=float, default=0.0)
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.add_argument("--t-end", type=float, default=1.0)
    sim.add_argument("--out", default="trajectory.csv")
    sim.add_argument("--dump-topology", action="store_true")
    sim.add_argument("--dump-action", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    gc = sub.add_parser("gradcheck", help="estimator vs finite-difference oracle")
    gc.add_argument("netlist")
    gc.add_argument("--beta", type=float, default=1e-3)
    gc.add_argument("--eps", type=float, default=1e-4)
    gc.add_argument("--dt", type=float, default=1e-3)
    gc.add_argument("--t-end", type=float, default=1.0)
    gc.add_argument("--sign", type=int, default=1, choices=(-1, 1))
    gc.add_argument("--out", default="gradcheck.csv")
    gc.set_defaults(func=cmd_gradcheck)

    tr = sub.add_parser("train", help="SGD training loop")
    tr.add_argument("netlist")
    tr.add_argument("config")
    tr.add_argument("--out-dir", default=".")
    tr.set_defaults(func=cmd_train)

    fb = sub.add_parser("frac-bench", help="fractional operators on CSV signals")
    fb.add_argument("signal", nargs="?")
    fb.add_argument("--op", choices=sorted(_OPS), default="caputo-left")
    fb.add_argument("--alpha", type=float, default=0.5)
    fb.add_argument("--out", default="frac_bench.csv")
    fb.add_argument("--self-test", action="store_true")
    fb.set_defaults(func=cmd_fracbench)
    return parser


# the flag that sets each run parameter a ParameterError can name
_FLAGS = {"b": "--t-end", "dt": "--dt", "beta": "--beta", "eps": "--eps", "alpha": "--alpha"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NewtonDivergenceError as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ParameterError as exc:
        print(f"error: {_FLAGS.get(exc.name, exc.name)}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FraceqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
