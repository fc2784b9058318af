"""Command-line front end: simulate, gradcheck, train, frac-bench.

Every command writes its files through one function, `_publish`: it checks
every cell of the run's tables, and a cell that is not finite exits 3 naming
the file, row and column; a run that names one path twice, its manifest
included, or that would write over one of its input files, exits 2; only
then does it remove the manifest an earlier run left and write each file
with `_atomic_write`, which streams the UTF-8 text to `<path>.tmp` a chunk at
a time, so no run holds the whole text of an output, and renames it to
`<path>` once all of it is written.  If writing or renaming fails, the tmp
file is removed and `<path>` keeps what it had.  Every CSV is
a table formatted here; the simulator and the estimator return arrays and
records.  A finished run last writes a plain-text key=value manifest,
recording the command, input hashes, flags and the files just written, so
recorded runs can be reproduced byte-for-byte; a run that fails before then
leaves no manifest.  Exit codes: 0 success, 2 input or configuration error,
3 numerical or simulation failure.  Every command runs under
np.errstate(all="ignore"), so no numpy warning reaches stderr.  A fractional
operator that turns finite input non-finite exits 3 naming the operator
and sample (2 in frac-bench, naming the signal CSV and time).
A gradcheck whose estimate misses criterion 8's gate (every sign matching
and cosine at least GRADCHECK_MIN_COSINE) writes its CSVs and exits 3.
Diagnostics go to stderr; stdout carries only result summaries.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

import numpy as np

from . import __version__
from .circuit import parse_netlist, parse_waveform, serialize, split_pairs, token_lines
from .dynamics import DriveSet, SimConfig, simulate
from .eqprop import TrainConfig, agreement_metrics, estimates_and_oracle, train
from .errors import FraceqError, NewtonDivergenceError, NonFiniteResultError, ParameterError
from .frac_ops import (
    SampleGrid,
    caputo_left,
    caputo_right,
    grid_tolerance,
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
    """Write an iterable of strings to path.tmp as UTF-8 one at a time, then rename it to path.

    Only the chunk being written is held.  If the iterable raises or the
    rename fails, path.tmp is removed, path keeps what it had (or stays
    absent), and the error propagates.
    """
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


CSV_CHUNK_ROWS = 2048


def _csv_chunks(header, columns, labels=None):
    """A table's CSV text: the header line, then chunks of CSV_CHUNK_ROWS rows.

    A row holds its label, if `labels` is given, then one "%.17g" cell per
    column.  Each chunk stacks only its own slice of the columns and goes to
    Python numbers alone, so neither the whole table nor its text exists at once.
    """
    yield ",".join(header) + "\n"
    fmt = ",".join((["%s"] if labels is not None else []) + ["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = np.stack([col[lo : lo + CSV_CHUNK_ROWS] for col in columns], axis=1).tolist()
        if labels is not None:
            rows = [(label, *row) for label, row in zip(labels[lo : lo + CSV_CHUNK_ROWS], rows)]
        yield "".join([fmt % tuple(row) for row in rows])


class _NonFiniteCell(ArithmeticError):
    """An output cell that is not finite; the message locates it as
    "<path>: row <row>, column <column>".  `main` exits 3 on it."""


def _check_finite(tables, keys=1) -> None:
    """Raise _NonFiniteCell at the first cell of the tables (path, header,
    columns, labels) that is not finite; a row is named by its label, or
    else by its first `keys` cells."""
    for path, header, columns, labels, *_ in tables:
        names = header[1:] if labels is not None else header
        for name, column in zip(names, columns):
            finite = np.isfinite(column)
            if not finite.all():
                i = int(np.argmin(finite))
                cells = zip(header[:keys], columns)
                row = labels[i] if labels is not None else " ".join(f"{h}={c[i]:.17g}" for h, c in cells)
                raise _NonFiniteCell(f"{path}: row {row}, column {name}")


def _trajectory_table(traj, path) -> tuple:
    """(path, header, columns, None) of a trajectory: t, then (phi, v, psi)
    per flux coordinate, (q, i, r) per charge coordinate and (v, T) per output.

    A half-rate that finite coordinates turn non-finite raises
    _NonFiniteCell naming the path, its column and time.
    """
    header, columns = ["t"], [traj.grid.times()]
    topo = traj.topology
    for prefix, names, parts, fields in (
        ("coord", topo.flux_coord_names, "phi v psi", ("tree_flux", "tree_voltage", "tree_half_velocity")),
        ("coord", topo.charge_coord_names, "q i r", ("loop_charge", "loop_current", "loop_half_charge_rate")),
        ("out", traj.output_names, "v T", ("outputs", "targets")),
    ):
        parts = parts.split()
        signals = []
        for part, field in zip(parts, fields):
            try:
                signals.append(getattr(traj, field))
            except NonFiniteResultError as exc:
                t = traj.grid.times()[exc.sample]
                raise _NonFiniteCell(f"{path}: row t={t:.17g}, column {prefix}_{names[exc.row]}_{part}") from None
        for name, values in zip(names, zip(*signals)):
            header += [f"{prefix}_{name}_{part}" for part in parts]
            columns += values
    return path, header, columns, None


def _log_table(log, path) -> tuple:
    """(path, header, columns, None) of a training log: one row per record, none if the first example failed."""
    header = ["epoch", "example", "J", "grad_norm"] + [f"g_{name}" for name in log.synapse_names]
    rows = np.array([(ep, ex, loss, norm, *gs) for ep, ex, loss, norm, gs in log.records], dtype=float)
    return path, header, rows.reshape(-1, len(header)).T, None


def _publish(tables, inputs, manifest=None, run=None, keys=1, directory=None) -> None:
    """Write a run's files: every table (path, header, columns, labels) as
    CSV, except that a table with a fifth item, a text, is checked as the
    table and written as the text.

    In order: _check_finite checks every table; a run that names one path
    twice, or an output (the manifest included) that is the same file as one
    of the `inputs` it read, is refused before any file is touched;
    `directory` is made, and the manifest an earlier run left is removed (it
    would list files this run replaces); each file is written with
    _atomic_write; and for a finished run, `run` = (command, netlist,
    netlist_sha256, params), the manifest records it with outputs= the paths
    just written, one key=value per line.
    """
    _check_finite(tables, keys)
    paths = [path for path, *_ in tables]
    for path in paths:
        if (paths + [manifest]).count(path) > 1:
            raise ValueError(f"{path}: named twice among this run's files, its manifest included")
    # _atomic_write opens <path>.tmp for writing too; a file that does not
    # exist yet cannot be an input that was read
    for path in paths + ([manifest] if manifest else []):
        for target in (path, path + ".tmp"):
            if os.path.exists(target) and any(os.path.samefile(target, src) for src in inputs):
                raise ValueError(f"{target}: is an input of this run, so it cannot be an output")
    if directory is not None:
        os.makedirs(directory, exist_ok=True)
    if manifest is not None and os.path.exists(manifest):
        os.remove(manifest)
    for path, header, columns, labels, *text in tables:
        _atomic_write(path, text or _csv_chunks(header, columns, labels))
    if run is not None:
        command, netlist, digest, params = run
        record = [("command", command), ("version", __version__), ("netlist", netlist), ("netlist_sha256", digest)]
        record += [*sorted(params.items()), ("outputs", ",".join(paths))]
        _atomic_write(manifest, [f"{key}={value}\n" for key, value in record])


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
    """The parsed circuit and the SHA-256 of the file.  `compile` validates it."""
    raw, text = _read_text(path)
    return parse_netlist(text), hashlib.sha256(raw).hexdigest()


def parse_train_config(text: str, circuit) -> TrainConfig:
    """Flat key=value settings plus `example` lines of element=waveform tokens,
    read with the netlist's reader: a token without `=`, or a setting or an
    example's element given twice, is refused at its line and column."""

    def refuse(lineno, col, message):
        raise ValueError(f"config line {lineno}, col {col}: {message}")

    settings = {}  # key -> (value, line, column)
    kinds = {e.name: e.kind for e in circuit.elements}
    batch = []
    for lineno, tokens in token_lines(text):
        if tokens[0][0] == "example":
            pairs = {}
            for error in split_pairs(tokens[1:], pairs, lineno, "element"):
                refuse(*error)
            inputs, targets = {}, {}
            for name, (wf_text, _, col) in pairs.items():
                if name not in kinds:
                    refuse(lineno, col, f"unknown element {name!r}")
                try:
                    wf = parse_waveform(wf_text)
                except ValueError as exc:
                    refuse(lineno, col, f"{name}: {exc}")
                if kinds[name] not in ("OC", "V", "I"):
                    refuse(lineno, col, f"{name} is not a source or output")
                (targets if kinds[name] == "OC" else inputs)[name] = wf
            # an output the netlist gives no target needs one in every example
            for e in circuit.elements:
                if e.kind == "OC" and e.waveform is None and e.name not in targets:
                    message = f"missing-target: output capacitor {e.name} has no target waveform"
                    raise ValueError(f"config line {lineno}: {message}")
            batch.append(DriveSet(inputs=inputs, targets=targets))
        elif len(tokens) == 1:
            for error in split_pairs(tokens, settings, lineno, "setting"):
                refuse(*error)
        else:
            raise ValueError(f"config line {lineno}: expected key=value or example line")
    scalars = {key: value for key, (value, _, _) in settings.items()}
    located = {key: f"config line {line}: {key}={value}" for key, (value, line, _) in settings.items()}

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
        )
    except ParameterError as exc:
        # a default is never out of range alone; a span that dt does not
        # divide is reported on the line of whichever of the two is set
        key = next(k for k in ({"b": "t_end"}.get(exc.name, exc.name), "t_end", "dt") if k in located)
        raise ValueError(f"{located[key]}: {exc}") from None
    # the estimator's sign is fixed; configs that state it may say 1
    if take("sign_convention", int, 1) != 1:
        raise ValueError(f"{located['sign_convention']}: the estimator's sign is fixed at 1")
    if scalars:
        raise ValueError("; ".join(f"{located[key]}: unknown key" for key in scalars))
    return cfg


# --- simulate --------------------------------------------------------------


def _action_table(circuit, traj, path) -> tuple:
    """(path, header, columns, labels) of the action parts, their total and the EL residual rows."""
    parts = action_breakdown(circuit, traj)
    rows = {f"action_{key}": parts[key] for key in sorted(parts)} | {"action_total": complex(sum(parts.values()))}
    # max of the EL residual's real part (the L, C, OC and I terms) and of its
    # imaginary part (the dissipative R and M terms) over the inner 80% of the
    # span, clear of the t^(-1/2) layer the right-sided operator leaves at t = b
    cut = math.ceil((traj.grid.n - 1) / 10)
    for name, values in el_residual(circuit, traj).items():
        real, imag = (np.abs(part[cut : len(part) - cut]).max(initial=0.0) for part in (values.real, values.imag))
        rows[f"el_residual_max_{name}"] = complex(real, imag)
    values = np.array(list(rows.values()), dtype=complex)
    return path, ["quantity", "real", "imag"], [values.real, values.imag], list(rows)


def cmd_simulate(args) -> int:
    circuit, digest = _read_netlist(args.netlist)
    stem = os.path.splitext(args.out)[0]
    params = {"beta": args.beta, "dt": args.dt, "t_end": args.t_end}
    traj = simulate(circuit, DriveSet(), args.beta, SimConfig(SampleGrid.from_span(0.0, args.t_end, args.dt)))
    # the trajectory's table comes first: a half-rate that overflows is named by its column
    tables = [_trajectory_table(traj, args.out)]
    if args.dump_topology:
        topo = traj.topology
        tables += [(f"{stem}_{label}.csv", topo.names, M.T, None) for label, M in (("Q", topo.Q), ("B", topo.B))]
    if args.dump_action:
        tables.append(_action_table(circuit, traj, f"{stem}_action.csv"))
    _publish(tables, [args.netlist], stem + ".manifest", ("simulate", args.netlist, digest, params))
    print(f"wrote {args.out} ({traj.grid.n} samples)")
    return EXIT_OK


# --- gradcheck -------------------------------------------------------------


def _gradcheck_table(est, oracle) -> tuple:
    """(header, columns, labels) of the per-synapse estimate against the oracle."""
    ratios = [value / ref if ref != 0 else math.inf for value, ref in zip(est.values, oracle)]
    matches = np.sign(est.values) == np.sign(oracle)
    header = ["synapse", "estimate", "oracle", "ratio", "sign_match", "e_nudged", "e_free"]
    return header, [est.values, oracle, ratios, matches, *zip(*est.raw_half_energies)], est.synapse_names


def cmd_gradcheck(args) -> int:
    circuit, digest = _read_netlist(args.netlist)
    cfg = SimConfig(SampleGrid.from_span(0.0, args.t_end, args.dt))
    stem = os.path.splitext(args.out)[0]
    summary_path = stem + "_summary.csv"
    params = {"beta": args.beta, "eps": args.eps, "dt": args.dt, "t_end": args.t_end}

    # the estimates at beta and beta/2 share one free run and the oracle's batch
    nudges = [("nudged", args.beta), ("nudged beta/2", args.beta / 2)]
    (est, est_half), oracle = estimates_and_oracle(circuit, DriveSet(), nudges, args.eps, cfg)
    metrics = agreement_metrics(est, oracle)
    metrics_half = agreement_metrics(est_half, oracle)

    matches = np.sign(est.values) == np.sign(oracle)
    mismatched = [name for name, match in zip(est.synapse_names, matches) if not match]
    summary = {
        "cosine_similarity": metrics["cosine_similarity"],
        "cosine_similarity_half_beta": metrics_half["cosine_similarity"],
        "max_rel_error": metrics["max_rel_error"],
        "sign_match_all": metrics["sign_match"],
        "beta": args.beta,
        "dt": args.dt,
    }
    tables = [
        (args.out, *_gradcheck_table(est, oracle)),
        (summary_path, ["metric", "value"], [list(summary.values())], list(summary)),
    ]
    _publish(tables, [args.netlist], stem + ".manifest", ("gradcheck", args.netlist, digest, params))
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
    raw, text = _read_text(args.config)
    try:
        config = parse_train_config(text, circuit)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    log_path = os.path.join(args.out_dir, "train_log.csv")
    net_path = os.path.join(args.out_dir, "trained.net")
    manifest_path = os.path.join(args.out_dir, "train.manifest")
    params = {
        "config": args.config,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "beta": config.beta,
        "seed": config.seed,
        "examples": len(config.batch),
    }
    inputs = [args.netlist, args.config]
    try:
        final, log = train(circuit, config)
    except FraceqError as exc:
        if hasattr(exc, "partial_log"):
            # the exception names the epoch and example; its one line also
            # says where the partial log went
            try:
                _publish([_log_table(exc.partial_log, log_path)], inputs, manifest_path, keys=2, directory=args.out_dir)
            except _NonFiniteCell as bad:
                note = f"partial log not written: {bad} is not finite"
            else:
                note = f"partial log flushed to {log_path}"
            exc.args = (f"{exc}; {note}",)
        raise
    # trained.net is checked as a table of its synapse conductances
    synapses = list(log.synapse_names)
    conductances = [final.element(name).g for name in synapses]
    tables = [_log_table(log, log_path), (net_path, ["synapse", "g"], [conductances], synapses, serialize(final))]
    _publish(tables, inputs, manifest_path, ("train", args.netlist, digest, params), keys=2, directory=args.out_dir)
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

# analytic self-test matrix: (label, op, signal, exact result, threshold)
def _self_test_cases():
    grid = SampleGrid.from_span(0.0, 1.0, 1e-3)
    t, dt = grid.times(), grid.dt
    g15 = math.gamma(2.5) / math.gamma(2.0)
    return [
        ("caputo_left t a=0.5", lambda x: caputo_left(x, dt, 0.5), t, 2 * np.sqrt(t / np.pi), 2e-2),
        ("caputo_left t^1.5 a=0.5", lambda x: caputo_left(x, dt, 0.5), t**1.5, g15 * t, 2e-3),
        ("half-half composition t^2", lambda x: caputo_left(caputo_left(x, dt, 0.5), dt, 0.5), t**2, 2 * t, 5e-2),
        ("caputo_right 1-t a=0.5", lambda x: caputo_right(x, dt, 0.5), 1 - t, 2 * np.sqrt((1 - t) / np.pi), 2e-2),
        ("rl_integral t a=0.5", lambda x: rl_integral_left(x, dt, 0.5), t, t**1.5 / g15, 1e-12),
        # order 1 is the backward difference, zero at t = 0 (sin 0 = 0)
        ("caputo_left sin a=1", lambda x: caputo_left(x, dt, 1.0), np.sin(t), np.diff(np.sin(t), prepend=0) / dt, 1e-12),
    ]


def _run_self_test() -> int:
    ok = True
    print("case,max_error,threshold,pass")
    for label, op, values, exact, threshold in _self_test_cases():
        err = float(np.max(np.abs(op(values) - exact)))
        good = err <= threshold
        ok = ok and good
        print("%s,%.3e,%.3e,%s" % (label, err, threshold, "yes" if good else "NO"))
    return EXIT_OK if ok else EXIT_NUMERIC


def _read_signal_csv(path: str) -> tuple:
    """(SampleGrid, values) of t,value rows; only the first line that is not
    blank or a comment may be a header.

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
        off = ~(np.abs(steps - dt) <= grid_tolerance(dt, np.abs(t).max()))
    off[0] |= not (np.isfinite(dt) and dt > 0)
    if off.any():
        raise ValueError(f"{path}:{linenos[np.argmax(off) + 1]}: time column is not a uniform grid")
    return SampleGrid(float(t[0]), float(dt), len(t)), v


def cmd_fracbench(args) -> int:
    if args.self_test:
        return _run_self_test()
    if args.signal is None:
        raise ValueError("frac-bench needs a signal CSV (or --self-test)")
    grid, values = _read_signal_csv(args.signal)  # every value finite
    try:
        result = _OPS[args.op](values, grid.dt, args.alpha)
    except NonFiniteResultError as exc:
        t = grid.times()[exc.sample]
        raise ValueError(f"{args.signal}: --op {args.op} gives a non-finite result, first at t={t:.17g}") from None
    _publish([(args.out, ["t", "value"], [grid.times(), result], None)], [args.signal])
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
        # no numpy warning reaches stderr: Newton treats a NaN residual as
        # divergence, a fractional operator raises on a non-finite result of
        # finite input, and simulate refuses a non-finite cell
        with np.errstate(all="ignore"):
            return args.func(args)
    except (NewtonDivergenceError, NonFiniteResultError) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _NonFiniteCell as exc:
        print(f"simulation failure: {exc} is not finite", file=sys.stderr)
        return EXIT_NUMERIC
    except ParameterError as exc:
        print(f"error: {_FLAGS.get(exc.name, exc.name)}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FraceqError as exc:
        # every other package error is the netlist's: it does not parse, or its
        # circuit cannot run (a ValidationError: it fails validation, has no
        # tree, or lacks outputs or synapses)
        print(f"error: {args.netlist}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # a MemoryError is numpy refusing an array too large to map, such as a grid of 1e15 steps
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
