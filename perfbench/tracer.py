"""In-memory span tracer for the benchmark's traced run.

Run as a child process::

    python3 perfbench/tracer.py SPANS_JSON [--probe-t-end T] -- CLI_ARGS...

It rebinds the public functions of every fraceq module at every import site
(a module-global that is the same object as the original), runs the CLI
in-process, and writes the spans and counters to SPANS_JSON when it ends.
With --probe-t-end it runs no CLI command: it simulates the command's
netlist to T instead, to compare the cost of a step at two history lengths.
Nothing under src/ knows about the tracer.

`layer_metrics` turns a spans file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import traceback

# (module, attribute): functions that get a span.  A target that no longer
# exists is skipped and its metrics are reported as absent.
SPANNED = (
    ("cli", "main"),
    ("cli", "parse_train_config"),
    ("circuit", "parse_netlist"),
    ("circuit", "validate"),
    ("circuit", "serialize"),
    ("topology", "build_topology"),
    ("dynamics", "simulate"),
    ("dynamics", "trajectory_loss"),
    ("frac_ops", "caputo_left"),
    ("frac_ops", "rl_derivative_right"),
    ("frac_ops", "half_energy_integral"),
    ("lagrangian", "trajectory_states"),
    ("lagrangian", "action_breakdown"),
    ("lagrangian", "el_residual"),
    ("eqprop", "estimate_gradient"),
    ("eqprop", "fd_gradient"),
    ("eqprop", "train"),
)
# (module, class, method): methods that get a span
SPANNED_METHODS = (("dynamics", "Trajectory", "to_csv"),)
# (module, class, attribute): calls or property reads that are only counted,
# because they run once per Newton iteration or per sample
COUNTED = (
    ("circuit", "ConstitutiveSpec", "__call__"),
    ("dynamics", "Trajectory", "tree_half_velocity"),
    ("dynamics", "Trajectory", "loop_half_charge_rate"),
)

PROBE_REPS = 10  # repeated so that its us/step averages over as long a window as the CLI run

# span name -> how to read its size from the call's result
_SIZES = {
    "dynamics.simulate": lambda traj: traj.grid.n - 1,
    "frac_ops.caputo_left": lambda sig: sig.grid.n,
}


class Tracer:
    """Spans (id, name, start, end, parent id, run id, size) kept in memory.

    A span's parent is the innermost open span of its own thread.  A span
    opened on a pool thread with nothing open there takes the innermost
    open span of the main thread, which is the call that submitted it.
    """

    def __init__(self):
        self.run_id = "cli"
        self.spans = []
        self.counts = {}  # run id -> counter name -> count
        self.absent = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def spanned(self, name: str, fn):
        size_of = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            size = None
            if size_of is not None:
                try:
                    size = size_of(result)
                except (AttributeError, TypeError):
                    pass
            self.spans.append((sid, name, start, end, parent, self.run_id, size))
            return result

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            with self._lock:
                run = self.counts.setdefault(self.run_id, {})
                run[name] = run.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def install(self) -> None:
        """Wrap every target; record the missing ones in self.absent."""
        modules = {}
        for m in {t[0] for t in SPANNED + SPANNED_METHODS + COUNTED}:
            try:
                modules[m] = importlib.import_module(f"fraceq.{m}")
            except ImportError:
                modules[m] = None
        for mod, attr in SPANNED:
            original = getattr(modules[mod], attr, None)
            if original is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            self._rebind(original, self.spanned(f"{mod}.{attr}", original))
        for mod, cls_name, attr in SPANNED_METHODS + COUNTED:
            cls = getattr(modules[mod], cls_name, None)
            member = None if cls is None else cls.__dict__.get(attr)
            name = f"{mod}.{cls_name}.{attr}"
            if member is None:
                self.absent.append(name)
                continue
            if (mod, cls_name, attr) in SPANNED_METHODS:
                replacement = self.spanned(name, member)
            elif isinstance(member, property):
                replacement = property(self.counted(name, member.fget), doc=member.__doc__)
            else:
                replacement = self.counted(name, member)
            setattr(cls, attr, replacement)

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fraceq" or mod_name.startswith("fraceq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)


def _probe(tracer: Tracer, cli_args: list, t_end: float) -> int:
    """Simulate the CLI command's netlist to t_end, under run id 'probe'.

    A failure here costs only the metrics that need the probe.
    """
    tracer.run_id = "probe"
    try:
        from fraceq.circuit import parse_netlist
        from fraceq.dynamics import DriveSet, SimConfig, simulate
        from fraceq.frac_ops import SampleGrid

        dt = float(cli_args[cli_args.index("--dt") + 1])
        with open(cli_args[1]) as fh:
            circuit = parse_netlist(fh.read())
        cfg = SimConfig(SampleGrid.from_span(0.0, t_end, dt))
        for _ in range(PROBE_REPS):
            simulate(circuit, DriveSet(), 0.0, cfg)
    except Exception:
        traceback.print_exc()
        tracer.absent.append("probe")
    return 0


def main(argv: list) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    spans_path = own[0]
    probe_t_end = float(own[own.index("--probe-t-end") + 1]) if "--probe-t-end" in own else None

    from fraceq import cli

    tracer = Tracer()
    tracer.install()
    try:
        if probe_t_end is None:
            code = cli.main(cli_args)
        else:
            code = _probe(tracer, cli_args, probe_t_end)
    finally:
        tracer.dump(spans_path)
    return code


# --- per-layer metrics from a spans file -----------------------------------


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


class _Spans:
    def __init__(self, rows):
        self.rows = rows
        self.by_id = {r[0]: r for r in rows}
        self.children = {}
        for r in rows:
            self.children.setdefault(r[4], []).append(r)

    def named(self, name):
        return [r for r in self.rows if r[1] == name]

    def count(self, name) -> int:
        return len(self.named(name))

    def total(self, name) -> float:
        return sum(r[3] - r[2] for r in self.named(name))

    def size(self, name) -> int:
        return sum(r[6] or 0 for r in self.named(name))

    def self_time(self, name) -> float:
        """Duration minus the part of it that child spans cover."""
        out = 0.0
        for r in self.named(name):
            kids = [(max(c[2], r[2]), min(c[3], r[3])) for c in self.children.get(r[0], [])]
            out += (r[3] - r[2]) - _union_length(k for k in kids if k[1] > k[0])
        return out

    def descendants(self, sid):
        for c in self.children.get(sid, []):
            yield c
            yield from self.descendants(c[0])

    def outermost(self, names):
        """Spans named in `names` with no ancestor named in `names`."""
        out = []
        for r in self.rows:
            if r[1] not in names:
                continue
            p = r[4]
            while p is not None and self.by_id[p][1] not in names:
                p = self.by_id[p][4]
            if p is None:
                out.append(r)
        return out


def _us_per_step(spans: _Spans) -> float:
    steps = spans.size("dynamics.simulate")
    return 1e6 * spans.self_time("dynamics.simulate") / steps if steps else 0.0


# metric: (how it is read, span or counter it is read from)
_READINGS = {
    "circuit.parse_s": ("total", "circuit.parse_netlist"),
    "circuit.validate_calls": ("count", "circuit.validate"),
    "circuit.constitutive_evals": ("counter", "circuit.ConstitutiveSpec.__call__"),
    "topology.build_calls": ("count", "topology.build_topology"),
    "topology.build_s": ("total", "topology.build_topology"),
    "dynamics.simulate_calls": ("count", "dynamics.simulate"),
    "dynamics.steps": ("size", "dynamics.simulate"),
    "dynamics.simulate_self_s": ("self_time", "dynamics.simulate"),
    "dynamics.to_csv_s": ("total", "dynamics.Trajectory.to_csv"),
    "frac_ops.caputo_left_calls": ("count", "frac_ops.caputo_left"),
    "frac_ops.caputo_left_samples": ("size", "frac_ops.caputo_left"),
    "frac_ops.caputo_left_s": ("total", "frac_ops.caputo_left"),
    "frac_ops.half_energy_calls": ("count", "frac_ops.half_energy_integral"),
    "frac_ops.half_energy_s": ("total", "frac_ops.half_energy_integral"),
    "frac_ops.rl_right_s": ("total", "frac_ops.rl_derivative_right"),
    "lagrangian.states_s": ("total", "lagrangian.trajectory_states"),
    "lagrangian.action_s": ("total", "lagrangian.action_breakdown"),
    "lagrangian.el_residual_s": ("total", "lagrangian.el_residual"),
    "eqprop.estimate_calls": ("count", "eqprop.estimate_gradient"),
    "eqprop.fd_calls": ("count", "eqprop.fd_gradient"),
    "eqprop.estimate_self_s": ("self_time", "eqprop.estimate_gradient"),
    "eqprop.fd_self_s": ("self_time", "eqprop.fd_gradient"),
    "eqprop.train_self_s": ("self_time", "eqprop.train"),
    "cli.unattributed_s": ("self_time", "cli.main"),
}
_HALF_RATE = ("dynamics.Trajectory.tree_half_velocity", "dynamics.Trajectory.loop_half_charge_rate")
_GRADIENT_CALLS = ("eqprop.estimate_gradient", "eqprop.fd_gradient")


def layer_metrics(trace: dict, probe_trace: dict | None = None) -> tuple:
    """(metrics by name, names of metrics whose wrap target is absent).

    `trace` is the traced CLI run and `probe_trace` the optional probe.
    Values are 0 on a workload where the layer does not run; an absent
    metric is reported as 0 as well.
    """
    s = _Spans(trace["spans"])
    counts = trace["counts"].get("cli", {})
    missing = set(trace["absent"])
    metrics = {}
    for metric, (how, source) in _READINGS.items():
        metrics[metric] = counts.get(source, 0) if how == "counter" else getattr(s, how)(source)
    absent = [m for m, (_, source) in _READINGS.items() if source in missing]

    metrics["dynamics.us_per_step"] = _us_per_step(s)
    metrics["dynamics.half_rate_calls"] = sum(counts.get(c, 0) for c in _HALF_RATE)
    absent += ["dynamics.half_rate_calls"] if missing & set(_HALF_RATE) else []

    probe_us = _us_per_step(_Spans(probe_trace["spans"])) if probe_trace else 0.0
    metrics["dynamics.step_cost_growth"] = metrics["dynamics.us_per_step"] / probe_us if probe_us else 0.0
    absent += ["dynamics.step_cost_growth"] if probe_trace and probe_trace["absent"] else []

    roots = s.outermost(_GRADIENT_CALLS)
    sim = sum(d[3] - d[2] for r in roots for d in s.descendants(r[0]) if d[1] == "dynamics.simulate")
    wall = sum(r[3] - r[2] for r in roots)
    metrics["eqprop.sim_concurrency"] = sim / wall if wall else 0.0

    for m in absent:
        metrics[m] = 0
    return metrics, sorted(absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
