"""fraceq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
input files; each sample runs the `fraceq` CLI on them in a fresh child
process (closed loop: one run at a time) and checks its outputs.  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
The lines before it print every metric with its unit, and the full result,
with its environment block, goes to .perfbench_out/<run>/result.json.
See NOTES.md for the metric definitions and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
# Every child is killed by this many seconds after the start, so that the
# run ends within 180 s even if the program hangs.
DEADLINE_S = 165.0
MIN_SAMPLES = 2  # two untraced samples give the byte-identical repeat check
SETUP_REPS = 9


class Run:
    """Child processes of one benchmark run and the problems they showed."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems = []  # (child label, problem)
        self.env = dict(
            os.environ,
            PYTHONPATH=SRC,
            # one BLAS thread: with fraceq's own pool the process stays
            # within the 2 threads the workloads are defined for
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, label: str, argv: list, cwd: str) -> tuple:
        """Run argv to exit; (exit code, wall s from spawn to exit, peak RSS MiB)."""
        self.attempted += 1
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.start))
        with open(os.path.join(cwd, f"{label}.out"), "wb") as out, open(
            os.path.join(cwd, f"{label}.err"), "wb"
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(os.path.join(cwd, f"{label}.err"), errors="replace") as fh:
                tail = fh.read()[-400:].strip().replace("\n", " | ")
            self.fail(label, f"exit {proc.returncode}: {tail}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def fail(self, label: str, problem: str) -> None:
        self.problems.append((label, problem))

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.problems})

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _data_outputs(out_dir: str) -> dict:
    """sha256 and size of each output file; the manifest records input paths
    and the .out/.err files are the benchmark's own, so both are left out."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith((".manifest", ".out", ".err")) or not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        out[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


class Sampler:
    """Runs the workload's CLI command and checks each run's outputs."""

    def __init__(self, run: Run, workload, cli_args: list):
        self.run = run
        self.workload = workload
        self.cli_args = cli_args
        self.reference = None  # data outputs of the first sample
        self.accuracy = {}
        self.output_bytes = 0

    def sample(self, label: str, prefix: list) -> tuple:
        """Run prefix + the CLI arguments in a fresh directory; (wall s, RSS MiB)."""
        out_dir = os.path.join(self.run.work_dir, label)
        os.makedirs(out_dir)
        code, wall, rss = self.run.spawn(label, prefix + self.cli_args, out_dir)
        if code == 0:
            problems = []
            self.accuracy = self.workload.check(out_dir, problems)
            outputs = _data_outputs(out_dir)
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                problems.append("outputs differ from the first sample of the same seed")
            self.output_bytes = sum(size for _, size in outputs.values())
            for p in problems:
                self.run.fail(label, p)
            if not problems:  # hashed and checked: drop the data, keep the logs
                for name in outputs:
                    os.remove(os.path.join(out_dir, name))
        return wall, rss


def _median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fraceq", "cli.py")):
        print(f"error: no fraceq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the output checks re-parse trained.net

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    in_dir = os.path.join(work_dir, "inputs")
    os.makedirs(in_dir)
    cli_args = workload.write_inputs(random.Random(f"{args.workload}:{args.seed}"), in_dir)

    run = Run(work_dir)
    py = sys.executable

    # set-up: a fresh interpreter imports the CLI and loads the inputs; the
    # first repetitions also warm the page cache for the samples that follow
    setup = []
    setup_dir = os.path.join(work_dir, "setup")
    os.makedirs(setup_dir)
    for k in range(SETUP_REPS):
        code, wall, _ = run.spawn(f"setup{k}", [py, os.path.join(HERE, "setup_probe.py")] + cli_args, setup_dir)
        if code == 0:
            setup.append(wall)

    sampler = Sampler(run, workload, cli_args)
    walls, rss = [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    floor = 1 if args.trace else MIN_SAMPLES
    t0 = time.perf_counter()
    while len(walls) < floor or time.perf_counter() - t0 + statistics.median(walls) <= budget:
        if run.elapsed() > DEADLINE_S - 2 * max(walls, default=0.0):
            break
        w, r = sampler.sample(f"sample{len(walls)}", [py, "-m", "fraceq.cli"])
        walls.append(w)
        rss.append(r)

    wall_s = _median_or_zero(walls)
    if args.trace:
        metrics, absent = _traced(run, sampler, workload, wall_s)
    else:
        metrics, absent = {
            "wall_s": wall_s,
            "setup_s": _median_or_zero(setup),
            "peak_rss_mib": _median_or_zero(rss),
        }, []
    # figures that are not bounded end-to-end metrics (see NOTES.md); they
    # read 0 as per-layer metrics where the workload does not compute them
    quality = dict(sampler.accuracy, error_rate=run.failed / run.attempted)
    computed = dict({"grad_cosine_gap": 0.0, "train_loss_ratio": 0.0}, **quality, **metrics)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "samples_wall_s": walls,
        "samples_peak_rss_mib": rss,
        "setup_reps_s": setup,
        "metrics": reported,
        "quality": quality,
        "absent_metrics": absent,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print("environment " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    print(f"untraced CLI samples {len(walls)}, set-up repetitions {len(setup)}")
    for label, problem in run.problems:
        print(f"FAIL {label}: {problem}")
    for name, m in reported.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in quality.items():
            print(f"{name} {value:.6g} ratio")
    if absent:
        print("absent (wrap target gone, reported as 0): " + ", ".join(absent))
    summary = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed}
    print(json.dumps(dict(summary, metrics=reported)))
    return 0


def _traced(run: Run, sampler: Sampler, workload, untraced_wall_s: float) -> tuple:
    """One traced CLI run, and the step-cost probe where the workload has one."""
    py = sys.executable
    spans_path = os.path.join(run.work_dir, "spans.json")
    traced_wall, _ = sampler.sample("traced", [py, os.path.join(HERE, "tracer.py"), spans_path, "--"])
    probe_trace = None
    if workload.probe_t_end is not None:
        probe_path = os.path.join(run.work_dir, "probe_spans.json")
        probe_dir = os.path.join(run.work_dir, "probe")
        os.makedirs(probe_dir)
        argv = [py, os.path.join(HERE, "tracer.py"), probe_path, "--probe-t-end", repr(workload.probe_t_end), "--"]
        if run.spawn("probe", argv + sampler.cli_args, probe_dir)[0] == 0:
            with open(probe_path) as fh:
                probe_trace = json.load(fh)
    if not os.path.isfile(spans_path):
        run.fail("traced", "no spans written")
        return {}, []
    with open(spans_path) as fh:
        metrics, absent = tracer.layer_metrics(json.load(fh), probe_trace)
    metrics["cli.output_bytes"] = sampler.output_bytes
    metrics["trace.overhead_s"] = traced_wall - untraced_wall_s
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main())
