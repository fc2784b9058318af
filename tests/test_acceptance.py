"""Acceptance gate: ten oracle-backed criteria, one pass/fail line each.

Each test prints a live summary line (bypassing capture) so the suite output
doubles as the acceptance report.  Criterion 1's halving clause is measured
away from the t = 0 boundary layer, where the one-sided fractional stencil
has an irreducible O(sqrt(dt)) startup error; at interior times the error is
O(dt) and halves cleanly.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from csv_compare import assert_same_csv, csv_text
from fraceq.circuit import Circuit, Element, parse_netlist
from fraceq.dynamics import DriveSet, SimConfig, compile, simulate, trajectory_loss
from fraceq.eqprop import (
    TrainConfig,
    agreement_metrics,
    estimate_gradient,
    estimates_and_oracle,
    train,
)
from fraceq.frac_ops import SampleGrid, caputo_left
from fraceq.lagrangian import action_breakdown, branch_quantities, el_residual, half_energies
from fraceq.topology import build_topology

NETLISTS = Path(__file__).resolve().parent.parent / "netlists"
LINNET = (NETLISTS / "linnet.net").read_text()
LC_NET = (NETLISTS / "lc.net").read_text()
RC_NET = (NETLISTS / "rc.net").read_text()


@pytest.fixture
def report(capsys):
    start = time.monotonic()

    def _report(num, ok, detail, budget):
        elapsed = time.monotonic() - start
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} ({elapsed:.2f}s)"
        with capsys.disabled():
            print(line)
        assert ok, line
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget ({elapsed:.2f}s)"

    return _report


def run(net, beta=0.0, drive=None, dt=1e-3, t_end=1.0, **kw):
    grid = SampleGrid.from_span(0.0, t_end, dt)
    return simulate(parse_netlist(net), drive or DriveSet(), beta, SimConfig(grid, **kw))


def branch_voltage(net, traj, name):
    ckt = parse_netlist(net)
    return branch_quantities(ckt, traj).v[ckt.index_of(name)]


def test_criterion_01_fractional_analytic_matrix(report):
    errs_full, errs_interior = [], []
    for dt in (1e-3, 5e-4):
        grid = SampleGrid.from_span(0.0, 1.0, dt)
        t = grid.times()
        got = caputo_left(t, dt, 0.5)
        err = np.abs(got - 2 * np.sqrt(t / np.pi))
        errs_full.append(np.max(err))
        errs_interior.append(np.max(err[t >= 0.05]))
    ratio = errs_interior[0] / errs_interior[1]
    ok = errs_full[0] <= 2e-2 and 2.0 * 0.8 <= ratio <= 2.0 * 1.2
    report(1, ok, f"max err {errs_full[0]:.2e} (tol 2e-2), interior halving ratio {ratio:.2f}", 1.0)


def test_criterion_02_half_derivative_composition(report):
    errs = []
    for dt in (1e-3, 5e-4):
        grid = SampleGrid.from_span(0.0, 1.0, dt)
        t = grid.times()
        got = caputo_left(caputo_left(t**2, dt, 0.5), dt, 0.5)
        interior = slice(1, None)
        errs.append(np.max(np.abs(got[interior] - 2 * t[interior])))
    ok = errs[0] <= 5e-2 and errs[1] < errs[0]
    report(2, ok, f"interior err {errs[0]:.2e} (tol 5e-2), refined {errs[1]:.2e}", 1.0)


def _random_circuit(rng):
    n_nodes = int(rng.integers(2, 13))
    nodes = ["0"] + [f"n{i}" for i in range(1, n_nodes)]
    elements = []
    for i, node in enumerate(nodes[1:]):
        other = nodes[int(rng.integers(0, i + 1))]
        elements.append(Element("R", f"t{i}", node, other, g=1.0))
    for j in range(int(rng.integers(0, 31 - len(elements)))):
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        kind = ("R", "C", "L")[int(rng.integers(0, 3))]
        kw = {"R": dict(g=1.0), "C": dict(c=1.0), "L": dict(l=1.0)}[kind]
        elements.append(Element(kind, f"x{j}", nodes[a], nodes[b], **kw))
    return Circuit(tuple(elements))


def test_criterion_03_topology_exactness(report):
    rng = np.random.default_rng(2026)
    worst = 0
    for _ in range(100):
        ckt = _random_circuit(rng)
        m = build_topology(ckt)
        prod = m.Q @ m.B.T
        assert prod.dtype.kind == "i"
        worst = max(worst, int(np.max(np.abs(prod))) if prod.size else 0)
    report(3, worst == 0, f"max |Q B^T| entry {worst} over 100 random circuits", 5.0)


def test_criterion_04_simulation_oracles(report):
    traj = run(RC_NET, t_end=5.0)
    t = traj.grid.times()
    vc = branch_voltage(RC_NET, traj, "c1")
    rc_err = np.max(np.abs(vc[1:] - (1 - np.exp(-t[1:]))))

    lc = run(LC_NET, t_end=10.0)
    v = branch_voltage(LC_NET, lc, "c1")
    crossings = lc.grid.times()[2:][np.diff(np.signbit(v[1:]).astype(int)) != 0]
    period = 2 * np.mean(np.diff(crossings))
    period_err = abs(period - 2 * np.pi) / (2 * np.pi)
    ok = rc_err <= 5e-3 and period_err <= 0.01
    report(4, ok, f"RC err {rc_err:.2e} (tol 5e-3), LC period err {period_err:.2%} (tol 1%)", 5.0)


def test_criterion_05_linear_memristor_reduction(report):
    dt = 1e-3
    resistor = run(LINNET, beta=1e-3, dt=dt)
    mem_net = LINNET.replace("R s2 in2 out g=0.25 trainable", "M s2 in2 out f=linear(0.25)")
    memristor = run(mem_net, beta=1e-3, dt=dt)
    dev = max(
        np.max(np.abs(resistor.tree_flux - memristor.tree_flux)),
        np.max(np.abs(resistor.loop_charge - memristor.loop_charge)),
        np.max(np.abs(resistor.outputs - memristor.outputs)),
    )
    report(5, dev <= 10 * dt, f"max trajectory deviation {dev:.2e} (tol {10 * dt:.0e})", 10.0)


def test_criterion_06_euler_lagrange_residual(report):
    ckt = parse_netlist(LC_NET)
    maxima = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = run(LC_NET, dt=dt, t_end=10.0)
        res = el_residual(ckt, traj)["c1"]
        t = traj.grid.times()
        maxima.append(np.max(np.abs(res[(t > 0.1) & (t < 9.9)])))
    ok = maxima[0] > maxima[1] > maxima[2]
    report(6, ok, "interior residual maxima " + " > ".join(f"{m:.2e}" for m in maxima), 30.0)


def test_criterion_07_explicit_partial_consistency(report):
    beta, eps = 1e-3, 1e-5
    ckt = parse_netlist(LINNET)
    traj = run(LINNET, beta=beta)
    # the action is the sum of its parts; its explicit partials are -C J in
    # beta and j/2 times the branch's half-derivative energy in g_l
    up, dn = (sum(action_breakdown(ckt, replace(traj, beta=b)).values()) for b in (beta + eps, beta - eps))
    db = (up - dn) / (2 * eps)
    rel_beta = abs(db.real - -ckt.loss_capacitance * trajectory_loss(traj)) / abs(db.real)
    rel_g = 0.0
    for l in ckt.trainables:
        name = ckt.elements[l].name
        g = ckt.elements[l].g
        up, dn = (sum(action_breakdown(ckt.with_conductances({name: gg}), traj).values()) for gg in (g + eps, g - eps))
        dg = (up - dn) / (2 * eps)
        ref = 0.5j * half_energies(ckt, traj, [l])[0]
        rel_g = max(rel_g, abs(dg.imag - ref.imag) / abs(ref.imag))
    ok = rel_beta <= 1e-6 and rel_g <= 1e-6
    report(7, ok, f"beta rel err {rel_beta:.2e}, worst g rel err {rel_g:.2e} (tol 1e-6)", 10.0)


def test_criterion_08_estimator_vs_oracle(report):
    # the estimator's sign is fixed, not calibrated per run: a flipped sign fails here
    ckt = parse_netlist(LINNET)
    cfg = SimConfig(SampleGrid.from_span(0.0, 1.0, 1e-3))
    system = compile(ckt)
    est = estimate_gradient(system, system.g, DriveSet(), 1e-3, cfg)
    oracle = estimates_and_oracle(ckt, DriveSet(), [], 1e-4, cfg)[1]
    m = agreement_metrics(est, oracle)
    ok = m["sign_match"] and m["cosine_similarity"] >= 0.9
    report(
        8,
        ok,
        f"sign_match={m['sign_match']}, cosine={m['cosine_similarity']:.7f} (>=0.9) at the fixed sign",
        60.0,
    )


def test_criterion_09_end_to_end_learning(report):
    from fraceq.cli import parse_train_config

    ckt = parse_netlist(LINNET)
    config = parse_train_config((NETLISTS / "train.cfg").read_text(), ckt)
    assert config.learning_rate == 0.05 and config.beta == 1e-3 and config.epochs == 50
    _, log = train(ckt, config)
    losses = log.losses_by_epoch()
    decreasing = all(a > b for a, b in zip(losses[:10], losses[1:10]))
    final_ratio = losses[49] / losses[0]
    ok = decreasing and final_ratio <= 0.5
    report(
        9,
        ok,
        f"first 10 epochs strictly decreasing={decreasing}, "
        f"loss[49]/loss[0]={final_ratio:.3f} (<=0.5)",
        300.0,
    )


def test_criterion_10_determinism(report):
    trajs = [csv_text(run(LINNET, beta=1e-3, t_end=0.5)) for _ in range(2)]
    from fraceq.cli import parse_train_config

    ckt = parse_netlist(LINNET)
    cfg_text = (NETLISTS / "train.cfg").read_text().replace("epochs=50", "epochs=3")
    logs = [csv_text(train(ckt, parse_train_config(cfg_text, ckt))[1]) for _ in range(2)]
    # each fails naming the first line that differs
    assert_same_csv(trajs[0], trajs[1])
    assert_same_csv(logs[0], logs[1])
    report(10, True, "trajectory and training CSVs byte-identical across reruns", 120.0)
