#!/usr/bin/env python3
"""Sweep nudging strength and grid step for the gradient estimator.

For each (beta, dt) pair on the reference network, compares the
two-trajectory estimate against the finite-difference oracle and prints
one CSV row with the cosine similarity, the estimate/oracle scale ratio,
and the per-synapse values.  Quantifies the finite-beta bias and the
discretization sensitivity behind the shipped defaults.

Usage: python scripts/estimator_sweep.py [--netlist netlists/linnet.net]
"""

import argparse
from pathlib import Path

import numpy as np

from fraceq.circuit import parse_netlist
from fraceq.dynamics import DriveSet, SimConfig
from fraceq.eqprop import agreement_metrics, estimates_and_oracle
from fraceq.frac_ops import SampleGrid

BETAS = (1e-2, 1e-3, 1e-4)
DTS = (4e-3, 2e-3, 1e-3)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--netlist", default=str(Path(__file__).resolve().parent.parent / "netlists" / "linnet.net"))
    parser.add_argument("--eps", type=float, default=1e-4)
    parser.add_argument("--t-end", type=float, default=1.0)
    args = parser.parse_args()

    circuit = parse_netlist(Path(args.netlist).read_text())
    drive = DriveSet()

    print("beta,dt,cosine,mean_scale_ratio,estimates")
    nudges = [("nudged beta=%g" % beta, beta) for beta in BETAS]
    for dt in DTS:
        # one batch per dt: the free run, a nudged run per beta, the oracle's runs
        cfg = SimConfig(SampleGrid.from_span(0.0, args.t_end, dt))
        estimates, oracle = estimates_and_oracle(circuit, drive, nudges, args.eps, cfg)
        oracle = np.array(oracle)
        for beta, est in zip(BETAS, estimates):
            m = agreement_metrics(est, tuple(oracle))
            scale = float(np.mean(np.array(est.values) / oracle))
            values = ";".join("%.6g" % v for v in est.values)
            print("%g,%g,%.8f,%.6f,%s" % (beta, dt, m["cosine_similarity"], scale, values))


if __name__ == "__main__":
    main()
