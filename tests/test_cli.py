import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csv_compare import assert_same_csv, csv_text
import fraceq
from fraceq import circuit, cli, dynamics, eqprop
from fraceq.cli import main, parse_train_config
from fraceq.circuit import parse_netlist
from fraceq.dynamics import DriveSet, SimConfig, simulate
from fraceq.eqprop import TrainingLog, agreement_metrics, estimates_and_oracle
from fraceq.frac_ops import SampleGrid
from fraceq.lagrangian import action_breakdown, el_residual
from fraceq.topology import build_topology

RC_NET = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"

LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=1.0 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""
TANH_M = LINNET.replace("R s3 out 0 g=0.5 trainable", "M s3 out 0 f=tanh(0.5,1.0)")
LC_NET = "C c1 n1 0 c=1\nL l1 n1 0 l=1\nI isrc 0 n1 w=step(1,0)\n"

# a cubic memristor law has zero slope at the origin, and at beta = 0 the
# output capacitor adds none: once the current step turns on at t = 0.5, the
# Newton step's Jacobian is singular
SINGULAR = "I i1 0 n1 w=step(1,0.5)\nM m1 n1 0 f=poly(0,0,0,1)\nOC oc1 n1 0 cap=1.0 w=const(0.1)\n"

TRAIN_CFG = """\
epochs=3
learning_rate=0.05
beta=0.001
dt=0.004
t_end=1.0
seed=1
example v1=const(1.0) v2=const(0.5) oc1=const(0.4)
example v1=const(0.8) v2=const(0.3) oc1=const(0.3)
"""


def run(net, beta=0.0, t_end=1.0, dt=1e-3):
    """The trajectory `simulate` writes for a netlist text and these flags."""
    return simulate(parse_netlist(net), DriveSet(), beta, SimConfig(SampleGrid.from_span(0.0, t_end, dt)))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",")
    return header, np.atleast_2d(data)


@pytest.fixture
def rc_net(tmp_path):
    p = tmp_path / "rc.net"
    p.write_text(RC_NET)
    return str(p)


@pytest.fixture
def linnet_path(tmp_path):
    p = tmp_path / "linnet.net"
    p.write_text(LINNET)
    return str(p)


class TestSimulate:
    def test_rc_step_response(self, rc_net, tmp_path):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", rc_net, "--dt", "1e-3", "--t-end", "5", "--out", out])
        assert code == 0
        header, data = read_csv(out)
        t = data[:, header.index("t")]
        vc = data[:, header.index("coord_c1_v")]
        k = int(np.argmin(np.abs(t - 1.0)))
        assert vc[k] == pytest.approx(1 - np.exp(-1), abs=5e-3)

    def test_long_linear_run_exit_0(self, rc_net, tmp_path):
        # by t = 20 the capacitor's flux is near 19: one ulp of it, divided
        # by dt^2, is above the step tolerance, so the step check must not
        # be built from differences of the stored fluxes
        assert main(["simulate", rc_net, "--t-end", "20", "--out", str(tmp_path / "traj.csv")]) == 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "nope.net")])
        assert code == 2
        assert "nope.net" in capsys.readouterr().err

    def test_parse_error_exit_2_with_line(self, tmp_path, capsys):
        p = tmp_path / "bad.net"
        p.write_text("R r1 a 0 g=1\nX bogus a 0\n")
        code = main(["simulate", str(p)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_overflowing_law_exit_3(self, tmp_path, capsys):
        # the cubic capacitor law overflows in the first Newton step
        p = tmp_path / "poly.net"
        p.write_text("V vin 1 0 w=step(1e200,0)\nR r1 1 2 g=1\nC c1 2 0 f=poly(0,1,0,1)\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["simulate", str(p), "--dt", "1e-2", "--out", str(tmp_path / "traj.csv")])
        assert code == 3
        assert "Newton iteration diverged at t=0.01, residual=nan" in capsys.readouterr().err
        assert not (tmp_path / "traj.manifest").exists()

    def test_numpy_warnings_stay_off_stderr(self, tmp_path):
        # the cubic law overflows in Newton: unless main silences numpy, its
        # RuntimeWarnings reach stderr before the diagnostic.  Run as a user
        # runs it, since pytest turns warnings into errors
        p = tmp_path / "poly.net"
        p.write_text("V vin 1 0 w=step(1e200,0)\nR r1 1 2 g=1\nC c1 2 0 f=poly(0,1,0,1)\n")
        src = os.path.dirname(os.path.dirname(fraceq.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "fraceq.cli", "simulate", str(p), "--dt", "1e-2", "--out", str(tmp_path / "p.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 3
        assert done.stderr.splitlines() == ["simulation failure: Newton iteration diverged at t=0.01, residual=nan"]
        assert sorted(os.listdir(tmp_path)) == ["poly.net"]

    def test_non_finite_action_exit_3_and_writes_nothing(self, tmp_path, capsys):
        # the trajectory is finite, but phi^2 / 2L overflows in the inductive action
        p = tmp_path / "sine.net"
        p.write_text("V vin 1 0 w=sine(1e200,1e8,0)\nR r1 1 2 g=1\nL l1 2 0 f=linear(1e-300)\n")
        argv = ["simulate", str(p), "--dump-action", "--dt", "1e-2", "--t-end", "0.5", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {tmp_path / 's_action.csv'}: row action_inductive, column real is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["sine.net"]

    @pytest.mark.parametrize("flags", [[], ["--dump-action"]], ids=["trajectory", "dump-action"])
    def test_overflowing_half_rate_names_its_column_and_time(self, tmp_path, capsys, flags):
        # the flux reaches 1e306: finite, but its half-derivative's FFT
        # overflows, in the trajectory's psi column and in the action alike
        p = tmp_path / "big.net"
        p.write_text("I isrc 0 1 w=step(1,0)\nR r1 1 0 g=1e-306\n")
        out = tmp_path / "big.csv"
        assert main(["simulate", str(p), "--out", str(out), *flags]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {out}: row t=0, column coord_r1_psi is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["big.net"]

    def test_non_finite_trajectory_names_column_and_time(self, rc_net, tmp_path, capsys, monkeypatch):
        # a trajectory cell is refused as an action row is, before any file is written
        table = cli._trajectory_table

        def with_inf(traj, path):
            path, header, columns, labels = table(traj, path)
            k = header.index("coord_c1_v")
            columns[k] = columns[k].copy()
            columns[k][3] = np.inf
            return path, header, columns, labels

        monkeypatch.setattr(cli, "_trajectory_table", with_inf)
        out = tmp_path / "traj.csv"
        assert main(["simulate", rc_net, "--t-end", "0.1", "--dump-action", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {out}: row t=0.0030000000000000001, column coord_c1_v is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["rc.net"]

    def test_singular_jacobian_exit_3_with_time(self, tmp_path, capsys):
        p = tmp_path / "singular.net"
        p.write_text(SINGULAR)
        code = main(["simulate", str(p), "--out", str(tmp_path / "traj.csv")])
        assert code == 3
        assert "Newton iteration diverged at t=0.5," in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["singular.net"]

    def test_failed_csv_write_leaves_no_output(self, rc_net, tmp_path, capsys, monkeypatch):
        # the disk fills after the header and the first chunk of rows
        def first_chunk_then_full(*table):
            yield from itertools.islice(csv_chunks(*table), 2)
            raise OSError(28, "No space left on device")

        csv_chunks = cli._csv_chunks
        monkeypatch.setattr(cli, "_csv_chunks", first_chunk_then_full)
        out = tmp_path / "traj.csv"
        assert main(["simulate", rc_net, "--dt", "1e-3", "--t-end", "5", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["rc.net"]

    @pytest.mark.parametrize(
        "net, token",
        [
            (RC_NET.replace("g=1", "g=nan"), "g=nan"),
            (RC_NET.replace("g=1", "g=inf"), "g=inf"),
            (RC_NET.replace("c=1", "c=inf"), "c=inf"),
            (RC_NET.replace("step(1,0)", "const(nan)"), "w=const(nan)"),
            (RC_NET.replace("c=1", "f=linear(nan)"), "f=linear(nan)"),
            (LINNET.replace("cap=1.0", "cap=nan"), "cap=nan"),
            (LINNET.replace("const(0.4)", "sine(0.4,-inf,0)"), "w=sine(0.4,-inf,0)"),
            (RC_NET.replace("g=1", "g=1 foo=2"), "foo=2"),
            (RC_NET.replace("c=1", "f=linear(0)"), "f=linear(0)"),
            (TANH_M.replace("tanh(0.5,1.0)", "tanh(1,0)"), "f=tanh(1,0)"),
            (RC_NET.replace("g=1", "g=1 g=1000"), "g=1000"),
            (RC_NET.replace("g=1", "xg=x g=x"), "g=x"),
        ],
        ids=[
            "g-nan", "g-inf", "c-inf", "w-nan", "f-nan", "cap-nan", "w-minus-inf", "foo", "slope-0", "scale-0",
            "repeated-key", "key-inside-earlier-token",
        ],
    )
    def test_bad_parameter_exit_2_with_location(self, tmp_path, capsys, net, token):
        p = tmp_path / "bad.net"
        p.write_text(net)
        assert main(["simulate", str(p), "--out", str(tmp_path / "traj.csv")]) == 2
        line = next(n for n, text in enumerate(net.splitlines(), start=1) if token in text)
        # the token's last occurrence: a repeated key is refused at its second,
        # and in "xg=x g=x" the value of g= stands after the text inside xg=x
        col = net.splitlines()[line - 1].rindex(token) + 1
        assert f"line {line}, col {col}:" in capsys.readouterr().err
        assert not (tmp_path / "traj.csv").exists()

    def test_unknown_constitutive_family_exit_2_with_location(self, tmp_path, capsys):
        p = tmp_path / "bad.net"
        p.write_text("V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 f=cubic(1,2)\n")
        assert main(["simulate", str(p), "--out", str(tmp_path / "traj.csv")]) == 2
        err = capsys.readouterr().err
        assert "line 3, col 10:" in err and "unknown constitutive family 'cubic'" in err

    def test_dump_topology_orthogonal(self, rc_net, tmp_path):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", rc_net, "--t-end", "0.1", "--out", out, "--dump-topology"])
        assert code == 0
        _, Q = read_csv(str(tmp_path / "traj_Q.csv"))
        _, B = read_csv(str(tmp_path / "traj_B.csv"))
        assert np.all(Q @ B.T == 0)

    def test_dump_action_has_parts(self, rc_net, tmp_path):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", rc_net, "--t-end", "0.5", "--out", out, "--dump-action"])
        assert code == 0
        text = (tmp_path / "traj_action.csv").read_text()
        assert "action_total" in text and "el_residual_max_c1" in text

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path, capsys):
        # the rerun replaces r.csv, then fails to write r_Q.csv: the manifest
        # of the first run would list a file the second run replaced
        net = tmp_path / "rc.net"
        net.write_text(RC_NET)
        argv = ["simulate", str(net), "--dump-topology", "--out", str(tmp_path / "r.csv")]
        assert main(argv + ["--t-end", "1"]) == 0
        assert (tmp_path / "r.manifest").exists()
        (tmp_path / "r_Q.csv.tmp").mkdir()
        assert main(argv + ["--t-end", "2"]) == 2
        assert "r_Q.csv.tmp" in capsys.readouterr().err
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 2002
        assert not (tmp_path / "r.manifest").exists()

    def test_manifest_hash_and_reproducibility(self, rc_net, tmp_path):
        out = str(tmp_path / "traj.csv")
        argv = ["simulate", rc_net, "--t-end", "0.5", "--out", out]
        assert main(argv) == 0
        first = open(out, "rb").read()
        manifest = (tmp_path / "traj.manifest").read_text()
        digest = hashlib.sha256(open(rc_net, "rb").read()).hexdigest()
        assert f"netlist_sha256={digest}" in manifest
        assert main(argv) == 0
        assert open(out, "rb").read() == first

    def test_out_named_as_its_manifest_exit_2(self, rc_net, tmp_path, capsys):
        # the trajectory would be x.manifest, and then its own manifest
        out = tmp_path / "x.manifest"
        for before in (None, b"kept\n"):
            if before is not None:
                out.write_bytes(before)
            assert main(["simulate", rc_net, "--t-end", "0.1", "--dump-action", "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {out}: named twice among this run's files, its manifest included"]
            assert sorted(os.listdir(tmp_path)) == ["rc.net"] + ["x.manifest"] * (before is not None)
        assert out.read_bytes() == b"kept\n"


class TestGradcheck:
    def test_reference_network_report(self, linnet_path, tmp_path):
        out = str(tmp_path / "gc.csv")
        code = main(["gradcheck", linnet_path, "--dt", "2e-3", "--out", out])
        assert code == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        data = np.array([[float(x) for x in row[1:]] for row in rows])
        header = header[1:]
        assert np.all(data[:, header.index("sign_match")] == 1)
        # report re-computable from the raw half-energy columns
        beta, cap = 1e-3, 1.0
        e_n = data[:, header.index("e_nudged")]
        e_f = data[:, header.index("e_free")]
        est = data[:, header.index("estimate")]
        assert np.allclose(est, (e_n - e_f) / (2 * cap * beta), rtol=1e-12)
        summary = (tmp_path / "gc_summary.csv").read_text()
        assert "cosine_similarity," in summary

    def test_one_free_run_for_both_estimates(self, linnet_path, tmp_path, monkeypatch):
        batches = []
        stepped = eqprop.simulate_batch

        def recording(system, drive, cfg, members):
            batches.append([m.label for m in members])
            return stepped(system, drive, cfg, members)

        monkeypatch.setattr(eqprop, "simulate_batch", recording)
        assert main(["gradcheck", linnet_path, "--dt", "4e-3", "--out", str(tmp_path / "gc.csv")]) == 0
        # the estimates and the oracle step as one batch, in this order
        fd = [f"fd {s}{sign}" for s in ("s1", "s2", "s3") for sign in "+-"]
        assert batches == [["free", "nudged", "nudged beta/2", *fd]]

    @pytest.mark.parametrize(
        "eps, message",
        [
            ("0", "error: --eps: eps must be positive and finite, got 0.0"),
            ("0.5", "error: --eps: eps 0.5 would drive conductance 0.25 non-positive"),
        ],
    )
    def test_bad_eps_exit_2_before_any_run(self, linnet_path, tmp_path, capsys, monkeypatch, eps, message):
        def stepping(*args):
            raise AssertionError("a run was stepped")

        monkeypatch.setattr(eqprop, "simulate_batch", stepping)
        assert main(["gradcheck", linnet_path, "--eps", eps, "--out", str(tmp_path / "gc.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gc.csv").exists()

    def test_sign_is_no_flag(self, linnet_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", linnet_path, "--sign", "1", "--out", str(tmp_path / "gc.csv")])
        assert info.value.code == 2
        assert "unrecognized arguments: --sign 1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

    def test_beta_zero_exit_2(self, linnet_path, capsys):
        assert main(["gradcheck", linnet_path, "--beta", "0"]) == 2
        assert "beta" in capsys.readouterr().err

    def test_newton_divergence_exit_3_names_phase(self, tmp_path, capsys, monkeypatch):
        net = tmp_path / "tanh.net"
        net.write_text(TANH_M)
        monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
        code = main(["gradcheck", str(net), "--dt", "2e-3", "--out", str(tmp_path / "gc.csv")])
        assert code == 3
        assert "Newton iteration diverged at t=0.002 (free phase)" in capsys.readouterr().err
        assert not (tmp_path / "gc.manifest").exists()

    def test_non_finite_cell_names_file_row_and_column(self, linnet_path, tmp_path, capsys, monkeypatch):
        # both CSVs are checked before either is written
        table = cli._gradcheck_table

        def with_inf(est, oracle):
            header, columns, labels = table(est, oracle)
            k = header.index("ratio") - 1  # the label column has no values
            columns[k] = list(columns[k])
            columns[k][1] = math.inf
            return header, columns, labels

        monkeypatch.setattr(cli, "_gradcheck_table", with_inf)
        out = tmp_path / "gc.csv"
        assert main(["gradcheck", linnet_path, "--dt", "4e-3", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {out}: row s2, column ratio is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

    def test_out_named_as_its_manifest_exit_2(self, linnet_path, tmp_path, capsys):
        # the estimate table would be g.manifest, and then its own manifest
        out = tmp_path / "g.manifest"
        for before in (None, b"kept\n"):
            if before is not None:
                out.write_bytes(before)
            assert main(["gradcheck", linnet_path, "--dt", "4e-3", "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {out}: named twice among this run's files, its manifest included"]
            assert sorted(os.listdir(tmp_path)) == ["g.manifest"] * (before is not None) + ["linnet.net"]
        assert out.read_bytes() == b"kept\n"

    def test_unequal_output_caps_exit_2(self, tmp_path, capsys):
        net = tmp_path / "two.net"
        net.write_text(LINNET + "R s4 out out2 g=0.5 trainable\nOC oc2 out2 0 cap=5.0 w=const(0.2)\n")
        assert main(["gradcheck", str(net), "--out", str(tmp_path / "gc.csv")]) == 2
        err = capsys.readouterr().err
        assert "oc1=1" in err and "oc2=5" in err

    @pytest.mark.parametrize(
        "net, expected",
        [
            (
                LINNET.replace("w=const(1.0)", "w=sine(1,2,0)"),
                "gradcheck gate missed: cosine=0.736825 (needs >= 0.9 and every sign matching), "
                "first sign mismatch at s3",
            ),
            (
                LINNET + "C cx out 0 c=1.0\n",
                "gradcheck gate missed: cosine=0.707431 (needs >= 0.9 and every sign matching)\n",
            ),
        ],
        ids=["sine-drive", "1F-output-cap"],
    )
    def test_missed_gate_exit_3_after_writing_outputs(self, tmp_path, capsys, net, expected):
        path = tmp_path / "tv.net"
        path.write_text(net)
        assert main(["gradcheck", str(path), "--out", str(tmp_path / "gc.csv")]) == 3
        assert expected in capsys.readouterr().err
        assert len((tmp_path / "gc.csv").read_text().splitlines()) == 4
        assert "cosine_similarity," in (tmp_path / "gc_summary.csv").read_text()
        assert "outputs=" in (tmp_path / "gc.manifest").read_text()


class TestTrain:
    def _run(self, linnet_path, tmp_path, cfg_text, out_name):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(cfg_text)
        out_dir = str(tmp_path / out_name)
        code = main(["train", linnet_path, str(cfg), "--out-dir", out_dir])
        return code, out_dir

    def test_loss_decreases_and_outputs_written(self, linnet_path, tmp_path):
        code, out_dir = self._run(linnet_path, tmp_path, TRAIN_CFG, "run")
        assert code == 0
        header, data = read_csv(os.path.join(out_dir, "train_log.csv"))
        assert header[:4] == ["epoch", "example", "J", "grad_norm"]
        by_epoch = [data[data[:, 0] == ep, 2].mean() for ep in (0, 1, 2)]
        assert by_epoch[0] > by_epoch[1] > by_epoch[2]
        assert os.path.exists(os.path.join(out_dir, "trained.net"))

    def test_zero_learning_rate_identity(self, linnet_path, tmp_path):
        cfg_text = TRAIN_CFG.replace("learning_rate=0.05", "learning_rate=0.0")
        code, out_dir = self._run(linnet_path, tmp_path, cfg_text, "run0")
        assert code == 0
        from fraceq.circuit import serialize

        trained = open(os.path.join(out_dir, "trained.net")).read()
        assert trained == serialize(parse_netlist(LINNET))

    def test_seed_determinism(self, linnet_path, tmp_path):
        _, a = self._run(linnet_path, tmp_path, TRAIN_CFG, "runA")
        _, b = self._run(linnet_path, tmp_path, TRAIN_CFG, "runB")
        log_a = open(os.path.join(a, "train_log.csv"), "rb").read()
        log_b = open(os.path.join(b, "train_log.csv"), "rb").read()
        assert log_a == log_b

    def test_bad_config_exit_2(self, linnet_path, tmp_path, capsys):
        code, _ = self._run(linnet_path, tmp_path, "epochs=3\nbogus_key=1\nlearning_rate=0.1\nbeta=1e-3\n", "runX")
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_example_element_exit_2(self, linnet_path, tmp_path, capsys):
        cfg_text = TRAIN_CFG.replace("example v1=const(0.8)", "example vx=const(0.8)")
        code, _ = self._run(linnet_path, tmp_path, cfg_text, "runU")
        assert code == 2
        assert "config line 8, col 9: unknown element 'vx'" in capsys.readouterr().err

    def test_non_finite_example_exit_2_with_location(self, linnet_path, tmp_path, capsys):
        cfg_text = TRAIN_CFG.replace("example v1=const(0.8)", "example v1=const(inf)")
        code, _ = self._run(linnet_path, tmp_path, cfg_text, "runF")
        assert code == 2
        assert "config line 8, col 9: v1: non-finite argument in 'const(inf)'" in capsys.readouterr().err

    def test_non_finite_log_cell_names_file_row_and_column(self, linnet_path, tmp_path, capsys, monkeypatch):
        table = cli._log_table

        def with_nan(log, path):
            path, header, columns, labels = table(log, path)
            columns = columns.copy()
            columns[header.index("J"), 2] = np.nan  # epoch 1, the first of its two records
            return path, header, columns, labels

        monkeypatch.setattr(cli, "_log_table", with_nan)
        code, out_dir = self._run(linnet_path, tmp_path, TRAIN_CFG, "runI")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {os.path.join(out_dir, 'train_log.csv')}: row epoch=1 example=0, column J is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["linnet.net", "train.cfg"]

    def test_non_finite_conductance_names_the_trained_net(self, linnet_path, tmp_path, capsys, monkeypatch):
        def nan_s2(circuit, config):
            trained, log = eqprop.train(circuit, config)
            return trained.with_conductances({"s2": math.nan}), log

        monkeypatch.setattr(cli, "train", nan_s2)
        code, out_dir = self._run(linnet_path, tmp_path, TRAIN_CFG, "runG")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"simulation failure: {os.path.join(out_dir, 'trained.net')}: row s2, column g is not finite"]
        assert sorted(os.listdir(tmp_path)) == ["linnet.net", "train.cfg"]

    def test_non_finite_partial_log_is_not_written(self, linnet_path, tmp_path, capsys, monkeypatch):
        # the third estimate (epoch 1) fails; the two records of epoch 0 hold an inf
        estimate = eqprop.estimate_gradient
        calls = []

        def third_fails(*args):
            calls.append(1)
            if len(calls) == 3:
                raise dynamics.NewtonDivergenceError(0.5, 1.0, "free")
            return estimate(*args)

        table = cli._log_table

        def with_inf(log, path):
            path, header, columns, labels = table(log, path)
            columns = columns.copy()
            columns[header.index("grad_norm"), 1] = np.inf
            return path, header, columns, labels

        monkeypatch.setattr(eqprop, "estimate_gradient", third_fails)
        monkeypatch.setattr(cli, "_log_table", with_inf)
        code, out_dir = self._run(linnet_path, tmp_path, TRAIN_CFG, "runP")
        assert code == 3
        (err,) = capsys.readouterr().err.splitlines()
        log_path = os.path.join(out_dir, "train_log.csv")
        assert err.startswith("simulation failure: epoch 1, example ")
        assert err.endswith(f"; partial log not written: {log_path}: row epoch=0 example=1, column grad_norm is not finite")
        assert sorted(os.listdir(tmp_path)) == ["linnet.net", "train.cfg"]

    def test_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        # a synapse named with a non-ASCII letter, run as a user whose locale
        # is C runs it: every output is UTF-8, as every input must be
        net = tmp_path / "mu.net"
        net.write_text(LINNET.replace("s1", "s\u00b5"), encoding="utf-8")
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CFG)
        src = os.path.dirname(os.path.dirname(fraceq.__file__))
        env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        for argv in (
            ["gradcheck", str(net), "--dt", "4e-3", "--out", str(tmp_path / "gc.csv")],
            ["train", str(net), str(cfg), "--out-dir", str(tmp_path / "run")],
        ):
            done = subprocess.run([sys.executable, "-m", "fraceq.cli", *argv], capture_output=True, env=env)
            assert (done.returncode, done.stderr) == (0, b"")
        assert "\ns\u00b5," in (tmp_path / "gc.csv").read_text(encoding="utf-8")
        trained = parse_netlist((tmp_path / "run" / "trained.net").read_text(encoding="utf-8"))
        assert [e.name for e in trained.elements if e.trainable] == ["s\u00b5", "s2", "s3"]

    def test_partial_log_flush_removes_the_manifest(self, linnet_path, tmp_path, capsys, monkeypatch):
        # the rerun's partial log replaces the train_log.csv that the first run's manifest lists
        code, out_dir = self._run(linnet_path, tmp_path, TRAIN_CFG, "run")
        assert code == 0 and os.path.exists(os.path.join(out_dir, "train.manifest"))

        def failing(*args):
            raise dynamics.NewtonDivergenceError(0.5, 1.0, "free")

        monkeypatch.setattr(eqprop, "estimate_gradient", failing)
        assert self._run(linnet_path, tmp_path, TRAIN_CFG, "run")[0] == 3
        assert "partial log flushed to" in capsys.readouterr().err
        assert sorted(os.listdir(out_dir)) == ["train_log.csv", "trained.net"]

    def test_targets_from_every_example(self, tmp_path):
        # the netlist gives oc1 no target; every example of TRAIN_CFG does
        net = tmp_path / "no_target.net"
        net.write_text(NO_TARGET)
        code, out_dir = self._run(str(net), tmp_path, TRAIN_CFG, "runT")
        assert code == 0
        _, data = read_csv(os.path.join(out_dir, "train_log.csv"))
        assert len(data) == 6

    def test_example_without_target_exit_2_names_its_line(self, tmp_path, capsys, monkeypatch):
        def stepping(*args):
            raise AssertionError("a run was stepped")

        monkeypatch.setattr(eqprop, "simulate_batch", stepping)
        net = tmp_path / "no_target.net"
        net.write_text(NO_TARGET)
        cfg_text = TRAIN_CFG.replace(" oc1=const(0.3)", "")
        code, out_dir = self._run(str(net), tmp_path, cfg_text, "runM")
        assert code == 2
        message = "config line 8: missing-target: output capacitor oc1 has no target waveform"
        assert capsys.readouterr().err == f"error: {tmp_path / 'train.cfg'}: {message}\n"
        assert not os.path.exists(out_dir)

    def test_newton_divergence_exit_3_names_phase_and_example(self, tmp_path, capsys, monkeypatch):
        # a linear circuit runs no Newton pass; one pass cannot solve a tanh law
        net = tmp_path / "tanh.net"
        net.write_text(TANH_M)
        monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
        code, out_dir = self._run(str(net), tmp_path, TRAIN_CFG, "runN")
        assert code == 3
        err = capsys.readouterr().err
        assert "failure: epoch 0, example" in err
        assert "(free phase)" in err
        assert os.path.exists(os.path.join(out_dir, "train_log.csv"))
        # one stderr line names the epoch and the example once each, and where the log went
        assert err.count("\n") == 1
        assert len(re.findall(r"epoch \d", err)) == 1 and len(re.findall(r"example \d", err)) == 1
        assert err.endswith(f"; partial log flushed to {os.path.join(out_dir, 'train_log.csv')}\n")
        assert not os.path.exists(os.path.join(out_dir, "train.manifest"))


# nets the estimator cannot use: no output cap to divide by, or caps of two values
NO_OUTPUT_CAP = LINNET.replace("OC oc1 out 0 cap=1.0 w=const(0.4)\n", "")
UNEQUAL_CAPS = LINNET + "R s4 out out2 g=0.5 trainable\nOC oc2 out2 0 cap=5.0 w=const(0.2)\n"
UNEQUAL_CAPS_MESSAGE = "unequal-output-caps: output capacitors need one common cap, got oc1=1, oc2=5"
NO_TARGET = LINNET.replace(" w=const(0.4)", "")
V_LOOP = LINNET + "V v3 in1 0 w=const(2.0)\n"
ALL_COMMANDS = ("simulate", "gradcheck", "train")


class TestEstimatorNetlist:
    CASES = pytest.mark.parametrize(
        "net, message",
        [
            (NO_OUTPUT_CAP, "no-outputs: circuit has no output capacitors"),
            (UNEQUAL_CAPS, UNEQUAL_CAPS_MESSAGE),
        ],
        ids=["no-output-cap", "unequal-caps"],
    )

    @staticmethod
    def no_runs(monkeypatch):
        def stepping(*args):
            raise AssertionError("a run was stepped")

        monkeypatch.setattr(eqprop, "simulate_batch", stepping)

    @CASES
    def test_train_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch, net, message):
        self.no_runs(monkeypatch)
        (tmp_path / "bad.net").write_text(net)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(re.sub(r" oc1=const\([0-9.]+\)", "", TRAIN_CFG) if net is NO_OUTPUT_CAP else TRAIN_CFG)
        out_dir = tmp_path / "run"
        assert main(["train", str(tmp_path / "bad.net"), str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.net'}: {message}\n"
        assert not out_dir.exists()

    @CASES
    def test_gradcheck_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch, net, message):
        self.no_runs(monkeypatch)
        (tmp_path / "bad.net").write_text(net)
        assert main(["gradcheck", str(tmp_path / "bad.net"), "--out", str(tmp_path / "gc.csv")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.net'}: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.net"]


class TestAtomicWrite:
    @staticmethod
    def failing_chunks():
        yield "a,b\n"
        yield "1,2\n"
        raise RuntimeError("formatter failed")

    def test_chunks_written_in_order(self, tmp_path):
        path = tmp_path / "out.csv"
        cli._atomic_write(str(path), iter(["a,b\n", "1,2\n", "3,4\n"]))
        assert path.read_text() == "a,b\n1,2\n3,4\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]

    def test_failure_leaves_neither_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli._atomic_write(str(tmp_path / "out.csv"), self.failing_chunks())
        assert os.listdir(tmp_path) == []

    def test_failure_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli._atomic_write(str(path), self.failing_chunks())
        assert path.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]

    def test_failed_rename_leaves_no_tmp(self, tmp_path):
        # a directory at the path: the text is written, then the rename fails
        path = tmp_path / "out.csv"
        (path / "inner").mkdir(parents=True)
        with pytest.raises(OSError):
            cli._atomic_write(str(path), iter(["a,b\n", "1,2\n"]))
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        assert os.listdir(path) == ["inner"]


class TestCsvFormat:
    """Every CSV the CLI writes, against the formatter it had before one writer made them all."""

    @staticmethod
    def per_cell_body(columns):
        # the formatter the CSV export used before: one "%.17g" per cell
        return "".join(",".join("%.17g" % col[row] for col in columns) + "\n" for row in range(len(columns[0])))

    def test_body_matches_per_cell_formatter(self):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
        rng = np.random.default_rng(7)
        for rows in (1, 3, cli.CSV_CHUNK_ROWS, 2 * cli.CSV_CHUNK_ROWS + 5):
            columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(4)]
            columns.append(np.resize(special, rows))
            columns.append(np.resize(special[::-1], rows))
            _, *chunks = cli._csv_chunks([f"c{k}" for k in range(len(columns))], columns)
            assert "".join(chunks) == self.per_cell_body(columns)
            # every chunk but the last holds CSV_CHUNK_ROWS rows
            sizes = [chunk.count("\n") for chunk in chunks]
            assert sizes[:-1] == [cli.CSV_CHUNK_ROWS] * (len(sizes) - 1) and 0 < sizes[-1] <= cli.CSV_CHUNK_ROWS

    def test_labels_lead_their_rows_across_chunks(self):
        rows = 2 * cli.CSV_CHUNK_ROWS + 5
        columns = [np.arange(rows) / 7.0, np.arange(rows) % 3]
        labels = [f"row{k}" for k in range(rows)]
        text = "".join(cli._csv_chunks(["name", "x", "m"], columns, labels=labels))
        body = self.per_cell_body(columns).splitlines()
        assert text == "name,x,m\n" + "".join(f"{label},{line}\n" for label, line in zip(labels, body))

    def test_csv_header_layout(self):
        traj = run(LINNET, beta=0.0, t_end=0.01)
        header = csv_text(traj).splitlines()[0].split(",")
        assert header[0] == "t"
        assert "out_oc1_v" in header and "out_oc1_T" in header
        assert any(h.startswith("coord_") and h.endswith("_phi") for h in header)

    def test_csv_matches_per_cell_formatter(self):
        traj = run(LINNET, beta=1e-3, t_end=5.0)
        _, header, columns, _ = cli._trajectory_table(traj, "traj.csv")
        expected = ",".join(header) + "\n" + self.per_cell_body(columns)
        assert_same_csv(csv_text(traj), expected)

    def test_csv_matches_per_record_formatter(self):
        log = TrainingLog(synapse_names=("a", "b"))
        log.add(0, 3, -0.0, 5e-324, [1e300, 0.1])
        log.add(12, 0, 1.0 / 3.0, 2.0, [-1e-300, 7.0])
        # the formatter the log used before: one "%" per field
        lines = ["epoch,example,J,grad_norm,g_a,g_b"]
        for ep, ex, loss, gn, gs in log.records:
            lines.append(f"{ep},{ex},%.17g,%.17g," % (loss, gn) + ",".join("%.17g" % g for g in gs))
        assert_same_csv(csv_text(log), "\n".join(lines) + "\n")

    @pytest.mark.parametrize("net", [LINNET, TANH_M], ids=["linnet", "tanh"])
    def test_gradcheck_and_summary_match_per_row_formatter(self, tmp_path, net):
        p = tmp_path / "net.net"
        p.write_text(net)
        out = tmp_path / "gc.csv"
        assert main(["gradcheck", str(p), "--t-end", "0.5", "--out", str(out)]) == 0
        ckt = parse_netlist(net)
        cfg = SimConfig(SampleGrid.from_span(0.0, 0.5, 1e-3))
        nudges = [("nudged", 1e-3), ("nudged beta/2", 1e-3 / 2)]
        (est, est_half), oracle = estimates_and_oracle(ckt, DriveSet(), nudges, 1e-4, cfg)
        # the formatters the two files had before: one "%" per line
        lines = ["synapse,estimate,oracle,ratio,sign_match,e_nudged,e_free"]
        for name, value, ref, (e_n, e_f) in zip(est.synapse_names, est.values, oracle, est.raw_half_energies):
            ratio = value / ref if ref != 0 else math.inf
            match = int(np.sign(value) == np.sign(ref))
            lines.append(f"{name},%.17g,%.17g,%.17g,{match},%.17g,%.17g" % (value, ref, ratio, e_n, e_f))
        assert out.read_text() == "\n".join(lines) + "\n"
        metrics, metrics_half = agreement_metrics(est, oracle), agreement_metrics(est_half, oracle)
        summary = [
            "metric,value",
            "cosine_similarity,%.17g" % metrics["cosine_similarity"],
            "cosine_similarity_half_beta,%.17g" % metrics_half["cosine_similarity"],
            "max_rel_error,%.17g" % metrics["max_rel_error"],
            f"sign_match_all,{int(metrics['sign_match'])}",
            "beta,%.17g" % 1e-3,
            "dt,%.17g" % 1e-3,
        ]
        assert (tmp_path / "gc_summary.csv").read_text() == "\n".join(summary) + "\n"

    @pytest.mark.parametrize("net, beta", [(RC_NET, 0.0), (LC_NET, 0.0), (LINNET, 1e-3), (TANH_M, 1e-3)])
    def test_action_rows_match_per_row_formatter(self, tmp_path, net, beta):
        p = tmp_path / "net.net"
        p.write_text(net)
        argv = ["simulate", str(p), "--beta", repr(beta), "--t-end", "0.5", "--out", str(tmp_path / "traj.csv")]
        assert main(argv + ["--dump-action"]) == 0
        ckt = parse_netlist(net)
        parts = action_breakdown(ckt, run(net, beta=beta, t_end=0.5))
        total = complex(sum(parts.values()))
        # the formatter the action rows had before: one "%" per row
        lines = ["quantity,real,imag"]
        for key in sorted(parts):
            lines.append(f"action_{key},%.17g,%.17g" % (parts[key].real, parts[key].imag))
        lines.append("action_total,%.17g,%.17g" % (total.real, total.imag))
        written = (tmp_path / "traj_action.csv").read_text().splitlines()
        assert written[: len(lines)] == lines

    @pytest.mark.parametrize("net", [RC_NET, LC_NET], ids=["rc", "lc"])
    def test_el_residual_rows_split_real_and_imaginary_parts(self, tmp_path, net):
        # the real part holds the L, C, OC and I terms, the imaginary part the
        # dissipative R and M terms: an LC circuit has none, so its imag reads 0
        p = tmp_path / "net.net"
        p.write_text(net)
        assert main(["simulate", str(p), "--t-end", "0.5", "--out", str(tmp_path / "traj.csv"), "--dump-action"]) == 0
        rows = [line.split(",") for line in (tmp_path / "traj_action.csv").read_text().splitlines()]
        written = {name: (real, imag) for name, real, imag in rows}
        res = el_residual(parse_netlist(net), run(net, t_end=0.5))
        assert res
        for name, values in res.items():
            # the maxima are over the inner 80% of the span: samples 50..450 of 0..500
            real, imag = written[f"el_residual_max_{name}"]
            assert float(real) == np.abs(values[50:451].real).max() > 0
            assert float(imag) == np.abs(values[50:451].imag).max()
            assert (imag == "0") == (net == LC_NET)

    def test_el_residual_rows_leave_out_the_endpoint_layer(self, tmp_path):
        # over the inner 80% of the span, rc's dissipative residual does not
        # move with dt, and lc's lossless one halves with each halving of dt;
        # over every interior sample both would grow at t = b as dt shrinks
        def c1_row(net, dt):
            p = tmp_path / "net.net"
            p.write_text(net)
            argv = ["simulate", str(p), "--dt", dt, "--t-end", "5", "--dump-action", "--out", str(tmp_path / "traj.csv")]
            assert main(argv) == 0
            rows = [line.split(",") for line in (tmp_path / "traj_action.csv").read_text().splitlines()]
            return next(complex(float(real), float(imag)) for name, real, imag in rows if name == "el_residual_max_c1")

        dts = ("2e-3", "1e-3", "5e-4", "2.5e-4")
        rc = [c1_row(RC_NET, dt) for dt in dts]
        for part in ("real", "imag"):
            values = [getattr(row, part) for row in rc]
            assert max(values) <= 1.01 * min(values), (part, values)
        lc = [c1_row(LC_NET, dt).real for dt in dts]
        ratios = [coarse / fine for coarse, fine in zip(lc, lc[1:])]
        assert all(1.9 <= ratio <= 2.1 for ratio in ratios), ratios

    @pytest.mark.parametrize("net", [RC_NET, LC_NET, LINNET, TANH_M])
    def test_topology_matches_per_row_formatter(self, tmp_path, net):
        p = tmp_path / "net.net"
        p.write_text(net)
        assert main(["simulate", str(p), "--t-end", "0.01", "--out", str(tmp_path / "traj.csv"), "--dump-topology"]) == 0
        topology = build_topology(parse_netlist(net))
        for label, M in (("Q", topology.Q), ("B", topology.B)):
            # the formatter the matrices had before: str of each entry
            lines = [",".join(topology.names)] + [",".join(str(v) for v in row) for row in M]
            assert (tmp_path / f"traj_{label}.csv").read_text() == "\n".join(lines) + "\n"


FLOATING_LINNET = LINNET + "R rf a b g=1\n"


def count_validations(monkeypatch):
    """Count circuit.validate calls under every name a fraceq module holds it by."""
    calls = []
    original = circuit.validate

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in (circuit, cli, dynamics, eqprop):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return calls


class TestValidatesOnce:
    def _argv(self, command, net_path, tmp_path):
        if command == "simulate":
            return ["simulate", net_path, "--out", str(tmp_path / "traj.csv")]
        if command == "gradcheck":
            return ["gradcheck", net_path, "--dt", "4e-3", "--out", str(tmp_path / "gc.csv")]
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN_CFG)
        return ["train", net_path, str(cfg), "--out-dir", str(tmp_path / "run")]

    @pytest.mark.parametrize("command", ["simulate", "gradcheck", "train"])
    def test_valid_netlist(self, linnet_path, tmp_path, monkeypatch, command):
        calls = count_validations(monkeypatch)
        assert main(self._argv(command, linnet_path, tmp_path)) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["simulate", "gradcheck", "train"])
    def test_floating_node_exit_2(self, tmp_path, capsys, monkeypatch, command):
        net = tmp_path / "floating.net"
        net.write_text(FLOATING_LINNET)
        calls = count_validations(monkeypatch)
        assert main(self._argv(command, str(net), tmp_path)) == 2
        assert f"error: {net}: floating-subcircuit: nodes not connected to ground: a, b" in capsys.readouterr().err
        assert len(calls) == 1
        assert not list(tmp_path.rglob("*.manifest"))


class TestRunParameters:
    """A grid flag or config value out of range exits 2 naming it, before any file is written."""

    @pytest.mark.parametrize("command", ["simulate", "gradcheck"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dt", "0", "--dt: grid step must be positive and finite, got 0.0"),
            ("--dt", "nan", "--dt: grid step must be positive and finite, got nan"),
            ("--dt", "3", "--dt: grid step 3.0 is longer than the span [0.0, 1.0]"),
            ("--t-end", "inf", "--t-end: span end must be finite, got inf"),
            ("--t-end", "-1", "--t-end: span end must be after its start 0.0, got -1.0"),
        ],
    )
    def test_grid_flag(self, linnet_path, tmp_path, capsys, command, flag, value, message):
        assert main([command, linnet_path, flag, value, "--out", str(tmp_path / "out.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

    @pytest.mark.parametrize("command", ["simulate", "gradcheck"])
    def test_span_off_a_fine_grid(self, linnet_path, tmp_path, capsys, command):
        # 1.5 steps of 1e-10: the end lies half a step off the grid
        argv = [command, linnet_path, "--dt", "1e-10", "--t-end", "1.5e-10", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        message = "--t-end: span [0.0, 1.5e-10] is not an integer number of steps of 1e-10"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

    def test_span_too_large_to_allocate(self, rc_net, tmp_path, capsys):
        # 1e15 steps: numpy refuses the 7 PiB array of sample times before it
        # touches any memory
        assert main(["simulate", rc_net, "--t-end", "1e12", "--out", str(tmp_path / "traj.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["rc.net"]

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("gradcheck", "--beta", "nan", "--beta: the estimator needs beta > 0, got nan"),
            ("gradcheck", "--beta", "inf", "--beta: beta must be finite and non-negative, got inf"),
            ("gradcheck", "--beta", "0", "--beta: the estimator needs beta > 0, got 0.0"),
            ("gradcheck", "--eps", "nan", "--eps: eps must be positive and finite, got nan"),
            ("gradcheck", "--eps", "inf", "--eps: eps must be positive and finite, got inf"),
            ("simulate", "--beta", "nan", "--beta: beta must be finite and non-negative, got nan"),
            ("simulate", "--beta", "-1", "--beta: beta must be finite and non-negative, got -1.0"),
        ],
    )
    def test_run_flag(self, linnet_path, tmp_path, capsys, command, flag, value, message):
        assert main([command, linnet_path, flag, value, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("learning_rate=nan", "learning_rate must be finite and non-negative, got nan"),
            ("beta=inf", "beta must be positive and finite, got inf"),
            ("g_min=nan", "g_min must be positive and finite, got nan"),
            ("epochs=0", "epochs must be at least 1, got 0"),
            ("epochs=x", "expected int"),
            ("dt=0", "grid step must be positive and finite, got 0.0"),
            ("t_end=inf", "span end must be finite, got inf"),
            ("seed=-1", "seed must be non-negative, got -1"),
            ("sign_convention=-1", "the estimator's sign is fixed at 1"),
        ],
    )
    def test_train_config_value(self, linnet_path, tmp_path, capsys, setting, message):
        key = setting.split("=")[0]
        lines = [line for line in TRAIN_CFG.splitlines() if not line.startswith(key + "=")] + [setting]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "run"
        assert main(["train", linnet_path, str(cfg), "--out-dir", str(out_dir)]) == 2
        assert f"error: {cfg}: config line {len(lines)}: {setting}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_train_step_longer_than_the_span(self, linnet_path, tmp_path, capsys):
        lines = [line for line in TRAIN_CFG.splitlines() if not line.startswith(("dt=", "t_end="))]
        lines += ["dt=0.5", "t_end=0.2"]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["train", linnet_path, str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        message = "dt=0.5: grid step 0.5 is longer than the span [0.0, 0.2]"
        assert capsys.readouterr().err == f"error: {cfg}: config line {len(lines) - 1}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_train_span_off_a_fine_grid(self, linnet_path, tmp_path, capsys):
        lines = [line for line in TRAIN_CFG.splitlines() if not line.startswith(("dt=", "t_end="))]
        lines += ["dt=1e-10", "t_end=1.5e-10"]
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["train", linnet_path, str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        message = "t_end=1.5e-10: span [0.0, 1.5e-10] is not an integer number of steps of 1e-10"
        assert capsys.readouterr().err == f"error: {cfg}: config line {len(lines)}: {message}\n"
        assert not (tmp_path / "run").exists()


class TestInputFiles:
    """A bad byte or number in an input file exits 2 naming the file and where in it."""

    @pytest.mark.parametrize("command", ["simulate", "gradcheck", "train"])
    def test_netlist_syntax_error_names_its_file(self, tmp_path, capsys, command):
        net = tmp_path / "bad.net"
        net.write_text("R r1 a 0 g=1\nX bogus a 0\n")
        if command == "train":
            # the netlist is read before the config, which does not exist
            argv = ["train", str(net), str(tmp_path / "train.cfg"), "--out-dir", str(tmp_path / "run")]
        else:
            argv = [command, str(net), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {net}: line 2, col 1: unknown element kind 'X'\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.net"]

    @pytest.mark.parametrize(
        "net, message, command",
        [
            pytest.param(net, message, command, id=f"{case}-{command}")
            for case, net, message, commands in [
                ("self-loop", LINNET + "R r9 out out g=1\n", "self-loop: r9 connects out to itself", ALL_COMMANDS),
                ("v-loop", V_LOOP, "voltage-source-loop: voltage source v3 closes a loop of voltage sources", ALL_COMMANDS),
                ("no-target", NO_TARGET, "missing-target: output capacitor oc1 has no target waveform", ALL_COMMANDS),
                ("unequal-caps", UNEQUAL_CAPS, UNEQUAL_CAPS_MESSAGE, ("gradcheck", "train")),
                ("no-synapse", RC_NET, "no-synapses: circuit has no trainable synapses", ("gradcheck", "train")),
                ("no-output-cap", NO_OUTPUT_CAP, "no-outputs: circuit has no output capacitors", ("gradcheck", "train")),
            ]
            for command in commands
        ],
    )
    def test_circuit_error_names_its_file(self, tmp_path, capsys, net, message, command):
        # a netlist that parses but describes a circuit the command cannot run
        path = tmp_path / "bad.net"
        path.write_text(net)
        if command == "train":
            cfg = tmp_path / "train.cfg"
            cfg.write_text("epochs=1\nlearning_rate=0.05\nbeta=0.001\n")
            argv = ["train", str(path), str(cfg), "--out-dir", str(tmp_path / "run")]
        else:
            argv = [command, str(path), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert sorted(os.listdir(tmp_path)) == sorted(["bad.net"] + (["train.cfg"] if command == "train" else []))

    def test_non_utf8_netlist(self, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_bytes(LINNET.encode() + b"# caf\xe9\n")
        assert main(["simulate", str(net), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {net}:7: not UTF-8 at byte {len(LINNET) + 5} (invalid continuation byte)\n"

    def test_non_utf8_train_config(self, linnet_path, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"epochs=3\n\xff\n")
        assert main(["train", linnet_path, str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: not UTF-8 at byte 9 (invalid start byte)\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_signal_value(self, tmp_path, capsys, value):
        sig = tmp_path / "sig.csv"
        sig.write_text(f"t,value\n0.0,1.0\n0.1,{value}\n0.2,3.0\n")
        assert main(["frac-bench", str(sig), "--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err == f"error: {sig}:3: non-finite value in '0.1,{value}'\n"

    def test_overflowing_time_step(self, tmp_path, capsys):
        # the step from -1e308 to 1e308 is inf, which is no uniform grid
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n-1e308,1.0\n1e308,2.0\n")
        assert main(["frac-bench", str(sig), "--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err == f"error: {sig}:3: time column is not a uniform grid\n"

    def test_time_off_a_fine_grid(self, tmp_path, capsys):
        # steps of 1e-12, then 2e-12: the time on line 4 is a whole step off the grid
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n0,1\n1e-12,2\n3e-12,3\n1e-11,4\n")
        assert main(["frac-bench", str(sig), "--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err == f"error: {sig}:4: time column is not a uniform grid\n"

    def test_fine_uniform_grid_accepted(self, tmp_path):
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n0,1\n1e-12,2\n2e-12,3\n3e-12,4\n")
        assert main(["frac-bench", str(sig), "--out", str(tmp_path / "res.csv")]) == 0
        header, data = read_csv(tmp_path / "res.csv")
        assert list(data[:, 0]) == [0.0, 1e-12, 2e-12, 3e-12]

    def test_non_finite_result_names_the_signal_and_op(self, tmp_path, capsys):
        # every sample is finite, but the FFT product of the rl-integral overflows
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n" + "".join(f"{k / 1000!r},1e300\n" for k in range(1000)))
        out = tmp_path / "res.csv"
        argv = ["frac-bench", str(sig), "--op", "rl-integral", "--alpha", "2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {sig}: --op rl-integral gives a non-finite result, first at t=0.001\n"
        assert not out.exists()

    def test_underflowing_integral_scale_names_alpha(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n" + "".join(f"{k / 1000!r},{math.sin(k / 1000)!r}\n" for k in range(2001)))
        out = tmp_path / "res.csv"
        assert main(["frac-bench", str(sig), "--op", "rl-integral", "--alpha", "90", "--out", str(out)]) == 2
        message = "integral order 90.0 underflows the quadrature scale on step 0.001"
        assert capsys.readouterr().err == f"error: --alpha: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "op, alpha, message",
        [
            ("rl-integral", "inf", "integral order must be positive and finite, got inf"),
            ("rl-integral", "nan", "integral order must be positive and finite, got nan"),
            ("caputo-left", "nan", "caputo_left supports orders in (0, 1], got nan"),
            ("caputo-right", "1.5", "caputo_right supports orders in (0, 1], got 1.5"),
            ("rl-right", "1.5", "rl_derivative_right supports orders in (0, 1], got 1.5"),
            # Gamma(172) overflows a float
            ("rl-integral", "170", "integral order 170.0 overflows the quadrature weights on 2001 samples of step 0.1"),
            # 2000^151 overflows, so the weights would be inf - inf = nan
            ("rl-integral", "150", "integral order 150.0 overflows the quadrature weights on 2001 samples of step 0.1"),
        ],
    )
    def test_bad_alpha_names_its_flag(self, tmp_path, capsys, op, alpha, message):
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n" + "".join(f"{k / 10!r},1.0\n" for k in range(2001)))
        assert main(["frac-bench", str(sig), "--op", op, "--alpha", alpha, "--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err == f"error: --alpha: {message}\n"
        assert not (tmp_path / "res.csv").exists()


# --- fuzzing the train config and signal CSV readers --------------------------

_NUMBERS = st.one_of(
    st.sampled_from(["0", "-1", "1e308", "-1e308", "1e400", "5e-324", "1e-320", "nan", "-inf", "1_000", "", "1e", "0x1"]),
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
)
_KEYS = ("epochs", "learning_rate", "beta", "dt", "t_end", "g_min", "seed", "sign_convention")
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
_GOOD_CONFIG_LINES = TRAIN_CFG.splitlines() + ["# comment", "", "example", "g_min=1e-6 # floor"]
# bytes that no UTF-8 text contains: a stray continuation byte, a lead byte
# cut short, an encoded surrogate, and bytes never used
_NOT_UTF8 = st.sampled_from([b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xff", b"\xfe\xff"])


def _not_a_finite_number(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


@st.composite
def _bad_config_lines(draw):
    """One line (two for a repeated setting) that the config reader must
    reject whatever surrounds it."""
    kind = draw(
        st.sampled_from(["unknown key", "no key=value", "example token", "repeated setting", "repeated element"])
    )
    if kind == "unknown key":
        return f"{draw(_WORDS.filter(lambda k: k not in _KEYS and k != 'example'))}={draw(_NUMBERS)}"
    if kind == "no key=value":
        return f"{draw(_WORDS.filter(lambda w: w != 'example'))} {draw(_NUMBERS)}"
    if kind == "repeated setting":
        key = draw(st.sampled_from(_KEYS))
        return f"{key}={draw(_NUMBERS)}\n{key}={draw(_NUMBERS)}"
    if kind == "repeated element":
        name = draw(st.sampled_from(["v1", "v2", "oc1"]))
        return f"example v1=const(1.0) v2=const(0.5) oc1=const(0.4) {name}=const(2.0)"
    token = draw(
        st.sampled_from(["v1const(1)", "vx=const(1)", "s1=const(1)", "v1=const(", "v1=sine(1)", "v1=ramp(1)"])
        | _NUMBERS.filter(_not_a_finite_number).map(lambda x: f"oc1=const({x})")
    )
    return f"example v1=const(1.0) {token}"


@st.composite
def bad_train_configs(draw):
    """Config bytes with at least one defect, among good, random and truncated lines."""
    noise = st.one_of(
        st.sampled_from(_GOOD_CONFIG_LINES),
        st.builds(lambda k, v: f"{k}={v}", st.sampled_from(_KEYS), _NUMBERS),
        st.sampled_from(_GOOD_CONFIG_LINES).flatmap(lambda line: st.integers(0, len(line)).map(lambda n: line[:n])),
    )
    lines = draw(st.lists(noise, max_size=12))
    for line in draw(st.lists(_bad_config_lines(), min_size=1, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    raw = "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    if draw(st.integers(0, 4)) == 4:  # one file in five
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_NOT_UTF8) + raw[at:]
    return raw


# rows that are bad wherever they stand after the header
_BAD_ROWS = ["0.1,oops", "0.1", "0.1,", "time,v", "nan,1.0", "0.1,inf", "1e400,0"]
# times on no uniform grid that starts at 0 with a step of at most 2 and
# holds at least 2 other rows; the step between the last two overflows
_OFF_GRID_ROWS = ["1e9,1.0", "-5,2", "1.7e308,0", "-1.7e308,0"]


@st.composite
def bad_signal_csvs(draw):
    """CSV signal bytes that must be rejected: a uniform grid of fewer than 2
    rows, or with bad rows after its header, or with bytes that are not UTF-8."""
    dt = draw(st.sampled_from([1e-3, 0.1, 0.5, 2.0]))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, 5e-324]) | st.floats(-1e3, 1e3), max_size=12))
    # a header first, since the first line may be a header and is skipped if it is not numeric
    head = draw(st.sampled_from([["t,value"], ["# signal", "t,value"], ["", "t,value"]]))
    lines = head + [f"{k * dt!r},{v!r}" for k, v in enumerate(values)]
    rows = _BAD_ROWS + (_OFF_GRID_ROWS if len(values) >= 2 else [])
    defects = draw(st.lists(st.sampled_from(rows), max_size=2))
    for line in defects:
        lines.insert(draw(st.integers(len(head), len(lines))), line)
    raw = "\n".join(lines).encode() + b"\n"
    if len(values) >= 2 and not defects:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_NOT_UTF8) + raw[at:]
    return raw


def _assert_located(err, path, raw, whole_file):
    """One line: 'error: path:N: ...' with N a line of the file, or a whole-file message."""
    assert err.count("\n") == 1, err
    located = re.fullmatch(rf"error: {re.escape(path)}(?::(\d+):|: config line (\d+)[:,]) .*\n", err)
    if located:
        line = int(located.group(1) or located.group(2))
        assert 1 <= line <= raw.count(b"\n") + 1, err
    else:
        assert re.fullmatch(rf"error: {re.escape(path)}: ({whole_file})\n", err), err


class TestInputFuzz:
    """Every generated file has a defect: main exits 2 naming the file, and
    its line where the defect has one, and no exception escapes."""

    @settings(
        max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(raw=bad_train_configs())
    # a good config but for one repeated setting or example element
    @example(raw=(TRAIN_CFG + "epochs=2\n").encode())
    @example(raw=TRAIN_CFG.replace("oc1=const(0.3)", "oc1=const(0.3) v1=const(5.0)").encode())
    def test_train_config(self, linnet_path, tmp_path, capsys, monkeypatch, raw):
        def training(*args):
            raise AssertionError("a run was trained")

        monkeypatch.setattr(cli, "train", training)
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes(raw)
        assert main(["train", linnet_path, str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
        _assert_located(capsys.readouterr().err, str(cfg), raw, "config is missing required key [a-z_]+=")

    @settings(
        max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(raw=bad_signal_csvs())
    def test_signal_csv(self, tmp_path, capsys, raw):
        sig = tmp_path / "fuzz.csv"
        sig.write_bytes(raw)
        out = tmp_path / "res.csv"
        out.unlink(missing_ok=True)
        assert main(["frac-bench", str(sig), "--out", str(out)]) == 2
        _assert_located(capsys.readouterr().err, str(sig), raw, "need at least 2 numeric t,value rows")
        assert not out.exists()


# --- fuzzing main on generated netlists -----------------------------------------

_MODERATE = st.sampled_from(["0.25", "0.5", "1.0", "2.0"])
_EXTREME = st.sampled_from(["1e-300", "1e-30", "1e30", "1e300"])
_FUZZ_CONFIG = "epochs=2\nlearning_rate=0.05\nbeta=0.001\ndt=0.01\nt_end=0.2\n"
# each defect refuses the circuit, whatever its values
_DEFECTS = {
    "v-loop": "V v9 in 0 w=const(1)\n",
    "i-cutset": "I i9 x 0 w=const(1)\n",
    "floating": "R r9 a b g=1\n",
    "repeated-key": "R r9 out 0 g=1 g=2\n",
}


@st.composite
def fuzz_cases(draw):
    """(command, netlist, config, refused): a driven two-synapse divider with
    an optional C, L, M and output cap, values moderate or, in half the
    netlists, extreme too, and in one of three a defect.  `refused` says
    whether the command must exit 2 on it."""
    command = draw(st.sampled_from(ALL_COMMANDS))
    v = st.shared(st.sampled_from([_MODERATE, _MODERATE | _EXTREME]), key="values").flatmap(lambda values: values)
    drive = draw(st.sampled_from([f"const({draw(v)})", f"step({draw(v)},0.05)", f"sine({draw(v)},{draw(v)},0)"]))
    lines = [f"V v1 in 0 w={drive}", f"R s1 in out g={draw(v)} trainable", f"R s2 out 0 g={draw(v)} trainable"]
    optional = [
        f"C c1 out 0 c={draw(v)}",
        f"L l1 out 0 l={draw(v)}",
        draw(st.sampled_from([f"M m1 out 0 f=tanh({draw(v)},{draw(v)})", f"M m1 out 0 f=linear({draw(v)})"])),
    ]
    lines += [line for line in optional if draw(st.booleans())]
    # train may leave the target to its config's example line
    output, example = draw(st.integers(0, 7)) > 0, False
    target = draw(st.booleans()) if command == "train" else draw(st.integers(0, 7)) > 0
    if output:
        lines.append("OC oc1 out 0 cap=1.0" + (f" w=const({draw(v)})" if target else ""))
        example = command == "train" and draw(st.booleans())
    defect = draw(st.sampled_from([None] * 2 * len(_DEFECTS) + list(_DEFECTS)))
    net = "\n".join(lines) + "\n" + _DEFECTS.get(defect, "")
    config = _FUZZ_CONFIG + (f"example oc1=const({draw(v)})\n" if example else "")
    untargeted = output and not target and not example
    refused = defect is not None or untargeted or (command != "simulate" and not output)
    return command, net, config, refused


def _run_main(directory, command, net, config):
    """main's exit code on one generated case, run in its own directory."""
    (directory / "fuzz.net").write_text(net)
    if command == "train":
        (directory / "fuzz.cfg").write_text(config)
        argv = ["train", str(directory / "fuzz.net"), str(directory / "fuzz.cfg"), "--out-dir", str(directory / "run")]
    else:
        argv = [command, str(directory / "fuzz.net"), "--dt", "0.01", "--t-end", "0.2", "--out", str(directory / "out.csv")]
    return main(argv + (["--dump-action"] if command == "simulate" else []))


def _assert_clean_exit(directory, code, err):
    """Exit 0 with an empty stderr and every cell finite, or exit 2 or 3 with
    one stderr line and no warning; no tmp file either way."""
    assert not list(directory.rglob("*.tmp")), code
    if code != 0:
        assert code in (2, 3) and err.count("\n") == 1 and err.endswith("\n"), (code, err)
        assert "Warning" not in err and "Traceback" not in err, err
        return
    assert err == ""
    for path in directory.rglob("*.csv"):
        for row in path.read_text().splitlines()[1:]:
            for cell in row.split(","):
                try:
                    value = float(cell)
                except ValueError:  # a row label
                    continue
                assert math.isfinite(value), (path, row)
    for path in directory.rglob("trained.net"):
        parse_netlist(path.read_text())  # every conductance finite and positive


class TestMainFuzz:
    """`main` on generated netlists: exit 0, 2 or 3, and the output contract of each."""

    def test_generated_netlists(self, tmp_path, capsys):
        outcomes = set()

        # linnet runs every command to exit 0
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(case=fuzz_cases())
        @example(case=("simulate", LINNET, _FUZZ_CONFIG, False))
        @example(case=("gradcheck", LINNET, _FUZZ_CONFIG, False))
        @example(case=("train", LINNET, _FUZZ_CONFIG, False))
        def run(case):
            command, net, config, refused = case
            directory = Path(tempfile.mkdtemp(dir=tmp_path))
            code = _run_main(directory, command, net, config)
            _assert_clean_exit(directory, code, capsys.readouterr().err)
            assert code == 2 or not refused, (code, net)
            outcomes.add((command, code))

        run()
        # every command reached its exit-0 checks, and generated runs failed in each way
        assert {(command, 0) for command in ALL_COMMANDS} <= outcomes
        assert {code for _, code in outcomes} == {0, 2, 3}


class TestParseTrainConfig:
    def test_example_lines_partition_inputs_and_targets(self):
        ckt = parse_netlist(LINNET)
        cfg = parse_train_config(TRAIN_CFG, ckt)
        assert cfg.epochs == 3 and len(cfg.batch) == 2
        assert set(cfg.batch[1].inputs) == {"v1", "v2"}
        assert set(cfg.batch[1].targets) == {"oc1"}

    def test_sign_convention_one_is_accepted(self):
        ckt = parse_netlist(LINNET)
        assert parse_train_config(TRAIN_CFG + "sign_convention=1\n", ckt) == parse_train_config(TRAIN_CFG, ckt)

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="epochs"):
            parse_train_config("learning_rate=0.1\nbeta=1e-3\n", parse_netlist(LINNET))

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError, match="config line 4, col 9: unknown element 'nope'"):
            parse_train_config(
                "epochs=1\nlearning_rate=0.1\nbeta=1e-3\nexample nope=const(1)\n",
                parse_netlist(LINNET),
            )

    def test_non_source_example_rejected(self):
        with pytest.raises(ValueError, match="s1"):
            parse_train_config(
                "epochs=1\nlearning_rate=0.1\nbeta=1e-3\nexample s1=const(1)\n",
                parse_netlist(LINNET),
            )

    @pytest.mark.parametrize(
        "line, message",
        [
            # a setting given again on a later line
            ("epochs=2", "config line 4, col 1: repeated setting epochs="),
            ("example v1=const(1.0) v1=const(5.0) oc1=const(0.4)", "config line 4, col 23: repeated element v1="),
            # v1=const(1 is also the tail of the token before it
            ("example vv1=const(1) v1=const(1", "config line 4, col 22: v1: expected family(args), got 'const(1'"),
            ("example v1=const(1.0) v2const(1)", "config line 4, col 23: malformed element 'v2const(1)'"),
        ],
        ids=["repeated-setting", "repeated-element", "waveform", "malformed-token"],
    )
    def test_token_refused_at_its_column(self, line, message):
        ckt = parse_netlist(LINNET + "V vv1 in3 0 w=const(1.0)\n")
        with pytest.raises(ValueError) as info:
            parse_train_config(f"epochs=1\nlearning_rate=0.1\nbeta=1e-3\n{line}\n", ckt)
        assert str(info.value) == message


class TestFracBench:
    def _write_signal(self, tmp_path, t, v):
        p = tmp_path / "sig.csv"
        p.write_text("t,value\n" + "\n".join(f"{a},{b}" for a, b in zip(t, v)) + "\n")
        return str(p)

    def test_caputo_ramp(self, tmp_path):
        t = np.arange(0, 1.0001, 1e-3)
        sig = self._write_signal(tmp_path, t, t)
        out = str(tmp_path / "res.csv")
        code = main(["frac-bench", sig, "--op", "caputo-left", "--alpha", "0.5", "--out", out])
        assert code == 0
        _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1] - 2 * np.sqrt(t / np.pi))) < 2e-2

    def test_alpha_one_is_discrete_derivative(self, tmp_path):
        t = np.arange(0, 1.0001, 1e-3)
        v = np.sin(t)
        sig = self._write_signal(tmp_path, t, v)
        out = str(tmp_path / "res.csv")
        assert main(["frac-bench", sig, "--alpha", "1.0", "--out", out]) == 0
        _, data = read_csv(out)
        assert np.allclose(data[1:, 1], np.diff(v) / 1e-3, atol=1e-10)

    def test_no_signal_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["frac-bench"]) == 2
        assert capsys.readouterr().err == "error: frac-bench needs a signal CSV (or --self-test)\n"
        assert os.listdir(tmp_path) == []

    def test_non_uniform_grid_exit_2(self, tmp_path, capsys):
        sig = self._write_signal(tmp_path, [0.0, 0.1, 0.3], [1.0, 2.0, 3.0])
        assert main(["frac-bench", sig]) == 2
        assert "uniform" in capsys.readouterr().err

    def test_dropped_middle_row_exit_2_with_location(self, tmp_path, capsys):
        # without row 3 the remaining grid 0, 0.2, 0.4 would look uniform
        p = tmp_path / "sig.csv"
        p.write_text("t,value\n0.0,1.0\n0.1,oops\n0.2,3.0\n0.3,4.0\n0.4,5.0\n")
        assert main(["frac-bench", str(p), "--out", str(tmp_path / "res.csv")]) == 2
        assert f"{p}:3:" in capsys.readouterr().err

    def test_one_column_row_exit_2_with_location(self, tmp_path, capsys):
        p = tmp_path / "sig.csv"
        p.write_text("0.0,1.0\n0.1,2.0\n0.2\n0.3,4.0\n")
        assert main(["frac-bench", str(p), "--out", str(tmp_path / "res.csv")]) == 2
        assert f"{p}:3:" in capsys.readouterr().err

    def test_second_header_line_exit_2(self, tmp_path, capsys):
        p = tmp_path / "sig.csv"
        p.write_text("# signal\nt,value\ntime,v\n0.0,1.0\n0.1,2.0\n")
        assert main(["frac-bench", str(p), "--out", str(tmp_path / "res.csv")]) == 2
        assert f"{p}:3:" in capsys.readouterr().err

    @staticmethod
    def per_sample_text(t, values):
        # the formatter frac-bench used before: one "%" per sample
        lines = ["t,value"] + ["%.17g,%.17g" % (t[k], np.real(values[k])) for k in range(len(t))]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("op", ["identity", "caputo-left", "caputo-right", "rl-left", "rl-right", "rl-integral"])
    def test_output_matches_per_sample_formatter(self, tmp_path, monkeypatch, op):
        t = np.arange(0, 0.0205, 1e-3)
        v = np.sin(40 * t)
        v[[3, 7, 11]] = [-0.0, 1e300, -1e300]
        p = tmp_path / "sig.csv"
        p.write_text("t,value\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(t.tolist(), v.tolist())) + "\n")
        if op == "identity":
            # the signed zero and the extremes reach the formatter as read
            monkeypatch.setitem(cli._OPS, "caputo-left", lambda values, dt, alpha: values)
            op = "caputo-left"
        out = tmp_path / "res.csv"
        assert main(["frac-bench", str(p), "--op", op, "--out", str(out)]) == 0
        grid, values = cli._read_signal_csv(str(p))
        expected = self.per_sample_text(grid.times(), cli._OPS[op](values, grid.dt, 0.5))
        assert out.read_text() == expected

    def test_self_test_passes(self, capsys):
        assert main(["frac-bench", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "NO" not in out
