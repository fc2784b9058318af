import hashlib
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraceq import circuit, cli, dynamics, eqprop
from fraceq.cli import main, parse_train_config
from fraceq.circuit import parse_netlist

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

    def test_singular_jacobian_exit_3_with_time(self, tmp_path, capsys):
        p = tmp_path / "singular.net"
        p.write_text(SINGULAR)
        code = main(["simulate", str(p), "--out", str(tmp_path / "traj.csv")])
        assert code == 3
        assert "Newton iteration diverged at t=0.5," in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["singular.net"]

    def test_failed_csv_write_leaves_no_output(self, rc_net, tmp_path, capsys, monkeypatch):
        # the disk fills after the first chunk of rows
        def first_chunk_then_full(columns):
            yield next(csv_body(columns))
            raise OSError(28, "No space left on device")

        csv_body = dynamics._csv_body
        monkeypatch.setattr(dynamics, "_csv_body", first_chunk_then_full)
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
        ],
        ids=["g-nan", "g-inf", "c-inf", "w-nan", "f-nan", "cap-nan", "w-minus-inf"],
    )
    def test_non_finite_number_exit_2_with_location(self, tmp_path, capsys, net, token):
        p = tmp_path / "bad.net"
        p.write_text(net)
        assert main(["simulate", str(p), "--out", str(tmp_path / "traj.csv")]) == 2
        line = next(n for n, text in enumerate(net.splitlines(), start=1) if token in text)
        col = net.splitlines()[line - 1].index(token) + 1
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
            ("0.5", "error: eps 0.5 would drive conductance 0.25"),
        ],
    )
    def test_bad_eps_exit_2_before_any_run(self, linnet_path, tmp_path, capsys, monkeypatch, eps, message):
        def stepping(*args):
            raise AssertionError("a run was stepped")

        monkeypatch.setattr(eqprop, "simulate_batch", stepping)
        assert main(["gradcheck", linnet_path, "--eps", eps, "--out", str(tmp_path / "gc.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gc.csv").exists()

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
        assert "config line 8: unknown element 'vx'" in capsys.readouterr().err

    def test_non_finite_example_exit_2_with_location(self, linnet_path, tmp_path, capsys):
        cfg_text = TRAIN_CFG.replace("example v1=const(0.8)", "example v1=const(inf)")
        code, _ = self._run(linnet_path, tmp_path, cfg_text, "runF")
        assert code == 2
        assert "config line 8, col 9: v1: non-finite argument in 'const(inf)'" in capsys.readouterr().err

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
        # stderr names the epoch and the example once each, and where the log went
        assert len(re.findall(r"epoch \d", err)) == 1 and len(re.findall(r"example \d", err)) == 1
        assert f"partial log flushed to {os.path.join(out_dir, 'train_log.csv')}" in err
        assert not os.path.exists(os.path.join(out_dir, "train.manifest"))


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


FLOATING_LINNET = LINNET + "R rf a b g=1\n"


def count_validations(monkeypatch):
    """Count circuit.validate calls under every name a fraceq module holds it by."""
    calls = []
    original = circuit.validate

    def counting(c):
        calls.append(1)
        return original(c)

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
        assert "error: floating-subcircuit: nodes not connected to ground: a, b" in capsys.readouterr().err
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
            ("--t-end", "inf", "--t-end: span end must be finite, got inf"),
            ("--t-end", "-1", "--t-end: span end must be after its start 0.0, got -1.0"),
        ],
    )
    def test_grid_flag(self, linnet_path, tmp_path, capsys, command, flag, value, message):
        assert main([command, linnet_path, flag, value, "--out", str(tmp_path / "out.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["linnet.net"]

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


class TestInputFiles:
    """A bad byte or number in an input file exits 2 naming the file and where in it."""

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

    @pytest.mark.parametrize(
        "op, alpha, message",
        [
            ("rl-integral", "inf", "integral order must be positive and finite, got inf"),
            ("rl-integral", "nan", "integral order must be positive and finite, got nan"),
            ("caputo-left", "nan", "caputo_left supports orders in (0, 1], got nan"),
        ],
    )
    def test_bad_alpha_names_its_flag(self, tmp_path, capsys, op, alpha, message):
        sig = tmp_path / "sig.csv"
        sig.write_text("t,value\n0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        assert main(["frac-bench", str(sig), "--op", op, "--alpha", alpha, "--out", str(tmp_path / "res.csv")]) == 2
        assert capsys.readouterr().err == f"error: --alpha: {message}\n"


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
    """One line that the config reader must reject whatever surrounds it."""
    kind = draw(st.sampled_from(["unknown key", "no key=value", "example token"]))
    if kind == "unknown key":
        return f"{draw(_WORDS.filter(lambda k: k not in _KEYS and k != 'example'))}={draw(_NUMBERS)}"
    if kind == "no key=value":
        return f"{draw(_WORDS.filter(lambda w: w != 'example'))} {draw(_NUMBERS)}"
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
    """Signal CSV bytes that must be rejected: a uniform grid of fewer than 2
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


class TestParseTrainConfig:
    def test_example_lines_partition_inputs_and_targets(self):
        ckt = parse_netlist(LINNET)
        cfg = parse_train_config(TRAIN_CFG, ckt)
        assert cfg.epochs == 3 and len(cfg.batch) == 2
        assert set(cfg.batch[1].inputs) == {"v1", "v2"}
        assert set(cfg.batch[1].targets) == {"oc1"}

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="epochs"):
            parse_train_config("learning_rate=0.1\nbeta=1e-3\n", parse_netlist(LINNET))

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError, match="config line 4: unknown element 'nope'"):
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

    @pytest.mark.parametrize("op", ["identity", "caputo-left", "rl-integral"])
    def test_output_matches_per_sample_formatter(self, tmp_path, monkeypatch, op):
        t = np.arange(0, 0.0205, 1e-3)
        v = np.sin(40 * t)
        v[[3, 7, 11]] = [-0.0, 1e300, -1e300]
        p = tmp_path / "sig.csv"
        p.write_text("t,value\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(t.tolist(), v.tolist())) + "\n")
        if op == "identity":
            # the signed zero and the extremes reach the formatter as read
            monkeypatch.setitem(cli._OPS, "caputo-left", lambda sig, alpha: sig)
            op = "caputo-left"
        out = tmp_path / "res.csv"
        assert main(["frac-bench", str(p), "--op", op, "--out", str(out)]) == 0
        sig = cli._read_signal_csv(str(p))
        expected = self.per_sample_text(sig.grid.times(), cli._OPS[op](sig, 0.5).values)
        assert out.read_text() == expected

    def test_self_test_passes(self, capsys):
        assert main(["frac-bench", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "NO" not in out
