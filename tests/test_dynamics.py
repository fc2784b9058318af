import numpy as np
import pytest

from csv_compare import assert_same_csv, csv_text
from fraceq.circuit import Waveform, parse_netlist
from fraceq.dynamics import DriveSet, SimConfig, Trajectory, simulate, trajectory_loss
from fraceq.errors import MissingOutputError, ValidationError
from fraceq.frac_ops import SampleGrid, Signal
from fraceq.lagrangian import branch_quantities

RC_NET = "V vin 1 0 w=step(1,0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
LC_NET = "C c1 n1 0 c=1\nL l1 n1 0 l=1\nI isrc 0 n1 w=step(1,0)\n"

LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=0.5 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""


def cfg(dt=1e-3, t_end=1.0):
    return SimConfig(SampleGrid.from_span(0.0, t_end, dt))


def run(net, beta=0.0, drive=None, **kwargs):
    return simulate(parse_netlist(net), drive or DriveSet(), beta, cfg(**kwargs))


def branch_voltage(net, traj, name):
    ckt = parse_netlist(net)
    return branch_quantities(ckt, traj).v[ckt.index_of(name)]


class TestRcStep:
    def test_matches_analytic_response(self):
        traj = run(RC_NET, t_end=5.0)
        t = traj.grid.times()
        vc = branch_voltage(RC_NET, traj, "c1")
        exact = 1.0 - np.exp(-t)
        assert np.max(np.abs(vc[1:] - exact[1:])) < 5e-3
        i = int(round(1.0 / 1e-3))
        assert abs(vc[i] - (1 - np.exp(-1))) < 5e-3

    def test_grid_refinement_halves_error(self):
        errs = []
        for dt in (2e-3, 1e-3):
            traj = run(RC_NET, t_end=2.0, dt=dt)
            t = traj.grid.times()
            vc = branch_voltage(RC_NET, traj, "c1")
            errs.append(np.max(np.abs(vc[1:] - (1 - np.exp(-t[1:])))))
        assert errs[0] / errs[1] >= 2.0 * 0.9


class TestLcOscillator:
    def test_period_within_one_percent(self):
        traj = run(LC_NET, t_end=10.0)
        v = branch_voltage(LC_NET, traj, "c1")
        t = traj.grid.times()
        # v(t) = sin t for unit L, C and unit step current drive
        crossings = t[2:][np.diff(np.signbit(v[1:]).astype(int)) != 0]
        period = 2 * np.mean(np.diff(crossings))
        assert abs(period - 2 * np.pi) / (2 * np.pi) < 0.01

    def test_amplitude_close_to_analytic(self):
        traj = run(LC_NET, t_end=6.0)
        v = branch_voltage(LC_NET, traj, "c1")
        t = traj.grid.times()
        assert np.max(np.abs(v - np.sin(t))) < 0.05


class TestDegenerateInputs:
    def test_zero_everything_is_zero_trajectory(self):
        net = "V vin 1 0 w=const(0)\nR r1 1 2 g=1\nC c1 2 0 c=1\n"
        traj = run(net)
        assert np.max(np.abs(traj.tree_flux)) == 0.0
        assert np.max(np.abs(traj.loop_charge)) == 0.0

    def test_invalid_circuit_rejected(self):
        with pytest.raises(ValidationError):
            run("R r1 a b g=1\nR r2 c 0 g=1\n")

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            run(LINNET, beta=-0.1)


class TestLinearMemristorReduction:
    def test_matches_resistor_sample_for_sample(self):
        # a linear half-order memristor r = g psi is identical to a linear
        # resistor i = g v; discretely the GL recursions coincide exactly
        resistor = run(LINNET, beta=1e-3)
        mem = LINNET.replace("R s2 in2 out g=0.25 trainable", "M s2 in2 out f=linear(0.25)")
        memristor = run(mem, beta=1e-3)
        dv = np.max(np.abs(resistor.outputs - memristor.outputs))
        assert dv <= 10 * 1e-3
        # the discrete equivalence is much tighter than the contract bound
        assert dv < 1e-8

    def test_nonlinear_memristor_simulates(self):
        net = LINNET.replace("R s3 out 0 g=0.5 trainable", "M s3 out 0 f=tanh(0.5,1.0)")
        traj = run(net, t_end=0.2)
        assert np.all(np.isfinite(traj.outputs))


class TestFreePhaseIndependence:
    def test_targets_cannot_leak_at_beta_zero(self):
        a = run(LINNET, beta=0.0)
        b = run(LINNET, beta=0.0, drive=DriveSet(targets={"oc1": Waveform("sine", (5.0, 3.0, 0.0))}))
        assert np.array_equal(a.tree_flux, b.tree_flux)
        assert np.array_equal(a.loop_charge, b.loop_charge)
        assert np.array_equal(a.outputs, b.outputs)


class TestBetaContinuity:
    def test_distance_scales_linearly_in_beta(self):
        # measured on the coordinate trajectories: output *voltages* carry an
        # O(1) switch-on spike whose duration (not amplitude) is O(beta), so
        # the flux/charge coordinates are where linear response shows
        base = run(LINNET, beta=0.0)
        dists = []
        for beta in (1e-2, 1e-3):
            nudged = run(LINNET, beta=beta)
            d = max(
                np.max(np.abs(nudged.tree_flux - base.tree_flux)),
                np.max(np.abs(nudged.loop_charge - base.loop_charge)),
            )
            dists.append(d)
        ratio = dists[0] / dists[1]
        assert 10 / 2 < ratio < 10 * 2


class TestEnergySanity:
    def test_source_free_passive_zero(self):
        net = "R r1 a 0 g=1\nC c1 a 0 c=1\nL l1 a 0 l=1\n"
        traj = run(net, t_end=0.5)
        assert np.max(np.abs(traj.tree_flux)) == 0.0

    def test_discharge_through_short(self):
        # charge the capacitor, then drop the source to zero: the stored
        # energy must decay monotonically (within the discrete tolerance)
        grid = SampleGrid.from_span(0.0, 2.0, 1e-3)
        drive = DriveSet(inputs={"vin": lambda t: np.where(t < 1.0, 1.0, 0.0)})
        traj = simulate(parse_netlist(RC_NET), drive, 0.0, SimConfig(grid))
        vc = branch_voltage(RC_NET, traj, "c1")
        energy = 0.5 * vc**2
        after = energy[int(1.1 / 1e-3) :]
        assert np.all(np.diff(after) <= 1e-12)


class TestTrajectoryLoss:
    def test_perfect_tracking(self):
        # drive the output to match the target exactly via a voltage source
        net = "V vs out 0 w=const(0)\nR r 1 out g=1\nV vin 1 0 w=const(0)\nOC oc1 out 0 cap=1 w=const(0.0)\n"
        traj = run(net)
        assert trajectory_loss(traj) == pytest.approx(0.0, abs=1e-20)

    def test_unit_mismatch(self):
        net = "V vs out 0 w=const(0)\nR r 1 out g=1\nV vin 1 0 w=const(0)\nOC oc1 out 0 cap=1 w=const(1.0)\n"
        traj = run(net)
        # v - T = -1 except at the t=0 sample where v jumps from rest
        assert trajectory_loss(traj) == pytest.approx(1.0, rel=2e-3)

    def test_sine_mismatch_integrates_to_half(self):
        net = "V vs out 0 w=const(0)\nR r 1 out g=1\nV vin 1 0 w=const(0)\nOC oc1 out 0 cap=1 w=const(0)\n"
        drive = DriveSet(targets={"oc1": Waveform("sine", (1.0, 1.0, 0.0))})
        traj = run(net, drive=drive)
        assert trajectory_loss(traj) == pytest.approx(0.5, abs=1e-3)

    def test_missing_outputs(self):
        traj = run(RC_NET)
        with pytest.raises(MissingOutputError):
            trajectory_loss(traj)


class TestDeterminismAndExport:
    def test_identical_runs_bit_identical(self):
        a = run(LINNET, beta=1e-3)
        b = run(LINNET, beta=1e-3)
        assert_same_csv(csv_text(a), csv_text(b))

    def test_csv_header_layout(self):
        traj = run(LINNET, beta=0.0, t_end=0.01)
        header = csv_text(traj).splitlines()[0].split(",")
        assert header[0] == "t"
        assert "out_oc1_v" in header and "out_oc1_T" in header
        assert any(h.startswith("coord_") and h.endswith("_phi") for h in header)

    @staticmethod
    def per_cell_body(columns):
        # the formatter the CSV export used before: one "%.17g" per cell
        return "".join(",".join("%.17g" % col[row] for col in columns) + "\n" for row in range(len(columns[0])))

    def test_body_matches_per_cell_formatter(self):
        from fraceq import dynamics

        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
        rng = np.random.default_rng(7)
        for rows in (1, 3, dynamics.CSV_CHUNK_ROWS, 2 * dynamics.CSV_CHUNK_ROWS + 5):
            columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(4)]
            columns.append(np.resize(special, rows))
            columns.append(np.resize(special[::-1], rows))
            chunks = list(dynamics._csv_body(columns))
            assert "".join(chunks) == self.per_cell_body(columns)
            # every chunk but the last holds CSV_CHUNK_ROWS rows
            sizes = [chunk.count("\n") for chunk in chunks]
            assert sizes[:-1] == [dynamics.CSV_CHUNK_ROWS] * (len(sizes) - 1) and 0 < sizes[-1] <= dynamics.CSV_CHUNK_ROWS

    def test_csv_matches_per_cell_formatter(self):
        traj = run(LINNET, beta=1e-3, t_end=5.0)
        cols = traj._csv_columns()
        expected = ",".join(name for name, _ in cols) + "\n" + self.per_cell_body([v for _, v in cols])
        assert_same_csv(csv_text(traj), expected)


class TestHalfRates:
    def test_computed_once_per_trajectory(self, monkeypatch):
        # one GL convolution per half-rate property covers all of its rows
        from fraceq import dynamics
        from fraceq.frac_ops import caputo_left

        traj = run(LINNET, beta=1e-3, t_end=0.1)
        calls = []
        convolve = dynamics._gl_convolve

        def counting(values, dt, alpha):
            calls.append(len(values))
            return convolve(values, dt, alpha)

        monkeypatch.setattr(dynamics, "_gl_convolve", counting)
        psi, r = traj.tree_half_velocity, traj.loop_half_charge_rate
        rows = len(traj.tree_flux) + len(traj.loop_charge)
        assert calls == [len(traj.tree_flux), len(traj.loop_charge)] and sum(calls) == rows
        csv_text(traj)
        assert traj.tree_half_velocity is psi and traj.loop_half_charge_rate is r
        assert sum(calls) == rows and len(calls) == 2
        assert not psi.flags.writeable and not r.flags.writeable
        for values, rate in zip((traj.tree_flux, traj.loop_charge), (psi, r)):
            expected = [caputo_left(Signal(traj.grid, row), 0.5).values for row in values]
            assert np.array_equal(rate, expected)
