import functools
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

import linear_reference
from csv_compare import assert_same_csv, csv_text
from fraceq import dynamics, eqprop
from fraceq.circuit import Circuit, Waveform, parse_netlist
from fraceq.dynamics import DriveSet, Member, SimConfig, compile, simulate, simulate_batch, trajectory_loss
from fraceq.eqprop import (
    GradientEstimate,
    TrainConfig,
    agreement_metrics,
    estimate_from,
    estimate_gradient,
    estimates_and_oracle,
    fd_differences,
    fd_members,
    train,
)
from fraceq.errors import NewtonDivergenceError, ParameterError, ValidationError
from fraceq.frac_ops import SampleGrid
from fraceq.lagrangian import half_energies
from test_batch import random_circuits, skip_topology_refusal
from test_frac_ops import half_energy_integral

LINNET = """\
V v1 in1 0 w=const(1.0)
V v2 in2 0 w=const(0.5)
R s1 in1 out g=1.0 trainable
R s2 in2 out g=0.25 trainable
R s3 out 0 g=0.5 trainable
OC oc1 out 0 cap=1.0 w=const(0.4)
"""

# netlists/tanhnet.net: s2 as a tanh memristor, so every run steps through Newton
TANHNET = LINNET.replace("R s2 in2 out g=0.25 trainable", "M s2 in2 out f=tanh(0.25,1.0)")

# free-phase output of the divider: (g1 V1 + g2 V2) / (g1 + g2 + g3)
V_FREE = (1.0 * 1.0 + 0.25 * 0.5) / (1.0 + 0.25 + 0.5)


def sim_cfg(dt=1e-3, t_end=1.0):
    return SimConfig(SampleGrid.from_span(0.0, t_end, dt))


def estimate(circuit, drive, beta, cfg):
    """`estimate_gradient` of `circuit` as written: compiled here, run with its own conductances."""
    system = compile(circuit)
    return estimate_gradient(system, system.g, drive, beta, cfg)


def example_orders(seed, examples, epochs):
    """The example order of each epoch, drawn as `train` draws it."""
    rng = random.Random(seed)
    return [sorted(range(examples), key=lambda _: rng.random()) for _ in range(epochs)]


def fd_oracle(circuit, drive, eps, cfg):
    """The central-difference oracle alone: `estimates_and_oracle` with no nudge."""
    return estimates_and_oracle(circuit, drive, [], eps, cfg)[1]


@pytest.fixture(scope="module")
def linnet():
    return parse_netlist(LINNET)


@pytest.fixture(scope="module")
def oracle(linnet):
    return fd_oracle(linnet, DriveSet(), 1e-4, sim_cfg())


class TestEstimateGradient:
    def test_identity_recoverable_from_raw_energies(self, linnet):
        est = estimate(linnet, DriveSet(), 1e-3, sim_cfg())
        cap = linnet.loss_capacitance
        for value, (e_nudged, e_free) in zip(est.values, est.raw_half_energies):
            assert value == (e_nudged - e_free) / (2 * cap * 1e-3)
            assert e_nudged >= 0 and e_free >= 0

    def test_conductance_vector_stands_for_the_circuit(self, linnet):
        # conductances are read from g alone, never from the compiled circuit
        system = compile(linnet)
        g = system.g.copy()
        g[linnet.index_of("s1")] = 0.7
        moved = estimate(linnet.with_conductances({"s1": 0.7}), DriveSet(), 1e-3, sim_cfg())
        assert estimate_gradient(system, g, DriveSet(), 1e-3, sim_cfg()) == moved

    def test_beta_zero_rejected(self, linnet):
        with pytest.raises(ValueError, match="beta"):
            estimate(linnet, DriveSet(), 0.0, sim_cfg())

    def test_zero_nudge_when_target_matches_free_output(self, linnet):
        drive = DriveSet(targets={"oc1": Waveform("const", (V_FREE,))})
        # perfectly tracked target: the nudged phase coincides with the free
        # phase and the estimate sits at roundoff for any small beta
        for beta in (1e-2, 1e-3):
            est = estimate(linnet, drive, beta, sim_cfg())
            assert np.max(np.abs(est.values)) < 1e-8

    def test_sign_agreement_and_cosine(self, linnet, oracle):
        est = estimate(linnet, DriveSet(), 1e-3, sim_cfg())
        m = agreement_metrics(est, oracle)
        assert m["sign_match"]
        assert m["cosine_similarity"] >= 0.9

    def test_halving_beta_changes_estimate_little(self, linnet):
        a = np.array(estimate(linnet, DriveSet(), 1e-3, sim_cfg()).values)
        b = np.array(estimate(linnet, DriveSet(), 5e-4, sim_cfg()).values)
        assert np.max(np.abs(a - b) / np.abs(a)) <= 0.05

    def test_zero_nudge_quotient_cauchy(self, linnet):
        # the finite-beta quotient stabilizes as beta drops below 1e-6
        quotients = [
            np.array(estimate(linnet, DriveSet(), beta, sim_cfg()).values)
            for beta in (1e-6, 5e-7)
        ]
        rel = np.max(np.abs(quotients[0] - quotients[1]) / np.abs(quotients[1]))
        assert rel <= 0.10

    def test_oracle_ratio_is_one_over_pi(self, linnet, oracle):
        # measured relationship on the reference network: the two-trajectory
        # estimate equals the true gradient scaled by 1/pi (the half-order
        # energy quadrature of the constant-drive response), to under 1%
        est = np.array(estimate(linnet, DriveSet(), 1e-3, sim_cfg()).values)
        ratio = np.pi * est / np.array(oracle)
        assert np.max(np.abs(ratio - 1.0)) < 0.01


def reference_energies(traj, branches):
    """half_energy_integral of each branch flux: a half-derivative per branch."""
    flux = traj.topology.flux_map[list(branches)] @ traj.tree_flux
    return np.array([half_energy_integral(row, traj.grid.dt) for row in flux])


def free_and_nudged(circuit, beta, config):
    system = compile(circuit)
    g = system.g
    return simulate_batch(system, DriveSet(), config, [Member("free", 0.0, g), Member("nudged", beta, g)])


class TestEnergiesAgainstBranchReference:
    """The estimator reads each synapse's half-rate through the flux map
    from the tree half-velocities; the reference takes the half-derivative
    of the branch flux itself.  The two round differently, so they agree to
    1e-10 relative, not bit for bit."""

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 1e-4])
    def test_linnet(self, linnet, dt):
        beta = 1e-3
        free, nudged = free_and_nudged(linnet, beta, sim_cfg(dt=dt))
        est = estimate_from(linnet, free, nudged)
        idx = linnet.trainables
        e_nudged, e_free = reference_energies(nudged, idx), reference_energies(free, idx)
        assert np.allclose(est.raw_half_energies, np.stack([e_nudged, e_free], axis=1), rtol=1e-10, atol=0)
        expected = (e_nudged - e_free) / (2 * linnet.loss_capacitance * beta)
        assert np.allclose(est.values, expected, rtol=1e-10, atol=0)

    @settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(circuit=random_circuits())
    def test_generated_circuits(self, circuit):
        # every resistor trainable; energies of every branch kind compared
        circuit = Circuit(tuple(replace(e, trainable=True) if e.kind == "R" else e for e in circuit.elements))
        beta = 0.3
        try:
            free, nudged = free_and_nudged(circuit, beta, sim_cfg(dt=1e-2, t_end=0.5))
        except NewtonDivergenceError:
            assume(False)
        except ValidationError as exc:
            skip_topology_refusal(exc)
        # a branch whose flux cancels to roundoff has an energy of roundoff
        # squared, so the floor is relative to the run's largest energy
        branches = range(len(circuit.elements))
        for traj in (free, nudged):
            got, ref = half_energies(circuit, traj, branches), reference_energies(traj, branches)
            assert np.allclose(got, ref, rtol=1e-10, atol=1e-10 * ref.max())
        if not any(e.kind == "OC" for e in circuit.elements):
            return
        est = estimate_from(circuit, free, nudged)
        idx = circuit.trainables
        e_nudged, e_free = reference_energies(nudged, idx), reference_energies(free, idx)
        scale = 2 * circuit.loss_capacitance * beta
        # a difference of two energies: its error is measured on their scale
        error = np.abs(np.array(est.values) - (e_nudged - e_free) / scale)
        assert np.all(error <= 1e-10 * np.maximum(e_nudged, e_free) / scale)


class TestUnequalOutputCaps:
    # the nudge weights each output by its own cap, so with unequal caps the
    # estimator would follow a cap-weighted loss instead of J
    NET = LINNET + "R s4 out out2 g=0.5 trainable\nOC oc2 out2 0 cap=5.0 w=const(0.2)\n"

    def test_estimator_rejects(self):
        with pytest.raises(ValidationError, match="oc1=1, oc2=5"):
            estimate(parse_netlist(self.NET), DriveSet(), 1e-3, sim_cfg())

    def test_beta_partial_rejects(self):
        # the action's beta partial, -C J, needs the one common cap C too
        ckt = parse_netlist(self.NET)
        traj = simulate(ckt, DriveSet(), 1e-3, sim_cfg(t_end=0.1))
        with pytest.raises(ValidationError, match="unequal-output-caps"):
            -ckt.loss_capacitance * trajectory_loss(traj)

    def test_equal_caps_accepted(self):
        ckt = parse_netlist(self.NET.replace("cap=5.0", "cap=1.0"))
        assert ckt.loss_capacitance == 1.0


class TestFdGradient:
    def test_eps_sweep_self_consistency(self, linnet, oracle):
        fine = fd_oracle(linnet, DriveSet(), 1e-5, sim_cfg())
        rel = np.max(np.abs(np.array(oracle) - fine) / np.abs(fine))
        assert rel < 1e-3

    def test_error_against_the_exact_gradient(self, linnet, oracle):
        # the complex-step gradient is exact for the discrete run; the bar was
        # fixed before this test first ran, from the 1e-9 to 1.2e-8 measured
        # per synapse on linnet at t_end 1
        exact = np.array(linear_reference.exact_gradient(linnet, DriveSet(), sim_cfg()))
        assert np.max(np.abs(np.array(oracle) - exact) / np.abs(exact)) <= 3e-8

    def test_step_too_large(self, linnet):
        with pytest.raises(ParameterError, match="^eps 0.25 would drive conductance 0.25 non-positive$") as info:
            fd_oracle(linnet, DriveSet(), 0.25, sim_cfg())
        assert info.value.name == "eps"

    def test_dangling_synapse_zero_gradient(self):
        net = LINNET + "V v3 x1 0 w=const(1.0)\nR s4 x1 0 g=0.3 trainable\n"
        ckt = parse_netlist(net)
        grads = fd_oracle(ckt, DriveSet(), 1e-4, sim_cfg(t_end=0.5))
        k = list(ckt.trainables).index(ckt.index_of("s4"))
        assert abs(grads[k]) < 1e-10

    def test_doubling_target_offset_doubles_gradient(self, linnet):
        offsets = {}
        for scale in (1.0, 2.0):
            target = V_FREE - scale * 0.1
            drive = DriveSet(targets={"oc1": Waveform("const", (target,))})
            offsets[scale] = np.array(fd_oracle(linnet, drive, 1e-4, sim_cfg()))
        ratio = offsets[2.0] / offsets[1.0]
        assert np.max(np.abs(ratio - 2.0)) < 0.02


def _recorded_batches(monkeypatch) -> list:
    """The member labels of every simulate_batch call eqprop makes from now on."""
    batches = []
    stepped = eqprop.simulate_batch

    def recording(system, drive, cfg, members):
        batches.append([m.label for m in members])
        return stepped(system, drive, cfg, members)

    monkeypatch.setattr(eqprop, "simulate_batch", recording)
    return batches


class TestEstimatesAndOracle:
    @pytest.mark.parametrize("net", [LINNET, TANHNET], ids=["linnet", "tanhnet"])
    def test_bitwise_equal_to_separate_runs(self, net):
        # on tanhnet at beta 0.1, a few Newton passes solve for 6 of the 7 members
        # (the others have converged), so this covers the per-member mask
        ckt = parse_netlist(net)
        nudges = [("nudged", 0.1), ("nudged beta/2", 0.05)]
        estimates, oracle = estimates_and_oracle(ckt, DriveSet(), nudges, 1e-4, sim_cfg())
        for est, (_, beta) in zip(estimates, nudges):
            alone = estimate(ckt, DriveSet(), beta, sim_cfg())
            assert est == alone
            assert est.loss_free == alone.loss_free
        # the oracle's runs stepped as a batch of their own give the same bits
        system = compile(ckt)
        alone = simulate_batch(system, DriveSet(), sim_cfg(), fd_members(ckt, 1e-4, system.g))
        assert oracle == fd_differences(alone, 1e-4)

    def test_memory_per_sample_at_fine_dt(self, linnet):
        # gradcheck's batch at N = 1e4.  numpy reports its buffers to
        # tracemalloc, so the bound is free of base RSS and bytecode.  The
        # peak read 97.6 float64 words a sample when every member kept its
        # coordinates and the drives were whole-grid arrays, 61.2 with
        # output-only oracle runs and block-sized buffers, and 43.5 with
        # tree-flux free and nudged runs and one-row transforms
        nudges = [("nudged", 1e-3), ("nudged beta/2", 5e-4)]
        estimates_and_oracle(linnet, DriveSet(), nudges, 1e-4, sim_cfg(dt=0.1))  # lazy imports and caches
        config = sim_cfg(dt=1e-4)
        tracemalloc.start()
        try:
            estimates_and_oracle(linnet, DriveSet(), nudges, 1e-4, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 8 / config.grid.n <= 48

    @pytest.mark.parametrize("beta, eps", [(0.0, 1e-4), (1e-3, 0.0), (1e-3, 0.25)])
    def test_bad_beta_or_eps_fails_before_any_run(self, linnet, monkeypatch, beta, eps):
        batches = _recorded_batches(monkeypatch)
        with pytest.raises(ValueError):
            estimates_and_oracle(linnet, DriveSet(), [("nudged", beta)], eps, sim_cfg())
        assert batches == []


class TestCalibration:
    def test_reference_network_calibrates_positive(self, linnet, oracle):
        # the fixed sign is the one that aligns the estimate with the oracle
        assert np.dot(estimate(linnet, DriveSet(), 1e-3, sim_cfg()).values, oracle) > 0


class TestTrain:
    def _config(self, **kw):
        defaults = dict(
            epochs=3,
            learning_rate=0.05,
            beta=1e-3,
            sim=sim_cfg(dt=2e-3),
            batch=(DriveSet(),),
            seed=1,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_learning_rate_is_identity(self, linnet):
        final, log = train(linnet, self._config(learning_rate=0.0))
        assert final == linnet
        losses = log.losses_by_epoch()
        assert losses[0] == losses[-1]

    def test_loss_decreases(self, linnet):
        _, log = train(linnet, self._config(epochs=10))
        losses = log.losses_by_epoch()
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_seed_determinism(self, linnet):
        a = csv_text(train(linnet, self._config())[1])
        b = csv_text(train(linnet, self._config())[1])
        assert_same_csv(a, b)

    def test_log_shape_and_csv(self, linnet):
        final, log = train(linnet, self._config(epochs=2))
        assert len(log.records) == 2 * 1
        header = csv_text(log).splitlines()[0]
        assert header == "epoch,example,J,grad_norm,g_s1,g_s2,g_s3"

    def _train_on_fixed_gradient(self, linnet, monkeypatch, values):
        """One update at learning rate 0.1, with every estimate replaced by `values`."""
        names = tuple(linnet.elements[l].name for l in linnet.trainables)

        def fixed(system, g, drive, beta, cfg):
            return GradientEstimate(names, tuple(values), ((0.0, 0.0),) * len(names), 0.0)

        monkeypatch.setattr(eqprop, "estimate_gradient", fixed)
        return train(linnet, self._config(epochs=1, learning_rate=0.1))[0]

    def test_zero_gradient_no_change(self, linnet, monkeypatch):
        assert self._train_on_fixed_gradient(linnet, monkeypatch, [0.0, 0.0, 0.0]) == linnet

    def test_plain_update(self, linnet, monkeypatch):
        out = self._train_on_fixed_gradient(linnet, monkeypatch, [1.0, 0.0, 0.0])
        assert out.element("s1").g == pytest.approx(0.9)
        assert out.element("s2").g == 0.25

    def test_floor_engaged(self, linnet, monkeypatch):
        out = self._train_on_fixed_gradient(linnet, monkeypatch, [0.0, 0.0, 100.0])
        assert out.element("s3").g == 1e-6

    def test_example_orders_are_pinned(self, linnet, monkeypatch):
        # Python keeps the stream of Random(seed).random() stable across
        # versions; CI runs this on each Python it tests, so drift shows here
        assert example_orders(1, 4, 3) == [[0, 3, 2, 1], [1, 0, 2, 3], [1, 0, 3, 2]]
        names = tuple(linnet.elements[l].name for l in linnet.trainables)

        def fixed(system, g, drive, beta, cfg):
            return GradientEstimate(names, (0.0,) * len(names), ((0.0, 0.0),) * len(names), 0.0)

        monkeypatch.setattr(eqprop, "estimate_gradient", fixed)
        _, log = train(linnet, self._config(batch=(DriveSet(),) * 4))
        assert [example for _, example, *_ in log.records] == [0, 3, 2, 1, 1, 0, 2, 3, 1, 0, 3, 2]

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning_rate"):
            self._config(learning_rate=-0.1)

    def test_failure_names_epoch_and_example(self, monkeypatch):
        # one Newton pass cannot solve a step of a tanh law
        tanh_m = parse_netlist(LINNET + "M m1 out 0 f=tanh(0.5,1.0)\n")
        monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERS", 1)
        config = self._config(sim=sim_cfg(dt=2e-3), batch=(DriveSet(),) * 2)
        first = example_orders(config.seed, 2, 1)[0][0]
        message = f"^epoch 0, example {first}: Newton iteration diverged at t=0.002 \\(free phase\\)"
        with pytest.raises(NewtonDivergenceError, match=message) as info:
            train(tanh_m, config)
        assert csv_text(info.value.partial_log) == "epoch,example,J,grad_norm,g_s1,g_s2,g_s3\n"


class TestMixedPartials:
    def _second_partials(self, linnet):
        cfg = sim_cfg(dt=2e-3)
        l = linnet.index_of("s1")
        g = linnet.elements[l].g
        eps, beta0, delta = 1e-3, 1e-2, 1e-3

        def beta_partial(gg):
            ckt = linnet.with_conductances({"s1": gg})
            traj = simulate(ckt, DriveSet(), beta0, cfg)
            return -ckt.loss_capacitance * trajectory_loss(traj)

        def g_partial(beta):
            traj = simulate(linnet, DriveSet(), beta, cfg)
            return (0.5j * half_energies(linnet, traj, [l])[0]).imag

        d_g_of_beta_partial = (beta_partial(g + eps) - beta_partial(g - eps)) / (2 * eps)
        d_beta_of_g_partial = (g_partial(beta0 + delta) - g_partial(beta0 - delta)) / (2 * delta)
        return d_g_of_beta_partial, d_beta_of_g_partial

    @pytest.mark.xfail(
        strict=True,
        reason="the two mixed second partials of the action differ by a factor "
        "of -pi on the reference network; the symmetry claim does not hold "
        "numerically for the half-order synaptic term",
    )
    def test_symmetry_within_five_percent(self, linnet):
        a, b = self._second_partials(linnet)
        assert abs(a - b) / abs(a) <= 0.05

    def test_measured_relationship(self, linnet):
        # what actually holds: d/dbeta of the synaptic partial equals
        # -1/pi times d/dg of the output partial
        a, b = self._second_partials(linnet)
        assert b == pytest.approx(-a / np.pi, rel=0.05)


SINE_LINNET = LINNET.replace("V v1 in1 0 w=const(1.0)", "V v1 in1 0 w=sine(1,2,0)")
CAP_1F_LINNET = LINNET + "C cx out 0 c=1.0\n"
CAP_01F_LINNET = LINNET + "C cx out 0 c=0.1\n"


@functools.lru_cache(maxsize=None)
def agreement_at_defaults(net):
    """Estimate-vs-oracle metrics at gradcheck's defaults: dt 1e-3, beta 1e-3, eps 1e-4."""
    circuit = parse_netlist(net)
    est = estimate(circuit, DriveSet(), 1e-3, sim_cfg())
    return agreement_metrics(est, fd_oracle(circuit, DriveSet(), 1e-4, sim_cfg()))


class TestTimeVaryingCircuits:
    """The estimate is the oracle over pi only while branch voltages are
    quasi-static: at a constant voltage v the half-derivative of the flux is
    2 v sqrt(t / pi), but a time-varying v is weighted by a nonlocal kernel,
    and the per-synapse scale then differs from 1/pi."""

    @pytest.mark.xfail(
        strict=True,
        reason="a sine drive or a 1 F output capacitor makes the branch voltages "
        "time-varying; the estimate then misses criterion 8's gate",
    )
    @pytest.mark.parametrize("net", [SINE_LINNET, CAP_1F_LINNET], ids=["sine-drive", "1F-output-cap"])
    def test_meets_criterion_8_gate(self, net):
        m = agreement_at_defaults(net)
        assert m["sign_match"] and m["cosine_similarity"] >= 0.9

    @pytest.mark.parametrize(
        "net, cosine, sign_match",
        [(SINE_LINNET, 0.736825, False), (CAP_1F_LINNET, 0.707431, True), (CAP_01F_LINNET, 0.996416, True)],
        ids=["sine-drive", "1F-output-cap", "0.1F-output-cap"],
    )
    def test_measured_cosine(self, net, cosine, sign_match):
        m = agreement_at_defaults(net)
        assert m["cosine_similarity"] == pytest.approx(cosine, abs=1e-6)
        assert m["sign_match"] == sign_match
