import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraceq import frac_ops
from fraceq.errors import GridTooSmallError, InvalidOrderError, NonFiniteResultError, ParameterError
from fraceq.frac_ops import (
    GLHistory,
    SampleGrid,
    caputo_left,
    caputo_right,
    gl_weights,
    rl_derivative_left,
    rl_derivative_right,
    rl_integral_left,
)


def unit_grid(dt=1e-3):
    return SampleGrid.from_span(0.0, 1.0, dt)


def sig(f, dt=1e-3):
    return f(unit_grid(dt).times())


class TestGlWeights:
    def test_integer_order_is_first_difference(self):
        assert np.allclose(gl_weights(1.0, 3), [1, -1, 0, 0])

    def test_half_order_exact_values(self):
        # recurrence w_k = w_{k-1} (k - 1 - alpha) / k in exact arithmetic
        assert np.allclose(gl_weights(0.5, 3), [1, -0.5, -0.125, -0.0625], atol=0, rtol=1e-15)

    def test_partial_sums_decrease_to_zero(self):
        w = gl_weights(0.5, 10_000)
        s = np.cumsum(w)
        assert np.all(np.diff(s) < 0)
        assert s[0] == 1.0
        assert 0 < s[-1] < 0.02

    def test_tail_signs(self):
        w = gl_weights(0.3, 500)
        assert w[0] == 1.0
        assert np.all(w[1:] < 0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0, 2.5])
    def test_rejects_out_of_range_order(self, alpha):
        with pytest.raises(InvalidOrderError):
            gl_weights(alpha, 4)


class TestCaputoLeft:
    def test_constant_vanishes(self):
        y = caputo_left(sig(lambda t: 3.7 + 0 * t), 1e-3, 0.5)
        assert np.max(np.abs(y)) == 0.0

    def test_ramp_against_closed_form(self):
        t = unit_grid().times()
        y = caputo_left(sig(lambda t: t), 1e-3, 0.5)
        exact = 2 * np.sqrt(t / np.pi)
        assert abs(y[-1] - 1.1283791670955126) < 2e-4
        assert np.max(np.abs(y - exact)) < 5e-3

    def test_ramp_against_quadrature_oracle(self):
        # independent oracle: 1/Gamma(1/2) * int_0^t (t-s)^(-1/2) x'(s) ds
        # with x' = 1, regularized by s = t - u^2
        def oracle(t):
            u = np.linspace(0.0, math.sqrt(t), 20_001)
            return np.trapezoid(2.0 / math.sqrt(math.pi) + 0 * u, u)

        y = caputo_left(sig(lambda t: t), 1e-3, 0.5)
        for i in [100, 500, 1000]:
            t = unit_grid().times()[i]
            assert abs(y[i] - oracle(t)) < 5e-3

    def test_integer_order_matches_backward_difference(self):
        t = unit_grid().times()
        y = caputo_left(sig(lambda t: t**2), 1e-3, 1.0)
        assert np.max(np.abs(y[1:] - 2 * t[1:])) < 2e-3

    def test_integer_order_error_bound(self):
        # within 2 dt max|x''| of the derivative for alpha = 1
        dt = 1e-3
        t = unit_grid(dt).times()
        y = caputo_left(sig(np.sin, dt), dt, 1.0)
        assert np.max(np.abs(y[1:] - np.cos(t[1:]))) <= 2 * dt * 1.0

    def test_rejects_large_order(self):
        with pytest.raises(InvalidOrderError):
            caputo_left(sig(lambda t: t), 1e-3, 1.5)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            SampleGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "a, b, dt, name",
        [
            (0.0, 1.0, 0.0, "dt"),
            (0.0, 1.0, -1e-3, "dt"),
            (0.0, 1.0, math.nan, "dt"),
            (0.0, 1.0, math.inf, "dt"),
            (0.0, 1.0, 3.0, "dt"),  # not one step in the span
            (0.0, 1.0, 1.5, "dt"),
            (0.0, math.inf, 1e-3, "b"),
            (0.0, math.nan, 1e-3, "b"),
            (0.0, -1.0, 1e-3, "b"),
            (0.0, 0.0, 1e-3, "b"),
            (-math.inf, 1.0, 1e-3, "a"),
            (0.0, 1.5e-10, 1e-10, "b"),  # half a step off the grid, 5e-11 in all
            (0.0, 1.0 + 1e-8, 1e-5, "b"),
        ],
    )
    def test_span_rejects_bad_numbers_by_name(self, a, b, dt, name):
        with pytest.raises(ParameterError) as exc:
            SampleGrid.from_span(a, b, dt)
        assert exc.value.name == name

    @pytest.mark.parametrize("dt", [1e-12, 1e-10, 1e-5, 1e-4, 1e-3, 2e-3, 4e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("steps", [3, 10, 1000, 20000])
    def test_span_of_whole_steps_accepted(self, dt, steps):
        # the span end as it would be typed: decimal, rounded once
        b = float(f"{steps * dt:.12g}")
        assert SampleGrid.from_span(0.0, b, dt).n == steps + 1

    def test_refinement_on_power_three_halves(self):
        # halving dt must reduce the max error by at least 1.8x
        errs = []
        for dt in (2e-3, 1e-3):
            t = unit_grid(dt).times()
            y = caputo_left(sig(lambda t: t**1.5, dt), dt, 0.5)
            exact = math.gamma(2.5) / math.gamma(2.0) * t
            errs.append(np.max(np.abs(y - exact)))
        assert errs[0] / errs[1] >= 1.8


class TestRlIntegralLeft:
    def test_order_one_is_ordinary_integral(self):
        t = unit_grid().times()
        y = rl_integral_left(sig(lambda t: 1 + 0 * t), 1e-3, 1.0)
        assert np.max(np.abs(y - t)) < 1e-12

    def test_half_order_of_constant(self):
        t = unit_grid().times()
        y = rl_integral_left(sig(lambda t: 1 + 0 * t), 1e-3, 0.5)
        exact = np.sqrt(t) / math.gamma(1.5)
        assert abs(y[-1] - 1.1283791670955126) < 1e-6
        assert np.max(np.abs(y - exact)) < 1e-4

    def test_semigroup_composition(self):
        x = sig(lambda t: np.sin(2 * t))
        once = rl_integral_left(rl_integral_left(x, 1e-3, 0.5), 1e-3, 0.5)
        full = rl_integral_left(x, 1e-3, 1.0)
        assert np.max(np.abs(once - full)) < 2e-3

    def test_rejects_nonpositive_order(self):
        with pytest.raises(InvalidOrderError):
            rl_integral_left(sig(lambda t: t), 1e-3, -0.5)

    def test_rejects_order_whose_scale_underflows(self):
        # dt^90 / Gamma(92) = 1e-270 / 8e139 is below the smallest normal float;
        # the weights, at most 2001^91 = 3e300, are still finite
        x = np.sin(np.arange(2001) * 1e-3)
        with pytest.raises(InvalidOrderError, match="integral order 90 underflows the quadrature scale"):
            rl_integral_left(x, 1e-3, 90)
        # at dt 1e-1 the same order's scale, 1e-90 / 8e139, is a normal float
        assert np.isfinite(rl_integral_left(x[:101], 1e-1, 90)).all()


class TestRlDerivativeRight:
    def test_constant_closed_form(self):
        # c (b-t)^(-1/2) / Gamma(1/2), checked away from the singular endpoint
        t = unit_grid().times()
        y = rl_derivative_right(sig(lambda t: 1 + 0 * t), 1e-3, 0.5)
        interior = slice(0, -50)
        exact = (1.0 - t[interior]) ** -0.5 / math.gamma(0.5)
        assert np.max(np.abs(y[interior] - exact)) < 2e-2

    def test_integer_order_with_vanishing_endpoint(self):
        t = unit_grid().times()
        y = rl_derivative_right(sig(lambda t: 1 - t), 1e-3, 1.0)
        assert np.max(np.abs(y[:-1] - 1.0)) < 1e-9

    def test_right_composition_gives_negative_derivative(self):
        # discrete right-RL applied to the discrete right-Caputo half
        # derivative composes to the negated first difference: the two
        # (-j omega)^(1/2) symbols multiply to -j omega.  The source
        # derivation states this with a + sign, which fails the constant
        # closed-form convention tested above; the magnitude and the
        # refinement behavior are what the composition property pins down.
        errs = []
        for dt in (2e-3, 1e-3):
            t = unit_grid(dt).times()
            x = sig(lambda t: t**2, dt)
            y = rl_derivative_right(caputo_right(x, dt, 0.5), dt, 0.5)
            errs.append(np.max(np.abs(y[1:-1] - (-2 * t[1:-1]))))
        assert errs[1] < 5e-3
        assert errs[0] / errs[1] > 1.8


@st.composite
def random_signal_pair(draw):
    n = draw(st.integers(8, 40))
    mk = lambda: np.array(
        draw(st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    )
    return mk(), mk()


class TestLinearity:
    @given(random_signal_pair(), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_caputo_left_linear(self, pair, a, b):
        x, y = pair
        lhs = caputo_left(a * x + b * y, 0.05, 0.5)
        rhs = a * caputo_left(x, 0.05, 0.5) + b * caputo_left(y, 0.05, 0.5)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @given(random_signal_pair(), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_rl_integral_linear(self, pair, a, b):
        x, y = pair
        lhs = rl_integral_left(a * x + b * y, 0.05, 0.5)
        rhs = a * rl_integral_left(x, 0.05, 0.5) + b * rl_integral_left(y, 0.05, 0.5)
        assert np.allclose(lhs, rhs, atol=1e-8)


class TestGridAndOrderTypes:
    def test_grid_b_consistency(self):
        g = SampleGrid(0.0, 0.25, 5)
        assert g.b == 1.0
        assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])


class TestRowsAlongLastAxis:
    # Trajectory's half rates take every coordinate row in one caputo_left call
    @pytest.mark.parametrize("op", [caputo_left, caputo_right, rl_derivative_left, rl_derivative_right])
    @pytest.mark.parametrize("n", [2, 3, 511, 512, 513, 1025])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_each_row_as_if_alone(self, op, n, alpha):
        rows = np.random.default_rng(n).standard_normal((4, n)).cumsum(axis=1)
        together = op(rows, 1e-3, alpha)
        for row, got in zip(rows, together):
            assert np.array_equal(got, op(row, 1e-3, alpha))


class TestNonFiniteResults:
    def test_overflow_of_finite_input_is_located(self):
        # the FFT product overflows; the result's sample 0 is defined as 0
        with pytest.raises(NonFiniteResultError) as got:
            rl_integral_left(np.full(1000, 1e300), 1e-3, 2)
        assert (got.value.operator, got.value.sample) == ("rl_integral_left", 1)

    @pytest.mark.parametrize("op", [caputo_left, caputo_right, rl_derivative_left, rl_derivative_right])
    def test_each_operator_names_itself(self, op):
        rows = np.zeros((2, 3000))
        rows[1, 1:] = 1e306
        with pytest.raises(NonFiniteResultError, match=f"^{op.__name__} gives") as got:
            op(rows, 1e-3, 0.5)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(frac_ops, "_finite", lambda name, x, y: y)
            unchecked = op(rows, 1e-3, 0.5)
        assert np.isfinite(unchecked[0]).all()  # the other row is unharmed
        assert got.value.sample == np.argmax(~np.isfinite(unchecked).any(axis=0))

    def test_non_finite_input_passes_through(self):
        x = np.linspace(0.0, 1.0, 50)
        x[10] = np.nan
        assert np.isnan(caputo_left(x, 1e-3, 0.5)[10:]).all()


class TestSpectrumCache:
    @pytest.mark.parametrize("alpha, count, size", [(0.5, 3, 4), (0.5, 1001, 2048), (1.0, 512, 1024), (0.3, 1024, 1024)])
    def test_cached_spectrum_is_a_fresh_one(self, alpha, count, size):
        cached = frac_ops._gl_spectrum(alpha, count, size)
        assert np.array_equal(cached, np.fft.rfft(gl_weights(alpha, count - 1), size))
        assert frac_ops._gl_spectrum(alpha, count, size) is cached
        assert not cached.flags.writeable


# --- FFT convolution against direct summation --------------------------------


def half_energy_integral(phi, dt):
    """Trapezoid of the squared left Caputo half-derivative of a flux signal with step dt.

    The reference the estimator's energies (`lagrangian.half_energies`) are
    checked against: one half-derivative per branch flux.  Non-negative.
    """
    return float(np.trapezoid(caputo_left(phi, dt, 0.5) ** 2, dx=dt))


class TestHalfEnergyIntegral:
    def test_zero_trajectory(self):
        assert half_energy_integral(sig(lambda t: 0 * t), 1e-3) == 0.0

    def test_ramp_closed_form(self):
        # int_0^1 (2 sqrt(t/pi))^2 dt = 2/pi
        e = half_energy_integral(sig(lambda t: t), 1e-3)
        assert abs(e - 2 / math.pi) < 5e-3

    @given(st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_scaling(self, c):
        base = sig(lambda t: np.sin(3 * t), 1e-2)
        assert half_energy_integral(c * base, 1e-2) == pytest.approx(
            c**2 * half_energy_integral(base, 1e-2), abs=1e-12
        )

    def test_nonnegative_and_zero_only_for_constants(self):
        e = half_energy_integral(sig(lambda t: 1e-3 * np.sin(t), 1e-2), 1e-2)
        assert e > 1e-12
        e0 = half_energy_integral(sig(lambda t: 0.5 + 0 * t, 1e-2), 1e-2)
        assert abs(e0) < 1e-12


def direct_convolve(x, w=None, order=None):
    """The reference: first len(x) samples of np.convolve, no FFT, with w or the GL weights of order."""
    w = gl_weights(order, len(x) - 1) if w is None else w
    return np.convolve(x, w[: len(x)])[: len(x)]


def gl_bound(x, alpha, dt):
    """1e-12 dt^-alpha max|x| sum|w_j|, x the convolved sequence."""
    return 1e-12 * dt**-alpha * np.max(np.abs(x)) * np.sum(np.abs(gl_weights(alpha, len(x) - 1)))


def integral_bound(x, alpha, dt):
    """The same bound for rl_integral_left: its prefactor and weights."""
    n = len(x)
    m = np.arange(1, n, dtype=float)
    p = alpha + 1.0
    a = np.concatenate(([1.0], (m + 1) ** p - 2 * m**p + (m - 1) ** p))
    scale = dt**alpha / math.gamma(alpha + 2.0)
    return 1e-12 * scale * np.max(np.abs(x)) * np.sum(np.abs(a))


def fft_and_direct(op, *args):
    fast = op(*args)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(frac_ops, "_causal_convolve", direct_convolve)
        slow = op(*args)
    return fast, slow


@st.composite
def fft_cases(draw):
    """Seeded random signals (noise or random walk), a step and an order."""
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(n)
    if draw(st.booleans()):
        values = np.cumsum(values)
    values = values * 10.0 ** draw(st.integers(-3, 3))
    dt = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]))
    return values, dt, draw(st.floats(0.0, 1.0, exclude_min=True))


def check_against_direct(v, dt, alpha):
    for op, convolved in [
        (caputo_left, v - v[0]),
        (caputo_right, v - v[-1]),
        (rl_derivative_left, v),
        (rl_derivative_right, v),
    ]:
        fast, slow = fft_and_direct(op, v, dt, alpha)
        assert fast.dtype == slow.dtype, op.__name__
        if np.any(convolved):
            assert np.max(np.abs(fast - slow)) <= gl_bound(convolved, alpha, dt), op.__name__
        else:
            assert np.array_equal(fast, slow), op.__name__
    fast, slow = fft_and_direct(rl_integral_left, v, dt, alpha)
    assert fast.dtype == slow.dtype
    assert np.max(np.abs(fast - slow)) <= integral_bound(v, alpha, dt) + 0.0
    # |dE| <= (b - a) (2 max|d| delta + delta^2), delta the bound on d
    fast, slow = fft_and_direct(half_energy_integral, v, dt)
    d = caputo_left(v, dt, 0.5)
    delta = gl_bound(v - v[0], 0.5, dt) if np.any(v - v[0]) else 0.0
    assert abs(fast - slow) <= (len(v) - 1) * dt * (2 * np.max(np.abs(d)) * delta + delta**2)


class TestFftAgainstDirect:
    @given(fft_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_generated_signals(self, case):
        check_against_direct(*case)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1024, 1025])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_power_of_two_edges(self, n, alpha):
        # lengths at and around the padded FFT size
        values = np.random.default_rng(n).standard_normal(n)
        check_against_direct(values, 1e-3, alpha)

    def test_long_signal(self):
        # np.convolve is too slow at this length; the reference sums
        # w_(m-j) (x_j - x_0) directly at a few hundred samples m
        n, dt = 50_001, 1e-3
        grid = SampleGrid(0.0, dt, n)
        x = np.sin(grid.times()) + 0.1 * np.random.default_rng(5).standard_normal(n)
        fast = caputo_left(x, dt, 0.5)
        convolved = x - x[0]
        w = gl_weights(0.5, n - 1)
        samples = np.unique(np.concatenate([np.arange(0, n, 173), [n - 2, n - 1]]))
        direct = np.array([np.dot(w[m::-1], convolved[: m + 1]) for m in samples]) * dt**-0.5
        assert np.max(np.abs(fast[samples] - direct)) <= gl_bound(convolved, 0.5, dt)


@st.composite
def history_cases(draw):
    """Rows, a block of count steps from m0, with m0 + count at or next to a
    power of two (where the far part's FFT length doubles), and n."""
    count = draw(st.sampled_from([1, 4, 5, 512]))
    end = 2 ** draw(st.integers(0, 12)) + draw(st.sampled_from([-1, 0, 1]))
    assume(end >= count)
    # the grid may end inside the block, as the step loop's last block does
    n = end - count + draw(st.integers(1, count + 2))
    rows = draw(st.integers(1, 3))
    return rows, end - count, count, n, draw(st.integers(0, 2**32 - 1))


class TestGLHistory:
    @given(history_cases())
    @example((2, 0, 4, 6, 0))  # the first block, whose far part is zero
    @example((1, 0, 5, 3, 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_far_and_near_parts_are_the_whole_grid_convolution(self, case):
        rows, m0, count, n, seed = case
        x = np.random.default_rng(seed).standard_normal((rows, n))
        whole = frac_ops._causal_convolve(x, gl_weights(0.5, n - 1))
        history = GLHistory((rows,), n)
        # a sample not yet stepped is NaN, so a read of the future shows
        history.samples[:] = np.nan
        history.samples[:, :m0] = x[:, :m0]
        far = history.far(m0, count)
        assert far.shape == (rows, count)
        for m in range(m0, min(m0 + count, n)):
            stepped = far[:, m - m0] + history.near(m0, m) + x[:, m]  # w_0 = 1
            assert np.max(np.abs(stepped - whole[:, m])) <= 1e-12 * np.max(np.abs(x))
            history.samples[:, m] = x[:, m]
