"""Discrete fractional-calculus operators on uniformly sampled signals.

All operators use the Grunwald-Letnikov (GL) convolution scheme on a uniform
grid.  Caputo variants subtract the initial value first, which makes GL and
Caputo coincide for orders below one.  Right-sided operators are evaluated by
time reversal around the midpoint of the grid.  Every convolution sum (the GL
sums and the product-integration weights of `rl_integral_left`) is evaluated
by zero-padded FFT, O(N log N) in the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, InvalidOrderError, ParameterError

__all__ = [
    "SampleGrid",
    "Signal",
    "gl_weights",
    "caputo_left",
    "caputo_right",
    "rl_derivative_left",
    "rl_derivative_right",
    "rl_integral_left",
]


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid on [a, b] with n samples including both endpoints."""

    a: float
    dt: float
    n: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"grid step must be positive, got {self.dt}")
        if self.n < 2:
            raise GridTooSmallError(f"grid needs at least 2 samples, got {self.n}")

    @property
    def b(self) -> float:
        return self.a + (self.n - 1) * self.dt

    @classmethod
    def from_span(cls, a: float, b: float, dt: float) -> "SampleGrid":
        """The grid on [a, b] with step dt; ParameterError names a bad a, b or dt."""
        if not (math.isfinite(dt) and dt > 0):
            raise ParameterError("dt", f"grid step must be positive and finite, got {dt}")
        for name, end in (("a", a), ("b", b)):
            if not math.isfinite(end):
                raise ParameterError(name, f"span end must be finite, got {end}")
        if not b > a:
            raise ParameterError("b", f"span end must be after its start {a}, got {b}")
        steps = (b - a) / dt
        if not math.isfinite(steps):
            raise ParameterError("dt", f"grid step {dt} is too small for the span [{a}, {b}]")
        n = int(round(steps)) + 1
        grid = cls(a, dt, n)
        if abs(grid.b - b) > 1e-9 * max(1.0, abs(b)):
            raise ParameterError("dt", f"span [{a}, {b}] is not an integer number of steps of {dt}")
        return grid

    def times(self) -> np.ndarray:
        return self.a + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class Signal:
    """Sampled real- or complex-valued time series on a SampleGrid."""

    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or len(v) != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite values")
        v = v.astype(complex) if np.iscomplexobj(v) else v.astype(float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "Signal":
        return Signal(self.grid, values)


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """GL binomial weights w_0..w_n, w_k = (-1)^k C(alpha, k).

    Computed by the stable recurrence w_k = w_{k-1} (k - 1 - alpha) / k.
    """
    if not 0.0 < alpha < 2.0:
        raise InvalidOrderError(f"order must lie in (0, 2), got {alpha}")
    if n < 0:
        raise ValueError("weight count must be non-negative")
    k = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod((k - 1 - alpha) / k)))


def _causal_convolve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """y_m = sum_{j<=m} w_(m-j) x_j for m < n, by FFT along the last axis.

    n is the length of x's last axis; each row of a 2-D x is convolved on
    its own.  w has at least n entries (the rest is not read).  Zero padding
    to a power of two at least 2n - 1 long keeps the circular convolution
    from wrapping.  Complex input takes the full transform, because rfft
    rejects it.
    """
    n = x.shape[-1]
    size = 1 << (2 * n - 2).bit_length()
    if np.iscomplexobj(x):
        return np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(w[:n], size))[..., :n]
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(w[:n], size), size)[..., :n]


def _gl_convolve(values: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """GL sum of order alpha along the last axis, scaled by dt^-alpha."""
    w = gl_weights(alpha, values.shape[-1] - 1)
    return _causal_convolve(values, w) * dt ** (-alpha)


def caputo_left(x: Signal, alpha) -> Signal:
    """Left Caputo derivative of order alpha in (0, 1].

    GL convolution of x - x(a); the initial-value subtraction makes the GL
    result coincide with the Caputo derivative for orders below one.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidOrderError(f"caputo_left supports orders in (0, 1], got {alpha}")
    return x.with_values(_gl_convolve(x.values - x.values[0], x.grid.dt, alpha))


def caputo_right(x: Signal, alpha) -> Signal:
    """Right Caputo derivative: time reversal of the left operator.

    Subtracts x(b) so the weights see a terminal value of zero.
    """
    rev = x.with_values(x.values[::-1])
    return x.with_values(caputo_left(rev, alpha).values[::-1])


def rl_derivative_left(x: Signal, alpha) -> Signal:
    """Left Riemann-Liouville derivative via plain GL (no subtraction)."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidOrderError(f"rl_derivative_left supports orders in (0, 1], got {alpha}")
    return x.with_values(_gl_convolve(x.values, x.grid.dt, alpha))


def rl_derivative_right(x: Signal, alpha) -> Signal:
    """Right Riemann-Liouville derivative of order alpha in (0, 1].

    Implemented as time reversal -> left RL derivative -> time reversal.  For
    a signal that does not vanish at b the continuous operator diverges there;
    the final sample is reported as computed from the one-sided stencil, not
    clamped.
    """
    rev = x.with_values(x.values[::-1])
    return x.with_values(rl_derivative_left(rev, alpha).values[::-1])


def rl_integral_left(x: Signal, alpha: float) -> Signal:
    """Left RL fractional integral via product-integration quadrature.

    The weakly singular kernel is integrated exactly against the piecewise
    linear interpolant of x (product trapezoidal rule).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidOrderError(f"integral order must be positive and finite, got {alpha}")
    v = x.values
    n = len(v)
    dt = x.grid.dt
    m = np.arange(n, dtype=float)
    p = alpha + 1.0
    # interior convolution weights a_k and the boundary weight c_m for the
    # j = 0 sample (which sees a truncated hat function)
    a = np.ones(n)
    a[1:] = (m[1:] + 1) ** p - 2 * m[1:] ** p + (m[1:] - 1) ** p
    c = np.zeros(n)
    c[1:] = (m[1:] - 1) ** p - m[1:] ** p + p * m[1:] ** alpha
    scale = dt**alpha / math.gamma(alpha + 2.0)
    conv = _causal_convolve(v, a)
    # convolution attributes weight a_m to v[0]; the correct weight is c_m
    out = scale * (conv + (c - a) * v[0])
    out[0] = 0.0
    return x.with_values(out)
