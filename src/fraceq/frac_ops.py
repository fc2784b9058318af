"""Discrete fractional-calculus operators on uniformly sampled signals.

The operators take a plain array of samples with step dt and act along its
last axis, so a 2-D array is one signal per row; each row gets the same bits
as the operator applied to that row alone.  `rl_integral_left` takes 1-D
input only.  All operators use the Grunwald-Letnikov (GL) convolution scheme
on a uniform grid.  Caputo variants subtract the initial value first, which
makes GL and Caputo coincide for orders below one.  Right-sided operators are
evaluated by time reversal around the midpoint of the grid.  Every
convolution sum (the GL sums, the product-integration weights of
`rl_integral_left` and the far part of `GLHistory`, the simulator's memristor
history of samples stored one step at a time) is evaluated by zero-padded
FFT, one row at a time, so only one row's padded buffers exist at once; GL
weight spectra come from one cache, `_gl_spectrum`.  An operator whose
finite input gives a non-finite result raises NonFiniteResultError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, InvalidOrderError, NonFiniteResultError, ParameterError

__all__ = [
    "SampleGrid",
    "gl_weights",
    "GLHistory",
    "caputo_left",
    "caputo_right",
    "rl_derivative_left",
    "rl_derivative_right",
    "rl_integral_left",
]


def grid_tolerance(dt: float, t_max: float) -> float:
    """How far a time may lie off a grid of step dt: 1e-6 dt, plus 4 ulp of the largest |t| for rounding."""
    return 1e-6 * dt + 4 * math.ulp(t_max)


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
        grid = cls(a, dt, max(int(round(steps)), 1) + 1)
        if not abs(grid.b - b) <= grid_tolerance(dt, max(abs(a), abs(b))):
            if steps < 1:
                raise ParameterError("dt", f"grid step {dt} is longer than the span [{a}, {b}]")
            raise ParameterError("b", f"span [{a}, {b}] is not an integer number of steps of {dt}")
        return grid

    def times(self) -> np.ndarray:
        return self.a + self.dt * np.arange(self.n)


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


@functools.lru_cache(maxsize=16)
def _gl_spectrum(alpha: float, count: int, size: int) -> np.ndarray:
    """rfft of the GL weights w_0..w_(count-1) zero-padded to FFT length size (cached, read-only)."""
    spectrum = np.fft.rfft(gl_weights(alpha, count - 1), size)
    spectrum.flags.writeable = False
    return spectrum


def _causal_convolve(x: np.ndarray, w=None, order=None) -> np.ndarray:
    """y_m = sum_{j<=m} w_(m-j) x_j for m < n, by FFT along the last axis.

    n is the length of x's last axis; each row of x is convolved on its own.
    The weights are w, with at least n entries (the rest is not read), or
    the GL weights of `order`.  Zero padding to a power of two at least
    2n - 1 long keeps the circular convolution from wrapping.
    """
    n = x.shape[-1]
    size = 1 << (2 * n - 2).bit_length()
    w_hat = _gl_spectrum(order, n, size) if w is None else np.fft.rfft(w[:n], size)
    with np.errstate(over="ignore", invalid="ignore"):  # the operators check their results
        return _fft_rows(x, w_hat, size, 0, n)


def _fft_rows(x: np.ndarray, w_hat: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    """Samples [lo, hi) of each row of x circularly convolved, at FFT length
    size, with the weights whose rfft is w_hat; one row's buffers at a time."""
    y = np.empty((*x.shape[:-1], hi - lo))
    for row in np.ndindex(x.shape[:-1]):
        y[row] = np.fft.irfft(np.fft.rfft(x[row], size) * w_hat, size)[lo:hi]
    return y


class GLHistory:
    """Half-order GL history sum_{j<m} w_(m-j) x_j of samples stored one step at a time.

    `samples` holds x, shape + (n,); step m writes x_m to samples[..., m].
    The sum splits exactly into a far part (j < m0), one FFT per row and
    block of steps from m0, and a near part (m0 <= j < m) summed per step
    (Hairer, Lubich and Schlichte 1985).  Both read only samples before m0
    and m.
    """

    def __init__(self, shape: tuple, n: int):
        self.samples = np.zeros((*shape, n))
        self._w = gl_weights(0.5, n - 1)

    def far(self, m0: int, count: int) -> np.ndarray:
        """sum_{j<m0} w_(m-j) x_j for m in [m0, m0 + count); zeros when m0 is 0.

        One circular convolution of length L >= m0 + count, the least power
        of two: every lag m - j lies in [1, L), so no term wraps around.
        """
        if not m0:
            return np.zeros((*self.samples.shape[:-1], count))
        size = 1 << (m0 + count - 1).bit_length()
        return _fft_rows(self.samples[..., :m0], _gl_spectrum(0.5, size, size), size, m0, m0 + count)

    def near(self, m0: int, m: int) -> np.ndarray:
        """sum_{m0<=j<m} w_(m-j) x_j."""
        return self.samples[..., m0:m] @ self._w[m - m0 : 0 : -1]


def _finite(op: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y, unless x is finite and y is not: then NonFiniteResultError names op,
    y's first bad sample and the first row bad there."""
    bad = ~np.isfinite(y)
    if bad.any() and np.isfinite(x).all():
        rows = bad.reshape(-1, y.shape[-1])
        sample = int(np.argmax(rows.any(axis=0)))
        raise NonFiniteResultError(op, sample, int(np.argmax(rows[:, sample])))
    return y


def caputo_left(x: np.ndarray, dt: float, alpha) -> np.ndarray:
    """Left Caputo derivative of order alpha in (0, 1].

    GL convolution of x - x(a); the initial-value subtraction makes the GL
    result coincide with the Caputo derivative for orders below one.
    """
    return _finite("caputo_left", x, _rl_left("caputo_left", x, dt, alpha, caputo=True))


def caputo_right(x: np.ndarray, dt: float, alpha) -> np.ndarray:
    """Right Caputo derivative: time reversal of the left operator.

    Subtracts x(b) so the weights see a terminal value of zero.
    """
    return _finite("caputo_right", x, _rl_left("caputo_right", x[..., ::-1], dt, alpha, caputo=True)[..., ::-1])


def rl_derivative_left(x: np.ndarray, dt: float, alpha) -> np.ndarray:
    """Left Riemann-Liouville derivative via plain GL (no subtraction)."""
    return _finite("rl_derivative_left", x, _rl_left("rl_derivative_left", x, dt, alpha))


def rl_derivative_right(x: np.ndarray, dt: float, alpha) -> np.ndarray:
    """Right Riemann-Liouville derivative of order alpha in (0, 1].

    Implemented as time reversal -> left RL derivative -> time reversal.  For
    a signal that does not vanish at b the continuous operator diverges there;
    the final sample is reported as computed from the one-sided stencil, not
    clamped.
    """
    return _finite("rl_derivative_right", x, _rl_left("rl_derivative_right", x[..., ::-1], dt, alpha)[..., ::-1])


def _rl_left(op: str, x: np.ndarray, dt: float, alpha, caputo: bool = False) -> np.ndarray:
    """Left RL derivative of x by GL, or of x - x(a) if caputo; an order outside (0, 1] names op."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidOrderError(f"{op} supports orders in (0, 1], got {alpha}")
    y = _causal_convolve(x - x[..., :1] if caputo else x, order=alpha)
    y *= dt ** (-alpha)
    return y


def rl_integral_left(x: np.ndarray, dt: float, alpha: float) -> np.ndarray:
    """Left RL fractional integral of a 1-D x via product-integration quadrature.

    The weakly singular kernel is integrated exactly against the piecewise
    linear interpolant of x (product trapezoidal rule); an order whose weights
    or scale dt^alpha / Gamma(alpha + 2) overflow, or whose scale underflows, is rejected.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidOrderError(f"integral order must be positive and finite, got {alpha}")
    n = len(x)
    m = np.arange(n, dtype=float)
    p = alpha + 1.0
    # interior convolution weights a_k and the boundary weight c_m for the
    # j = 0 sample (which sees a truncated hat function)
    a = np.ones(n)
    c = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        a[1:] = (m[1:] + 1) ** p - 2 * m[1:] ** p + (m[1:] - 1) ** p
        c[1:] = (m[1:] - 1) ** p - m[1:] ** p + p * m[1:] ** alpha
    try:
        scale = dt**alpha / math.gamma(alpha + 2.0)
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(scale) and np.isfinite(a).all() and np.isfinite(c).all()):
        raise InvalidOrderError(f"integral order {alpha} overflows the quadrature weights on {n} samples of step {dt}")
    if scale < np.finfo(float).tiny:  # 0 or subnormal: the results would read 0 or lose their digits
        raise InvalidOrderError(f"integral order {alpha} underflows the quadrature scale on step {dt}")
    conv = _causal_convolve(x, a)
    # convolution attributes weight a_m to x[0]; the correct weight is c_m
    out = scale * (conv + (c - a) * x[0])
    out[0] = 0.0
    return _finite("rl_integral_left", x, out)
