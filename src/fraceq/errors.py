"""Exception taxonomy shared across the package."""


class FraceqError(Exception):
    """Base class for all package errors."""


class GridTooSmallError(FraceqError, ValueError):
    """Signal grid has fewer than two samples."""


class ParameterError(FraceqError, ValueError):
    """A numeric run parameter out of its range; `name` is the parameter's name.

    Callers that read the value from a flag or a config key use `name` to
    say which one.
    """

    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


class InvalidOrderError(ParameterError):
    """Fractional order outside the supported range; its name is "alpha"."""

    def __init__(self, message):
        super().__init__("alpha", message)


class NetlistError(FraceqError, ValueError):
    """Netlist text could not be parsed into a circuit.

    Carries the full list of (line, column, message) triples so a caller
    can report every problem at once.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}, col {col}: {msg}" for ln, col, msg in self.errors)
        super().__init__(lines or "empty netlist")


class ValidationError(FraceqError, ValueError):
    """Circuit failed simulation-readiness checks."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class DegenerateTopologyError(FraceqError, ValueError):
    """No spanning tree exists that respects source constraints."""


class NewtonDivergenceError(FraceqError, RuntimeError):
    """Implicit step failed to converge."""

    def __init__(self, t, residual, phase=None):
        self.t = t
        self.residual = residual
        self.phase = phase
        tag = f" ({phase} phase)" if phase else ""
        super().__init__(f"Newton iteration diverged at t={t:.6g}{tag}, residual={residual:.3e}")


class MissingOutputError(FraceqError, ValueError):
    """Operation requires at least one output capacitor."""


class StepTooLargeError(FraceqError, ValueError):
    """Finite-difference step is not small relative to the conductances."""
