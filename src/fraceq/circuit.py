"""Circuit data model, constitutive functions, and the netlist grammar.

Netlist grammar (UTF-8, line oriented)::

    # comment
    KIND name node+ node- key=value ... [trainable]

KIND is one of R, C, L, M, V, I, OC.  Ground is the literal node ``0``.
Waveforms are written ``w=family(args)`` with families const/step/sine;
constitutive functions are written ``f=family(args)`` with families
linear/poly/tanh.  Serialization emits the same grammar deterministically:
elements in declaration order, parameters alphabetized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NetlistError, ValidationError

GROUND = "0"

KINDS = ("R", "C", "L", "M", "V", "I", "OC")


def _linear(x, p):
    return p[0] * x, np.zeros_like(x) + p[0]


def _poly(x, p):
    P = np.polynomial.polynomial
    return P.polyval(x, p, tensor=False), P.polyval(x, P.polyder(p), tensor=False)


def _tanh(x, p):
    gain, scale = p
    t = np.tanh(x / scale)
    return gain * t, (gain / scale) * (1.0 - t**2)


# y, dy/dx = LAW_FAMILIES[family](x, params).  The formulas broadcast: with
# params of shape (count, k), column j of x is evaluated with the parameters
# params[:, j], so laws of one family (and, for poly, one coefficient count)
# are evaluated in one call.
LAW_FAMILIES = {"linear": _linear, "poly": _poly, "tanh": _tanh}
# (parameter count, whether more are allowed) per family
_LAW_ARITY = {"linear": (1, False), "poly": (1, True), "tanh": (2, False)}
# the argument range on which every law is checked to be monotone; evaluation
# is not limited to it
LAW_RANGE = (-10.0, 10.0)


@dataclass(frozen=True)
class ConstitutiveSpec:
    """Monotone scalar constitutive relation y = f(x) with derivative.

    Families: linear(slope), poly(c0, c1, ...), tanh(gain, scale); any
    other parameter count is rejected, and so is a law that is not monotone
    on LAW_RANGE.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in LAW_FAMILIES:
            raise ValueError(f"unknown constitutive family {self.family!r}")
        count, at_least = _LAW_ARITY[self.family]
        if len(self.params) < count or (not at_least and len(self.params) > count):
            want = f"at least {count}" if at_least else f"{count}"
            raise ValueError(f"law {self.family} takes {want} args, got {len(self.params)}")
        if self.family == "linear" and self.params[0] <= 0:
            raise ValueError("linear constitutive slope must be positive")
        if self.family == "tanh" and (self.params[0] <= 0 or self.params[1] <= 0):
            raise ValueError("tanh gain and scale must be positive")
        xs = np.linspace(*LAW_RANGE, 257)
        if np.any(np.diff(self(xs)[0]) < -1e-12):
            raise ValueError(f"{self.family} constitutive is not monotone on {LAW_RANGE}")

    def __call__(self, x):
        """Return (y, dy_dx) arrays for scalar or array x."""
        return LAW_FAMILIES[self.family](np.asarray(x, dtype=float), np.asarray(self.params, dtype=float))

    def antiderivative(self, x):
        """Exact integral of f from 0 to x (used by Lagrangian terms)."""
        x = np.asarray(x, dtype=float)
        if self.family == "linear":
            return 0.5 * self.params[0] * x**2
        if self.family == "poly":
            c = np.asarray(self.params, dtype=float)
            return np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyint(c))
        gain, scale = self.params
        return gain * scale * np.log(np.cosh(x / scale))


@dataclass(frozen=True)
class Waveform:
    """Time-dependent drive: const(v), step(v, t0) or sine(amp, freq, phase)."""

    family: str
    params: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "const":
            return np.full_like(t, self.params[0])
        if self.family == "step":
            v, t0 = self.params
            return np.where(t >= t0, v, 0.0)
        if self.family == "sine":
            amp, freq, phase = self.params
            return amp * np.sin(2 * math.pi * freq * t + phase)
        raise ValueError(f"unknown waveform family {self.family!r}")


@dataclass(frozen=True)
class Element:
    """One two-terminal element; branch orientation is n_plus -> n_minus."""

    kind: str
    name: str
    n_plus: str
    n_minus: str
    g: Optional[float] = None  # R conductance (S)
    c: Optional[float] = None  # C capacitance (F), linear case
    l: Optional[float] = None  # L inductance (H), linear case
    cap_scale: Optional[float] = None  # OC capacitance scale C (F)
    spec: Optional[ConstitutiveSpec] = None  # nonlinear C/L/M law
    waveform: Optional[Waveform] = None  # V/I drive or OC target
    trainable: bool = False

    def constitutive(self) -> ConstitutiveSpec:
        """The element's law in canonical controlled form.

        C: q = qhat(v); L: i = ihat(phi); M: r = rhat(psi).
        """
        if self.spec is not None:
            return self.spec
        if self.kind == "C":
            return ConstitutiveSpec("linear", (self.c,))
        if self.kind == "L":
            return ConstitutiveSpec("linear", (1.0 / self.l,))
        raise ValueError(f"{self.name} has no constitutive law")


@dataclass(frozen=True)
class Circuit:
    """Element list in declaration order; branch b is elements[b].

    The nudging strength beta is not part of the circuit: it belongs to
    each run (`Trajectory.beta`, `dynamics.Member.beta`).
    """

    elements: tuple

    @property
    def nodes(self) -> tuple:
        seen = []
        for e in self.elements:
            for n in (e.n_plus, e.n_minus):
                if n not in seen:
                    seen.append(n)
        return tuple(seen)

    @property
    def trainables(self) -> tuple:
        return tuple(i for i, e in enumerate(self.elements) if e.trainable)

    @property
    def loss_capacitance(self) -> float:
        """Common capacitance scale C of the output capacitors.

        The nudge weights each output by its own cap, so the loss J that
        the estimator follows is unweighted only if all caps are equal.
        """
        caps = {e.name: e.cap_scale for e in self.elements if e.kind == "OC"}
        if len(set(caps.values())) > 1:
            listed = ", ".join(f"{name}={cap:g}" for name, cap in caps.items())
            raise ValidationError(
                [Diagnostic("unequal-output-caps", f"output capacitors need one common cap, got {listed}")]
            )
        return next(iter(caps.values()), 1.0)

    def element(self, name: str) -> Element:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        for i, e in enumerate(self.elements):
            if e.name == name:
                return i
        raise KeyError(name)

    def with_conductances(self, updates: dict) -> "Circuit":
        """Clone with resistor conductances replaced (name -> g)."""
        new = tuple(
            replace(e, g=float(updates[e.name])) if e.name in updates else e
            for e in self.elements
        )
        return replace(self, elements=new)


# --- netlist parsing -------------------------------------------------------

_WAVEFORM_ARITY = {"const": 1, "step": 2, "sine": 3}


def _parse_call(token: str):
    """Parse 'family(a,b,...)' into (family, floats) or raise ValueError."""
    if "(" not in token or not token.endswith(")"):
        raise ValueError(f"expected family(args), got {token!r}")
    fam, argtext = token[:-1].split("(", 1)
    args = tuple(float(a) for a in argtext.split(",")) if argtext else ()
    if not all(map(math.isfinite, args)):
        raise ValueError(f"non-finite argument in {token!r}")
    return fam, args


def _parse_waveform(token: str) -> Waveform:
    fam, args = _parse_call(token)
    if fam not in _WAVEFORM_ARITY:
        raise ValueError(f"unknown waveform family {fam!r}")
    if len(args) != _WAVEFORM_ARITY[fam]:
        raise ValueError(f"waveform {fam} takes {_WAVEFORM_ARITY[fam]} args, got {len(args)}")
    return Waveform(fam, args)


def _parse_spec(token: str) -> ConstitutiveSpec:
    fam, args = _parse_call(token)
    if fam not in LAW_FAMILIES:
        raise ValueError(f"unknown constitutive family {fam!r}")
    return ConstitutiveSpec(fam, args)


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit.

    Collects every syntax and invariant error before raising, so a malformed
    file reports all problems at once with line and column positions.
    """
    elements = []
    errors = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        kind = tokens[0]
        col = raw.index(kind) + 1
        if kind not in KINDS:
            errors.append((lineno, col, f"unknown element kind {kind!r}"))
            continue
        if len(tokens) < 4:
            errors.append((lineno, col, "element line needs name, node+, node-"))
            continue
        name, n_plus, n_minus = tokens[1:4]
        if name in names:
            errors.append((lineno, raw.index(name, col) + 1, f"duplicate element name {name!r}"))
            continue
        kv = {}
        trainable = False
        bad = False
        for tok in tokens[4:]:
            if tok == "trainable":
                trainable = True
                continue
            if "=" not in tok:
                errors.append((lineno, raw.index(tok) + 1, f"malformed parameter {tok!r}"))
                bad = True
                continue
            key, val = tok.split("=", 1)
            kv[key] = (val, raw.index(tok) + 1)
        if bad:
            continue
        try:
            elements.append(_build_element(kind, name, n_plus, n_minus, kv, trainable, lineno))
        except _LineError as exc:
            errors.append(exc.args[0])
            continue
        names.add(name)
    if not elements and not errors:
        errors.append((1, 1, "empty netlist: no elements, no ground"))
    if errors:
        raise NetlistError(errors)
    return Circuit(tuple(elements))


class _LineError(Exception):
    pass


def _take_float(kv, key, lineno, positive=False, name=""):
    if key not in kv:
        raise _LineError((lineno, 1, f"{name}: missing required parameter {key}="))
    val, col = kv.pop(key)
    try:
        x = float(val)
    except ValueError:
        raise _LineError((lineno, col, f"{name}: malformed number {val!r}"))
    if not math.isfinite(x):
        raise _LineError((lineno, col, f"{name}: {key} must be finite, got {val}"))
    if positive and x <= 0:
        raise _LineError((lineno, col, f"{name}: {key} must be strictly positive, got {val}"))
    return x


def _build_element(kind, name, n_plus, n_minus, kv, trainable, lineno) -> Element:
    e = dict(kind=kind, name=name, n_plus=n_plus, n_minus=n_minus, trainable=trainable)
    if trainable and kind != "R":
        raise _LineError((lineno, 1, f"{name}: only resistors can be trainable"))
    try:
        if kind == "R":
            e["g"] = _take_float(kv, "g", lineno, positive=True, name=name)
        elif kind in ("C", "L", "M"):
            key = {"C": "c", "L": "l", "M": None}[kind]
            if "f" in kv:
                val, col = kv.pop("f")
                try:
                    e["spec"] = _parse_spec(val)
                except ValueError as exc:
                    raise _LineError((lineno, col, f"{name}: {exc}"))
            elif key is not None and key in kv:
                e[key] = _take_float(kv, key, lineno, positive=True, name=name)
            else:
                want = "f=" if kind == "M" else f"{key}= or f="
                raise _LineError((lineno, 1, f"{name}: needs {want}"))
        elif kind in ("V", "I"):
            val, col = kv.pop("w", (None, 1))
            if val is None:
                raise _LineError((lineno, 1, f"{name}: source needs w=family(args)"))
            try:
                e["waveform"] = _parse_waveform(val)
            except ValueError as exc:
                raise _LineError((lineno, col, f"{name}: {exc}"))
        elif kind == "OC":
            e["cap_scale"] = _take_float(kv, "cap", lineno, positive=True, name=name)
            if "w" in kv:
                val, col = kv.pop("w")
                try:
                    e["waveform"] = _parse_waveform(val)
                except ValueError as exc:
                    raise _LineError((lineno, col, f"{name}: {exc}"))
    except _LineError:
        raise
    except ValueError as exc:
        raise _LineError((lineno, 1, f"{name}: {exc}"))
    for key, (val, col) in kv.items():
        raise _LineError((lineno, col, f"{name}: unknown parameter {key}={val}"))
    return Element(**e)


# --- serialization ---------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_call(family, params) -> str:
    return f"{family}({','.join(_fmt(p) for p in params)})"


def serialize(circuit: Circuit) -> str:
    """Write the circuit back in the netlist grammar, deterministically."""
    lines = []
    for e in circuit.elements:
        params = {}
        if e.g is not None:
            params["g"] = _fmt(e.g)
        if e.c is not None:
            params["c"] = _fmt(e.c)
        if e.l is not None:
            params["l"] = _fmt(e.l)
        if e.cap_scale is not None:
            params["cap"] = _fmt(e.cap_scale)
        if e.spec is not None:
            params["f"] = _fmt_call(e.spec.family, e.spec.params)
        if e.waveform is not None:
            params["w"] = _fmt_call(e.waveform.family, e.waveform.params)
        toks = [e.kind, e.name, e.n_plus, e.n_minus]
        toks += [f"{k}={params[k]}" for k in sorted(params)]
        if e.trainable:
            toks.append("trainable")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


# --- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


def validate(circuit: Circuit) -> list:
    """Simulation-readiness checks; an empty report means ready.

    Checks ground presence, connectivity to ground, positivity invariants,
    and that every output capacitor has a target waveform.
    """
    diags = []
    nodes = circuit.nodes
    if GROUND not in nodes:
        diags.append(Diagnostic("no-ground", "circuit has no ground node '0'"))
    adj = {n: set() for n in nodes}
    for e in circuit.elements:
        adj[e.n_plus].add(e.n_minus)
        adj[e.n_minus].add(e.n_plus)
        if e.n_plus == e.n_minus:
            diags.append(Diagnostic("self-loop", f"{e.name} connects {e.n_plus} to itself"))
        if e.kind == "OC" and e.waveform is None:
            diags.append(Diagnostic("missing-target", f"output capacitor {e.name} has no target waveform"))
        if e.kind in ("V", "I") and e.waveform is None:
            diags.append(Diagnostic("missing-waveform", f"source {e.name} has no waveform"))
    if GROUND in adj:
        reached = set()
        stack = [GROUND]
        while stack:
            n = stack.pop()
            if n in reached:
                continue
            reached.add(n)
            stack.extend(adj[n] - reached)
        floating = [n for n in nodes if n not in reached]
        if floating:
            diags.append(
                Diagnostic("floating-subcircuit", "nodes not connected to ground: " + ", ".join(sorted(floating)))
            )
    return diags
