import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraceq.circuit import (
    KINDS,
    LAW_FAMILIES,
    Circuit,
    ConstitutiveSpec,
    Element,
    Waveform,
    parse_netlist,
    serialize,
    validate,
)
from fraceq.errors import FraceqError, NetlistError

TWO_ELEMENT = "R s1 in h1 g=0.5 trainable\nV vin in 0 w=step(1,0)\nR leak h1 0 g=1.0\n"


class TestParse:
    def test_direct_construction(self):
        ckt = parse_netlist(TWO_ELEMENT)
        assert len(ckt.elements) == 3
        assert ckt.trainables == (0,)
        assert ckt.element("s1").g == 0.5
        assert ckt.element("vin").waveform.family == "step"

    def test_empty_string(self):
        with pytest.raises(NetlistError, match="empty netlist"):
            parse_netlist("")

    def test_negative_capacitance_names_element(self):
        with pytest.raises(NetlistError, match="c1"):
            parse_netlist("C c1 h1 0 c=-1e-6\n")

    def test_unknown_kind_has_line_number(self):
        try:
            parse_netlist("R r1 a 0 g=1\nX bogus a 0\n")
        except NetlistError as exc:
            assert exc.errors == [(2, 1, "unknown element kind 'X'")]
        else:
            pytest.fail("expected NetlistError")

    def test_duplicate_name(self):
        with pytest.raises(NetlistError, match="duplicate"):
            parse_netlist("R r1 a 0 g=1\nR r1 b 0 g=2\n")

    def test_malformed_parameter_reports_column(self):
        try:
            parse_netlist("R r1 a 0 gg\n")
        except NetlistError as exc:
            (line, col, msg) = exc.errors[0]
            assert line == 1 and col == 10 and "malformed" in msg

    @pytest.mark.parametrize(
        "text, errors",
        [
            ("R r1 1 2 g=1 g=1000\n", [(1, 14, "r1: repeated parameter g=")]),
            ("OC C a 0 cap=1\nOC C a 0 cap=1\n", [(2, 4, "duplicate element name 'C'")]),
            ("R r1 a 0 g=1 g\tR\n", [(1, 14, "malformed parameter 'g'"), (1, 16, "malformed parameter 'R'")]),
        ],
        ids=["repeated-key", "name-inside-kind", "tab"],
    )
    def test_errors_are_located_at_their_token(self, text, errors):
        # each column is the token's own, not the first match of its text on the line
        with pytest.raises(NetlistError) as info:
            parse_netlist(text)
        assert info.value.errors == errors

    def test_unknown_waveform_family(self):
        with pytest.raises(NetlistError, match="sawtooth"):
            parse_netlist("V v1 a 0 w=sawtooth(1,2)\n")

    def test_collects_multiple_errors(self):
        try:
            parse_netlist("X a b 0\nC c1 n 0 c=-1\nR r2 a 0 g=1\n")
        except NetlistError as exc:
            assert len(exc.errors) == 2

    def test_comments_and_blank_lines(self):
        ckt = parse_netlist("# header\n\nR r1 a 0 g=1  # trailing\n")
        assert len(ckt.elements) == 1

    def test_only_resistors_trainable(self):
        with pytest.raises(NetlistError, match="trainable"):
            parse_netlist("C c1 a 0 c=1 trainable\n")

    @pytest.mark.parametrize(
        "law, message",
        [
            ("tanh(1)", "law tanh takes 2 args, got 1"),
            ("tanh()", "law tanh takes 2 args, got 0"),
            ("tanh(1,2,3)", "law tanh takes 2 args, got 3"),
            ("poly()", "law poly takes at least 1 args, got 0"),
            ("linear()", "law linear takes 1 args, got 0"),
            ("linear(1,2)", "law linear takes 1 args, got 2"),
        ],
    )
    def test_law_parameter_count_reports_column(self, law, message):
        with pytest.raises(NetlistError) as info:
            parse_netlist(f"V v1 n1 0 w=const(1)\nC c1 n1 0 f={law}\n")
        assert info.value.errors == [(2, 11, f"c1: {message}")]


@st.composite
def circuits(draw):
    n_nodes = draw(st.integers(2, 5))
    nodes = ["0"] + [f"n{i}" for i in range(1, n_nodes)]
    elements = []
    used = ["0"]
    # grow a random connected circuit: each new node hooks onto an old one
    for i, node in enumerate(nodes[1:]):
        other = draw(st.sampled_from(used))
        elements.append(_random_element(draw, f"e{i}", node, other))
        used.append(node)
    for j in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(used))
        b = draw(st.sampled_from([n for n in used if n != a]))
        elements.append(_random_element(draw, f"x{j}", a, b))
    return Circuit(tuple(elements))


def _random_element(draw, name, np_, nm):
    kind = draw(st.sampled_from(["R", "C", "L", "M", "V", "OC"]))
    pos = st.floats(1e-3, 1e3, allow_nan=False)
    if kind == "R":
        return Element("R", name, np_, nm, g=draw(pos), trainable=draw(st.booleans()))
    if kind == "C":
        return Element("C", name, np_, nm, c=draw(pos))
    if kind == "L":
        return Element("L", name, np_, nm, l=draw(pos))
    if kind == "M":
        return Element("M", name, np_, nm, spec=ConstitutiveSpec("tanh", (draw(pos), draw(pos))))
    if kind == "V":
        return Element("V", name, np_, nm, waveform=Waveform("sine", (draw(pos), draw(pos), 0.0)))
    return Element("OC", name, np_, nm, cap_scale=draw(pos), waveform=Waveform("const", (draw(pos),)))


# tokens for random netlist lines: every kind, names and nodes, parameters
# with good and bad values, laws and waveforms with wrong arities and empty
# or unbalanced parentheses, an overflowing number, NUL and non-ASCII text
_TOKENS = (
    list(KINDS)
    + ["X", "r1", "c1", "m1", "0", "n1", "n2", "trainable", "#", "="]
    + ["g=1", "g=0", "g=-1", "g=1e400", "g=nan", "g=", "c=1", "c=1e-300", "l=2", "cap=1", "cap=x", "k=1"]
    + ["f=linear(1)", "f=linear()", "f=linear(1,2)", "f=tanh(1,1)", "f=tanh(1)", "f=tanh()"]
    + ["f=tanh(1,2,3)", "f=poly()", "f=poly(0,1)", "f=poly(0,-1)", "f=cubic(1)", "f=tanh(1,", "f=tanh)(", "f=()"]
    + ["w=const(1)", "w=const()", "w=const((1)", "w=step(1,0)", "w=sine(1,2,0)", "w=sine(1,2", "w=saw(1)"]
    + ["w=const(1e400)", "w=step(,)", "\x00", "g=\x00", "\u00b5F", "f=tanh(1,\u00b5)", "\u2028", "\u00e9=1"]
)


@st.composite
def token_netlists(draw):
    token = st.sampled_from(_TOKENS)
    # free token soup, and element-shaped lines whose parameters are random tokens
    soup = st.lists(token, max_size=8)
    element = st.tuples(st.sampled_from(KINDS), token, token, token, st.lists(token, max_size=4))
    shaped = element.map(lambda e: [*e[:4], *e[4]])
    line = st.one_of(soup, shaped).map(" ".join)
    return "\n".join(draw(st.lists(line, max_size=6)))


class TestParseFuzz:
    @given(token_netlists())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_random_token_lines_raise_only_package_errors(self, text):
        # a bad netlist is a located error (exit 2 at the CLI), never a traceback
        try:
            validate(parse_netlist(text))
        except FraceqError:
            pass


class TestRoundTrip:
    @given(circuits())
    @settings(max_examples=60, deadline=None)
    def test_parse_serialize_identity(self, ckt):
        text = serialize(ckt)
        again = parse_netlist(text)
        assert serialize(again) == text
        assert [e.name for e in again.elements] == [e.name for e in ckt.elements]
        for a, b in zip(again.elements, ckt.elements):
            assert (a.kind, a.n_plus, a.n_minus, a.g, a.c, a.l, a.trainable) == (
                b.kind,
                b.n_plus,
                b.n_minus,
                b.g,
                b.c,
                b.l,
                b.trainable,
            )


class TestValidate:
    def test_valid_network_empty_report(self):
        ckt = parse_netlist(TWO_ELEMENT)
        assert validate(ckt) == []

    def test_floating_subcircuit(self):
        ckt = parse_netlist("R r1 a 0 g=1\nR r2 b c g=1\n")
        diags = validate(ckt)
        assert any(d.code == "floating-subcircuit" and "b" in d.message for d in diags)

    def test_missing_target(self):
        ckt = Circuit((Element("OC", "oc1", "a", "0", cap_scale=1.0),))
        assert any(d.code == "missing-target" for d in validate(ckt))

    def test_target_every_run_supplies(self):
        ckt = Circuit((Element("OC", "oc1", "a", "0", cap_scale=1.0), Element("OC", "oc2", "a", "0", cap_scale=1.0)))
        assert [d.message for d in validate(ckt, {"oc1"})] == ["output capacitor oc2 has no target waveform"]
        assert validate(ckt, {"oc1", "oc2"}) == []

    def test_no_ground(self):
        ckt = parse_netlist("R r1 a b g=1\n")
        assert any(d.code == "no-ground" for d in validate(ckt))


class TestConstitutive:
    def test_linear(self):
        y, dy = ConstitutiveSpec("linear", (2.0,))(3.0)
        assert (y, dy) == (6.0, 2.0)

    def test_tanh_origin(self):
        spec = ConstitutiveSpec("tanh", (1.0, 1.0))
        y, dy = spec(0.0)
        assert (y, dy) == (0.0, 1.0)

    def test_polynomial(self):
        y, dy = ConstitutiveSpec("poly", (0, 1, 0, 0.1))(2.0)
        assert y == pytest.approx(2.8)
        assert dy == pytest.approx(2.2)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="monotone"):
            ConstitutiveSpec("poly", (0.0, -1.0))

    @pytest.mark.parametrize(
        "spec",
        [
            ConstitutiveSpec("linear", (0.7,)),
            ConstitutiveSpec("poly", (0.1, 1.0, 0.0, 0.05)),
            ConstitutiveSpec("tanh", (2.0, 1.5)),
        ],
    )
    def test_derivative_matches_finite_differences(self, spec):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-5, 5, 100):
            y, dy = spec(x)
            h = 1e-6 * max(1.0, abs(x))
            fd = (spec(x + h)[0] - spec(x - h)[0]) / (2 * h)
            assert dy == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize(
        "laws",
        [
            [("linear", (0.7,)), ("linear", (2.0,))],
            [("tanh", (2.0, 1.5)), ("tanh", (0.5, 1.0)), ("tanh", (1.0, 0.25))],
            [("poly", (0.0, 1.0, 0.0, 0.5)), ("poly", (0.1, 0.2, 0.0, 0.05))],
        ],
    )
    def test_family_call_matches_each_law_bitwise(self, laws):
        # one array call for several laws of a family, as the Newton loop
        # makes it, gives the bits of one call per law
        specs = [ConstitutiveSpec(family, params) for family, params in laws]
        x = np.random.default_rng(1).uniform(-4, 4, (5, len(specs)))
        params = np.array([spec.params for spec in specs]).T
        y, dy = LAW_FAMILIES[specs[0].family](x, params)
        for j, spec in enumerate(specs):
            yj, dyj = spec(x[:, j])
            assert np.array_equal(y[:, j], yj) and np.array_equal(dy[:, j], dyj)

    @pytest.mark.parametrize("family, params", [("tanh", (2.0, 1.5)), ("poly", (0.0, 1.0, 0.0, 0.1))])
    def test_antiderivative_consistency(self, family, params):
        spec = ConstitutiveSpec(family, params)
        xs = np.linspace(-3, 3, 7)
        for x in xs:
            # trapezoid error h^2 (f'(x) - f'(0)) / 12: 2e-10 for the cubic at |x| = 3
            grid = np.linspace(0, x, 100_001)
            quad = np.trapezoid(spec(grid)[0], grid)
            assert spec.antiderivative(x) == pytest.approx(quad, abs=1e-8)


class TestWaveforms:
    def test_families(self):
        t = np.array([0.0, 0.5, 1.0])
        assert np.allclose(Waveform("const", (2.0,))(t), 2.0)
        assert np.allclose(Waveform("step", (3.0, 0.5))(t), [0, 3, 3])
        assert np.allclose(Waveform("sine", (1.0, 1.0, 0.0))(t), np.sin(2 * np.pi * t), atol=1e-12)
