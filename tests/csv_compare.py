"""Exact comparison of two CSV texts that fails on the first differing line,
and the whole CSV text of a trajectory or training log.

A bare `assert a == b` on two long CSV strings makes pytest build a diff of
the whole text when it fails, which takes minutes for a trajectory of 10^4
rows.  This helper requires the same equality and reports one line.
"""


def assert_same_csv(actual: str, expected: str) -> None:
    """Fail unless the two texts are equal, naming the first line that differs."""
    if actual == expected:
        return
    a, b = actual.split("\n"), expected.split("\n")
    for lineno, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            raise AssertionError(f"CSV line {lineno} differs:\n  {x!r}\n  {y!r}")
    raise AssertionError(f"CSV texts differ in length: {len(a)} lines against {len(b)}")


def csv_text(exported) -> str:
    """The CSV of a Trajectory or TrainingLog as one string: its chunks joined."""
    return "".join(exported.csv_chunks())
