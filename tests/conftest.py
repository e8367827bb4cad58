import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import Phase, settings, strategies as st

from sicfield.polynomials import RatPoly
from sicfield.tower import FieldElement

# Every phase but explain: explain traces each line of every run while a
# failure shrinks (sys.settrace before Python 3.12), which makes a broken
# exact property report about ten times later. Shrinking still runs.
settings.register_profile(
    "sicfield", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink))
settings.load_profile("sicfield")

_ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    _ACCEPTANCE_RESULTS.append((name, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, passed in _ACCEPTANCE_RESULTS:
        label = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  [{label}] {name}")


@pytest.fixture
def default_digit_limit():
    """Python's default limit on the digits int() reads from a string,
    which sicfield.cli.main lifts for the rest of the process; Python 3.10
    has none."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    lifted = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(lifted)


def small_fractions(max_num: int = 3, max_den: int = 3) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def field_elements() -> st.SearchStrategy[FieldElement]:
    return st.builds(
        FieldElement,
        st.lists(small_fractions(), min_size=16, max_size=16),
    )


def nonzero_field_elements() -> st.SearchStrategy[FieldElement]:
    return field_elements().filter(lambda e: not e.is_zero())


@contextmanager
def no_polynomial_arithmetic():
    """While open, every RatPoly sum, difference, negation, product and
    power raises, so the code run inside provably makes none."""
    def refuse(*args):
        raise AssertionError("RatPoly arithmetic called")

    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__pow__")
    saved = {name: RatPoly.__dict__[name] for name in names}
    for name in names:
        setattr(RatPoly, name, refuse)
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(RatPoly, name, method)
