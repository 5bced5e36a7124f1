"""The numeric-input checkers, and the rule that they alone hold the policy."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import radsim
from radsim.errors import ParameterError, check_int, check_real


@pytest.mark.parametrize("value", [0, 1, -2.5, 1e300, 2 ** 60, np.float64(0.5), np.int64(3)])
def test_check_real_accepts_finite_numbers(value):
    check_real("x", value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), None, "1", [1], math.nan,
                                   math.inf, -math.inf, 10 ** 400])
def test_check_real_rejects_non_numbers(value):
    with pytest.raises(ParameterError, match=r"^x must be a finite number, got "):
        check_real("x", value)


@pytest.mark.parametrize("value, lo, hi, bounds, message", [
    (0, 0, math.inf, "()", "rate must be a finite number > 0, got 0"),
    (-1, 0, math.inf, "[]", "rate must be a finite number >= 0, got -1"),
    (1, -math.inf, 1, "()", "rate must be a finite number < 1, got 1"),
    (2, -math.inf, 1, "[]", "rate must be a finite number <= 1, got 2"),
    (1, 0, 1, "()", "rate must be a finite number in (0, 1), got 1"),
    (0, 0, 1, "(]", "rate must be a finite number in (0, 1], got 0"),
    (1.5, 0, 1, "[]", "rate must be a finite number in [0, 1], got 1.5"),
])
def test_check_real_bounds(value, lo, hi, bounds, message):
    with pytest.raises(ParameterError) as info:
        check_real("rate", value, lo, hi, bounds)
    assert str(info.value) == message
    # The ends themselves pass where the bounds are closed.
    for end, bracket in ((lo, bounds[0]), (hi, bounds[1])):
        if math.isfinite(end) and bracket in "[]":
            check_real("rate", end, lo, hi, bounds)


@pytest.mark.parametrize("value", [0, 5, 2 ** 60, 10 ** 400, np.int64(7)])
def test_check_int_accepts_integers(value):
    check_int("n", value, 0)


@pytest.mark.parametrize("value", [True, False, -1, 1.0, 2.5, math.nan, "3", None])
def test_check_int_rejects(value):
    with pytest.raises(ParameterError, match=r"^n must be an integer >= 0, got "):
        check_int("n", value, 0)


def test_check_int_upper_bound():
    for value in (0, 5, np.int64(5)):
        check_int("n", value, 0, 5)
    for value in (6, -1, 10 ** 400, True):
        with pytest.raises(ParameterError) as info:
            check_int("n", value, 0, 5)
        assert str(info.value) == f"n must be an integer in [0, 5], got {value!r}"


def test_number_policy_lives_in_errors_only():
    # Another module that tests numbers.Real or numbers.Integral itself would
    # bring back its own rule for bools, NaN and infinity.
    pattern = re.compile(r"\bnumbers\.(Real|Integral)\b|\bfrom numbers import\b")
    package = Path(radsim.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "errors.py" and pattern.search(path.read_text())]
    assert offenders == []
    assert pattern.search((package / "errors.py").read_text())


def test_json_lives_in_signals_only():
    # Another module that parses or writes JSON itself would bring back its
    # own rules for NaN, Infinity and the error that names the file.
    pattern = re.compile(r"\bjson\.(dumps|loads)\b|\bJSONDecodeError\b")
    package = Path(radsim.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "signals.py" and pattern.search(path.read_text())]
    assert offenders == []
    assert pattern.search((package / "signals.py").read_text())


def test_every_name_in_all_resolves():
    # A name left in a module's __all__ after its definition goes breaks
    # ``from radsim.<module> import *`` and nothing else.
    modules = [importlib.import_module(f"radsim.{info.name}")
               for info in pkgutil.iter_modules(radsim.__path__) if info.name != "__main__"]
    assert any(hasattr(module, "__all__") for module in modules)
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
