"""The traced benchmark wraps dfsqc functions by name; they must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS],
                         ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"dfsqc.{module_name}")
    if "." in attr:
        # the tracer rewraps class members by their descriptor type
        cls_name, member = attr.split(".")
        assert isinstance(getattr(module, cls_name).__dict__[member],
                          (property, classmethod))
    else:
        assert callable(getattr(module, attr))


def test_positional_parameters_read_by_the_tracer():
    from dfsqc.noise import monte_carlo_dephasing
    from dfsqc.register import measure

    assert list(inspect.signature(measure).parameters)[3] == "force"
    assert list(inspect.signature(monte_carlo_dephasing).parameters)[2] == "n_realizations"
