"""The package namespace: every public name resolves on first access to the
object in its home module, and nothing is cached in the package."""

import copy
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import ddehb

PUBLIC = [name for name in ddehb.__all__ if name != "__version__"]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", PUBLIC)
def test_name_resolves_to_its_home_object(name):
    obj = getattr(ddehb, name)
    assert obj.__name__ == name
    assert obj.__module__.startswith("ddehb.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ddehb.no_such_name
    assert not hasattr(ddehb, "no_such_name")


def test_resolving_adds_nothing_to_the_namespace():
    for name in PUBLIC:  # loads every home module
        getattr(ddehb, name)
    keys = set(vars(ddehb))
    for name in PUBLIC:
        getattr(ddehb, name)
    assert set(vars(ddehb)) == keys
    assert not keys & set(PUBLIC)
    assert ddehb.__version__ in vars(ddehb).values()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ddehb import *", namespace)
    assert set(ddehb.__all__) <= set(namespace)


def test_every_name_the_tracer_wraps_is_callable():
    # the benchmark's tracer wraps these names by lookup; it imports only
    # the standard library, so it loads here without the benchmark
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = tracer.TIMED + tracer.SELF_TIMED + tracer.SWEEPS
    assert names
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"ddehb.{module}"), name, None)), \
            f"ddehb.{module}.{name}"


def test_equality_of_array_holders_is_a_bool(kotani_orbit, kotani_mode, kotani_z):
    # a type that holds arrays compares by identity: an elementwise == of
    # its arrays would have no single truth value
    from ddehb import floquet, spectral

    for obj in (kotani_orbit.series, kotani_orbit, kotani_z, kotani_mode,
                kotani_orbit.linearization,
                floquet.det_scan(kotani_orbit, floquet.ScanOptions(points=2)),
                spectral.build_operators(4, 6.0, 1.0)):
        assert (obj == obj) is True
        assert (obj == copy.copy(obj)) is False, type(obj).__name__


def test_readme_library_use_runs(capsys):
    # the python block of the README's "Library use" section, run as
    # written, so that it cannot go stale against the API; its last line
    # prints the two quadrature pairings, omega = 1 for z and 1 for q
    section = README.read_text().split("\n## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    phase, amplitude = map(float, capsys.readouterr().out.splitlines()[-1].split())
    assert abs(phase - 1.0) <= 1e-8 and abs(amplitude - 1.0) <= 1e-8
