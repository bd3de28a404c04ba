"""The package namespace: every public name resolves on first access to the
object in its home module, and nothing is cached in the package."""

import sys

import pytest

import ddehb

PUBLIC = [name for name in ddehb.__all__ if name != "__version__"]


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
