"""The package root: formula and error names load eagerly, the numeric
modules' names on first lookup (PEP 562)."""

import importlib
import subprocess
import sys

import pytest

import pragmaql

from helpers import child_env

SUBMODULES = ("errors", "formula", "hilbert", "model", "evaluation", "lattice")


def test_every_public_name_resolves_to_its_definition():
    for name in pragmaql.__all__:
        value = getattr(pragmaql, name)
        assert any(getattr(importlib.import_module(f"pragmaql.{m}"), name, None) is value
                   for m in SUBMODULES), name
        assert vars(pragmaql)[name] is value   # later lookups bypass __getattr__


def test_submodule_imports_still_work():
    from pragmaql import errors, formula, hilbert, lattice

    assert pragmaql.meet is hilbert.meet
    assert pragmaql.generate_quotient is lattice.generate_quotient
    assert pragmaql.ParseError is errors.ParseError
    assert pragmaql.parse_assertive is formula.parse_assertive


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from pragmaql import *", namespace)
    assert set(pragmaql.__all__) <= set(namespace)
    assert set(pragmaql.__all__) <= set(dir(pragmaql))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pragmaql.no_such_name


def test_root_loads_numpy_on_first_numeric_name():
    # in a child interpreter: this one imported numpy long ago
    script = """
import sys
import pragmaql
assert "numpy" not in sys.modules
assert pragmaql.parse_assertive("|- az") == pragmaql.Assert(pragmaql.Atom("az"))
assert "numpy" not in sys.modules
meet = pragmaql.meet
assert "numpy" in sys.modules and meet is pragmaql.hilbert.meet
namespace = {}
exec("from pragmaql import *", namespace)
assert set(pragmaql.__all__) <= set(namespace)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
