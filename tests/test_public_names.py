"""The package's public names: the table in parklab/__init__.py, in order."""

from __future__ import annotations

import importlib
import types

import pytest

import parklab


def test_all_is_the_table_then_version():
    assert parklab.__all__ == [*parklab._HOME, "__version__"]
    assert list(parklab._HOME) == [
        name for names in parklab._EXPORTS.values() for name in names
    ]


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from parklab import *", ns)
    ns.pop("__builtins__")
    assert list(ns) == parklab.__all__


def test_no_export_is_a_module():
    for name in parklab.__all__:
        assert not isinstance(getattr(parklab, name), types.ModuleType), name


def test_each_export_is_its_home_modules_attribute():
    for name, module in parklab._HOME.items():
        home = importlib.import_module(f"parklab.{module}")
        assert getattr(parklab, name) is getattr(home, name), name


def test_each_function_and_class_is_defined_in_its_home_module():
    for name, module in parklab._HOME.items():
        value = getattr(parklab, name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == f"parklab.{module}", name


def test_each_home_module_is_a_package_attribute():
    for module in parklab._EXPORTS:
        assert getattr(parklab, module) is importlib.import_module(f"parklab.{module}")


def test_dir_lists_every_export():
    assert set(parklab.__all__) <= set(dir(parklab))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        parklab.no_such_name
