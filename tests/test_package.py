"""The package namespace, which loads each public name from its home module on first use."""

from importlib import import_module

import pytest

import pwsurv

PUBLIC = [name for name in pwsurv.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_module_object(name):
    obj = getattr(pwsurv, name)
    assert obj.__module__.startswith("pwsurv.")
    assert getattr(import_module(obj.__module__), name) is obj


@pytest.mark.parametrize("module", sorted(pwsurv._HOMES))
def test_module_all_is_its_homes_entry(module):
    # one list of public names: a module exports exactly what the package does
    assert sorted(import_module(f"pwsurv.{module}").__all__) == sorted(pwsurv._HOMES[module])


def test_dir_lists_all():
    assert set(pwsurv.__all__) <= set(dir(pwsurv))


def test_star_import_binds_all():
    namespace = {}
    exec("from pwsurv import *", namespace)
    assert set(pwsurv.__all__) <= set(namespace)
    assert namespace["fit_mle"] is pwsurv.fit_mle


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'pwsurv' has no attribute 'no_such_name'"):
        pwsurv.no_such_name


def test_p_value_formatter_is_not_public():
    # wald_summary is its one caller
    assert "format_p_value" not in pwsurv.__all__
    with pytest.raises(AttributeError):
        pwsurv.format_p_value
