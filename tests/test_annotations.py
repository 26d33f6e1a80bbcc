"""Every public name and every annotation in the package resolves.

``from __future__ import annotations`` keeps annotations as strings, so a
name used only in an annotation and never imported goes unnoticed until
something asks for the hints.  This asks for all of them, and checks that
every name a module lists in ``__all__`` still exists.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import meanforge

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(
    meanforge.__path__, prefix="meanforge."))


def _annotated_objects(module):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", ["meanforge"] + MODULES)
def test_public_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("module_name", ["meanforge"] + MODULES)
def test_annotations_resolve(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for name, obj in _annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # noqa: BLE001 -- report every failure at once
            unresolved.append(f"{name}: {exc!r}")
    assert not unresolved, unresolved
