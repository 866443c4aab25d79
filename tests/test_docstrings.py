"""Docstring checker for the engine and service layers.

The narrative docs (``docs/``) lean on the API reference being present
and truthful, so this module enforces the house rules over every public
name in :mod:`repro.engine` and :mod:`repro.service`:

* every public module, class, function and method has a docstring;
* every named parameter of a public callable is actually mentioned in
  its docstring (a numpydoc ``Parameters`` section or inline prose both
  count — what matters is that no argument is undocumented);
* every Sphinx cross-reference (``:class:`...```, ``:func:`...``` etc.)
  that points into ``repro`` resolves to a real, importable object — a
  renamed function can no longer leave stale references behind;
* every name a module lists in ``__all__`` exists, so a deleted name
  cannot linger in an export list.

This is deliberately a test, not a lint rule: the selected ruff tier is
"must be a real bug" only, and the D-rules fight the repo's numpydoc
style.  Running here keeps the check in every CI matrix job with zero
extra tooling.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from typing import Iterator, List, Tuple

import pytest

#: The layers whose public API must be fully documented.
PACKAGES = ("repro.engine", "repro.service")

_XREF = re.compile(
    r":(?:class|func|meth|mod|data|attr|exc):`~?\.?([A-Za-z0-9_.]+)`")


def _modules() -> List[object]:
    mods = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        mods.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("_"):
                mods.append(
                    importlib.import_module(f"{pkg_name}.{info.name}"))
    return mods


def _public_members(mod) -> Iterator[Tuple[str, object]]:
    """Public classes/functions defined (not re-exported) in ``mod``,
    plus their public methods and properties."""
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        yield f"{mod.__name__}.{name}", obj
        if inspect.isclass(obj):
            for mname, member in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member,
                                                            property):
                    yield f"{mod.__name__}.{name}.{mname}", member


def _params_of(obj) -> List[str]:
    """Named parameters a docstring must mention (self/cls, varargs and
    underscore-prefixed names excluded)."""
    if isinstance(obj, property):
        return []
    target = obj.__init__ if inspect.isclass(obj) else obj
    try:
        sig = inspect.signature(target)
    except (TypeError, ValueError):  # builtins like object.__init__
        return []
    return [p.name for p in sig.parameters.values()
            if p.name not in ("self", "cls")
            and not p.name.startswith("_")
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def _doc_of(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc if doc else ""


MODULES = _modules()
MEMBERS = [(qual, obj) for mod in MODULES
           for qual, obj in _public_members(mod)]


@pytest.mark.parametrize("mod", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_has_docstring(mod):
    assert (mod.__doc__ or "").strip(), f"{mod.__name__} lacks a docstring"


@pytest.mark.parametrize("qual, obj", MEMBERS,
                         ids=[qual for qual, _ in MEMBERS])
def test_public_member_documented(qual, obj):
    doc = _doc_of(obj)
    assert doc.strip(), f"{qual} lacks a docstring"
    # Dataclasses document their fields in the class docstring
    # (Attributes) and have a synthesised __init__; the field names
    # double as the parameter names, so the same rule applies to both.
    missing = [p for p in _params_of(obj)
               if not re.search(rf"\b{re.escape(p)}\b", doc)]
    assert not missing, (
        f"{qual} does not document parameter(s) {missing} — add them to "
        f"its Parameters/Attributes section")


def _resolve(target: str) -> bool:
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        mod_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(mod_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("mod", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_cross_references_resolve(mod):
    """Stale ``:class:`` / ``:func:`` / ... references into repro are
    documentation bugs; methods and attributes are resolved through
    their class."""
    source = inspect.getsource(mod)
    stale = []
    for target in _XREF.findall(source):
        if not target.startswith("repro."):
            continue  # stdlib/numpy references are out of scope
        if not _resolve(target):
            stale.append(target)
    assert not stale, (
        f"{mod.__name__} has stale cross-reference(s): {sorted(set(stale))}")


@pytest.mark.parametrize("mod", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_all_entries_resolve(mod):
    """A stale ``__all__`` entry breaks ``from mod import *`` only at
    the caller's import time; catch it here."""
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists missing {missing}"
