"""Docs name only what exists.

Every dotted ``repro.…`` name in the prose docs (and every name a doc's
``from repro… import …`` line imports), and every ``:class:`` /
``:func:`` / ``:meth:`` / ``:mod:`` / ``:attr:`` / ``:data:`` / ``:exc:``
reference to ``repro.…`` in a docstring under ``src/``, must resolve to a
module, an attribute, or an instance attribute a class declares (an
annotated field, a dataclass's among them, or one its methods assign on
``self``).  A deleted or renamed
name then fails here instead of sending a reader to nothing.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent
DOCS = ("README.md", "DESIGN.md", "docs/TUTORIAL.md", "EXPERIMENTS.md",
        "tests/README.md")

DOTTED = re.compile(r"\brepro(?:\.\w+)+")
FROM_IMPORT = re.compile(r"\bfrom (repro(?:\.\w+)*) import ([\w, ]+)")
ROLE = re.compile(r":(?:class|func|meth|mod|attr|data|exc):`~?(repro(?:\.\w+)+)`")


def instance_attributes(cls: type) -> set[str]:
    """Annotated fields of ``cls`` and its bases, and what their methods
    assign on ``self``."""
    names: set[str] = set()
    for klass in cls.__mro__:
        names.update(klass.__dict__.get("__annotations__", {}))
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):  # a builtin base: no source
            continue
        names.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        )
    return names


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, an attribute or an instance
    attribute of a class."""
    obj: object = repro
    parts = dotted.split(".")[1:]
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif hasattr(obj, "__path__") and importlib.util.find_spec(
                f"{obj.__name__}.{part}") is not None:
            if last:  # a module that exists need not be imported (``__main__``)
                return True
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            return (last and isinstance(obj, type)
                    and part in instance_attributes(obj))
    return True


def doc_names() -> list[tuple[str, str]]:
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        names = set(DOTTED.findall(text))
        for module, imported in FROM_IMPORT.findall(text):
            names.update(f"{module}.{item.split()[0]}"
                         for item in imported.split(",") if item.strip())
        found += [(doc, name) for name in sorted(names)]
    return found


def docstring_refs() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                names.update(ROLE.findall(ast.get_docstring(node, clean=False) or ""))
        rel = path.relative_to(SRC.parent).as_posix()
        found += [(rel, name) for name in sorted(names)]
    return found


def test_every_doc_name_resolves():
    names = doc_names()
    assert len(names) > 100  # an extraction that matched nothing would pass
    assert [(doc, name) for doc, name in names if not resolves(name)] == []


def test_every_docstring_reference_resolves():
    refs = docstring_refs()
    assert len(refs) > 200
    assert [(path, name) for path, name in refs if not resolves(name)] == []
