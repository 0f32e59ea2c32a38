"""Every name a package module imports is referenced there or re-exported.

A stdlib check with ``ast``: an import binds a name, and the module must
load that name somewhere (code or annotation) or list it in a literal
``__all__``.
Imports anywhere in the module count, including those under
``TYPE_CHECKING`` and inside functions; ``from __future__`` imports do not
bind names and are skipped.
"""

import ast
import importlib
from pathlib import Path

import pytest

import soficperm

SRC = Path(__file__).resolve().parent.parent / "src" / "soficperm"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports but never references nor lists in
    ``__all__``, each as "name (line N)"."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:  # computed: the names it loads are in used
                pass
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_modules_found():
    assert {"cli.py", "perm.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from typing import Any, Optional\n"
              "from . import perm\n"
              "__all__ = ['perm']\n"
              "def f(x: Optional[int]) -> str:\n"
              "    return js.dumps(x)\n")
    assert unused_imports(source) == ["os (line 2)", "Any (line 4)"]


def test_package_exports_every_name_from_its_module():
    # __all__ is served by the package's __getattr__ from _EXPORTS
    names = [n for names in soficperm._EXPORTS.values() for n in names]
    assert soficperm.__all__ == ["__version__", *names]
    for module, names in soficperm._EXPORTS.items():
        mod = importlib.import_module(f"soficperm.{module}")
        for name in names:
            want = mod.eval if name == "eval_spec" else getattr(mod, name)
            assert getattr(soficperm, name) is want
    assert "Perm" in dir(soficperm)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(soficperm, "no_such_name")
