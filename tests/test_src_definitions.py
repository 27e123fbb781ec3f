"""Every top-level definition in ``src/vrgrid`` has a use outside its own body.

A use is a whole-word occurrence of the name in a module of ``src/vrgrid``
(its own included), ``README.md``, ``perfbench/*.py`` or ``pyproject.toml``.
A helper that only tests call fails here; such helpers live in
``tests/conftest.py``. ``vrgrid/__init__.py`` binds only ``__version__``, so
each name has one import path: its submodule.
"""

import ast
import re

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "vrgrid"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield node.name, start, node.end_lineno


def test_every_src_definition_has_a_use():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    readers = [REPO_ROOT / "README.md", REPO_ROOT / "pyproject.toml", *sorted((REPO_ROOT / "perfbench").glob("*.py"))]
    texts = {path: path.read_text() for path in [*modules, *readers]}
    unused = []
    for path in modules:
        lines = texts[path].splitlines()
        for name, start, end in _definitions(ast.parse(texts[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = "\n".join(lines[:start - 1] + lines[end:])
            others = (text for other, text in texts.items() if other != path)
            if not word.search(elsewhere) and not any(word.search(text) for text in others):
                unused.append(f"{path.name}:{name}")
    assert not unused, f"no use outside the definition: {', '.join(unused)}"


def test_package_binds_only_version():
    """``vrgrid/__init__.py`` is its docstring and ``__version__``: no re-export."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert len(body) == 1 and isinstance(body[0], ast.Assign), [ast.unparse(node) for node in body]
    assert [ast.unparse(target) for target in body[0].targets] == ["__version__"]
