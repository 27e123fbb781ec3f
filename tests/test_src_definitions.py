"""Every top-level definition in ``src/vrgrid`` has a use outside its own body.

A use is a whole-word occurrence of the name in a module of ``src/vrgrid``
(its own included), ``README.md``, ``perfbench/*.py`` or ``pyproject.toml``.
A helper that only tests call fails here; such helpers live in
``tests/conftest.py``. ``vrgrid/__init__.py`` binds only ``__version__``, so
each name has one import path: its submodule. A name with a leading
underscore is private to its module: no sibling imports it. ``cli.main`` is
the one function that sets numpy's floating-point error state.
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


def _private_imports(path):
    """``module:name`` of each underscore-prefixed name that ``path`` imports from a sibling
    module; a sibling module itself (``from . import _kernels``) and dunders are not private."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("vrgrid")):
            continue
        for alias in node.names:
            is_module = node.module in (None, "vrgrid") and (SRC / f"{alias.name}.py").exists()
            if alias.name.startswith("_") and not alias.name.endswith("__") and not is_module:
                yield f"{node.module or '.'}:{alias.name}"


def test_no_module_imports_a_private_name_of_a_sibling():
    """A name with a leading underscore belongs to its module: no other module imports it."""
    found = {path.name: list(_private_imports(path)) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), {name: names for name, names in found.items() if names}


def test_only_main_sets_numpy_error_state():
    """``cli.main`` runs each command under one ``np.errstate``; no other function in ``src/vrgrid``
    calls ``np.errstate`` or ``np.seterr``, so a library function leaves the state to its caller."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk visits an outer function before the functions inside it, so the innermost name wins
        scope = {node: func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(func)}
        found += [f"{path.stem}.{scope.get(node, '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("errstate", "seterr")]
    assert found == ["cli.main"]
