"""Every function or class the package exports is used by the package.

A name counts as used when some module under src/setrecon/ other than
__init__.py refers to it (as a bare name or as an attribute) outside the
definition that introduces it.  An export that only the tests call is
test-only API: delete it, or move it into the tests as a reference.
"""

import ast
import inspect
from pathlib import Path

import setrecon

PACKAGE_DIR = Path(setrecon.__file__).parent

# Exports allowed to have no caller in the package, each with its reason.
ALLOWED_UNUSED: dict[str, str] = {}


def _exported_callables() -> list[str]:
    return sorted(
        name for name, obj in vars(setrecon).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    )


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """Names and attribute names referred to in tree, outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def _used_names() -> set[str]:
    used: set[str] = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ast.parse(path.read_text(encoding="utf-8"))
        definitions = {
            node.name: node for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        everywhere = set(_references(module))
        for name in everywhere:
            # a reference that only the definition itself makes (recursion,
            # a class naming itself) does not count
            own = definitions.get(name)
            if own is None or name in _references(module, skip=own):
                used.add(name)
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_callables()
    assert exported  # the scan found the package's exports
    used = _used_names()
    unused = [name for name in exported if name not in used and name not in ALLOWED_UNUSED]
    assert unused == [], f"exported but used only outside the package: {unused}"
    assert set(ALLOWED_UNUSED) <= set(exported), "stale entry in ALLOWED_UNUSED"
