"""Every name the package exports, and every helper it keeps, has a caller.

Three kinds of name are checked: the functions and classes that
`setrecon/__init__.py` exports, the public methods and properties of the
exported classes, and the module-level functions and constants of every
module.  A name counts as used when some module under src/setrecon/ other
than __init__.py reads it (as a bare name or as an attribute).  Assigning
it, or a definition referring to itself (recursion, a class naming itself,
`self.name` inside the method `name`), does not count.  A name that only
the tests call is test-only API: delete it, or move it into the tests as a
reference.
"""

import ast
import inspect
from pathlib import Path

import setrecon

PACKAGE_DIR = Path(setrecon.__file__).parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Names allowed to have no caller in the package, each with its reason.
ALLOWED_UNUSED: dict[str, str] = {}


def _modules() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"
    ]


def _exported_callables() -> list[str]:
    return sorted(
        name for name, obj in vars(setrecon).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
    )


def _public_members() -> list[str]:
    """Methods and properties that exported classes define themselves."""
    return sorted(
        f"{cls.__name__}.{name}"
        for cls in map(vars(setrecon).get, _exported_callables()) if inspect.isclass(cls)
        for name, obj in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, (property, staticmethod, classmethod)))
    )


def _module_level_names() -> list[str]:
    """Functions defined, and names assigned, at the top of each module."""
    names = []
    for module in _modules():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(name for name in names if not name.startswith("__"))


def _self_reference(node: ast.AST, name: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name
    return (node.attr == name and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls"))


def _used_names() -> set[str]:
    used: set[str] = set()
    for module in _modules():
        stack: list[tuple[ast.AST, frozenset[str]]] = [(module, frozenset())]
        while stack:
            node, enclosing = stack.pop()
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name not in enclosing or not _self_reference(node, name):
                    used.add(name)
            if isinstance(node, _DEFINITIONS):
                enclosing |= {node.name}
            stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return used


def test_every_export_has_a_caller_in_the_package():
    exported = _exported_callables()
    assert exported  # the scan found the package's exports
    used = _used_names()
    unused = [name for name in exported if name not in used and name not in ALLOWED_UNUSED]
    assert unused == [], f"exported but used only outside the package: {unused}"
    assert set(ALLOWED_UNUSED) <= set(exported), "stale entry in ALLOWED_UNUSED"


def test_every_public_member_has_a_caller_in_the_package():
    members = _public_members()
    assert "Responder.reply" in members  # the scan found methods
    assert "FieldConfig.n_points" in members  # and properties
    used = _used_names()
    unused = [m for m in members if m.split(".")[1] not in used]
    assert unused == [], f"public members used only outside the package: {unused}"


def test_every_module_level_name_has_a_caller_in_the_package():
    names = _module_level_names()
    assert "_content_digest" in names  # the scan found private helpers,
    assert "key_range" in names  # public functions
    assert "_COUNT_MAX" in names and "ENGINES" in names  # and constants
    used = _used_names()
    unused = [name for name in names if name not in used]
    assert unused == [], f"module-level names with no caller: {unused}"
