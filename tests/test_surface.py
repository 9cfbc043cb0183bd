"""Every def and class in the package has a caller in the package.

A name that only tests call belongs in tests/ (oracles.py holds the slow
twins), not in src/.  A name counts as used when some module of the
package other than __init__.py reads it: as a name, an attribute or an
import.  Its own def or class line, comments and strings do not count.
Dunder methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

import cscrystal

# Names kept without a caller in the package, each for its reason.
ALLOWED = {
    "epsilon": "README documents it next to phi",
    "tableau_from_json": "checks that the tableau JSON schema round-trips",
    "triangle_from_json": "checks that the triangle JSON schema round-trips",
    "from_json_dict": "checks that the H-table JSON schema round-trips",
    "is_zero": "perfbench/child.py counts strict elements with it",
}


def _modules():
    for path in sorted(Path(cscrystal.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def unused_names() -> list:
    """(module, name) of every def and class that no module reads."""
    defined, used = [], set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [
        (module, name)
        for module, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_name_in_src_has_a_caller():
    assert [(m, n) for m, n in unused_names() if n not in ALLOWED] == []


def test_every_allowed_name_still_lacks_a_caller():
    # an allowed name that gains a caller leaves the list
    assert sorted(n for _, n in unused_names()) == sorted(ALLOWED)
