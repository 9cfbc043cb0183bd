"""Every def and class in the package has a caller in the package, and
every import is read.

A name that only tests call belongs in tests/ (oracles.py holds the slow
twins), not in src/.  A module-level name counts as used when some
module of the package other than __init__.py reads it: as a name, an
attribute or an import.  A method (or property) counts as used only
when its name is read as an attribute.  When one class alone defines
that name and no builtin container has it, any attribute read will do.
A shared name (two classes define it, or a builtin container such as
dict also has it, like items or get) is read for one class only through
self or cls inside that class, or through the class's own name; any
other read of it cannot say whose method it is, so each such method
needs its own entry on an allow-list.  Its own def or class line,
comments and strings do not count.  Dunder methods are called by Python
itself and are not checked.
"""

import ast
from pathlib import Path

import cscrystal

# Names kept without a caller in the package, each for its reason.
ALLOWED = {
    "TPoly.is_zero": "perfbench/child.py counts strict elements with it",
}

# Methods whose name is shared, each with the code that reads it.
ALLOWED_SHARED = {
    "LaurentPoly.coefficient": "laurent.verify_identity prints a mismatch's two sides",
    "TPoly.coefficient": "HTable.to_csv reads each row's coefficients",
    "GLWeight.rank": "every function that takes a weight reads lam.rank",
    "Shape.rank": "enumerate_crystal checks it and crystal_scores reads it",
    "HTable.to_json_dict": "cli.cmd_hpoly writes it",
    "Tableau.to_json_dict": "cli.cmd_enumerate and cmd_bzl write it",
    "DecoratedTriangle.to_json_dict": "cli.cmd_bzl writes it",
}

# The re-exports that perfbench/child.py traces at these modules; no
# code of the package reads them.
REEXPORTS = {
    ("bzl.py", "e_op"),
    ("bzl.py", "phi"),
    ("hpoly.py", "enumerate_crystal"),
    ("hpoly.py", "c_coefficient"),
    ("laurent.py", "bzl_path"),
    ("laurent.py", "c_coefficient"),
    ("laurent.py", "decorate_via_operators"),
    ("laurent.py", "g_from_triangle"),
}

CONTAINER_METHODS = {
    name for kind in (dict, list, tuple, set, frozenset, str) for name in dir(kind)
}


def _modules():
    for path in sorted(Path(cscrystal.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reads(tree):
    """(names read, attributes read, (owner, attribute) pairs) of a
    module, where the owner is the name an attribute is read on, and
    self or cls stand for the class whose body holds the read."""
    names, attrs, owned = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                owned.add((node.value.id, node.attr))
        elif isinstance(node, ast.ClassDef):
            owned |= {
                (node.name, sub.attr)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in ("self", "cls")
            }
    return names, attrs, owned


def unused_names() -> list:
    """(module, name) of every def and class that no module reads, a
    method named as Class.method."""
    functions, methods = [], []
    names, attrs, owned = set(), set(), set()
    for module, tree in _modules():
        in_class = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        methods.append((module, node.name, item.name))
                    in_class.add(item)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node not in in_class:
                functions.append((module, node.name))
        n, a, o = _reads(tree)
        names, attrs, owned = names | n, attrs | a, owned | o
    definers: dict = {}
    for _, cls, name in methods:
        definers.setdefault(name, set()).add(cls)
    unused = [(m, n) for m, n in functions if n not in names | attrs and not _is_dunder(n)]
    for module, cls, name in methods:
        shared = len(definers[name]) > 1 or name in CONTAINER_METHODS
        if (cls, name) not in owned and (shared or name not in attrs):
            unused.append((module, f"{cls}.{name}"))
    return unused


def test_every_name_in_src_has_a_caller():
    allowed = ALLOWED.keys() | ALLOWED_SHARED.keys()
    assert [(m, n) for m, n in unused_names() if n not in allowed] == []


def test_every_allowed_name_still_lacks_a_caller():
    # an allowed name that gains a caller, or whose name stops being
    # shared, leaves the list
    assert sorted(n for _, n in unused_names()) == sorted(ALLOWED.keys() | ALLOWED_SHARED.keys())


def test_every_shared_allowed_name_is_read():
    # the allow-list excuses a shared name's ambiguous reads, not their absence
    attrs = {attr for _, tree in _modules() for attr in _reads(tree)[1]}
    assert sorted(n for n in ALLOWED_SHARED if n.split(".")[1] not in attrs) == []


def unread_imports() -> set:
    """(module, name) of every name a module of the package imports
    and never reads; __init__.py, whose imports are the package's
    public names, is not checked."""
    unread = set()
    for module, tree in _modules():
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in names:
                        unread.add((module, bound))
    return unread


def test_every_import_in_src_is_read():
    assert sorted(unread_imports() - REEXPORTS) == []


def test_every_reexport_is_still_unread():
    # a re-export that gets read, or is removed, leaves the list
    assert sorted(unread_imports()) == sorted(REEXPORTS)
