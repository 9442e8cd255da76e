"""No library or tool module imports a name it never reads, and every
module-level name of the library, and every method and property of its
classes, is read somewhere.

No linter ships with the project, so this walks each module's syntax tree
with ``ast``.  Package ``__init__`` modules import to re-export, so they
are left out of the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "leantrie").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    if p.name != "__init__.py"
)
LIBRARY = sorted((ROOT / "src" / "leantrie").glob("*.py"))
# where a library name may be read: the library, its tools, the benchmark,
# and the acceptance tests, which call what the paper's criteria name
READERS = [
    *LIBRARY,
    *(ROOT / "tools").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
]


def unused_imports(source):
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os, sys\nfrom dataclasses import dataclass, field\nprint(sys, dataclass)\n"
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def defined_names(tree):
    """``{name: definition node}`` of a module's top-level functions,
    classes and assigned names, dunder names left out."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return {n: d for n, d in defined.items() if not (n.startswith("__") and n.endswith("__"))}


def read_names(tree):
    """How often ``tree`` reads each name: as a name, an attribute or an
    imported name."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def read_attributes(tree):
    """How often ``tree`` reads each attribute name, as ``x.name``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def class_scope_reads(cls):
    """How often the class ``cls`` reads each name in its own scope: in
    its body's statements and its methods' decorators, not in the
    methods' bodies, where a bare name is a module's name."""
    read = Counter()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = node.decorator_list
        else:
            parts = [node]
        for part in parts:
            read.update(
                n.id for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            )
    return read


def defined_members(tree):
    """``{"Class.name": definition node}`` of the methods and properties
    of a module's top-level classes, dunder names left out."""
    return {
        f"{cls.name}.{node.name}": node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def unread_names(modules, readers, defined=defined_names):
    """``module:name`` for each name that ``defined`` finds in ``modules``
    (``{path: source}``) and that no source in ``readers`` or ``modules``
    reads outside its own definition.

    A module-level name is read as a name, an attribute or an imported
    name.  A ``Class.member`` is read only as an attribute, ``x.member``,
    or as a name in its own class's scope (``__contains__ =
    contains_key``), so a module function or a local variable of the same
    name does not mask it.  An attribute is not tied to its object's
    class, though: an attribute of the same name of any other class, such
    as a dataclass field, still counts as a read of the member.
    """
    read = Counter()
    attributes = Counter()
    for source in {**readers, **modules}.values():
        tree = ast.parse(source)
        read += read_names(tree)
        attributes += read_attributes(tree)
    unread = []
    for path, source in modules.items():
        tree = ast.parse(source)
        scopes = {c.name: class_scope_reads(c) for c in tree.body if isinstance(c, ast.ClassDef)}
        for qualname, node in defined(tree).items():
            owner, _, name = qualname.rpartition(".")
            if owner:
                times = attributes[name] - read_attributes(node)[name]
                times += scopes[owner][name]
            else:
                times = read[name] - read_names(node)[name]
            if not times:
                unread.append(f"{Path(path).stem}:{qualname}")
    return unread


def test_the_check_finds_an_unread_name():
    modules = {
        "a.py": "X = 1\nY = 2\ndef f():\n    return f()\ndef g():\n    return X\n",
        "b.py": "from a import g\nclass C:\n    pass\n",
    }
    readers = {"c.py": "import a\na.Y\n"}
    assert unread_names(modules, readers) == ["a:f", "b:C"]


def test_every_library_name_is_read():
    modules = {str(p): p.read_text() for p in LIBRARY}
    readers = {str(p): p.read_text() for p in READERS}
    assert unread_names(modules, readers) == []


def test_the_check_finds_an_unread_member():
    modules = {
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.kept()\n"
            "    def kept(self):\n"
            "        pass\n"
            "    def loop(self):\n"
            "        return self.loop()\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
        ),
    }
    readers = {"b.py": "from a import C\nC().size\n"}
    assert unread_names(modules, readers, defined_members) == ["a:C.loop"]


def test_a_same_named_function_or_variable_does_not_mask_an_unread_member():
    modules = {
        "a.py": (
            "def size():\n"
            "    return 0\n"
            "class C:\n"
            "    def size(self):\n"
            "        return size()\n"
            "    def kept(self):\n"
            "        loop = 1\n"
            "        return loop\n"
            "    alias = kept\n"
            "    def loop(self):\n"
            "        pass\n"
        ),
    }
    readers = {"b.py": "from a import C, size\nsize()\n"}
    # the function ``size`` and the local ``loop`` are read as bare names;
    # ``kept`` is read in its class's scope
    assert unread_names(modules, readers, defined_members) == ["a:C.size", "a:C.loop"]


def test_every_library_member_is_read():
    modules = {str(p): p.read_text() for p in LIBRARY}
    readers = {str(p): p.read_text() for p in READERS}
    assert unread_names(modules, readers, defined_members) == []
