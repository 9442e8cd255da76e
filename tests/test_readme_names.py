"""Every name that the README's Layout table puts in backticks is real,
and its Command line section lists exactly the CLI's subcommands, each
with flags it takes.

A backticked identifier in a module's row (``name``, ``Class.name`` or a
call such as ``update(…, change)``) must be an attribute of that module,
or a member of one of its classes: a method, a class attribute, a
``__slots__`` entry, a dataclass field or an attribute its methods set on
``self``.  Spans that are not identifiers (a command line, a tuple
layout, a file name) are not checked.  Modules are read with ``ast``, so
nothing is imported; only the subcommands come from ``build_parser``.
"""

import argparse
import ast
import re
from pathlib import Path

from leantrie.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)(?:\(.*\))?")
FILE_SUFFIXES = {"json", "md", "py", "toml", "txt"}


def layout_rows(readme):
    """``(path, contents)`` of each row of the README's Layout table."""
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


def module_names(source):
    """``(attributes, members)`` of a module: its top-level names, imported
    ones too, and ``{class name: member names}``."""
    tree = ast.parse(source)
    attributes = set()
    members = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            attributes |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            attributes.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            attributes |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if isinstance(node, ast.ClassDef):
            members[node.name] = _class_members(node)
    return attributes, members


def _class_members(cls):
    found = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.add(target.id)
                    if target.id == "__slots__":
                        found |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                found.add(node.attr)
    return found


def unknown_names(contents, source):
    """The backticked identifiers of a row's ``contents`` that the module
    of ``source`` does not define."""
    attributes, members = module_names(source)
    unknown = []
    for span in re.findall(r"`([^`]+)`", contents):
        match = NAME.fullmatch(span)
        if match is None:
            continue
        name = match.group(1)
        owner, _, member = name.rpartition(".")
        if member in FILE_SUFFIXES:
            continue
        if owner:
            known = member in members.get(owner, ())
        else:
            known = name in attributes or any(name in m for m in members.values())
        if not known:
            unknown.append(name)
    return unknown


def test_the_check_finds_a_deleted_name():
    source = (
        "from itertools import chain\n"
        "X = 1\n"
        "class Node(tuple):\n"
        "    __slots__ = ('width',)\n"
        "    def _find(self):\n"
        "        self.seen = True\n"
        "def update(node):\n"
        "    return node\n"
    )
    row = (
        "one key scan (`Node._find`), an entry list (`Node._entries`), "
        "`update(…, change)`, `width`, `seen`, `chain`, `X`, a writer "
        "(`_collision`), `(hash, *slots)`, `leantrie footprint`, `BENCHMARK.json`"
    )
    assert unknown_names(row, source) == ["Node._entries", "_collision"]


def test_the_layout_table_has_a_row_per_library_module():
    paths = {path for path, _ in layout_rows((ROOT / "README.md").read_text())}
    for module in (ROOT / "src" / "leantrie").glob("*.py"):
        if module.name != "__init__.py":
            assert str(module.relative_to(ROOT)) in paths


def test_every_layout_name_is_defined_by_its_module():
    unknown = []
    for path, contents in layout_rows((ROOT / "README.md").read_text()):
        if path.endswith(".py"):
            source = (ROOT / path).read_text()
            unknown += [f"{path}: {name}" for name in unknown_names(contents, source)]
    assert unknown == []


def readme_commands(readme):
    """The words after ``leantrie`` on each command line of the README's
    Command line section."""
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in re.findall(r"^leantrie .*$", section, re.MULTILINE)]


def subcommand_parsers():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_the_command_line_section_lists_every_subcommand_and_no_other():
    commands = readme_commands((ROOT / "README.md").read_text())
    assert {command for command, *_ in commands} == set(subcommand_parsers())


def test_every_flag_of_the_command_line_section_is_its_subcommands():
    parsers = subcommand_parsers()
    unknown = []
    for command, *words in readme_commands((ROOT / "README.md").read_text()):
        known = parsers[command]._option_string_actions
        unknown += [f"{command} {w}" for w in words if w.startswith("--") and w not in known]
    assert unknown == []
