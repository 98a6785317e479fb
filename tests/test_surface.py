"""The library carries no surface that only its tests call.

Every top-level function or class, and every public method, defined in
``src/sclaw`` or ``scripts`` must be named by code in those files
outside its own body.  Names are matched as identifiers (a variable, an
attribute or a call), not resolved to their owner; an import alone does
not count as naming.  What the acceptance criteria name is exempt.

Every field of a dataclass there must be read as an attribute by code
in those files; the attribute name is matched, not its owner.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sclaw").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))

# NoisePath and its generate are imported by the benchmark's tracer from
# outside these files; both leave with ROADMAP item 4(b), and the class's
# fields are exempt with it
EXEMPT = {"NoisePath", "generate"}


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree):
    """Top-level functions and classes, and the public methods of the
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item


def acceptance_names():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    names = {_named(n) for n in ast.walk(tree)} - {None}
    names |= {a.name for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


def unnamed_definitions(sources):
    """(file, line, name) of each definition in sources that nothing
    outside its own body names."""
    trees = [(path, ast.parse(path.read_text())) for path in sources]
    uses = [n for _, tree in trees for n in ast.walk(tree) if _named(n)]
    out = []
    for path, tree in trees:
        for node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(_named(n) == node.name and id(n) not in inside
                       for n in uses):
                out.append((path.name, node.lineno, node.name))
    return out


def unread_fields(sources):
    """(file, line, "Class.field") of each dataclass field in sources that
    no code there reads as an attribute."""
    trees = [(path, ast.parse(path.read_text())) for path in sources]
    reads = {n.attr for _, tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(path.name, item.lineno, f"{node.name}.{item.target.id}")
            for path, tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and any(
                _named(d.func if isinstance(d, ast.Call) else d)
                == "dataclass" for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.target.id not in reads]


def test_sources_found():
    assert len(SOURCES) >= 10
    assert {p.name for p in SOURCES} >= {"cli.py", "solvers.py",
                                         "run_tail_scan.py"}


def test_no_surface_only_tests_call():
    exempt = EXEMPT | acceptance_names()
    dead = [d for d in unnamed_definitions(SOURCES) if d[2] not in exempt]
    assert dead == [], dead


def test_no_dataclass_field_goes_unread():
    dead = [d for d in unread_fields(SOURCES)
            if d[2].split(".")[0] not in EXEMPT]
    assert dead == [], dead


def test_guard_flags_an_unread_field(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n    shown: float\n    stored: float\n"
        "    kept: list = field(default_factory=list)\n\n\n"
        "class Plain:\n    loose: int = 0\n\n\n"
        "row = Row(1.0, 2.0)\nrow.stored = 3.0\nprint(row.shown, row.kept)\n")
    assert [d[2] for d in unread_fields([mod])] == ["Row.stored"]


def test_guard_flags_a_dead_helper(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return dead()\n\n\n"
        "class Box:\n"
        "    def shown(self):\n        return self._hidden()\n\n"
        "    def _hidden(self):\n        return used()\n\n"
        "    def unseen(self):\n        return self.unseen()\n\n\n"
        "print(Box().shown())\n")
    assert [d[2] for d in unnamed_definitions([mod])] == ["dead", "unseen"]
