"""The library carries no surface that only its tests call.

Every top-level function or class, and every public method, defined in
``src/sclaw`` or ``scripts`` must be named by code in those files
outside its own body: a top-level definition by a load of its name (a
read or a call, not an assignment, a parameter or an attribute), a
method by a load of an attribute of its name.  Names are matched, not
resolved to their owner; an import alone does not count as naming.
What the acceptance criteria name is exempt.

Every field of a dataclass there must be read as an attribute by code
in those files; the attribute name is matched, not its owner.

Every optional parameter of a function or method there must be set, by
position or by keyword, by some call in those files or in the
acceptance tests, whose calls are the shipped guarantees.  Calls are
matched by the called name, as above.  A call that passes *args or
**kwargs, and a function passed as a value (``make_flux`` handed to
``_cfgerr``), set every parameter; an argument that repeats the default,
or forwards an unset optional parameter of the caller, sets nothing.

And the default of every optional parameter there, unless it is None,
must be used by some call in those files: a parameter that every call
sets is a required one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sclaw").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))

# NoisePath and its generate are imported by the benchmark's tracer from
# outside these files; both leave with ROADMAP item 6(b), and the class's
# fields are exempt with it
EXEMPT = {"NoisePath", "generate"}

ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _definitions(tree):
    """(definition, the node type that names it) of each top-level
    function and class, and of each public method of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, ast.Name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item, ast.Attribute


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
    loads = [n for _, tree in trees for n in ast.walk(tree)
             if _named(n) and isinstance(n.ctx, ast.Load)]
    out = []
    for path, tree in trees:
        for node, kind in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, kind) and _named(n) == node.name
                       and id(n) not in inside for n in loads):
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


def _functions(tree):
    """(called name, definition, leading parameters a call does not
    pass) of each top-level function and each method; a constructor is
    called by its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(_named(d) == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, 0 if static else 1


def _optional(fn):
    """(parameter, default) of each optional parameter of fn."""
    a = fn.args
    params = a.posonlyargs + a.args
    pairs = list(zip(params[len(params) - len(a.defaults):], a.defaults))
    return pairs + [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]


def _calls_and_values(nodes):
    """The calls among nodes, and the names they use as values rather
    than call."""
    calls = [n for n in nodes if isinstance(n, ast.Call)]
    called = {id(c.func) for c in calls}
    return calls, {_named(n) for n in nodes
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load) and id(n) not in called}


def _arguments(call, fn, skip):
    """{parameter: argument node} of a call to fn, or None when the call
    passes *args or **kwargs."""
    if (any(isinstance(x, ast.Starred) for x in call.args)
            or any(k.arg is None for k in call.keywords)):
        return None
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][skip:]
    return {**dict(zip(positional, call.args)),
            **{k.arg: k.value for k in call.keywords}}


def unset_parameters(sources, callers=()):
    """(file, line, "function.parameter") of each optional parameter of
    a function in sources that no call in sources or callers sets.

    An argument that repeats the default, or forwards an unset optional
    parameter of the function the call lies in, does not set it.
    """
    trees = [(path, ast.parse(path.read_text())) for path in sources]
    nodes = [n for tree in [t for _, t in trees]
             + [ast.parse(p.read_text()) for p in callers]
             for n in ast.walk(tree)]
    calls, values = _calls_and_values(nodes)
    functions = [(path, *f) for path, tree in trees for f in _functions(tree)]
    home = {id(n): fn for _, _, fn, _ in functions for n in ast.walk(fn)}
    defaults = {}
    for _, name, fn, _ in functions:
        if name not in values:
            defaults.update({(id(fn), p.arg): ast.dump(d)
                             for p, d in _optional(fn)})
    unset = set(defaults)

    def sets(arg, key, call):
        """Whether arg, passed for the parameter key by call, sets it."""
        forwarded = (id(home.get(id(call))), getattr(arg, "id", None))
        return ast.dump(arg) != defaults[key] and not (
            isinstance(arg, ast.Name) and forwarded in unset)

    changed = True
    while changed:
        changed = False
        for _, name, fn, skip in functions:
            for c in (c for c in calls if _named(c.func) == name):
                args = _arguments(c, fn, skip)
                for key in [k for k in unset if k[0] == id(fn)]:
                    if args is None or (key[1] in args
                                        and sets(args[key[1]], key, c)):
                        unset.discard(key)
                        changed = True
    return sorted((path.name, fn.lineno, f"{fn.name}.{p}")
                  for path, _, fn, _ in functions
                  for i, p in unset if i == id(fn))


def unused_defaults(sources):
    """(file, line, "function.parameter") of each optional parameter of
    a function in sources whose default no call there uses.

    A call uses the default when it leaves the parameter out, repeats
    the default, or passes *args or **kwargs; a function passed as a
    value may use every default.  A default of None is not checked: it
    stands for "not given", and a call can forward None at run time
    (an unset --seed reaches load_config), which the syntax does not
    show.
    """
    trees = [(path, ast.parse(path.read_text())) for path in sources]
    calls, values = _calls_and_values(
        [n for _, tree in trees for n in ast.walk(tree)])
    out = []
    for path, tree in trees:
        for name, fn, skip in _functions(tree):
            pairs = [(p, d) for p, d in _optional(fn)
                     if not (isinstance(d, ast.Constant) and d.value is None)]
            if not pairs or name in values:
                continue
            passed = [_arguments(c, fn, skip) for c in calls
                      if _named(c.func) == name]
            out += [(path.name, fn.lineno, f"{fn.name}.{p.arg}")
                    for p, d in pairs
                    if not any(args is None or p.arg not in args
                               or ast.dump(args[p.arg]) == ast.dump(d)
                               for args in passed)]
    return sorted(out)


def test_sources_found():
    assert len(SOURCES) >= 10
    assert {p.name for p in SOURCES} >= {"cli.py", "solvers.py",
                                         "compare_artifacts.py"}


def test_no_surface_only_tests_call():
    exempt = EXEMPT | acceptance_names()
    dead = [d for d in unnamed_definitions(SOURCES) if d[2] not in exempt]
    assert dead == [], dead


def test_no_dataclass_field_goes_unread():
    dead = [d for d in unread_fields(SOURCES)
            if d[2].split(".")[0] not in EXEMPT]
    assert dead == [], dead


def test_no_optional_parameter_goes_unset():
    dead = unset_parameters(SOURCES, [ACCEPTANCE])
    assert dead == [], dead


def test_no_default_goes_unused():
    dead = unused_defaults(SOURCES)
    assert dead == [], dead


def test_guard_flags_an_unused_default(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4, n=None):\n    return a\n\n\n"
        "def g(x=0, y=1):\n    return x\n\n\n"
        "def h(y=0):\n    return y\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def grow(self, by=1, times=1):\n        return by\n\n\n"
        "f(0, 5, 2, d=6, e=7, n=8)\nf(0, 6, e=4, d=9)\ng(*[1])\n"
        "print(h)\nBox(2)\nBox().grow(2, times=3)\n")
    # c = 2 and e = 4 repeat the defaults, Box() leaves size out, and
    # n's None is not checked
    assert [d[2] for d in unused_defaults([mod])] == [
        "f.b", "f.d", "grow.by", "grow.times"]


def test_guard_flags_an_unset_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
        "def g(x=0):\n    return x\n\n\n"
        "def h(y=0):\n    return y\n\n\n"
        "def k(z=0):\n    return f(0, z)\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def grow(self, by=1, times=1):\n        return by\n\n\n"
        "f(0, 1, e=6)\ng(*[1])\nprint(h)\nk()\nBox().grow(2)\n")
    # b = 1 repeats the default, and k forwards its own unset z
    assert [d[2] for d in unset_parameters([mod])] == [
        "f.b", "f.c", "f.d", "k.z", "__init__.size", "grow.times"]
    caller = tmp_path / "caller.py"
    caller.write_text("k(5)\nBox(2)\nf(0, 1, 5, d=7)\n")
    assert [d[2] for d in unset_parameters([mod], [caller])] == [
        "grow.times"]


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
        "def stored():\n    return 2\n\n\n"
        "class Box:\n"
        "    def shown(self):\n        return self._hidden()\n\n"
        "    def _hidden(self):\n        return used()\n\n"
        "    def unseen(self):\n        return self.unseen()\n\n"
        "    def size(self):\n        return 3\n\n\n"
        "def area(size=1, box=Box()):\n"
        "    size = 2 * size + box.stored\n    return size\n\n\n"
        "print(Box().shown(), area())\n")
    # size's only namesakes are a parameter and a local variable, and
    # stored's an attribute
    assert [d[2] for d in unnamed_definitions([mod])] == [
        "dead", "stored", "unseen", "size"]
