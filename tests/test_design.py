"""Design guard: losses and regularizers are objects, not type switches.

Each loss and regularizer class is the one place that knows how it
behaves, and callers read its methods and attributes: an entry point that
refuses the wrong problem kind reads the regularizer's kind and lam2 or
the loss's has_gap, so no module makes a type check on these classes.
The oracles module is exempt: it recomputes everything from first
principles, independently of the objects it checks. Likewise one method,
_Steps.move, applies a solver's moves, the step loop picks through the one
pick the steps bind for the config, every quantity a kind's steps keep has
an entry in reference_oracles.KEPT for the audit to hold it against, and
the package carries no test support: greedycd.oracles holds only what the
acceptance suite imports, and no package module imports it or tests/.
"""

import ast
import os

import numpy as np

from conftest import random_problem
from greedycd import objectives, oracles, solver
from greedycd import smips as sm
from greedycd.selection import Rule
from reference_oracles import KEPT

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "greedycd")
EXEMPT = {"oracles.py"}
LOSSES = ("SquaredResidual", "DualSVM", "Logistic")
REGULARIZERS = ("L1", "ElasticNetL1", "Box")
# functions allowed one type check each, by module: none, since every entry
# point reads the problem kind off the objects
ENTRY_POINTS = {}


def _class_names():
    """The loss and regularizer classes and every base they share."""
    names = set()
    for name in LOSSES + REGULARIZERS:
        for cls in getattr(objectives, name).__mro__:
            if cls.__module__ == objectives.__name__:
                names.add(cls.__name__)
    return names


def _named(node):
    """Class names an isinstance second argument mentions."""
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    out = set()
    for part in parts:
        if isinstance(part, ast.Name):
            out.add(part.id)
        elif isinstance(part, ast.Attribute):
            out.add(part.attr)
    return out


def type_checks(path):
    """(qualified function name, classes) of every isinstance call on a
    loss or regularizer class in the file."""
    tree = ast.parse(open(path).read(), path)
    watched = _class_names()
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            hit = _named(node.args[1]) & watched
            if hit:
                found.append((".".join(scope), sorted(hit)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_type_checks_only_at_entry_points():
    stray, seen = [], {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name in EXEMPT:
            continue
        allowed = ENTRY_POINTS.get(name, set())
        for where, classes in type_checks(os.path.join(SRC, name)):
            if where in allowed:
                seen[(name, where)] = seen.get((name, where), 0) + 1
            else:
                stray.append("%s:%s isinstance on %s" % (name, where,
                                                         classes))
    assert not stray, "dispatch on loss/regularizer type:\n" + \
        "\n".join(stray)
    assert all(count == 1 for count in seen.values()), seen


def test_guard_sees_a_type_switch(tmp_path):
    path = tmp_path / "switch.py"
    path.write_text("def f(p):\n"
                    "    if isinstance(p.reg, (L1, ElasticNetL1)):\n"
                    "        return 1\n"
                    "    return isinstance(p.loss, objectives.Logistic)\n")
    assert type_checks(str(path)) == [("f", ["ElasticNetL1", "L1"]),
                                      ("f", ["Logistic"])]


def test_one_move():
    """Moves are applied in one place: each kind of steps brings what it
    keeps up to date in its update and refresh hooks, which _Steps.move
    calls, and overrides no move of its own."""
    defines = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            for node in ast.walk(ast.parse(open(path).read(), path)):
                if isinstance(node, ast.ClassDef) and any(
                        isinstance(item, ast.FunctionDef)
                        and item.name == "move" for item in node.body):
                    defines.append("%s:%s" % (name, node.name))
    assert defines == ["solver.py:_Steps"]


def names_in(path, function):
    """Every name, attribute and argument the module-level function reads
    or binds."""
    tree = ast.parse(open(path).read(), path)
    [node] = [n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == function]
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.arg):
            names.add(n.arg)
    return names


def test_one_pick():
    """The step loop picks through the steps' one pick, bound when they
    are made: it branches on no rule, selector or engine."""
    names = names_in(os.path.join(SRC, "solver.py"), "_descend")
    assert "pick" in names
    assert not names & {"rule", "Rule", "selector", "engine"}


def test_guard_sees_a_pick_switch(tmp_path):
    path = tmp_path / "loop.py"
    path.write_text("def _descend(p, s, steps, cfg):\n"
                    "    if cfg.selector is not None:\n"
                    "        return steps.engine\n")
    assert {"selector", "engine"} <= names_in(str(path), "_descend")


def test_every_kept_quantity_has_a_fresh_value():
    """With each optional entry kept (the L1 screen bound, the box's gap
    sums and gap, and under a hashing engine its candidate mask), the
    names a kind's kept() returns over its configs are KEPT's names for
    it."""
    rng = np.random.default_rng(0)
    made = {"l1": (random_problem("lasso", rng),
                   solver.SolverConfig(rule=Rule.UNIFORM)),
            "box": (random_problem("svm", rng),
                    solver.SolverConfig(record_gap=True))}
    assert set(made) == set(KEPT)
    for kind, (p, cfg) in made.items():
        engine = solver.SmipsEngine(p, backend=sm.HyperplaneLsh(3, 2))
        hashing = solver.SolverConfig(engine=engine,
                                      record_gap=cfg.record_gap)
        names = set()
        for cfg, engine in ((cfg, None), (hashing, engine)):
            s = objectives.IterateState.zeros(p)
            steps = solver._steps_for(p, cfg, s, engine)
            assert steps.kind == kind
            names.update(steps.kept(p, s))
        assert "mask" in names
        assert sorted(names) == sorted(KEPT[kind])


def imported_names(path):
    """Every dotted part of every module the file imports, and every name
    it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(open(path).read(), path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def defined_names(path):
    """The public names the file's top level defines or assigns."""
    names = set()
    for node in ast.parse(open(path).read(), path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_no_test_support_in_the_package():
    """greedycd.oracles exports the three names the acceptance suite
    imports from it and the dense_smooth_value that fd_gradient reads; no
    package module imports it or a module under tests/, nor defines a name
    that the tests' reference_oracles defines."""
    path = os.path.join(TESTS, "test_acceptance.py")
    wanted = {alias.name for node in ast.walk(ast.parse(open(path).read()))
              if isinstance(node, ast.ImportFrom)
              and node.module == "greedycd.oracles" for alias in node.names}
    assert len(wanted) == 3
    assert sorted(oracles.__all__) == sorted(wanted | {"dense_smooth_value"})
    tests = {name[:-3] for name in os.listdir(TESTS) if name.endswith(".py")}
    support = defined_names(os.path.join(TESTS, "reference_oracles.py"))
    stray = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            found = imported_names(path) & ({"oracles"} | tests) \
                | defined_names(path) & support
            stray += ["%s: %s" % (name, sorted(found))] if found else []
    assert not stray, "test support in the package:\n" + "\n".join(stray)
