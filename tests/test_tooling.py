"""Source-level guarantees: no state that outlives one analysis, no cap or
cache outside the analysis's budget, no parameter a body never reads, no
fiber point that its reader can search for itself, no search in the group
layers, no elimination behind the unit weights, no invariant check that
`python -O` can strip, no name the engine never calls outside the
reference routes of `oracles.py`, and no cap that the README does not
name."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from equitor.semigroup import Budget

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equitor"
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


def _modules():
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in sorted(SRC.glob("*.py"))]


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_memoizing_decorators():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert found == []


def _is_dict(value):
    return isinstance(value, (ast.Dict, ast.DictComp)) or (
        isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "defaultdict")
    )


def test_no_module_level_dicts():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _is_dict(node.value)
    ]
    assert found == []


def _defaulted_parameters(names):
    """Every parameter in `names` that some function gives a default, as
    "module:line:function(parameter)"."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{name}:{node.lineno}:{node.name}({a.arg})" for a in defaulted if a.arg in names]
    return found


def test_budgets_and_bounds_are_required():
    # a defaulted budget or bound would let a search run under caps or
    # caches that its analysis did not state
    assert _defaulted_parameters(("budget", "sweep_bound", "degree_cap", "wide_bound")) == []


def test_fiber_points_are_required():
    # a defaulted point would let a class map or freeness test search its
    # fiber again instead of reading the point its caller already holds
    assert _defaulted_parameters(("a",)) == []


def test_every_parameter_is_read():
    # a parameter no body reads makes every caller supply a value nothing
    # uses; one only passed on shows up here once its callee drops it
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{name}:{node.lineno}:{getattr(node, 'name', 'lambda')}({a.arg})"
                for a in params
                if a.arg not in read and a.arg not in ("self", "cls")
            ]
    assert found == []


def test_only_the_analysis_builds_a_budget():
    def builds_budget(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Budget"

    trees = dict(_modules())
    analysis = next(n for n in trees["pipeline.py"].body if getattr(n, "name", None) == "Analysis")
    init = next(n for n in analysis.body if getattr(n, "name", None) == "__init__")
    inside = {id(n) for n in ast.walk(init) if builds_budget(n)}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if builds_budget(node) and id(node) not in inside
    ]
    assert found == [] and len(inside) == 1


def test_only_the_budget_holds_memo_tables():
    def holds_dict(node):
        if isinstance(node, ast.Call):  # field(default_factory=dict)
            return any(
                k.arg == "default_factory" and getattr(k.value, "id", None) in ("dict", "defaultdict")
                for k in node.keywords
            )
        if isinstance(node, (ast.Assign, ast.AnnAssign)):  # self.x = {} / self.x: dict = ...
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            on_self = any(
                isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self" for t in targets
            )
            annotated = isinstance(node, ast.AnnAssign) and "dict" in ast.unparse(node.annotation)
            return on_self and (annotated or (node.value is not None and _is_dict(node.value)))
        return False

    found = [
        f"{name}:{node.lineno}:{cls.name}"
        for name, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name != "Budget"
        for node in ast.walk(cls)
        if holds_dict(node)
    ]
    assert found == []


def test_the_budget_holds_only_the_semigroup_table():
    # a fiber table, or any other memo table in the budget, would let a
    # query answer from an earlier one instead of from its arguments
    containers = [k for k, v in vars(Budget()).items() if isinstance(v, (dict, list, set))]
    assert containers == ["semigroups"]


SEARCHES = ("fiber_sample", "solve_system_nonneg", "minimal_nonneg_solutions", "enumerate_fiber")


def test_group_layers_run_no_search():
    # unit, face-unit and qualified groups are lattice arithmetic: the
    # subgroup and reduced-class layers import no integer search
    trees = dict(_modules())
    found = [
        f"{name}:{node.lineno}:{alias.name}"
        for name in ("subgroups.py", "reduced.py")
        for node in ast.walk(trees[name])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rpartition(".")[2] in SEARCHES
    ]
    assert found == []


def test_unit_weights_run_no_elimination():
    # unit weights and stability are read off supports; the Farkas route,
    # one Fourier-Motzkin elimination per weight, is a reference route
    def named(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.alias)):
            return node.name
        return getattr(node, "id", getattr(node, "attr", None))

    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "oracles.py"
        for node in ast.walk(tree)
        if named(node) == "weight_unit_lattice"
        or (isinstance(node, ast.Call) and named(node.func) == "rational_shifted_cone_nonempty")
    ]
    assert found == []


def _uncalled_names():
    """Definitions whose name no Name or attribute in src/equitor mentions
    outside the definition itself, as "module:line:name".  Matching is by
    bare name, so a method counts as called when any attribute of that name
    is read anywhere."""
    trees = _modules()
    mentions: dict[str, list[ast.AST]] = {}
    for _name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                mentions.setdefault(node.attr, []).append(node)
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(m) in inside for m in mentions.get(node.name, [])):
                found.append(f"{name}:{node.lineno}:{node.name}")
    return found


def _names_in_tests() -> set[str]:
    """Every Name, attribute and imported name that a test file mentions."""
    out = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
    return out


def test_every_name_has_an_engine_caller():
    # a definition no engine code calls is a declared reference route: a
    # module-level function of oracles.py, and some test names it
    oracles = dict(_modules())["oracles.py"]
    routes = {
        f"oracles.py:{node.lineno}:{node.name}"
        for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    uncalled = _uncalled_names()
    assert [e for e in uncalled if e not in routes] == []
    named = _names_in_tests()
    assert [e for e in uncalled if e.rsplit(":", 1)[1] not in named] == []


def test_facets_are_recognised_without_a_rank():
    # a facet, and the height of its contraction, is read off its zero set
    # over a Hilbert basis (`_facets_from_basis`, `classify_facets`)
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name in ("semigroup.py", "divisors.py")
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name == "matrix_rank")
        or (isinstance(node, ast.Name) and node.id == "matrix_rank")
    ]
    assert found == []


def test_only_the_pipeline_and_cli_import_the_oracles():
    # reference routes may read engine results, never the other way round
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "oracles"
        and name not in ("pipeline.py", "cli.py")
    ]
    assert found == []


def test_every_benchmark_target_resolves(monkeypatch):
    # the benchmark's tracer reports a vanished target as absent, not as an
    # error, so a rename in the engine would only show in perfbench's suite
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _naming, _classify in tracer.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(f"equitor.{module}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or owner.__dict__.get(attr) is None:
            missing.append(f"{module}:{path}")
    assert missing == []
    assert any(path.startswith("Analysis.") for _m, path, _n, _c in tracer.TARGETS)


def test_every_cap_is_named_in_the_readme():
    # a cap surfaces in reports by its name, so the README's "Caps" section
    # must name each one the engine can raise
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    names = {
        node.args[0].value
        for _name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "CappedComputationError"
        and isinstance(node.args[0], ast.Constant)
    }
    assert len(names) >= 5
    assert sorted(n for n in names if f"`{n}`" not in section) == []


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_optimized_mode_prints_the_same_bytes(fixture):
    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "equitor", "analyze", str(fixture)],
            capture_output=True,
            cwd=ROOT,
        )

    plain, optimized = run(), run("-O")
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
