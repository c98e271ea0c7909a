"""Source-level guarantees: no state that outlives one analysis, no cap or
cache outside the analysis's budget, no search in the group layers, no
invariant check that `python -O` can strip, and no name the engine never
calls unless it is a declared entry point or reference route."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_budgets_and_bounds_are_required():
    # a defaulted budget or bound would let a search run under caps or
    # caches that its analysis did not state
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [
                f"{name}:{node.lineno}:{node.name}({a.arg})"
                for a in defaulted
                if a.arg in ("budget", "sweep_bound", "degree_cap", "wide_bound")
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


# Functions, methods and classes that no code in src/equitor calls, each
# with the reason it stays.  Every other name must have an engine caller.
KEPT_WITHOUT_ENGINE_CALLER = {
    # reference routes: independent computations the tests compare against
    "paired_unit_lattice": "Hilbert basis of the paired system, the route to weight_unit_lattice",
    "brute_force_class_order": "enumeration route to QuotientGroup.order_of",
    "restrict_action_to_subgroup": "runs the oracles on the action of a subgroup",
    "min_free_multiple": "search route to the freeness exponent",
    "main_theorem_conditions": "the paper's equivalent conditions, each evaluated on its own",
    "t_consistency_check": "wide-sweep route to certified_exponent",
    "corollary_consistency": "cofree iff the obstruction restricts trivially (acceptance 6)",
    "derived_subgroups": "kernels of the unit and qualified weight groups, checked for inclusion",
    # checks on engine results that the tests state through the public API
    "class_order": "exact class order that acceptance 7 sets against the brute force",
    "principal_facet_flags": "upstairs principality, set against obstructing_facet_flags",
    "sub": "DivisorVector difference behind the character-divisor identities",
    "mul": "U*M*V = S check of smith_normal_form",
    "is_diagonal": "diagonal check of smith_normal_form",
    "is_whole_group": "subgroup predicate of the test assertions",
    "is_trivial": "subgroup predicate of the test assertions",
    "trivial_subgroup": "the trivial subgroup, counterpart of whole_group",
}


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


def test_every_name_has_an_engine_caller():
    uncalled = _uncalled_names()
    assert [e for e in uncalled if e.rsplit(":", 1)[1] not in KEPT_WITHOUT_ENGINE_CALLER] == []
    # the set names nothing that has since gained a caller or been deleted
    kept = {e.rsplit(":", 1)[1] for e in uncalled}
    assert sorted(set(KEPT_WITHOUT_ENGINE_CALLER) - kept) == []


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
