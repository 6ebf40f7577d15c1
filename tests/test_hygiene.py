"""Source hygiene of the package, checked with the stdlib ``ast`` module:
no unused import in the package or its tests, no unreferenced
module-level private name, no public function or class that neither
program code uses nor ``__all__`` exports, no public method that program
code does not use, an ``__all__`` whose every name resolves, no
``assert`` statement, the unchecked ``BlockSystem`` constructor used in
``blocks`` only, and an oracle that imports nothing
it judges; the names the benchmark's tracer patches still exist and
get traced; and a fresh import loads no stdlib module it does not need."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import blocksift
from blocksift import blocks, ioformats, perm, primitivity, sift, transversal, words
from blocksift.corpus import build, mathieu24, parse_spec

PACKAGE = Path(blocksift.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree (assignment targets do not count):
    bare names, attribute names, and names inside string annotations."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out |= used_names(ast.parse(sub.value, mode="eval"))
    return out


def all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = used_names(tree) | set(all_names(tree))
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_test_files_have_no_unused_imports():
    # the same check over this directory, which no per-module case covers
    found = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = parse(path)
        used = used_names(tree) | set(all_names(tree))
        found += [f"{path.name}: {name} (line {line})"
                  for name, line in imported_names(tree) if name not in used]
    assert not found, f"unused imports in tests: {found}"


def test_module_level_private_names_are_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    referenced: set[str] = set()
    for tree in trees.values():
        referenced |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [
                f"{name}: {d}" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
    assert not unreferenced, f"never referenced: {unreferenced}"


def test_module_level_public_names_are_used():
    """A public function or class that no program code reads and
    ``__all__`` does not export is dead code kept alive only by its tests,
    and so is a public method or property that no program code reads, of
    any class, exported or not: an exported class gets no test-only method.

    Names are matched, not bindings: a method counts as used once program
    code reads its name on anything, so ``SiftState.validate`` and
    ``Certificate.validate`` cannot be told apart.
    """
    root = PACKAGE.parent.parent
    referenced = set(blocksift.__all__)
    for path in [*MODULES, *(root / "tools").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        tree = parse(path)
        referenced |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    unused = []
    for path in MODULES:
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                ]
            unused += [
                f"{path.name}: {label}" for label, name in names
                if not name.startswith("_") and name not in referenced
            ]
    assert not unused, f"public names no program code uses: {unused}"


def test_all_names_resolve():
    names = blocksift.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert names == all_names(parse(PACKAGE / "__init__.py"))
    missing = [n for n in names if not hasattr(blocksift, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements; an invariant must raise explicitly
    asserts = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name}: assert statements on lines {asserts}"


def test_unchecked_block_system_stays_in_blocks():
    # BlockSystem._unchecked skips the partition check; only blockness_test,
    # which proves its system by construction and a postcondition, may use
    # it, so a system from anywhere else is always checked
    users = [
        path.name for path in MODULES
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_unchecked"
            for node in ast.walk(parse(path))
        )
    ]
    assert users == ["blocks.py"]


def test_oracle_imports_nothing_it_judges():
    # atkinson_baseline judges every verdict of the primitivity module, so
    # blocks.py, and every package module it imports in turn, imports
    # nothing those verdicts are made of
    imported, todo = set(), ["blocks"]
    while todo:
        for node in ast.walk(parse(PACKAGE / f"{todo.pop()}.py")):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                todo += [m for m in names if m not in imported]
                imported |= set(names)
    assert "perm" in imported
    assert not imported & {"primitivity", "sift", "transversal"}


def test_tracer_patch_points_exist():
    # perfbench/tracing.py wraps package names by attribute; a rename there
    # would break the benchmark's traced mode
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("blocksift_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bs = SimpleNamespace(
        GeneratorSet=blocksift.GeneratorSet, Permutation=blocksift.Permutation,
        perm=perm, words=words, sift=sift, transversal=transversal,
        blocks=blocks, primitivity=primitivity, ioformats=ioformats,
    )
    orbit, apply = primitivity.orbit, words.Word.apply
    gens = build(parse_spec("subsets(6,2)"))
    tracer = tracing.Tracer(bs)
    with tracer.traced():
        verdict = primitivity.primitivity_main(gens)
        # only a prime-degree decision walks an orbit to check transitivity
        prime = primitivity.primitivity_main(build(parse_spec("cyclic(7)")))
    # two H-updates run, so both transversal kinds are built
    assert verdict.kind == "primitive" and verdict.diagnostics.h_updates == 2
    assert prime.kind == "primitive"
    names = {s[0] for s in tracer.spans}
    assert {
        "primitivity.ss_primitivity", "sift.deep_sift",
        "words.deep_cube_orbit", "primitivity.candidate_bfs",
        "transversal.point", "transversal.scoped", "perm.is_transitive",
    } <= names
    assert primitivity.orbit is orbit and words.Word.apply is apply
    assert primitivity.is_transitive is perm.is_transitive
    assert blocks.is_transitive is perm.is_transitive


def test_fresh_import_loads_no_heavy_stdlib_module():
    # every CLI process pays for the modules the package imports: dataclasses
    # pulls in inspect, and importlib.resources is needed only to read the
    # m24 data file, which it then must still find
    script = f"""
import json, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import blocksift, blocksift.cli
loaded = [m for m in ("dataclasses", "inspect", "importlib.resources") if m in sys.modules]
from blocksift import corpus
gens = corpus.build(corpus.parse_spec("m24"))
print(json.dumps([loaded, [list(g.images) for g in gens.generators]]))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded, images = json.loads(proc.stdout)
    assert loaded == []
    assert images == [list(g.images) for g in mathieu24().generators]
