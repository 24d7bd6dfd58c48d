"""Package-wide guards that no single module test would catch."""

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import hubrknn


def _absolute_imports(path: pathlib.Path):
    """(line, module name) of each absolute import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


SOURCES = sorted(pathlib.Path(hubrknn.__file__).parent.glob("*.py"))


def test_package_imports_only_stdlib():
    """The runtime has no dependencies: every absolute import is stdlib."""
    assert SOURCES
    for path in SOURCES:
        for lineno, name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top == "hubrknn" or top in sys.stdlib_module_names, (
                f"{path.name}:{lineno} imports {name}"
            )


def test_every_import_is_read():
    """Each name a module imports is read in it: the project has no linter,
    so this is its unused-import check. ``__init__`` re-exports, and
    ``__future__`` imports bind nothing."""
    unread = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def test_only_labels_and_graph_import_zlib():
    """The sealed file framing, and with it the CRC, stays in labels.py;
    graph.py takes the CRC-32 of the edge-list text it reads."""
    importers = [
        path.name for path in SOURCES for _, name in _absolute_imports(path) if name == "zlib"
    ]
    assert importers == ["graph.py", "labels.py"]


def test_cli_import_leaves_bench_unloaded():
    """Only the bench subcommand imports bench, with csv, hashlib, logging and
    statistics; no module on the CLI path imports dataclasses, which pulls in
    inspect. The CLI path loads exactly the package modules listed here:
    each is compiled at every launch, so a new one is reported with its
    ``-X importtime`` cost before it joins the list."""
    src = str(pathlib.Path(hubrknn.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, hubrknn.cli; "
        "print(sorted({'hubrknn.bench', 'csv', 'hashlib', 'logging', 'statistics',"
        " 'dataclasses', 'inspect'} & set(sys.modules))); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'hubrknn'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    unwanted, package = out.stdout.splitlines()
    assert unwanted == "[]"
    assert package == str(sorted(
        ["hubrknn"]
        + [f"hubrknn.{m}" for m in ("cli", "errors", "graph", "labels", "offline", "oracle")]
    ))


def test_only_graph_and_label_sets_compare_by_value():
    """``Graph`` and ``LabelSet`` are the only package classes that define
    ``__eq__`` or ``__hash__`` in their body: whole parsed graphs and loaded
    labels are checked against built ones, in the tests and the benchmark.
    Every other class compares by identity, so no value semantics ship for
    the tests alone; a test compares the fields it means. (``bench.py``'s
    dataclasses get theirs generated, and are outside this check.)"""
    defining = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                defined.update(target.id for item in node.body if isinstance(item, ast.Assign)
                               for target in item.targets if isinstance(target, ast.Name))
                if defined & {"__eq__", "__hash__"}:
                    defining.add(node.name)
    assert defining == {"Graph", "LabelSet"}


REPO = pathlib.Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and constant, and
    each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _names(tree: ast.AST) -> Counter:
    """Every identifier ``tree`` reads or writes as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_package_definition_is_used():
    """Nothing in the package exists only for the tests, or for nobody.

    A definition counts as used when its name appears as a name or an
    attribute outside the definition itself, in the package or the
    benchmark, or as an identifier in one of the README's code blocks.
    Imports and prose do not count, so a re-export from ``__init__`` or a
    mention in a docstring keeps nothing alive.
    """
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in ("src/hubrknn", "perfbench")
        for path in sorted((REPO / folder).rglob("*.py"))
    }
    uses = sum(map(_names, modules.values()), Counter())
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```.*?```", readme, re.S):
        uses.update(re.findall(r"[A-Za-z_]\w*", block))
    unused = [
        f"{path.name}:{node.lineno} {name}"
        for path, tree in modules.items()
        if path.is_relative_to(REPO / "src")
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and uses[name] == _names(node)[name]
    ]
    assert unused == []


def test_sources_parse_with_the_oldest_declared_python():
    """Every module parses with the grammar of the oldest Python that
    ``requires-python`` in pyproject.toml admits. A grammar check only, and
    a best-effort one (``ast.parse``'s ``feature_version``): syntax such as
    ``except*`` fails it, a call to a newer library function does not."""
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    oldest = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=tuple(map(int, oldest)))
