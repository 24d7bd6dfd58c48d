"""Package-wide guards that no single module test would catch."""

import ast
import os
import pathlib
import subprocess
import sys

import hubrknn


def test_package_imports_only_stdlib():
    """The runtime has no dependencies: every absolute import is stdlib."""
    sources = sorted(pathlib.Path(hubrknn.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "hubrknn" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_cli_import_leaves_bench_unloaded():
    """Only the bench subcommand imports bench, with csv, hashlib and statistics."""
    src = str(pathlib.Path(hubrknn.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, hubrknn.cli; print(sorted({'hubrknn.bench', 'csv'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
