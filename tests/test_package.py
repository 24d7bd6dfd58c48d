"""Package-wide guards that no single module test would catch."""

import ast
import pathlib
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
