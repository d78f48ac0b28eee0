"""Guards on the package's source text."""

import ast
from pathlib import Path

import disklab


def test_no_function_body_imports():
    # an import inside a function hides an import cycle until the function runs
    found = []
    for path in sorted(Path(disklab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
