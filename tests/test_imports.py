"""Every imported name is used: an ``ast`` scan of the package and tests."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# ``gtt/__init__.py`` imports names only to re-export them
FILES = sorted(p for p in [*(ROOT / "src" / "gtt").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"):
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
