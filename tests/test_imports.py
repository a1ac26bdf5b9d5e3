"""Every import in the package, the tests and the demos is used.

No linter runs with the tests, so this check reads each file's syntax tree:
an imported name that no expression in the file reads, and that the
module's __all__ does not list, is unused. A line marked `# noqa: F401`
keeps its imports on purpose.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/poseboot", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def _exempt(lines: list[str], node: ast.stmt) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each unused import of a module's source."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not _exempt(lines, node):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(system, loads)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


def test_exports_and_marked_lines_count_as_used():
    source = "from json import dumps\nfrom os import sep  # noqa: F401\n__all__ = ['dumps']\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", FILES)
def test_no_unused_import(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_the_only_kept_import_is_in_the_pipeline():
    marked = []
    for path in FILES:
        source = (ROOT / path).read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _exempt(lines, node):
                marked.append(path)
    assert marked == ["src/poseboot/pipeline.py"]
