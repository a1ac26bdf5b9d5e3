"""Every import in the package, the tests and the demos is used, every
name the package exports is used by the package, the package runs
without SciPy, which only the test oracles import, and every file parses
as the oldest Python that pyproject.toml allows.

No linter runs with the tests, so these checks read each file's syntax
tree: an imported name that no expression in the file reads, and that the
module's __all__ does not list, is unused. A line marked `# noqa: F401`
keeps its imports on purpose. A name in a module's __all__ that no module
of the package reads is reached only from tests and demos.
"""
import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/poseboot", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


# exported names kept although no module of the package reads them, each
# with its reason
KEPT_EXPORTS = {
    # bench/tests/test_bench.py reads it from poseboot.pipeline, to check that
    # the benchmark's tracer restores the functions it wraps
    "features.relational_feature",
}


def _exempt(lines: list[str], node: ast.stmt) -> bool:
    return any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


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
    used.update(_exports(tree))
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


def unreached_exports(sources: dict[str, str]) -> list[str]:
    """'module.name' for each name in a module's __all__ that no module of
    sources (module name to source) reads, as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in read
    ]


def test_finds_an_unreached_export():
    sources = {
        "a": "__all__ = ['f', 'g', 'h']\ndef f(): return g()\ndef g(): pass\ndef h(): pass\n",
        "b": "from . import a\nx = a.h\n__all__ = ['k']\nk = 1\n",
    }
    assert unreached_exports(sources) == ["a.f", "b.k"]


def test_every_export_is_read_by_the_package():
    package = ROOT / "src" / "poseboot"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [n for n in unreached_exports(sources) if n not in KEPT_EXPORTS] == []


# the (major, minor) of requires-python's ">=" bound; a regex, because the
# oldest supported Python has no tomllib
OLDEST = tuple(int(v) for v in re.search(
    r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text(), re.M
).groups())


def parses_as(source: str, version: tuple[int, int]) -> bool:
    """Whether source parses with the grammar of Python version. ast checks
    only some newer syntax, so this is best effort; it does reject except*
    before 3.11."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError:
        return False
    return True


def test_finds_an_exception_group_before_3_11():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert not parses_as(source, (3, 10)) and parses_as(source, (3, 11))


@pytest.mark.parametrize("path", sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos", "bench")
    for path in (ROOT / folder).rglob("*.py")
))
def test_parses_as_the_oldest_python(path):
    assert parses_as((ROOT / path).read_text(), OLDEST), OLDEST


# SciPy is blocked, so any import of it raises ImportError. At margin 3
# the selectors abstain on every target image of this corpus, so weakC
# accepts only poses that recover_poses clustered and detect_outliers screened
WITHOUT_SCIPY = textwrap.dedent("""
    import sys
    from pathlib import Path
    sys.modules["scipy"] = None
    from poseboot import cli
    out = Path(sys.argv[1])
    corpus, exchange = out / "corpus", out / "x"
    assert cli.main(["synth", "--out", str(corpus), "--actions", "2", "--poses", "20",
                     "--backgrounds", "2", "--seed", "1"]) == 0
    assert cli.main(["pipeline", "--corpus", str(corpus), "--exchange", str(exchange),
                     "--scheme", "weakC", "--margin", "3", "--audit"]) == 0
    assert "accepted_by_provenance cluster=20\\n" in (exchange / "report_iter1.txt").read_text()
    picks = exchange / "annotations_iter2.jsonl"
    assert cli.main(["outliers", "--poses", str(picks), "--out", str(out / "o.txt")]) == 0
""")


def _run_python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
    )


def test_runs_without_scipy(tmp_path):
    done = _run_python("-c", WITHOUT_SCIPY, str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_importing_the_package_loads_no_scipy():
    """Also where SciPy is installed, not only where it is blocked."""
    package = ROOT / "src" / "poseboot"
    modules = ", ".join(f"poseboot.{p.stem}" for p in sorted(package.glob("[!_]*.py")))
    done = _run_python("-c", f"import sys, {modules}; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
