import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nrv2x"


def _normalised(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, function-local
    imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_package_imports_only_the_standard_library_and_its_dependencies():
    """Each import in src/nrv2x is of the standard library, of nrv2x, or of
    a distribution in pyproject's runtime `dependencies`; test-only
    packages (scipy among them) stay in the `test` extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = {_normalised(re.match(r"[A-Za-z0-9_.-]+", d).group()) for d in
               project["dependencies"]}
    assert "scipy" not in runtime
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
    providers = importlib.metadata.packages_distributions()
    stray = {}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for name in _imported_modules(path):
            if name in sys.stdlib_module_names or name == "nrv2x":
                continue
            if not {_normalised(d) for d in providers.get(name, ())} & runtime:
                stray.setdefault(path.name, []).append(name)
    assert not stray, f"imports outside the runtime dependencies: {stray}"

