"""Every third-party module the package imports is a declared dependency.

CI installs with ``pip install -e .``, so a module that ``src/repro``
imports but ``pyproject.toml`` does not declare is missing from a clean
install, even when the developer's environment happens to have it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
    """Normalised names in ``dependencies`` and every optional group."""
    import tomllib

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(text)["project"]
    requirements = list(project.get("dependencies", []))
    for group in project.get("optional-dependencies", {}).values():
        requirements.extend(group)
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in requirements
    }


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level name -> files, for every absolute import that is
    neither the standard library nor ``repro`` (nested imports too)."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(
                        path.relative_to(ROOT).as_posix()
                    )
    return found


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="reading pyproject.toml needs tomllib (Python >= 3.11)",
)
def test_third_party_imports_are_declared():
    imports = _third_party_imports()
    assert "numpy" in imports  # the walk sees the package's imports
    declared = _declared()
    missing = {
        name: files
        for name, files in imports.items()
        if name.lower() not in declared
    }
    assert missing == {}, f"imported but not declared in pyproject.toml: {missing}"
