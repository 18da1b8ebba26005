"""The oldest Python that pyproject.toml admits parses every source file.

This checks grammar only: `ast.parse(..., feature_version=...)` rejects
syntax newer than the floor (`except*`, PEP 695 generics and `type`
aliases), but not a standard-library module or function added after it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_requires_python_floor():
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    assert floor, "requires-python is not of the form >=3.N"
    version = (3, int(floor.group(1)))
    files = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
