"""Every module, demo, benchmark script and test parses under the oldest
Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for folder in ("src/ahtower", "demos", "perfbench", "tests")
           for path in sorted((ROOT / folder).glob("*.py"))]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def label(path: Path) -> str:
    """The file's name; with its folder in perfbench and tests, which both
    hold an oracle.py."""
    if path.parent.name in ("perfbench", "tests"):
        return f"{path.parent.name}/{path.name}"
    return path.name


@pytest.mark.parametrize("path", SOURCES, ids=label)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=declared_floor())
