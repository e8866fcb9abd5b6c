"""Every source and test file parses under the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# tomllib arrived in 3.11, after the floor it would read
FLOOR = tuple(map(int, re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"\s*$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()))


def test_every_file_parses_at_the_floor():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_check_rejects_newer_grammar():
    # `except*` is 3.11 grammar: were `feature_version` ignored, the check above would pass
    # whatever the files held
    assert FLOOR == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
