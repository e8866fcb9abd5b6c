"""The traced benchmark wraps named functions; each name must still exist."""

import ast
import importlib
from pathlib import Path

INPROC = Path(__file__).resolve().parent.parent / "bench" / "inproc.py"


def _targets():
    tree = ast.parse(INPROC.read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("bench/inproc.py defines no TARGETS")


def test_every_traced_target_resolves():
    # Mirrors the tracer's lookup: the last name must be defined on its owner.
    missing = []
    for module_name, qualname in _targets():
        owner = importlib.import_module(f"infoshare.{module_name}")
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"traced names missing from infoshare: {missing}"
