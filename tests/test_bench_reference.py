"""The benchmark's recorded outputs, replayed in-process at seed 0.

Each workload's input comes from `bench/workloads.py`; the command's
stdout must pass the workload's own check and hash to the digest in
`bench/reference.json`, so a change to any reported figure fails here
before it fails the benchmark.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from infoshare.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while building
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["digests"]["0"]


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_seed_0_output_matches_the_reference(name, tmp_path, capsys):
    w = WORKLOADS.make(name, 0, tmp_path)
    assert main(list(w.argv)) == 0
    out = capsys.readouterr().out
    assert w.check(out) is None
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]
