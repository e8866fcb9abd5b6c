"""The benchmark's recorded outputs, replayed in-process.

Each workload's input comes from `bench/workloads.py`; the command's
stdout must pass the workload's own check and hash to the digest in
`bench/reference.json`, so a change to any reported figure fails here
before it fails the benchmark.  Every workload is replayed at seed 0,
and n5-expected, eval-wide and check-props, whose paths have all been
rewritten, at every recorded seed.
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
DIGESTS = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["digests"]


def _replay(name: str, seed: int, workdir: Path, capsys) -> None:
    w = WORKLOADS.make(name, seed, workdir)
    assert main(list(w.argv)) == 0
    out = capsys.readouterr().out
    assert w.check(out) is None
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[str(seed)][name]


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_seed_0_output_matches_the_reference(name, tmp_path, capsys):
    _replay(name, 0, tmp_path, capsys)


@pytest.mark.parametrize("seed", sorted(map(int, DIGESTS)))
def test_n5_expected_matches_every_recorded_seed(seed, tmp_path, capsys):
    _replay("n5-expected", seed, tmp_path, capsys)


@pytest.mark.parametrize("seed", sorted(map(int, DIGESTS)))
def test_check_props_matches_every_recorded_seed(seed, tmp_path, capsys):
    _replay("check-props", seed, tmp_path, capsys)


@pytest.mark.parametrize("seed", sorted(map(int, DIGESTS)))
def test_eval_wide_matches_every_recorded_seed(seed, tmp_path, capsys):
    _replay("eval-wide", seed, tmp_path, capsys)
