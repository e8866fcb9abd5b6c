"""End-to-end and per-layer benchmark of the infoshare CLI.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                         [--out FILE]
    python3 bench/run.py --record-reference

Run from anywhere; the program measured is `src/` next to this directory.

Load is a closed loop with one client: each command is a fresh
`python -m infoshare.cli` process, started only after the previous one
has exited.  Commands alternate with import probes (and, for `all`, with
the other workloads) so that drift of the host reaches every figure
alike.  Every output is checked: exit code 0, the report's own identity
footer, an independent recomputation of its headline figure, byte
identity across repetitions and, for recorded seeds, a reference digest.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of traced in-process
runs (see inproc.py).  One rule decides which figures may read 0: an
end-to-end metric is bounded by a share of the parent's median, so it
must never be 0.  `fail_ratio` is 0 whenever the program is correct, so
it is printed but left out of the JSON metrics; the same count is in
`failed` and `attempted`.  Per-layer metrics carry no bound, and a 0
there is measured: the workload does not reach that layer.  The report
marks such figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from inproc import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
LAUNCH = (sys.executable, "-S", "-I", str(BENCH / "launch.py"))
RECORDED_SEEDS = range(10)

MIN_SAMPLES = 11  # the tail percentile needs 10 samples beyond it
MIN_TRACED = 3
HARD_STOP_S = 150  # a run ends by then even when commands got slow
COMMAND_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_tail_s", "s"),
    ("work_per_s", "units/s"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("lattice.build_s", "s"), ("lattice.build_calls", "count"),
    ("lattice.cache_hit_ratio", "ratio"), ("lattice.nodes", "count"),
    ("lattice.normalize_calls", "count"), ("lattice.self_s", "s"),
    ("decomposition.valuation_calls", "count"), ("decomposition.nodes_valued", "count"),
    ("decomposition.inversion_s", "s"), ("decomposition.nonzero_ratio", "ratio"),
    ("decomposition.self_s", "s"),
    ("distribution.load_s", "s"), ("distribution.construct_calls", "count"),
    ("distribution.marginal_calls", "count"), ("distribution.tables_built", "count"),
    ("distribution.table_hit_ratio", "ratio"), ("distribution.self_s", "s"),
    ("measures.surprisal_calls", "count"), ("measures.self_s", "s"),
    ("algebra.lower_calls", "count"), ("algebra.lower_s", "s"), ("algebra.self_s", "s"),
    ("sampling.generate_calls", "count"), ("sampling.self_s", "s"),
    ("checks.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    maxrss_kib: int
    stdout: bytes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up fills __pycache__
    env["PYTHONPATH"] = str(SRC)  # measure the working tree, not an installed copy
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _env()


def spawn(argv: list[str], workdir: Path) -> Sample:
    """Run argv to exit through launch.py, which times it and reads wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    result_path = workdir / "launch.json"
    result_path.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    pid = os.posix_spawn(LAUNCH[0], [*LAUNCH, str(result_path), "--", *argv], ENV,
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
        if not ready:  # the launcher kills the command and still records it
            signal.pidfd_send_signal(pidfd, signal.SIGTERM)
        _, status = os.waitpid(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # already reaped
            signal.pidfd_send_signal(pidfd, signal.SIGTERM)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(pidfd)
    if not result_path.is_file():
        raise RuntimeError(f"launcher exited with {os.waitstatus_to_exitcode(status)}: "
                           f"{err_path.read_text(errors='replace')[-500:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Sample(result["wall_s"], result["exit_code"], result["maxrss_kib"],
                  out_path.read_bytes())


def cli_argv(wl: workloads.Workload) -> list[str]:
    return [sys.executable, "-m", "infoshare.cli", *wl.argv]


def import_probe(workdir: Path) -> float:
    return spawn([sys.executable, "-c", "import infoshare.cli"], workdir).wall_s


def inproc_argv(wl: workloads.Workload, workdir: Path, trace: bool) -> list[str]:
    argv = [sys.executable, str(BENCH / "inproc.py"), "--stdout", str(workdir / "cli.out"),
            "--summary", str(workdir / "summary.json")]
    return argv + (["--trace"] if trace else []) + ["--", *wl.argv]


@dataclass
class Run:
    """Samples and verdicts of one workload within one benchmark run."""

    wl: workloads.Workload
    reference: str | None  # recorded digest for this seed, if any
    first: str | None = None  # digest of the first output that exited 0
    first_verdict: str | None = None
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    rss_kib: list[int] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    inproc: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})

    def judge(self, exit_code: int, stdout: bytes, absent: tuple[str, ...] = ()) -> None:
        """Count one attempted command and whether it failed.

        `absent` names trace targets the program no longer has: their
        metrics would read 0 and look like a gain, so the run fails.
        """
        reason = self._verdict(exit_code, stdout)
        if reason is None and absent:
            reason = f"trace targets absent from the program: {', '.join(absent)}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)

    def _verdict(self, exit_code: int, stdout: bytes) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        digest = hashlib.sha256(stdout).hexdigest()
        if self.first is None:
            self.first = digest
            try:
                self.first_verdict = self.wl.check(stdout.decode("utf-8"))
            except (ValueError, KeyError, IndexError) as exc:
                self.first_verdict = f"unreadable report: {exc}"
        elif digest != self.first:
            return "stdout differs from the first repetition"
        if self.reference is not None and digest != self.reference:
            return "stdout digest differs from the recorded reference"
        return self.first_verdict


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns the value, the percentile and the count beyond it; with fewer
    than 11 samples no such percentile exists and the maximum stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - MIN_SAMPLES if n >= MIN_SAMPLES else n - 1
    return ordered[k], math.floor(100 * (k + 1) / n), n - k - 1


def measure(runs: list[Run], seconds: float, workdir: Path, trace: bool) -> None:
    """Warm up once per workload, then interleave until time is up."""
    for run in runs:  # untimed: fills __pycache__, fixes the run's reference output
        if trace:
            sample = spawn(inproc_argv(run.wl, workdir, False), workdir)
            run.judge(sample.exit_code, (workdir / "cli.out").read_bytes())
        else:
            import_probe(workdir)
            sample = spawn(cli_argv(run.wl), workdir)
            run.judge(sample.exit_code, sample.stdout)
    start = time.perf_counter()
    need = MIN_TRACED if trace else MIN_SAMPLES
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = all(len(r.traced if trace else r.times) >= need for r in runs)
        if elapsed >= max(seconds, HARD_STOP_S) or (elapsed >= seconds and enough):
            break
        shift = rounds % len(runs)
        for run in runs[shift:] + runs[:shift]:
            if trace:
                for traced in (rounds % 2 == 1, rounds % 2 == 0):
                    _inproc_once(run, workdir, traced)
            else:
                run.setup.append(import_probe(workdir))
                sample = spawn(cli_argv(run.wl), workdir)
                run.times.append(sample.wall_s)
                run.rss_kib.append(sample.maxrss_kib)
                run.judge(sample.exit_code, sample.stdout)
        rounds += 1


def _inproc_once(run: Run, workdir: Path, traced: bool) -> None:
    summary_path = workdir / "summary.json"
    summary_path.unlink(missing_ok=True)
    sample = spawn(inproc_argv(run.wl, workdir, traced), workdir)
    if sample.exit_code != 0 or not summary_path.is_file():
        run.judge(sample.exit_code or 1, b"")
        return
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    run.judge(summary["exit_code"], (workdir / "cli.out").read_bytes(), tuple(summary["missing"]))
    run.inproc[traced].append(summary["elapsed_s"])
    if traced:
        run.traced.append(summary["metrics"])


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    value, pct, beyond = tail(run.times)
    metrics = {
        "setup_s": statistics.median(run.setup),
        "cmd_p50_s": statistics.median(run.times),
        "cmd_tail_s": value,
        "work_per_s": run.wl.units * len(run.times) / math.fsum(run.times),
        "peak_rss_mb": statistics.median(run.rss_kib) / 1024,
    }
    n = len(run.times)
    notes = {
        "setup_s": f"median of {len(run.setup)} `import infoshare.cli` probes",
        "cmd_p50_s": f"median of {n} commands",
        "cmd_tail_s": f"p{pct} of {n} samples ({beyond} beyond it)"
                      + ("; too few samples for a tail" if pct < 80 else ""),
        "work_per_s": f"{run.wl.unit_name}/s, {run.wl.units} per command",
        "peak_rss_mb": "median of ru_maxrss",
    }
    lines = [f"  {name:<12} {metrics[name]:>12.6f} {unit:<8} {notes[name]}"
             for name, unit in END_TO_END]
    ratio = run.failed / run.attempted
    lines.append(f"  {'fail_ratio':<12} {ratio:>12.6f} {'ratio':<8} "
                 f"{run.failed} of {run.attempted} commands (warm-up included)")
    return metrics, lines


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    metrics = {name: statistics.median(m[name] for m in run.traced)
               for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
    traced_s = statistics.median(run.inproc[True])
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(run.inproc[False])
    lines = [f"  {name:<30} {metrics[name]:>14.6f} {unit:<6}"
             f"{'  (not reached by this workload)' if metrics[name] == 0 else ''}"
             for name, unit in PER_LAYER]
    lines.append(f"  traced in-process time {traced_s:.6f} s (median of {len(run.traced)}), "
                 f"{run.traced[-1]['trace.spans']} spans per command")
    lines += [f"  why {run.wl.name}: {text}: {'holds' if ok else 'DOES NOT HOLD'}"
              for text, ok in rationale(run.wl.name, metrics, traced_s)]
    return metrics, lines


def rationale(name: str, m: dict[str, float], traced_s: float) -> list[tuple[str, bool]]:
    """The layer shares that made each workload worth having (not gated)."""
    def share(x: float) -> str:
        return f"{100 * x / traced_s:.1f}%"

    if name == "n5-expected":
        io_s = m["distribution.self_s"] + m["measures.self_s"]
        return [(f"lattice.build_s is {share(m['lattice.build_s'])} of traced time (>= 25%)",
                 m["lattice.build_s"] >= 0.25 * traced_s),
                (f"distribution + measures self time is {share(io_s)} (<= 5%)",
                 io_s <= 0.05 * traced_s)]
    if name == "eval-wide":
        return [(f"lattice.build_s is {share(m['lattice.build_s'])} (<= 2%)",
                 m["lattice.build_s"] <= 0.02 * traced_s),
                (f"distribution.self_s is {share(m['distribution.self_s'])} (>= 10%)",
                 m["distribution.self_s"] >= 0.10 * traced_s)]
    selfs = {layer: m[f"{layer}.self_s"] for layer in LAYERS}
    top = max(selfs, key=selfs.get)
    return [(f"decomposition.self_s is {m['decomposition.self_s']:.6f} s (0)",
             m["decomposition.self_s"] == 0),
            (f"largest layer self time is {top} ({share(selfs[top])}; lattice expected)",
             top == "lattice")]


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:  # not an enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "infoshare").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "commit": commit, "src_lines": lines}


def load_reference(seed: int) -> dict[str, str]:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return doc["digests"].get(str(seed), {})


def record_reference(workdir: Path) -> int:
    """Write the digests of checked outputs for the recorded seeds."""
    digests: dict[str, dict[str, str]] = {}
    for seed in RECORDED_SEEDS:
        for name in workloads.NAMES:
            wl = workloads.make(name, seed, workdir)
            sample = spawn(cli_argv(wl), workdir)
            problem = wl.check(sample.stdout.decode("utf-8")) if sample.exit_code == 0 \
                else f"exit code {sample.exit_code}"
            if problem:
                print(f"error: {name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            digests.setdefault(str(seed), {})[name] = hashlib.sha256(sample.stdout).hexdigest()
    doc = {"about": "sha256 of the CLI's stdout per seed and workload", "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON here")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference digests for seeds 0-9 and exit")
    args = parser.parse_args()

    if not (SRC / "infoshare" / "cli.py").is_file():
        print(f"error: no infoshare sources under {SRC}", file=sys.stderr)
        return 2
    # Turn a termination request into an exception, so the running
    # command is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.record_reference:
            return record_reference(workdir)
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    meta = metadata()
    print("meta " + json.dumps(meta))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    reference = load_reference(args.seed)
    runs = [Run(workloads.make(name, args.seed, workdir), reference.get(name)) for name in names]
    for run in runs:
        ref = "recorded" if run.reference else "not recorded"
        print(f"input {run.wl.name} seed {args.seed}: {json.dumps(run.wl.shape)}; "
              f"reference digest {ref}; why: {run.wl.why}")
    measure(runs, args.seconds, workdir, bool(args.trace))
    if args.trace and not all(run.traced for run in runs):
        print("error: no traced command finished", file=sys.stderr)
        return 1

    table = END_TO_END if not args.trace else PER_LAYER
    units = dict(table)
    metrics: dict[str, dict] = {}
    for run in runs:
        values, lines = (per_layer if args.trace else end_to_end)(run)
        print(f"workload {run.wl.name} ({'per-layer, traced' if args.trace else 'end-to-end'}):")
        print("\n".join(lines))
        for reason in sorted(set(run.reasons)):
            print(f"  failure: {reason}")
        prefix = "" if len(runs) == 1 else f"{run.wl.name}:"
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    meta["loadavg_end"] = os.getloadavg()
    print(f"meta loadavg_end {meta['loadavg_end']}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = {"meta": meta, "seed": args.seed, "seconds": args.seconds,
                  "inputs": {r.wl.name: r.wl.shape for r in runs}, "result": result}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
