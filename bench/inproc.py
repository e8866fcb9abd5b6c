"""Run one infoshare CLI command in this process, optionally traced by layer.

Usage:
    PYTHONPATH=src python bench/inproc.py --stdout OUT --summary SUMMARY [--trace] -- CLI_ARGS...

The command runs through `infoshare.cli.main(argv)` with stdout captured
to OUT.  SUMMARY receives the exit code, the in-process wall time and,
with `--trace`, the per-layer metrics and every span.

Tracing works from outside the package: it wraps public functions and
methods, rebinding every `infoshare.*` module attribute that refers to
the original, so calls made through a `from`-import are traced too.
Each call becomes a span (name, start, end, parent) kept in memory; the
metrics are computed from the spans once the command has finished.  A
name that no longer exists is listed under "missing" in the summary;
run.py then counts the command as failed, so a renamed function cannot
turn its metrics into a 0 that reads as a gain.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import weakref
from collections import defaultdict

# (module, qualified name) of every wrapped callable.  The module part is
# the layer a span is charged to.
TARGETS = (
    ("cli", "main"),
    ("distribution", "load_file"),
    ("distribution", "JointDistribution.__init__"),
    ("distribution", "JointDistribution.marginal_mass"),
    ("measures", "surprisal"),
    ("measures", "cond_surprisal"),
    ("lattice", "enumerate_antichains"),
    ("lattice", "RedundancyLattice.__init__"),
    ("lattice", "Antichain.normalize"),
    ("decomposition", "decompose_expected"),
    ("decomposition", "expected_valuation"),
    ("decomposition", "lattice_valuation"),
    ("decomposition", "mobius_closed_form"),
    ("decomposition", "decomposition_rows"),
    ("algebra", "parse_expression"),
    ("algebra", "lower"),
    ("algebra", "eval_expression"),
    ("algebra", "eval_mutual"),
    ("checks", "run_suite"),
    ("sampling", "random_distribution"),
)
LAYERS = ("cli", "distribution", "measures", "lattice", "decomposition", "algebra",
          "sampling", "checks")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # Counters read from arguments and results, outside the span's time.
    def _lattice_built(self, args, _result) -> None:
        self.counts["lattice.nodes"] += len(getattr(args[0], "nodes", ()))

    def _valued(self, _args, result) -> None:
        self.counts["decomposition.nodes_valued"] += len(getattr(result, "values", ()))

    def _inverted(self, _args, result) -> None:
        partials = getattr(result, "partials", {})
        self.counts["decomposition.increments"] += len(partials)
        self.counts["decomposition.nonzero"] += sum(1 for v in partials.values() if v != 0.0)

    def _marginal_query(self, dist, source) -> None:
        seen = self._tables.setdefault(dist, set())
        key = frozenset(source)
        if key not in seen:
            seen.add(key)
            self.counts["distribution.tables_built"] += 1

    def install(self, modules: dict) -> list[str]:
        """Wrap every target found; return the names that were missing."""
        hooks = {
            "RedundancyLattice.__init__": self._lattice_built,
            "lattice_valuation": self._valued,
            "mobius_closed_form": self._inverted,
        }
        missing = []
        for mod_name, qual in TARGETS:
            module = modules.get(mod_name)
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(f"{mod_name}.{qual}")
                continue
            span = f"{mod_name}.{qual}"
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(span, raw.__func__)))
            elif qual == "JointDistribution.marginal_mass":
                setattr(owner, attr, self._wrap_marginal(span, raw))
            elif owner_name:
                setattr(owner, attr, self.wrap(span, raw, hooks.get(qual)))
            else:
                traced = self.wrap(span, raw, hooks.get(qual))
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, traced)
        return missing

    def _wrap_marginal(self, span, raw):
        traced = self.wrap(span, raw)
        note = self._marginal_query

        def marginal_mass(dist, source, *rest, **kwargs):
            if not isinstance(source, (frozenset, set, tuple, list)):
                source = tuple(source)
            note(dist, source)
            return traced(dist, source, *rest, **kwargs)

        return marginal_mass

    def spans(self) -> dict:
        """Every span as [name id, start ns, end ns, parent index or -1]."""
        ids = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        rows = [[ids[name], start, end, parent] for name, start, end, parent
                in zip(self.names, self.starts, self.ends, self.parents)]
        return {"names": list(ids), "rows": rows}

    def metrics(self) -> dict[str, float]:
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        build_children: set[int] = set()
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                if self.names[i] == "lattice.RedundancyLattice.__init__":
                    build_children.add(p)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, int] = defaultdict(int)  # outermost spans only
        self_ns: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            self_ns[name.partition(".")[0]] += dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                inclusive[name] += dur[i]
        lookups = calls["lattice.enumerate_antichains"]
        hits = sum(1 for i in range(n) if self.names[i] == "lattice.enumerate_antichains"
                   and i not in build_children)
        marginals = calls["distribution.JointDistribution.marginal_mass"]
        tables = self.counts["distribution.tables_built"]
        increments = self.counts["decomposition.increments"]
        out = {
            "lattice.build_s": inclusive["lattice.RedundancyLattice.__init__"] / 1e9,
            "lattice.build_calls": calls["lattice.RedundancyLattice.__init__"],
            "lattice.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "lattice.nodes": self.counts["lattice.nodes"],
            "lattice.normalize_calls": calls["lattice.Antichain.normalize"],
            "decomposition.valuation_calls": calls["decomposition.lattice_valuation"],
            "decomposition.nodes_valued": self.counts["decomposition.nodes_valued"],
            "decomposition.inversion_s": inclusive["decomposition.mobius_closed_form"] / 1e9,
            "decomposition.nonzero_ratio": (
                self.counts["decomposition.nonzero"] / increments if increments else 0.0),
            "distribution.load_s": inclusive["distribution.load_file"] / 1e9,
            "distribution.construct_calls": calls["distribution.JointDistribution.__init__"],
            "distribution.marginal_calls": marginals,
            "distribution.tables_built": tables,
            "distribution.table_hit_ratio": (marginals - tables) / marginals if marginals else 0.0,
            "measures.surprisal_calls": calls["measures.surprisal"] + calls["measures.cond_surprisal"],
            "algebra.lower_calls": calls["algebra.lower"],
            "algebra.lower_s": inclusive["algebra.lower"] / 1e9,
            "sampling.generate_calls": calls["sampling.random_distribution"],
            "trace.spans": n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stdout", required=True, help="file that receives the CLI's stdout")
    parser.add_argument("--summary", required=True, help="file that receives the JSON summary")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import infoshare.cli  # noqa: F401  (loads every submodule)

    modules = {name.partition(".")[2]: mod for name, mod in sys.modules.items()
               if name.startswith("infoshare.")}
    modules[""] = sys.modules["infoshare"]
    tracer = Tracer() if args.trace else None
    missing = tracer.install(modules) if tracer else []

    cli = modules["cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    with open(args.stdout, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    summary = {"exit_code": code, "elapsed_s": elapsed, "missing": missing}
    if tracer is not None:
        summary["metrics"] = tracer.metrics()
        summary["spans"] = tracer.spans()
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
