"""Command-line front end.

Subcommands: validate, pointwise, decompose, lattice, eval, check.
Global flags select the log base, tolerance, seed, trial count, and text
versus structured (JSON) output; they are accepted before or after the
subcommand.  `--allow-n5` has no effect: every command takes the 1 to 5
variables the library does.  `main` checks the tolerance and the trial
count once, before any command runs, and every command takes the parsed
arguments alone.  The library works in bits; each reported figure is
converted to the `--base` unit here, by the one `scale` factor `main`
works out, and `check` stays unit-free.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import islice
from typing import Callable, Iterable, Iterator, TextIO

from . import checks
from .algebra import ExpressionError, compile_expression, parse_expression
from .decomposition import (
    MutualDecomposition,
    decompose_expected,
    decompose_pointwise,
    decomposition_rows,
    mi_decompose,
)
from .distribution import (InvalidDistribution, JointDistribution, ZeroMass, _ascii_number,
                           load_file)
from .lattice import dot_lines, enumerate_antichains
from .measures import pair_contents, surprisal_table

_BASES = {"2": 2.0, "e": math.e, "10": 10.0}
# lines per `write` of a text report: one write per line costs more at n = 5,
# and a larger chunk holds more formatted rows, and their join, at once
_CHUNK_LINES = 128
# the exit status when the reader closes stdout early, as a shell reports SIGPIPE
_BROKEN_PIPE = 141
# a `decompose` row: the label padded to a width, then value and partial, each `_fmt(x).rjust(12)`
_DECOMPOSE_ROW = "%-*s  %12.9f  %12.9f"


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _fmt_res(value: float) -> str:
    return f"{value:.9e}"


def _parse_realization(text: str) -> tuple[int, ...]:
    try:
        return tuple(_ascii_number(part, int) for part in text.split(","))
    except ValueError:
        raise ValueError(f"realization {text!r} must be comma-separated integers") from None


def _flag_number(parse):
    """argparse `type` reading only ASCII numbers, refusing others in argparse's words."""
    def read(text: str):
        try:
            return _ascii_number(text, parse)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
    return read


def _parse_source(d: JointDistribution, text: str) -> frozenset[int]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError(f"empty source specification {text!r}")
    return d.variables.source_from_names(names)


def _parse_predictors(d: JointDistribution, text: str) -> list[frozenset[int]]:
    if ";" in text:
        groups = [g for g in text.split(";") if g.strip()]
    else:
        groups = [g for g in text.split(",") if g.strip()]
    return [_parse_source(d, g) for g in groups]


def _source_label(d: JointDistribution, source) -> str:
    names = d.variables.names
    return "{" + ",".join(names[i] for i in sorted(source)) + "}"


def _write_lines(out: TextIO, lines: Iterable[str]) -> None:
    """Write the lines, each ended by a newline, as they come: `_CHUNK_LINES`
    of them at a time, one `write` per chunk."""
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        chunk.append("")  # the last line's newline
        out.write("\n".join(chunk))


def _emit(args, text_lines: Iterable[str], structured: Callable[[], dict]) -> None:
    """Print a report: the structured document as one JSON text, or the text
    lines, read once and written in chunks as they are formatted, so a long
    report is never held whole."""
    if args.fmt == "structured":
        import json
        print(json.dumps(structured(), indent=2))
    else:
        _write_lines(sys.stdout, text_lines)


def _table(args, header: str, rows: list[tuple[str, float]],
           residual: float | None, structured: Callable[[], dict]) -> int:
    """A two-column report: under `header`, each label padded to the widest and
    each figure right-aligned to the widest, so negative readings line up with
    positive ones, then the residual line if there is one.  Returns 1 only
    when that residual exceeds `--tol`."""
    width = max(len(label) for label, _ in rows)
    figures = [_fmt(value) for _, value in rows]
    digits = max(map(len, figures))
    lines = [header, *(f"{label.ljust(width)}  {figure.rjust(digits)}"
                       for (label, _), figure in zip(rows, figures))]
    if residual is not None:
        lines.append(f"{'residual'.ljust(width)}  {_fmt_res(residual)}")
    _emit(args, lines, structured)
    return 0 if residual is None or residual <= args.tol else 1


def cmd_validate(args) -> int:
    try:
        d = load_file(args.file)
    except FileNotFoundError:
        print(f"error: no such file: {args.file}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidDistribution as exc:
        print(f"invalid distribution: {exc}", file=sys.stderr)
        return 1
    n = d.variables.n
    k = len(d.support())
    _emit(
        args,
        [f"ok: {n} variables, {k} support points"],
        lambda: {"ok": True, "variables": n, "support_points": k},
    )
    return 0


def cmd_pointwise(args) -> int:
    d = load_file(args.file)
    r = _parse_realization(args.realization)
    sources = [_parse_source(d, s) for s in args.sources]
    given = _parse_source(d, args.given) if args.given is not None else None
    # every row from one table: each source's surprisal and the joint one
    whole = frozenset().union(*sources)
    *h, joint = surprisal_table(d, [*sources, whole], given)(r)
    rows = [(f"h{_source_label(d, s)}", value) for s, value in zip(sources, h)]
    residual = None  # only two sources have parts that must add up
    if len(sources) == 2:
        a, b = sources
        if a & b:  # mutual content needs disjoint sources, as in `mutual_content`
            raise ValueError("sources overlap")
        la, lb = _source_label(d, a), _source_label(d, b)
        pair = MutualDecomposition(*pair_contents(*h, joint))
        rows += [("union", pair.union), ("intersection", pair.intersection),
                 ("synergy", pair.synergy), (f"unique {la} over {lb}", pair.unique_first),
                 (f"unique {lb} over {la}", pair.unique_second), ("mutual", pair.coinformation)]
        residual = abs(joint - pair.parts_sum()) * args.scale  # as `decompose --target`
    elif len(sources) > 2:
        rows += [("union", max(h)), ("intersection", min(h)), ("synergy", joint - max(h))]
    if len(sources) >= 2:
        rows.append((f"h{_source_label(d, whole)}", joint))
    suffix = f"|{_source_label(d, given)}" if given else ""
    rows = [(label + suffix, value * args.scale) for label, value in rows]
    return _table(args, f"pointwise measures at ({args.realization})", rows, residual,
                  lambda: {"realization": list(r),
                           "measures": [{"name": label, "value": value} for label, value in rows],
                           "residual": residual})


def _mode_realization(args) -> tuple[int, ...] | None:
    """The realization of a pointwise `decompose`, which needs one; the
    expected mode takes none."""
    if args.mode == "pointwise" and args.realization is None:
        raise ValueError("pointwise mode needs --realization")
    if args.mode == "expected" and args.realization is not None:
        raise ValueError("--realization needs --mode pointwise")
    return _parse_realization(args.realization) if args.realization is not None else None


_MI_ROWS = ("intersection", "unique_first", "unique_second", "synergy", "union", "joint",
            "coinformation")


def _decompose_target(args, d: JointDistribution) -> int:
    predictors = _parse_predictors(d, args.predictors)
    if len(predictors) != 2:
        raise ValueError("exactly two predictor sources are required")
    target = _parse_source(d, args.target)
    realization = _mode_realization(args)
    result = mi_decompose(d, predictors[0], predictors[1], target, realization)
    rows = [(name, getattr(result, name) * args.scale) for name in _MI_ROWS]
    parts_sum = result.parts_sum() * args.scale
    residual = abs(result.joint - result.parts_sum()) * args.scale

    header = (
        f"mutual decomposition [{args.mode}] predictors "
        f"{_source_label(d, predictors[0])},{_source_label(d, predictors[1])} "
        f"target {_source_label(d, target)}"
    )
    return _table(args, header, [*rows, ("sum of parts", parts_sum)], residual,
                  lambda: {"mode": args.mode, "rows": [{"name": n, "value": v} for n, v in rows],
                           "sum_of_parts": parts_sum, "residual": residual})


def cmd_decompose(args) -> int:
    """One row per lattice node, bottom-up, then the sum of the partials, the joint
    value and their residual; or, with `--target`, the target decomposition.  Each
    figure is one multiply by the `--base` factor, and each text row one `%` format."""
    d = load_file(args.file)
    if args.target is not None or args.predictors is not None:
        if args.target is None or args.predictors is None:
            raise ValueError("--target and --predictors must be given together")
        if args.variables is not None:
            raise ValueError("--variables does not apply with --target and --predictors")
        return _decompose_target(args, d)

    variables, names = None, d.variables.names
    if args.variables is not None:
        variables = [d.variables.index(n.strip()) for n in args.variables.split(",")]
        names = tuple(names[i] for i in variables)

    r = _mode_realization(args)
    if r is not None:
        partials = decompose_pointwise(d, r, variables=variables)
        header = f"pointwise decomposition at ({args.realization})"
    else:
        partials = decompose_expected(d, variables=variables)
        header = "expected decomposition"

    lattice, values, increments = partials.lattice, partials.values, partials.partials
    scale = args.scale
    top_bits, total_bits = values[lattice._topo[-1]], partials.total()  # the top node comes last
    total, top_value = total_bits * scale, top_bits * scale
    residual = abs(total_bits - top_bits) * scale

    def text() -> Iterator[str]:
        labels = lattice.labels(names)
        width = max(len("sum of partials"), max(map(len, labels)))
        yield header
        yield f"{'node'.ljust(width)}  {'value'.rjust(12)}  {'partial'.rjust(12)}"
        for i in lattice._topo:  # bottom-up
            yield _DECOMPOSE_ROW % (width, labels[i], values[i] * scale, increments[i] * scale)
        yield f"{'sum of partials'.ljust(width)}  {_fmt(total).rjust(12)}"
        yield f"{'joint value'.ljust(width)}  {_fmt(top_value).rjust(12)}"
        yield f"{'residual'.ljust(width)}  {_fmt_res(residual)}"

    _emit(args, text(), lambda: {
        "mode": args.mode,
        "rows": [{"node": label, "value": value * scale, "partial": partial * scale}
                 for label, value, partial in decomposition_rows(partials, names)],
        "sum_of_partials": total, "joint_value": top_value, "residual": residual})
    return 0 if residual <= args.tol else 1


def cmd_lattice(args) -> int:
    lattice = enumerate_antichains(args.n)
    lines = dot_lines(lattice, kind=args.kind)
    if args.out == "-":
        _write_lines(sys.stdout, lines)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            _write_lines(out, lines)
        _emit(args,
              [f"wrote {args.kind} lattice for n={args.n} ({len(lattice)} nodes) to {args.out}"],
              lambda: {"kind": args.kind, "n": args.n, "nodes": len(lattice), "out": args.out})
    return 0


def cmd_eval(args) -> int:
    d = load_file(args.file)
    expr = parse_expression(args.expression, d.variables.names)
    given = _parse_source(d, args.given) if args.given is not None else None
    about = _parse_source(d, args.about) if args.about is not None else None
    if given is not None and about is not None:
        raise ValueError("--given and --about are mutually exclusive")
    r = _parse_realization(args.realization) if args.realization is not None else None
    # one call in either mode: at the realization, or the expectation without one
    value = compile_expression(d, expr, given=given, about=about)(r) * args.scale
    mode = "expected" if r is None else f"at ({args.realization})"
    _emit(
        args,
        [f"{args.expression} [{mode}] = {_fmt(value)}"],
        lambda: {"expression": args.expression, "mode": mode, "value": value},
    )
    return 0


def cmd_check(args) -> int:
    report = checks.run_suite(args.suite, args.seed, args.trials, args.tol)
    _emit(args, report.to_text().splitlines(), report.to_json)
    return 0 if report.passed else 1


def _add_global_flags(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """The global flags; without `defaults` an absent flag leaves its value alone."""

    def default(value):
        return value if defaults else argparse.SUPPRESS

    parser.add_argument("--base", choices=sorted(_BASES), default=default("2"),
                        help="log base for information units (default: 2)")
    parser.add_argument("--tol", type=_flag_number(float), default=default(1e-9),
                        help="tolerance for identity checks (default: 1e-9)")
    parser.add_argument("--seed", type=_flag_number(int), default=default(0),
                        help="master RNG seed")
    parser.add_argument("--trials", type=_flag_number(int), default=default(1000),
                        help="trial count for the sampled suites (lemmas, mobius); "
                             "props checks every weak order whatever the count")
    parser.add_argument("--allow-n5", action="store_true", default=default(False),
                        help="no effect: every command takes 1 to 5 variables")
    parser.add_argument("--format", choices=("text", "structured"), default=default("text"),
                        dest="fmt", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoshare",
        description=(
            "Non-negative pointwise information measures, antichain lattices, "
            "and partial-information decompositions of discrete joint distributions."
        ),
    )
    _add_global_flags(parser, defaults=True)
    # Subcommands accept the global flags too.  Their copies carry no
    # defaults, so a flag given before the subcommand is not overwritten.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a distribution file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pointwise", parents=[common], help="pointwise measures at one realization")
    p.add_argument("file")
    p.add_argument("--realization", required=True, help="comma-separated categories")
    p.add_argument("--sources", nargs="+", required=True,
                   help="sources as comma-joined variable names, e.g. X Y or X,Y Z")
    p.add_argument("--given", help="conditioning source")
    p.set_defaults(func=cmd_pointwise)

    p = sub.add_parser("decompose", parents=[common],
                       help="lattice or predictor/target decomposition")
    p.add_argument("file")
    p.add_argument("--mode", choices=("pointwise", "expected"), default="expected")
    p.add_argument("--realization", help="required for, and only accepted with, pointwise mode")
    p.add_argument("--variables", help="comma-separated variable subset")
    p.add_argument("--target", help="target source (variable names)")
    p.add_argument("--predictors", help="two predictor sources, e.g. X,Y or X;Y,Z")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lattice", parents=[common], help="export a lattice as DOT")
    p.add_argument("--n", type=_flag_number(int), required=True)
    p.add_argument("--kind", choices=("redundancy", "sharing"), default="redundancy")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("eval", parents=[common], help="evaluate an information-sharing expression")
    p.add_argument("file")
    p.add_argument("expression")
    p.add_argument("--realization", help="pointwise evaluation site; omit for expected")
    p.add_argument("--given", help="conditioning source")
    p.add_argument("--about", help="target source for a mutual-information reading")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=checks.SUITES, required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 < args.tol < math.inf:  # NaN fails too
            raise ValueError("tolerance must be positive and finite")
        if args.trials < 1:
            raise ValueError("trial count must be at least 1")
        # bits to the `--base` unit: each figure is `bits * scale`, `bits` itself at base 2
        args.scale = 1.0 / math.log2(_BASES[args.base])
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit
        return status
    except BrokenPipeError:
        # the reader has stopped: send what is still buffered, at exit too, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _BROKEN_PIPE
    except (InvalidDistribution, ZeroMass, ExpressionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
