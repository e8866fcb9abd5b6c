"""Command-line front end.

Subcommands: validate, pointwise, decompose, lattice, eval, check.
Global flags select the log base, tolerance, seed, trial count, the n=5
override, and text versus structured (JSON) output; they are accepted
before or after the subcommand.  The library works in bits; each
reported figure is converted to the `--base` unit here, and `check`
stays unit-free.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import checks
from .algebra import ExpressionError, compile_expression, parse_expression
from .decomposition import (
    decompose_expected,
    decompose_pointwise,
    decomposition_rows,
    mi_decompose,
)
from .distribution import InvalidDistribution, JointDistribution, ZeroMass, load_file
from .lattice import MAX_N, enumerate_antichains, to_dot
from .measures import expected, pair_contents, surprisal_table
from .record import Record

_BASES = {"2": 2.0, "e": math.e, "10": 10.0}


class RunConfig(Record):
    """Global run options shared by every subcommand."""

    __slots__ = ("base", "tolerance", "seed", "trials", "allow_n5", "structured")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 < self.tolerance < math.inf:  # NaN fails too
            raise ValueError("tolerance must be positive and finite")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")

    def unit(self, bits: float) -> float:
        """A figure in bits expressed in the configured unit; bits pass unchanged."""
        return bits if self.base == 2.0 else bits * (1.0 / math.log2(self.base))


def _fmt(value: float) -> str:
    return f"{value:.9f}"


def _fmt_res(value: float) -> str:
    return f"{value:.9e}"


def _parse_realization(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"realization {text!r} must be comma-separated integers") from None


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


def _emit(config: RunConfig, text_lines: list[str], structured: dict) -> None:
    if config.structured:
        import json
        print(json.dumps(structured, indent=2))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def cmd_validate(config: RunConfig, args) -> int:
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
        config,
        [f"ok: {n} variables, {k} support points"],
        {"ok": True, "variables": n, "support_points": k},
    )
    return 0


def cmd_pointwise(config: RunConfig, args) -> int:
    d = load_file(args.file)
    r = _parse_realization(args.realization)
    sources = [_parse_source(d, s) for s in args.sources]
    given = _parse_source(d, args.given) if args.given is not None else None
    suffix = f"|{_source_label(d, given)}" if given else ""
    # every row from one table: each source's surprisal and the joint one
    whole = frozenset().union(*sources)
    *h, joint = surprisal_table(d, [*sources, whole], given)(r)
    rows = [(f"h{_source_label(d, s)}{suffix}", value) for s, value in zip(sources, h)]
    residual = None
    if len(sources) >= 2:
        union = max(h)
        synergy = joint - union
        rows.append((f"union{suffix}", union))
        rows.append((f"intersection{suffix}", min(h)))
        rows.append((f"synergy{suffix}", synergy))
    if len(sources) == 2:
        a, b = sources
        if a & b:  # mutual content needs disjoint sources, as in `mutual_content`
            raise ValueError("sources overlap")
        la, lb = _source_label(d, a), _source_label(d, b)
        _, unique_a, unique_b, _, _, _, mutual = pair_contents(*h, joint)
        rows.append((f"unique {la} over {lb}{suffix}", unique_a))
        rows.append((f"unique {lb} over {la}{suffix}", unique_b))
        rows.append((f"mutual{suffix}", mutual))
    if len(sources) >= 2:
        rows.append((f"h{_source_label(d, whole)}{suffix}", joint))
        residual = config.unit(abs(joint - union - synergy))
    rows = [(label, config.unit(value)) for label, value in rows]

    width = max(len(label) for label, _ in rows)
    lines = [f"pointwise measures at ({args.realization})"]
    lines += [f"{label.ljust(width)}  {_fmt(value)}" for label, value in rows]
    if residual is not None:
        lines.append(f"{'residual'.ljust(width)}  {_fmt_res(residual)}")
    _emit(
        config,
        lines,
        {
            "realization": list(r),
            "measures": [{"name": label, "value": value} for label, value in rows],
            "residual": residual,
        },
    )
    return 0 if residual is None or residual <= config.tolerance else 1


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


def _decompose_target(config: RunConfig, args, d: JointDistribution) -> int:
    predictors = _parse_predictors(d, args.predictors)
    if len(predictors) != 2:
        raise ValueError("exactly two predictor sources are required")
    target = _parse_source(d, args.target)
    realization = _mode_realization(args)
    result = mi_decompose(d, predictors[0], predictors[1], target, realization)
    rows = [(name, config.unit(getattr(result, name))) for name in _MI_ROWS]
    parts_sum = config.unit(result.parts_sum())
    residual = config.unit(abs(result.joint - result.parts_sum()))

    header = (
        f"mutual decomposition [{args.mode}] predictors "
        f"{_source_label(d, predictors[0])},{_source_label(d, predictors[1])} "
        f"target {_source_label(d, target)}"
    )
    width = max(len(label) for label, _ in rows)
    lines = [header]
    lines += [f"{label.ljust(width)}  {_fmt(value)}" for label, value in rows]
    lines.append(f"{'sum of parts'.ljust(width)}  {_fmt(parts_sum)}")
    lines.append(f"{'residual'.ljust(width)}  {_fmt_res(residual)}")
    _emit(
        config,
        lines,
        {
            "mode": args.mode,
            "rows": [{"name": n, "value": v} for n, v in rows],
            "sum_of_parts": parts_sum,
            "residual": residual,
        },
    )
    return 0 if residual <= config.tolerance else 1


def _check_lattice_size(config: RunConfig, n: int) -> int:
    """n, if the command may build the lattice of n variables: the 7,579
    nodes of n = 5 need `--allow-n5`."""
    limit = MAX_N if config.allow_n5 else MAX_N - 1
    if not 1 <= n <= limit:
        hint = "" if config.allow_n5 else " (n = 5 needs the explicit override)"
        raise ValueError(f"variable count {n} outside supported range 1..{limit}{hint}")
    return n


def cmd_decompose(config: RunConfig, args) -> int:
    d = load_file(args.file)
    if args.target is not None or args.predictors is not None:
        if args.target is None or args.predictors is None:
            raise ValueError("--target and --predictors must be given together")
        return _decompose_target(config, args, d)

    variables = None
    if args.variables is not None:
        variables = [d.variables.index(n.strip()) for n in args.variables.split(",")]
    selected = variables if variables is not None else list(range(d.variables.n))
    names = tuple(d.variables.names[i] for i in selected)

    r = _mode_realization(args)
    _check_lattice_size(config, len(selected))
    if r is not None:
        partials = decompose_pointwise(d, r, variables=variables)
        header = f"pointwise decomposition at ({args.realization})"
    else:
        partials = decompose_expected(d, variables=variables)
        header = "expected decomposition"

    rows = [
        (label, config.unit(value), config.unit(partial))
        for label, value, partial in decomposition_rows(partials.valuation, partials, names)
    ]
    total_bits = partials.total()
    top_bits = partials.valuation.values[partials.lattice.index(partials.lattice.top)]
    total, top_value = config.unit(total_bits), config.unit(top_bits)
    residual = config.unit(abs(total_bits - top_bits))

    label_width = max(len(label) for label, _, _ in rows)
    lines = [header, f"{'node'.ljust(label_width)}  {'value'.rjust(12)}  {'partial'.rjust(12)}"]
    for label, value, partial in rows:
        lines.append(f"{label.ljust(label_width)}  {_fmt(value).rjust(12)}  {_fmt(partial).rjust(12)}")
    lines.append(f"{'sum of partials'.ljust(label_width)}  {_fmt(total).rjust(12)}")
    lines.append(f"{'joint value'.ljust(label_width)}  {_fmt(top_value).rjust(12)}")
    lines.append(f"{'residual'.ljust(label_width)}  {_fmt_res(residual)}")
    _emit(
        config,
        lines,
        {
            "mode": args.mode,
            "rows": [
                {"node": label, "value": value, "partial": partial}
                for label, value, partial in rows
            ],
            "sum_of_partials": total,
            "joint_value": top_value,
            "residual": residual,
        },
    )
    return 0 if residual <= config.tolerance else 1


def cmd_lattice(config: RunConfig, args) -> int:
    lattice = enumerate_antichains(_check_lattice_size(config, args.n))
    dot = to_dot(lattice, kind=args.kind)
    if args.out == "-":
        sys.stdout.write(dot)
    else:
        Path(args.out).write_text(dot, encoding="utf-8")
        print(f"wrote {args.kind} lattice for n={args.n} ({len(lattice)} nodes) to {args.out}")
    return 0


def cmd_eval(config: RunConfig, args) -> int:
    d = load_file(args.file)
    expr = parse_expression(args.expression, d.variables.names)
    given = _parse_source(d, args.given) if args.given is not None else None
    about = _parse_source(d, args.about) if args.about is not None else None
    if given is not None and about is not None:
        raise ValueError("--given and --about are mutually exclusive")
    r = _parse_realization(args.realization) if args.realization is not None else None
    value_at = compile_expression(d, expr, given=given, about=about)
    if r is not None:
        value = config.unit(value_at(r))
        mode = f"at ({args.realization})"
    else:
        value = config.unit(expected(d, value_at))
        mode = "expected"
    _emit(
        config,
        [f"{args.expression} [{mode}] = {_fmt(value)}"],
        {"expression": args.expression, "mode": mode, "value": value},
    )
    return 0


def cmd_check(config: RunConfig, args) -> int:
    report = checks.run_suite(args.suite, config.seed, config.trials, config.tolerance)
    if config.structured:
        import json
        print(json.dumps(report.to_json(), indent=2))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _add_global_flags(parser: argparse.ArgumentParser, defaults: bool) -> None:
    """The global flags; without `defaults` an absent flag leaves its value alone."""

    def default(value):
        return value if defaults else argparse.SUPPRESS

    parser.add_argument("--base", choices=sorted(_BASES), default=default("2"),
                        help="log base for information units (default: 2)")
    parser.add_argument("--tol", type=float, default=default(1e-9),
                        help="tolerance for identity checks (default: 1e-9)")
    parser.add_argument("--seed", type=int, default=default(0), help="master RNG seed")
    parser.add_argument("--trials", type=int, default=default(1000),
                        help="trial count for randomized suites")
    parser.add_argument("--allow-n5", action="store_true", default=default(False),
                        help="permit five-variable lattices (7579 nodes)")
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
    p.add_argument("--n", type=int, required=True)
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

    p = sub.add_parser("check", parents=[common], help="run a randomized verification suite")
    p.add_argument("--suite", choices=checks.SUITES, required=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            base=_BASES[args.base],
            tolerance=args.tol,
            seed=args.seed,
            trials=args.trials,
            allow_n5=args.allow_n5,
            structured=args.fmt == "structured",
        )
        return args.func(config, args)
    except (InvalidDistribution, ZeroMass, ExpressionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
