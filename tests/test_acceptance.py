"""Acceptance suite: every criterion below prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; the whole module stays well under a minute.
"""

import math
from itertools import combinations

import pytest

from infoshare import (
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    expected,
    intersection_content,
    join,
    lattice_valuation,
    meet,
    mi_decompose,
    mobius_closed_form,
    mobius_inversion,
    mutual_content,
    precedes,
    surprisal,
    synergy_content,
    trivariate_report,
    unique_content,
    union_content,
)
from infoshare.checks import run_suite
from infoshare.cli import main
from infoshare.sampling import random_distribution, trial_rng

from helpers import anti, mobius_recursive, xor3

TOL = 1e-9
SWEEP_SEED = 2024


def _line(k, title, ok, detail):
    print(f"criterion {k} ({title}): {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def pair_sweep():
    """1,000 seeded two-variable distributions with all their measures."""
    rows = []
    for trial in range(1000):
        rng = trial_rng(SWEEP_SEED, trial)
        d = random_distribution(rng, [rng.randint(2, 4), rng.randint(2, 4)])
        points = []
        for r, _ in d.support():
            hx = surprisal(d, [0], r)
            hy = surprisal(d, [1], r)
            points.append(
                {
                    "hx": hx,
                    "hy": hy,
                    "hxy": surprisal(d, [0, 1], r),
                    "union": union_content(d, [[0], [1]], r),
                    "inter": intersection_content(d, [[0], [1]], r),
                    "ux": unique_content(d, [0], [1], r),
                    "uy": unique_content(d, [1], [0], r),
                    "syn": synergy_content(d, [[0], [1]], r),
                    "mi": mutual_content(d, [0], [1], r),
                }
            )
        e_mi = expected(d, lambda r: mutual_content(d, [0], [1], r))
        rows.append({"points": points, "e_mi": e_mi})
    return rows


def test_criterion_01_surprisal_chain(pair_sweep):
    worst = 0.0
    exact_max = True
    for row in pair_sweep:
        for p in row["points"]:
            worst = max(worst, p["union"] - p["hxy"])  # h(x,y) >= union
            worst = max(worst, p["inter"] - p["union"])  # union >= intersection
            worst = max(worst, -p["inter"])  # intersection >= 0
            worst = max(worst, max(p["hx"], p["hy"]) - p["union"])
            if p["union"] != max(p["hx"], p["hy"]):
                exact_max = False
    ok = worst <= TOL and exact_max
    _line(1, "surprisal ordering chain", ok, f"max violation {worst:.3e}, union==max exact: {exact_max}")
    assert ok


def test_criterion_02_pointwise_decomposition(pair_sweep):
    worst = 0.0
    one_unique_zero = True
    for row in pair_sweep:
        for p in row["points"]:
            residual = abs(p["hxy"] - (p["inter"] + p["ux"] + p["uy"] + p["syn"]))
            worst = max(worst, residual)
            if min(p["ux"], p["uy"]) != 0.0:
                one_unique_zero = False
    ok = worst <= TOL and one_unique_zero
    _line(2, "pointwise decomposition", ok,
          f"max residual {worst:.3e}, a unique content is exactly 0: {one_unique_zero}")
    assert ok


def test_criterion_03_mutual_information_sign_split(pair_sweep):
    worst = 0.0
    min_expected = math.inf
    negative_seen = False
    for row in pair_sweep:
        for p in row["points"]:
            worst = max(worst, abs(p["mi"] - (p["inter"] - p["syn"])))
            if p["mi"] < -TOL:
                negative_seen = True
        min_expected = min(min_expected, row["e_mi"])
    a = anti()
    fixed = mutual_content(a, [0], [1], (0, 0))
    fixed_ok = abs(fixed - (-1.321928)) <= 1e-6
    ok = worst <= TOL and min_expected >= -TOL and negative_seen and fixed_ok
    _line(3, "mutual information sign split", ok,
          f"max residual {worst:.3e}, min E[i] {min_expected:.3e}, "
          f"negative pointwise seen: {negative_seen}, anti fixture i(0,0)={fixed:.6f}")
    assert ok


def _brute_force_antichain_count(n):
    sources = [frozenset(s) for s in enumerate_sources(n)]
    count = 0
    for k in range(1, len(sources) + 1):
        for family in combinations(sources, k):
            if all(not (a < b or b < a) for a, b in combinations(family, 2)):
                count += 1
    return count


def test_criterion_04_lattice_combinatorics():
    counts_ok = True
    for n, expected_count in ((1, 1), (2, 4), (3, 18), (4, 166)):
        lattice = enumerate_antichains(n)
        if len(lattice) != expected_count or _brute_force_antichain_count(n) != expected_count:
            counts_ok = False
    bounds_ok = True
    for n in (2, 3):
        lattice = enumerate_antichains(n)
        nodes = lattice.nodes
        for a in nodes:
            if not precedes(a, a):
                bounds_ok = False
            for b in nodes:
                if a != b and precedes(a, b) and precedes(b, a):
                    bounds_ok = False
                m, j = meet(a, b), join(a, b)
                lower = [c for c in nodes if precedes(c, a) and precedes(c, b)]
                upper = [c for c in nodes if precedes(a, c) and precedes(b, c)]
                if m not in lower or not all(precedes(c, m) for c in lower):
                    bounds_ok = False
                if j not in upper or not all(precedes(j, c) for c in upper):
                    bounds_ok = False
    ok = counts_ok and bounds_ok
    _line(4, "lattice combinatorics", ok,
          f"counts 1/4/18/166 vs oracle: {counts_ok}, meet/join vs bound search: {bounds_ok}")
    assert ok


def test_criterion_05_lattice_laws_and_max_min():
    report = run_suite("props", seed=SWEEP_SEED, trials=1000, tolerance=TOL)
    worst = max(line.max_residual for line in report.lines)
    connex_ok = True
    lattice = enumerate_antichains(3)
    for trial in range(300):
        rng = trial_rng(SWEEP_SEED + 1, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            h = [surprisal(d, [i], r) for i in range(3)]
            values = set(h)
            for node in lattice.nodes:
                if eval_sharing(node, h) not in values:
                    connex_ok = False
    # the max-min (inclusion-exclusion) identity, as the Venn union of the chain
    # walk's partials inside the n circles
    mobius = run_suite("mobius", seed=SWEEP_SEED, trials=1000, tolerance=TOL)
    union = next(line.max_residual for line in mobius.lines
                 if line.name == "circles_sum_to_union")
    ok = report.passed and worst <= TOL and connex_ok and union <= TOL
    _line(5, "lattice laws and max-min identity", ok,
          f"suite max residual {worst:.3e}, every node value is a surprisal: {connex_ok}, "
          f"circles sum to the union within {union:.3e}")
    assert ok


def test_criterion_06_closed_form_inversion():
    worst_gap = 0.0
    worst_negative = 0.0
    worst_total = 0.0
    for trial in range(1000):
        rng = trial_rng(SWEEP_SEED + 2, trial)
        n = 2 if trial % 2 == 0 else 3
        d = random_distribution(rng, [rng.randint(2, 3)] * 2 if n == 2 else [2, 2, 2])
        lattice = enumerate_antichains(n)
        for r, _ in d.support():
            values = lattice_valuation(d, r)
            closed = mobius_closed_form(lattice, values)
            for other in (mobius_recursive(lattice, values), mobius_inversion(lattice, values)):
                worst_gap = max(
                    worst_gap,
                    max(abs(c - x) for c, x in zip(closed.partials, other.partials, strict=True)),
                )
            worst_negative = max(worst_negative, -min(closed.partials))
            worst_total = max(
                worst_total, abs(closed.total() - values[lattice.index(lattice.top)])
            )
    ok = worst_gap <= TOL and worst_negative <= TOL and worst_total <= TOL
    _line(6, "closed-form Möbius inversion", ok,
          f"closed vs recursive and Boolean-interval {worst_gap:.3e}, "
          f"most negative partial {worst_negative:.3e}, sum-to-top {worst_total:.3e}")
    assert ok


def test_criterion_07_trivariate_identity():
    worst = 0.0
    for trial in range(300):
        rng = trial_rng(SWEEP_SEED + 3, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            report = trivariate_report(d, r)
            worst = max(
                worst,
                abs(math.fsum(report.values()) - surprisal(d, [0, 1, 2], r)),
            )
    x = xor3()
    bottom_ok = top_ok = True
    for r, _ in x.support():
        report = trivariate_report(x, r)
        if abs(report["X cap Y cap Z"] - 1.0) > TOL:
            bottom_ok = False
        if abs(report["(X,Y) oplus (X,Z) oplus (Y,Z)"]) > TOL:
            top_ok = False
    ok = worst <= TOL and bottom_ok and top_ok
    _line(7, "trivariate identity", ok,
          f"max sum residual {worst:.3e}, xor bottom term 1.0: {bottom_ok}, top term 0.0: {top_ok}")
    assert ok


def test_criterion_08_lemma_suite():
    report = run_suite("lemmas", seed=SWEEP_SEED + 4, trials=1000, tolerance=TOL)
    worst = max(line.max_residual for line in report.lines)
    from infoshare import lemma_suite

    witnesses_ok = True
    x = xor3()
    for r, _ in x.support():
        results = {res.name: res for res in lemma_suite(x, r)}
        if results["L4"].lhs != 0.0 or results["L6"].lhs != 0.0:
            witnesses_ok = False
    ok = report.passed and worst <= TOL and witnesses_ok
    _line(8, "appendix lemmas", ok,
          f"max residual {worst:.3e}, L4/L6 exact-zero witnesses: {witnesses_ok}")
    assert ok


def test_criterion_09_mutual_information_decomposition():
    worst_point = 0.0
    worst_expected = 0.0
    for trial in range(300):
        rng = trial_rng(SWEEP_SEED + 5, trial)
        d = random_distribution(rng, [2, 2, 2])
        exp = mi_decompose(d, [0], [1], [2])
        worst_expected = max(worst_expected, abs(exp.joint - exp.parts_sum()))
        worst_expected = max(
            worst_expected,
            abs(exp.coinformation - (exp.intersection - exp.synergy)),
        )
        for r, _ in d.support():
            point = mi_decompose(d, [0], [1], [2], r)
            worst_point = max(worst_point, abs(point.joint - point.parts_sum()))
            worst_point = max(
                worst_point,
                abs(point.coinformation - (point.intersection - point.synergy)),
            )
    x = mi_decompose(xor3(), [0], [1], [2])
    fixed_ok = (
        abs(x.intersection) <= TOL
        and abs(x.synergy - 1.0) <= TOL
        and abs(x.coinformation + 1.0) <= TOL
    )
    ok = worst_point <= TOL and worst_expected <= TOL and fixed_ok
    _line(9, "mutual-information identities", ok,
          f"pointwise {worst_point:.3e}, expected {worst_expected:.3e}, "
          f"xor fixed values: {fixed_ok}")
    assert ok


def test_criterion_10_determinism(capsys):
    args = ["--trials", "400", "--seed", "17", "check", "--suite", "props"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    ok = first == second and len(first) > 0
    with capsys.disabled():
        _line(10, "determinism", ok, f"byte-identical reports: {ok}")
    assert ok
