import math

import pytest

from infoshare import (
    ZeroMass,
    cond_surprisal,
    entropy,
    expected,
    intersection_content,
    mutual_content,
    surprisal,
    synergy_content,
    unique_content,
    union_content,
)
from infoshare.sampling import random_distribution, trial_rng

from helpers import anti, biased1, biased2, copy2, point3, unif2, xor3

TOL = 1e-9


def test_surprisal_examples():
    d = xor3()
    for r, _ in d.support():
        assert surprisal(d, [0], r) == pytest.approx(1.0)
        assert surprisal(d, [0, 1], r) == pytest.approx(-math.log2(0.25))
    assert surprisal(biased1(), [0], (1,)) == pytest.approx(2.0)
    assert surprisal(biased1(), [0], (0,)) == pytest.approx(-math.log2(0.75))


def test_surprisal_zero_mass_rejected():
    d = copy2()
    with pytest.raises(ZeroMass):
        surprisal(d, [0, 1], (0, 1))


def test_cond_surprisal_examples():
    assert cond_surprisal(copy2(), [1], [0], (0, 0)) == pytest.approx(0.0)
    d = xor3()
    for r, _ in d.support():
        assert cond_surprisal(d, [2], [0, 1], r) == pytest.approx(0.0)
        # pairwise independence: conditioning on one bit tells nothing
        assert cond_surprisal(d, [2], [0], r) == pytest.approx(1.0)


def test_cond_surprisal_errors():
    d = xor3()
    with pytest.raises(ValueError, match="overlap"):
        cond_surprisal(d, [0], [0, 1], (0, 0, 0))
    with pytest.raises(ZeroMass):
        cond_surprisal(copy2(), [1], [0], (0, 1))


def test_union_content_examples():
    d = xor3()
    for r, _ in d.support():
        assert union_content(d, [[0], [1], [2]], r) == pytest.approx(1.0)
        pairs = [[0, 1], [0, 2], [1, 2]]
        assert all(surprisal(d, s, r) == pytest.approx(2.0) for s in pairs)
        assert union_content(d, pairs, r) == pytest.approx(2.0)
    b = biased2()
    assert union_content(b, [[0], [1]], (0, 1)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        union_content(d, [], (0, 0, 0))


def test_intersection_content_examples():
    d = xor3()
    for r, _ in d.support():
        assert intersection_content(d, [[0], [1]], r) == pytest.approx(1.0)
    b = biased2()
    assert intersection_content(b, [[0], [1]], (0, 1)) == pytest.approx(0.415037, abs=1e-6)
    # single source: idempotence
    assert intersection_content(b, [[0]], (0, 1)) == surprisal(b, [0], (0, 1))


def test_unique_content_examples():
    b = biased2()
    assert unique_content(b, [0], [1], (1, 0)) == pytest.approx(1.584963, abs=1e-6)
    assert unique_content(b, [1], [0], (1, 0)) == 0.0
    assert unique_content(b, [0], [0], (1, 0)) == 0.0


def test_synergy_content_examples():
    d = xor3()
    for r, _ in d.support():
        assert synergy_content(d, [[0], [1]], r) == pytest.approx(1.0)
        assert synergy_content(d, [[0], [1], [2]], r) == pytest.approx(1.0)
    c = copy2()
    for r, _ in c.support():
        assert synergy_content(c, [[0], [1]], r) == pytest.approx(0.0)


def test_mutual_content_examples():
    assert mutual_content(copy2(), [0], [1], (0, 0)) == pytest.approx(1.0)
    u = unif2()
    for r, _ in u.support():
        assert mutual_content(u, [0], [1], r) == pytest.approx(0.0)
    assert mutual_content(anti(), [0], [1], (0, 0)) == pytest.approx(
        math.log2(0.1 / 0.25)
    )
    assert mutual_content(anti(), [0], [1], (0, 0)) == pytest.approx(
        -1.321928, abs=1e-6
    )
    with pytest.raises(ValueError, match="overlap"):
        mutual_content(u, [0], [0], (0, 0))


def test_conditional_measure_examples():
    d = xor3()
    for r, _ in d.support():
        assert union_content(d, [[0], [1]], r, given=[2]) == pytest.approx(1.0)
        assert synergy_content(d, [[0], [1]], r, given=[2]) == pytest.approx(0.0)
        assert mutual_content(d, [0], [1], r, given=[2]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="overlap"):
        union_content(d, [[0], [1]], (0, 0, 0), given=[0, 2])
    with pytest.raises(ZeroMass, match="conditioning"):
        unique_content(point3(), [1], [2], (1, 0, 0), given=[0])


def test_conditional_decomposition_identity():
    # h(x,y|z) splits into intersection, both uniques, and synergy, and the
    # conditioned ordering chain mirrors the plain one.
    for trial in range(40):
        rng = trial_rng(11, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            whole = cond_surprisal(d, [0, 1], [2], r)
            union = union_content(d, [[0], [1]], r, given=[2])
            inter = intersection_content(d, [[0], [1]], r, given=[2])
            parts = (
                inter
                + unique_content(d, [0], [1], r, given=[2])
                + unique_content(d, [1], [0], r, given=[2])
                + synergy_content(d, [[0], [1]], r, given=[2])
            )
            assert abs(whole - parts) <= TOL
            assert whole >= union - TOL >= inter - 2 * TOL >= -3 * TOL
            assert union == max(
                cond_surprisal(d, [0], [2], r), cond_surprisal(d, [1], [2], r)
            )


def test_expected_examples():
    assert entropy(xor3(), [0]) == pytest.approx(1.0)
    u = unif2()
    assert expected(u, lambda r: union_content(u, [[0], [1]], r)) == pytest.approx(1.0)
    a = anti()
    # KL oracle for the expected mutual content
    kl = 0.0
    for r, p in a.support():
        kl += p * math.log2(p / (a.marginal_mass([0], r) * a.marginal_mass([1], r)))
    assert expected(a, lambda r: mutual_content(a, [0], [1], r)) == pytest.approx(kl)
    assert kl >= -1e-9


def test_surprisal_chain_and_identities_randomized():
    negative_mutual_seen = False
    for trial in range(150):
        rng = trial_rng(21, trial)
        d = random_distribution(rng, [rng.randint(2, 4), rng.randint(2, 4)])
        for r, _ in d.support():
            hx = surprisal(d, [0], r)
            hy = surprisal(d, [1], r)
            hxy = surprisal(d, [0, 1], r)
            union = union_content(d, [[0], [1]], r)
            inter = intersection_content(d, [[0], [1]], r)
            syn = synergy_content(d, [[0], [1]], r)
            ux = unique_content(d, [0], [1], r)
            uy = unique_content(d, [1], [0], r)
            mi = mutual_content(d, [0], [1], r)
            if mi < -TOL:
                negative_mutual_seen = True
            assert union == max(hx, hy)
            assert hxy >= union - TOL
            assert union >= inter - TOL >= -2 * TOL
            assert abs(union + inter - (hx + hy)) <= TOL
            assert min(ux, uy) == 0.0
            assert abs(mi - (inter - syn)) <= TOL
            assert abs(hxy - (inter + ux + uy + syn)) <= TOL
        e_mi = expected(d, lambda r: mutual_content(d, [0], [1], r))
        e_inter = expected(d, lambda r: intersection_content(d, [[0], [1]], r))
        e_syn = expected(d, lambda r: synergy_content(d, [[0], [1]], r))
        e_union = expected(d, lambda r: union_content(d, [[0], [1]], r))
        assert e_mi >= -TOL
        assert abs((e_inter - e_syn) - e_mi) <= TOL
        # union entropy never exceeds the sum of the marginal entropies
        assert entropy(d, [0]) + entropy(d, [1]) >= e_union - TOL
    assert negative_mutual_seen


def test_synergy_equals_least_conditional_surprisal():
    # Two sources: the gain from joint knowledge is the smaller of the two
    # conditional surprisals; three sources: the smallest complementary one.
    for trial in range(40):
        rng = trial_rng(13, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            two = synergy_content(d, [[0], [1]], r)
            assert abs(
                two
                - min(cond_surprisal(d, [1], [0], r), cond_surprisal(d, [0], [1], r))
            ) <= TOL
            three = synergy_content(d, [[0], [1], [2]], r)
            assert abs(
                three
                - min(
                    cond_surprisal(d, [1, 2], [0], r),
                    cond_surprisal(d, [0, 2], [1], r),
                    cond_surprisal(d, [0, 1], [2], r),
                )
            ) <= TOL


def test_conditional_content_splits_into_unique_and_synergy():
    for trial in range(40):
        rng = trial_rng(17, trial)
        d = random_distribution(rng, [rng.randint(2, 3), rng.randint(2, 3)])
        for r, _ in d.support():
            syn = synergy_content(d, [[0], [1]], r)
            assert abs(
                cond_surprisal(d, [0], [1], r) - (unique_content(d, [0], [1], r) + syn)
            ) <= TOL
            assert abs(
                cond_surprisal(d, [1], [0], r) - (unique_content(d, [1], [0], r) + syn)
            ) <= TOL


def test_union_mutual_content_mixing_form():
    # i(union; target) mixes one source's content with the other's
    # conditional content: max of mins over the cross terms.
    for trial in range(40):
        rng = trial_rng(19, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            direct = union_content(d, [[0], [1]], r) - union_content(d, [[0], [1]], r, given=[2])
            hx, hy = surprisal(d, [0], r), surprisal(d, [1], r)
            hx_z = cond_surprisal(d, [0], [2], r)
            hy_z = cond_surprisal(d, [1], [2], r)
            mixed = max(min(hx - hx_z, hx - hy_z), min(hy - hx_z, hy - hy_z))
            assert abs(direct - mixed) <= TOL


def test_point_mass_measures_vanish():
    p = point3()
    r = (0, 0, 0)
    assert surprisal(p, [0, 1, 2], r) == 0.0
    assert synergy_content(p, [[0], [1], [2]], r) == 0.0
    assert mutual_content(p, [0], [1], r) == 0.0

