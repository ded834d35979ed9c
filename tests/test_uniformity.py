"""Interval discrepancy, best uniformity, and quasi-randomness diagnostics."""

import itertools
import math
from fractions import Fraction

import pytest

from seqlimit import (
    PiecewisePoly,
    SeededStream,
    Word,
    best_uniformity,
    d_box,
    discrepancy,
    exponential_sum,
    minimizer_residuals,
    quasirandomness_report,
    subsequence_count,
)
from seqlimit.uniformity import _hull, _hulls
from seqlimit.words import all_patterns

from util import (
    all_points_hulls,
    cayley_walk_enumerate,
    dp_subsequence_count,
    generator_exponential_sum,
    random_word,
)

W = Word.from_string


def brute_discrepancy(w: Word, d: Fraction) -> Fraction:
    n = len(w)
    best = Fraction(0)
    for lo in range(n):
        ones = 0
        for hi in range(lo, n):
            ones += 1 if w.letters[hi] == "1" else 0
            best = max(best, abs(Fraction(ones) - d * (hi - lo + 1)))
    return best


def seed_discrepancy(w: Word, d: Fraction) -> tuple[Fraction, tuple[int, int]]:
    """All-points Fraction sweep with first-argmax / first-argmin witnesses."""
    s = [0]
    for c in w.letters:
        s.append(s[-1] + (c == "1"))
    t = [Fraction(sj) - d * j for j, sj in enumerate(s)]
    jmax = max(range(len(t)), key=lambda j: (t[j], -j))
    jmin = min(range(len(t)), key=lambda j: (t[j], j))
    if jmax == jmin:
        return Fraction(0), (1, 1)
    lo, hi = sorted((jmin, jmax))
    return t[jmax] - t[jmin], (lo + 1, hi)


def seed_lower_chain(points):
    """The seed's hull helper: pops while slopes fail to increase, so it
    keeps the lower convex chain."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def seed_best_uniformity(w: Word) -> tuple[Fraction, Fraction, tuple[int, int]]:
    """(density, discrepancy, witness) as the seed found them: hull slopes
    of the prefix-sum graph and of its mirror image as candidates, each
    scored by the full all-points Fraction sweep."""
    s = [0]
    for c in w.letters:
        s.append(s[-1] + (c == "1"))
    pts = list(enumerate(s))
    chains = (seed_lower_chain([(x, Fraction(y)) for x, y in pts]), 1), (
        seed_lower_chain([(x, -Fraction(y)) for x, y in pts]),
        -1,
    )
    cands = {Fraction(0), Fraction(1)}
    for hull, sign in chains:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            d = sign * (y2 - y1) / (x2 - x1)
            if 0 <= d <= 1:
                cands.add(d)
    best = None
    for d in sorted(cands):
        disc, wit = seed_discrepancy(w, d)
        if best is None or disc < best[0]:
            best = (disc, d, wit)
    return best[1], best[0], best[2]


def test_discrepancy_matches_quadratic_brute_force():
    stream = SeededStream(31)
    for t in range(25):
        n = 10 + t
        w = random_word(stream.substream(t), n)
        for d in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(w.weight(), n), Fraction(1)):
            disc, (lo, hi) = discrepancy(w, d)
            assert disc == brute_discrepancy(w, d)
            if disc > 0:
                ones = sum(1 for c in w.letters[lo - 1 : hi] if c == "1")
                assert abs(Fraction(ones) - d * (hi - lo + 1)) == disc


def test_discrepancy_examples():
    assert discrepancy(W("1111"), 1)[0] == 0
    assert discrepancy(W("0000"), 0)[0] == 0
    assert discrepancy(W("01" * 8), Fraction(1, 2))[0] == Fraction(1, 2)
    disc, wit = discrepancy(W("0011"), Fraction(1, 2))
    assert disc == 1 and wit in ((1, 2), (3, 4))


def test_best_uniformity_is_the_exact_minimum():
    stream = SeededStream(32)
    for t in range(15):
        n = 12 + t
        w = random_word(stream.substream(t), n)
        rep = best_uniformity(w)
        assert rep.discrepancy == discrepancy(w, rep.density)[0]
        # no density on a fine grid does better
        for k in range(0, 4 * n + 1):
            assert discrepancy(w, Fraction(k, 4 * n))[0] >= rep.discrepancy
        assert rep.normalized == rep.discrepancy / n


def test_discrepancy_and_witness_match_fraction_sweep():
    stream = SeededStream(36)
    for t in range(40):
        n = int(stream.substream(t).generator().integers(1, 120))
        w = random_word(stream.substream(1000 + t), n, density=[0.1, 0.5, 0.9][t % 3])
        for d in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(w.weight(), n), Fraction(1), Fraction(3, 2),
                  Fraction(-1, 3), Fraction(7, 5), Fraction(10**29 + 7, 2 * 10**29 + 1)):
            assert discrepancy(w, d) == seed_discrepancy(w, d)
    # every j ties: q*S_j - p*j is 0 throughout
    for n in (1, 2, 17):
        for w, d in ((W("1" * n), Fraction(1)), (W("0" * n), Fraction(0))):
            assert discrepancy(w, d) == seed_discrepancy(w, d) == (0, (1, 1))
    assert discrepancy(W(""), Fraction(1, 2)) == (0, (1, 0))


def test_discrepancy_equals_box_distance_to_the_constant():
    """Two separate paths: the hull scorer, and the box distance of the
    word's step function to the constant d, swept by the limit layer.  The
    best uniformity `analyze` reads off its report is `best_uniformity`'s."""
    stream = SeededStream(39)
    for t in range(30):
        n = int(stream.substream(t).generator().integers(1, 300))
        w = random_word(stream.substream(700 + t), n, density=[0.1, 0.5, 0.9][t % 3])
        for d in (Fraction(0), Fraction(1, 3), Fraction(w.weight(), n), Fraction(5, 8), Fraction(1)):
            assert discrepancy(w, d)[0] == n * d_box(w, PiecewisePoly.constant(d))
        if n >= 3:
            assert quasirandomness_report(w, Fraction(1, 3)).best == best_uniformity(w)


def test_hulls_bound_every_prefix_point():
    stream = SeededStream(37)
    words = [random_word(stream.substream(t), 1 + 7 * t) for t in range(30)]
    words += [W("0" * 9), W("1" * 9), W("01" * 9), W("1"), W("0011100")]
    for w in words:
        s = [0]
        for c in w.letters:
            s.append(s[-1] + (c == "1"))
        pts = list(enumerate(s))
        upper, lower = _hull(pts, 1), _hull(pts, -1)
        for hull, sign in ((upper, 1), (lower, -1)):
            assert hull[0] == pts[0] and hull[-1] == pts[-1]
            assert set(hull) <= set(pts)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
                # no point lies strictly above (upper) / below (lower) an edge
                for x, y in pts[x1 : x2 + 1]:
                    assert sign * ((y - y1) * (x2 - x1) - (y2 - y1) * (x - x1)) <= 0
            # strict vertices: slopes strictly decrease (upper) / increase (lower)
            slopes = [Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
            assert all(sign * (a - b) > 0 for a, b in zip(slopes, slopes[1:]))


def test_best_uniformity_matches_fraction_scan():
    stream = SeededStream(38)
    words = [W("0" * 17), W("1" * 17), W("01" * 30), W("10" * 30 + "1"), W("0"), W("1")]
    for t in range(60):
        n = int(stream.substream(t).generator().integers(1, 201))
        words.append(random_word(stream.substream(500 + t), n, density=[0.2, 0.5, 0.7][t % 3]))
    for w in words:
        rep = best_uniformity(w)
        assert (rep.density, rep.discrepancy, rep.witness) == seed_best_uniformity(w)


def test_best_uniformity_examples():
    assert best_uniformity(W("1" * 10)).discrepancy == 0
    rep = best_uniformity(W("01" * 10))
    assert rep.density == Fraction(1, 2) and rep.discrepancy == Fraction(1, 2)


def test_forward_bound_on_alternating_word():
    w = W("01" * 50)
    n = len(w)
    eps = Fraction(1, 2 * n)  # the alternating word is (1/2, 1/(2n))-uniform
    for ut in ("01", "10", "111", "010"):
        l = len(ut)
        expected = Fraction(1, 2**l) * math.comb(n, l)
        assert abs(subsequence_count(w, W(ut)) - expected) <= 5 * eps * n**l


def test_minimizer_residuals_small_for_alternating():
    w = W("01" * 100)
    res = minimizer_residuals(w, Fraction(1, 2))
    assert set(res) == {"".join(b) for b in __import__("itertools").product("01", repeat=3)}
    assert max(res.values()) <= Fraction(1, len(w))


def test_exponential_sum_bounds_and_half_frequency():
    stream = SeededStream(33)
    for t in range(10):
        w = random_word(stream.substream(t), 40)
        for k in (1, 2, 7):
            assert abs(exponential_sum(w, k)) <= w.weight() / len(w) + 1e-12
    n = 100
    w = W("01" * (n // 2))
    assert abs(abs(exponential_sum(w, n // 2)) - 0.5) < 1e-12
    assert abs(exponential_sum(w, 1)) < 0.02


def test_cayley_walk_identity():
    stream = SeededStream(34)
    for t in range(12):
        w = random_word(stream.substream(t), 6)
        for ut in ("1", "10", "11", "011"):
            u = W(ut)
            assert cayley_walk_enumerate(w, u) == 2 * len(w) * subsequence_count(w, u)
    with pytest.raises(ValueError):
        cayley_walk_enumerate(W("01" * 20), W("1"))


def test_quasirandomness_report_consistency():
    w = W("0110" * 50)
    rep = quasirandomness_report(w, num_frequencies=3)
    assert rep.density == Fraction(1, 2)
    assert rep.discrepancy == discrepancy(w, rep.density)[0] / len(w)
    assert rep.residual_eps == max(rep.residuals.values())
    assert abs(rep.converse_bound - 42 * float(rep.residual_eps) ** (1 / 3)) < 1e-12
    assert set(rep.exponential_sums) == {1, 2, 3}


def test_minimizer_residuals_match_per_pattern_oracle():
    stream = SeededStream(36)
    for t in range(12):
        n = 3 + 17 * t
        w = random_word(stream.substream(t), n, density=0.3 + 0.04 * t)
        d = Fraction(t + 1, 14)
        res = minimizer_residuals(w, d)
        assert list(res) == [str(u) for u in all_patterns(3)]
        for u in all_patterns(3):
            s = u.weight()
            expected = d**s * (1 - d) ** (3 - s) * math.comb(n, 3)
            assert res[str(u)] == Fraction(abs(dp_subsequence_count(w, u) - expected), n**3)
        # the same letters over the alphabet listed the other way round
        assert minimizer_residuals(Word(w.letters, ("1", "0")), d) == res


def _short_words():
    """Every binary word of 1 to 12 letters."""
    for n in range(1, 13):
        for bits in itertools.product("01", repeat=n):
            yield Word(bits)


def _long_words():
    """Seeded words of 13 to 16,000 letters: random ones of density near 0,
    1/2 and near 1, an alternating one (runs of length 1), and random
    ones after or before a run of more than n/2 letters."""
    stream = SeededStream(39)
    for t, n in enumerate((13, 39, 100, 999, 1000, 4000, 16000)):
        sub = stream.substream(t)
        for i, density in enumerate((0.03, 0.5, 0.97)):
            yield random_word(sub.substream(i), n, density)
        yield W(("01" * n)[:n])
        run = n // 2 + 1
        yield Word(("1",) * run + random_word(sub.substream(3), n - run).letters)
        yield Word(random_word(sub.substream(4), n - run).letters + ("0",) * run)


def test_hulls_from_run_corners_equal_the_all_points_hulls():
    for w in itertools.chain(_short_words(), _long_words()):
        assert _hulls(w) == all_points_hulls(w), str(w)
        rep = best_uniformity(w)
        assert discrepancy(w, rep.density)[0] == rep.discrepancy


def test_exponential_sums_equal_the_generator_expressions():
    for w in itertools.chain(_short_words(), _long_words()):
        n = len(w)
        for k in (*range(9), n + 1, 3 * n + 2):
            got, want = exponential_sum(w, k), generator_exponential_sum(w, k)
            assert got == want and repr(got) == repr(want), (str(w), k)
    # a frequency beyond the float range: 0j without a 1, an OverflowError with one
    assert exponential_sum(W("000"), 10**400) == generator_exponential_sum(W("000"), 10**400) == 0
    for f in (exponential_sum, generator_exponential_sum):
        with pytest.raises(OverflowError):
            f(W("010"), 10**400)
