"""Conditional expectations, energy, and the weak regularity decomposition."""

import math
from fractions import Fraction

import pytest

from seqlimit import (
    IntervalPartition,
    PiecewisePoly,
    SeededStream,
    conditional_expectation,
    d_box,
    energy,
    extremal_interval,
    weak_regularity,
)

from seqlimit import regularity
from seqlimit.regularity import _extremal_of

from util import fn_mul, fn_sub, piece_primitive, random_poly_limit, random_step, random_step_irregular, same_function

STEP_HALF = PiecewisePoly.step([1, 0])


def test_partition_construction():
    p = IntervalPartition.uniform(4)
    assert p.size() == 4
    assert p.refine([Fraction(1, 3), Fraction(1, 4)]).size() == 5  # 1/4 already present
    assert p.refine([Fraction(0), Fraction(1)]).size() == 4  # endpoints ignored
    with pytest.raises(ValueError):
        IntervalPartition((Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError):
        IntervalPartition((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1)))
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"^a uniform partition needs at least 1 atom, got {m}$"):
            IntervalPartition.uniform(m)


def test_conditional_expectation_examples():
    x = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),))
    half = PiecewisePoly.constant(Fraction(1, 2))
    assert same_function(conditional_expectation(x, IntervalPartition.trivial()), half)
    part = IntervalPartition((Fraction(0), Fraction(1, 2), Fraction(1)))
    assert same_function(conditional_expectation(STEP_HALF, part), STEP_HALF)


def test_tower_property_preserves_integral():
    stream = SeededStream(91)
    for t in range(20):
        f = random_step_irregular(stream.substream(t), max_steps=7)
        part = IntervalPartition.uniform(1 + t % 5)
        assert conditional_expectation(f, part).antiderivative()(1) == f.antiderivative()(1)


def test_energy_is_the_integral_of_the_squared_conditional_expectation():
    stream = SeededStream(92)
    fs = [random_step(stream.substream(t), max_steps=9) for t in range(6)]
    fs += [random_step_irregular(stream.substream(10 + t), max_steps=7) for t in range(6)]
    fs += [random_poly_limit(stream.substream(20 + t)) for t in range(6)]
    rng = stream.generator()
    for t, f in enumerate(fs):
        cuts = [Fraction(int(x), 24) for x in rng.integers(1, 24, size=t % 5)]
        for part in (IntervalPartition.uniform(1 + t % 4), IntervalPartition.trivial().refine(cuts)):
            E = conditional_expectation(f, part)
            assert energy(f, part) == piece_primitive(fn_mul(E, E))(1), (f, part)


def test_energy_examples_and_refinement_monotonicity():
    d = Fraction(3, 7)
    assert energy(PiecewisePoly.constant(d), IntervalPartition.uniform(3)) == d * d
    part = IntervalPartition((Fraction(0), Fraction(1, 2), Fraction(1)))
    assert energy(STEP_HALF, part) == Fraction(1, 2)
    stream = SeededStream(92)
    for t in range(30):
        f = random_step(stream.substream(t), max_steps=8)
        coarse = IntervalPartition.uniform(2)
        fine = coarse.refine([Fraction(1, 3), Fraction(5, 8)])
        assert energy(f, coarse) <= energy(f, fine) <= 1


def test_extremal_and_violating_interval():
    g = fn_sub(STEP_HALF, PiecewisePoly.constant(Fraction(1, 2)))
    dev, (lo, hi) = extremal_interval(STEP_HALF, IntervalPartition.trivial())
    assert dev == Fraction(1, 4) and (lo, hi) == (Fraction(0), Fraction(1, 2))
    # the interval a round of weak_regularity refines by when the
    # deviation exceeds eps: g's interval norm is 1/4, attained on [0, 1/2]
    assert _extremal_of(g) == (Fraction(1, 4), (Fraction(0), Fraction(1, 2)))
    assert _extremal_of(PiecewisePoly.constant(0)) == (0, (0, 1))


def candidate_scan(g: PiecewisePoly):
    """The primitive H of a step function at every breakpoint: the largest
    maximizer and the smallest minimizer bound the extremal interval."""
    H = piece_primitive(g)
    best_max = max(g.breakpoints, key=lambda x: (H(x), x))
    best_min = min(g.breakpoints, key=lambda x: (H(x), x))
    lo, hi = sorted((best_min, best_max))
    return H(best_max) - H(best_min), (lo, hi)


def test_extremal_of_step_matches_candidate_scan_and_tie_break():
    # ties: H = 0, 1/4, 0, 1/4, 0 has maxima at 1/4 and 3/4, minima at 0, 1/2, 1
    zigzag = PiecewisePoly.step([1, -1, 1, -1])
    assert _extremal_of(zigzag) == (Fraction(1, 4), (Fraction(0), Fraction(3, 4)))
    assert _extremal_of(PiecewisePoly.constant(0)) == (0, (0, 1))
    # H = 0, 0, 0, 1/4, 1/4: the interval runs from the first 0 to the last 1/4
    assert _extremal_of(PiecewisePoly.step([0, 0, 1, 0])) == (Fraction(1, 4), (Fraction(0), Fraction(1)))
    cases = [zigzag, PiecewisePoly.step([-1, 1, 1, -1, -1, 1])]
    stream = SeededStream(74)
    rng = stream.generator()
    for t in range(60):
        m = int(rng.integers(1, 9))
        # values in {-1, 0, 1} on a uniform grid make repeated extremes common
        cases.append(PiecewisePoly.step([int(v) for v in rng.integers(-1, 2, size=m)]))
        f = random_step_irregular(stream.substream(t), max_steps=7)
        cases.append(fn_sub(f, conditional_expectation(f, IntervalPartition.uniform(1 + t % 3))))
    for g in cases:
        assert _extremal_of(g) == candidate_scan(g)


def off_grid_partitions(stream: SeededStream) -> list[IntervalPartition]:
    """The trivial and a uniform partition, and two with breakpoints in
    thirteenths, off the grids of random_step_irregular's limits."""
    rng = stream.generator()
    parts = [IntervalPartition.trivial(), IntervalPartition.uniform(5)]
    for k in (3, 6):
        parts.append(IntervalPartition.trivial().refine(Fraction(int(x), 13) for x in rng.integers(1, 13, size=k)))
    return parts


def test_extremal_interval_is_the_extremal_of_f_minus_its_expectation():
    stream = SeededStream(75)
    fs = [random_step_irregular(stream.substream(t), max_steps=8) for t in range(12)]
    fs += [random_poly_limit(stream.substream(40 + t)) for t in range(6)]
    for t, f in enumerate(fs):
        for part in off_grid_partitions(stream.substream(80 + t)):
            want = _extremal_of(fn_sub(f, conditional_expectation(f, part)))
            assert extremal_interval(f, part) == want, (f, part)


def test_extremal_of_a_pair_is_the_extremal_of_its_difference():
    stream = SeededStream(76)
    steps = [random_step_irregular(stream.substream(t), max_steps=7) for t in range(10)]
    steps += [PiecewisePoly.step([1, -1, 1, -1]), PiecewisePoly.constant(0)]
    polys = [random_poly_limit(stream.substream(40 + t)) for t in range(5)]
    pairs = [(f, g) for f in steps for g in steps[::3]]
    pairs += [(f, g) for f in steps[:4] for g in polys] + [(g, f) for f in steps[:4] for g in polys]
    pairs += [(f, conditional_expectation(f, part)) for f in steps + polys
              for part in off_grid_partitions(stream.substream(90))]
    for f, g in pairs:
        assert _extremal_of(f, g) == _extremal_of(fn_sub(f, g)), (f, g)


def test_extremal_of_a_polynomial_against_itself_is_zero_on_the_unit_interval():
    """f - f vanishes, so every critical cut ties: the largest maximizer 1
    and the smallest minimizer 0 give deviation 0 on (0, 1), exactly."""
    stream = SeededStream(77)
    square = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1)),))
    for f in [square] + [random_poly_limit(stream.substream(t)) for t in range(4)]:
        assert not f.is_step()
        dev, interval = _extremal_of(f, f)
        assert (dev, interval) == (0, (0, 1)) and all(type(v) is Fraction for v in (dev, *interval))


def test_extremal_interval_with_irrational_extremum():
    # f(x) = x^2 deviates from its mean 1/3 with an irrational crossing;
    # the reported interval is rational and its deviation exact
    f = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1)),))
    dev, (lo, hi) = extremal_interval(f, IntervalPartition.trivial())
    assert dev > 0
    g = fn_sub(f, conditional_expectation(f, IntervalPartition.trivial()))
    H = piece_primitive(g)
    assert dev == H(hi) - H(lo)


def test_weak_regularity_constant_is_immediate():
    res = weak_regularity(PiecewisePoly.constant(Fraction(2, 5)), Fraction(1, 10))
    assert res.rounds == 0
    assert res.partition.size() == 1
    assert res.final_deviation == 0


def test_weak_regularity_on_indicator():
    res = weak_regularity(STEP_HALF, Fraction(1, 10))
    assert res.final_deviation <= Fraction(1, 10)
    assert d_box(STEP_HALF, res.approximation) <= Fraction(1, 10)
    assert res.partition.size() <= 1 + 2 * 100


def test_weak_regularity_quantitative_guarantees():
    stream = SeededStream(93)
    for t in range(20):
        f = random_step_irregular(stream.substream(t), max_steps=12)
        for eps in (Fraction(3, 10), Fraction(1, 10)):
            res = weak_regularity(f, eps)
            assert d_box(f, res.approximation) <= eps
            assert res.partition.size() <= 1 + 2 * math.ceil(1 / (eps * eps))
            for before, after in zip(res.energies, res.energies[1:]):
                assert after - before > eps * eps
            assert res.rounds == len(res.energies) - 1


def test_weak_regularity_with_initial_partition_and_validation():
    f = PiecewisePoly.step([1, 0, 1, 0])
    init = IntervalPartition.uniform(4)
    res = weak_regularity(f, Fraction(1, 4), initial=init)
    assert res.rounds == 0 and res.final_deviation == 0
    with pytest.raises(ValueError):
        weak_regularity(f, 0)
    with pytest.raises(ValueError):
        weak_regularity(f, 1)


def test_weak_regularity_polynomial_input():
    f = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1)),))
    res = weak_regularity(f, Fraction(1, 20))
    assert float(d_box(f, res.approximation)) <= 1 / 20 + 1e-9


def test_weak_regularity_guarantees_raise_explicit_errors(monkeypatch):
    # a refinement that does not raise the energy by more than eps^2 is an
    # explicit error, not an assert that python -O would strip
    monkeypatch.setattr(regularity, "energy", lambda f, part: Fraction(0))
    with pytest.raises(RuntimeError, match="raise energy"):
        weak_regularity(STEP_HALF, Fraction(1, 10))
