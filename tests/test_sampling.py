"""f-random words and concentration experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqlimit import (
    PiecewisePoly,
    SeededStream,
    d_box,
    f_random_word,
    f_random_word_vector,
    subsequence_tail_experiment,
    tail_experiment_dbox,
)
from seqlimit.piecewise import LimitVector
from seqlimit.sampling import _eval_many, tail_floor

STEP_HALF = PiecewisePoly.step([1, 0])


def loop_eval_many(f: PiecewisePoly, xs: np.ndarray) -> np.ndarray:
    """Scalar Horner loop per point: the reference for `_eval_many`."""
    bps = np.array([float(b) for b in f.breakpoints])
    idx = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(f.pieces) - 1)
    out = np.empty_like(xs)
    for i, (x, k) in enumerate(zip(xs, idx)):
        acc = 0.0
        for c in reversed(f.pieces[k]):
            acc = acc * x + float(c)
        out[i] = acc
    return out


def test_vectorised_horner_is_bitwise_equal_to_the_loop():
    rng = SeededStream(61).generator()
    for t in range(300):
        m = int(rng.integers(1, 7))
        max_len = 2 if t % 3 == 0 else 6  # every third f a step function
        cuts = sorted({Fraction(int(c), 97) for c in rng.integers(1, 97, size=m - 1)})
        bps = [Fraction(0), *cuts, Fraction(1)]
        pieces = [
            tuple(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 40)))
                  for _ in range(int(rng.integers(0, max_len))))
            for _ in bps[:-1]
        ]
        f = PiecewisePoly(tuple(bps), tuple(pieces))
        xs = np.concatenate([rng.random(200), [float(b) for b in bps]])
        assert _eval_many(f, xs).tobytes() == loop_eval_many(f, xs).tobytes()


def test_degenerate_limits_give_constant_words():
    s = SeededStream(41)
    assert str(f_random_word(PiecewisePoly.constant(1), 30, s)) == "1" * 30
    assert str(f_random_word(PiecewisePoly.constant(0), 30, s)) == "0" * 30
    with pytest.raises(ValueError):
        f_random_word(PiecewisePoly.constant(1), 0, s)


def test_indicator_limit_gives_sorted_block_words():
    # f = 1 on [0, 1/2]: every sampled word is ones followed by zeros
    s = SeededStream(42)
    for t in range(20):
        w = str(f_random_word(STEP_HALF, 50, s.substream(t)))
        assert w == "1" * w.count("1") + "0" * w.count("0")


def test_letter_frequency_matches_integral():
    # weight of an f-random word is Binomial(n, integral f): 4-sigma check
    f = PiecewisePoly.constant(Fraction(1, 3))
    s = SeededStream(43)
    n, trials = 200, 100
    total = sum(f_random_word(f, n, s.substream(t)).weight() for t in range(trials))
    mean = n * trials / 3
    sigma = math.sqrt(n * trials * (1 / 3) * (2 / 3))
    assert abs(total - mean) < 4 * sigma


def test_determinism_and_substream_independence():
    f = PiecewisePoly.step([Fraction(1, 4), Fraction(3, 4)])
    a = f_random_word(f, 40, SeededStream(7, 3))
    b = f_random_word(f, 40, SeededStream(7, 3))
    c = f_random_word(f, 40, SeededStream(7, 4))
    assert a == b and a != c


def test_seeds_and_streams_past_2_63_key_philox_exactly():
    # a key of one value below 2**63 and one above went through float64
    # and was rounded, so neighbouring seeds drew the same words
    for seed, stream in ((2**63 + 1, 0), (2**63 + 2, 0), (5, 2**63 + 7), (2**64 - 1, 3), (2**64 + 9, -1)):
        key = SeededStream(seed, stream).generator().bit_generator.state["state"]["key"]
        assert key.tolist() == [seed % 2**64, stream % 2**64]
    f = PiecewisePoly.step([Fraction(1, 4), Fraction(3, 4)])
    assert f_random_word(f, 40, SeededStream(2**63 + 1)) != f_random_word(f, 40, SeededStream(2**63 + 2))


def _plain(state):
    """A bit generator's state with its arrays as lists, to compare with ==."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


def test_substream_generators_draw_as_each_substream_generator():
    bounds = np.arange(1, 8)  # 7 draws of 32 bits: the last leaves half of a 64-bit output unused
    for seed, stream in ((3, 4), (2**63 - 1, 2**63 - 2), (2**63, 2**63 + 5), (2**64 - 1, 2**64 - 1), (2**64 + 5, 2**64 - 2)):
        s = SeededStream(seed, stream)
        for t, rng in enumerate(s.substream_generators(6)):
            fresh = s.substream(t).generator()
            assert _plain(rng.bit_generator.state) == _plain(fresh.bit_generator.state)
            assert rng.integers(0, bounds).tolist() == fresh.integers(0, bounds).tolist()
            assert rng.random(3).tolist() == fresh.random(3).tolist()
        assert t == 5


def test_vector_sampler_ternary():
    third = PiecewisePoly.constant(Fraction(1, 3))
    F = LimitVector({"a": third, "b": third, "c": third})
    s = SeededStream(44)
    w = f_random_word_vector(F, 600, s)
    assert w.alphabet == ("a", "b", "c")
    for letter in "abc":
        assert abs(w.weight(letter) - 200) < 4 * math.sqrt(600 * (1 / 3) * (2 / 3))


def test_empirical_limit_converges_in_box_distance():
    # median d_box from the word's step function to f decreases as the
    # word length quadruples
    s = SeededStream(45)
    medians = []
    for scale, n in enumerate((100, 400, 1600)):
        ds = [
            float(d_box(f_random_word(STEP_HALF, n, s.substream(100 * scale + t)), STEP_HALF))
            for t in range(15)
        ]
        medians.append(sorted(ds)[7])
    assert medians[0] > medians[1] > medians[2]


def test_tail_experiment_dbox():
    rep = tail_experiment_dbox(STEP_HALF, 200, 0.1, 60, SeededStream(46))
    assert rep.trials == 60 and rep.prng == "philox4x64" and rep.seed == 46
    assert rep.threshold == pytest.approx(0.8)
    assert 0 <= rep.exceed_fraction <= 1
    sigma = math.sqrt(rep.bound * (1 - rep.bound) / rep.trials + 1e-12)
    assert rep.exceed_fraction <= rep.bound + 3 * sigma + 1e-12
    with pytest.raises(ValueError):
        tail_experiment_dbox(STEP_HALF, 200, 0.001, 5, SeededStream(46))


def test_subsequence_tail_experiment_and_floor():
    w = f_random_word(STEP_HALF, 2000, SeededStream(47))
    rep = subsequence_tail_experiment(w, 100, 0.5, 40, SeededStream(48))
    assert rep.trials == 40
    assert 0 <= rep.exceed_fraction <= rep.bound + 0.25  # bound is near-vacuous here
    assert "tail floor" in rep.note and tail_floor(0.5) == 1200
    assert subsequence_tail_experiment(w, 1500, 0.9, 5, SeededStream(49)).note == ""

