"""Random words driven by limit functions, with concentration experiments.

An f-random word of length n: draw n positions X uniformly on [0, 1],
attach to each a letter with probabilities given by the limit (vector)
at X, then read the letters off in increasing order of position.  The
empirical step function of such a word concentrates around f in box
distance, with explicit exponential tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import LimitVector, PiecewisePoly, d_box
from .streams import PRNG_ID, SeededStream
from .words import Word, random_subsequence

#: Below this subsequence length the subsequence tail bound is vacuous
#: in practice; experiments report when length < tail_floor(eps).
def tail_floor(eps: float) -> int:
    return math.ceil(300 / eps**2)


def _eval_many(f: PiecewisePoly, xs: np.ndarray) -> np.ndarray:
    bps = np.array([float(b) for b in f.breakpoints])
    idx = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, len(f.pieces) - 1)
    # Horner from the top degree down over cols[j], coefficient j of every
    # piece; shorter pieces are padded with leading zeros, which keep acc
    # at 0.0 (0.0 * x + 0.0 = 0.0 for x >= 0), so each x sees the same
    # float operations as a scalar Horner loop over its own piece, and a
    # step function costs one lookup
    width = max(1, *map(len, f.pieces))
    cols = np.array([[float(p[j]) if j < len(p) else 0.0 for p in f.pieces] for j in range(width)])
    acc = cols[-1][idx]
    for col in cols[-2::-1]:
        acc = acc * xs + col[idx]
    return acc


def f_random_word(f: PiecewisePoly, n: int, stream: SeededStream) -> Word:
    """Binary f-random word of length n."""
    if n < 1:
        raise ValueError("length must be >= 1")
    rng = stream.generator()
    xs = rng.random(n)
    ys = rng.random(n) < _eval_many(f, xs)
    order = np.lexsort((np.arange(n), xs))
    return Word._from_codes(ys[order])


def f_random_word_vector(F: LimitVector, n: int, stream: SeededStream) -> Word:
    """f-random word over an arbitrary alphabet from a limit vector."""
    if n < 1:
        raise ValueError("length must be >= 1")
    rng = stream.generator()
    xs = rng.random(n)
    us = rng.random(n)
    cum = np.zeros(n)
    choice = np.full(n, len(F.alphabet) - 1)
    decided = np.zeros(n, dtype=bool)
    for j, letter in enumerate(F.alphabet[:-1]):
        cum = cum + _eval_many(F[letter], xs)
        hit = (~decided) & (us < cum)
        choice[hit] = j
        decided |= hit
    order = np.lexsort((np.arange(n), xs))
    return Word._from_codes(choice[order], F.alphabet)


@dataclass(frozen=True)
class TailReport:
    trials: int
    threshold: float
    exceed_fraction: float
    bound: float
    prng: str
    seed: int
    note: str = ""


def _exceed_fraction(trials: int, exceeds) -> float:
    """Share of the trials t = 0, ..., trials - 1 for which exceeds(t) holds."""
    if trials < 1:
        raise ValueError(f"the tail experiment needs at least 1 trial, got {trials}")
    return sum(map(exceeds, range(trials))) / trials


def tail_experiment_dbox(
    f: PiecewisePoly, n: int, a: float, trials: int, stream: SeededStream
) -> TailReport:
    """Empirical P(d_box(f_w, f) >= 8a) over f-random words of length n,
    against the bound 4 n exp(-2 a^2 n), valid for a >= 1/n."""
    if n < 1:
        raise ValueError(f"the tail experiment needs word length n >= 1, got {n}")
    if a < 1.0 / n:
        raise ValueError("tail parameter must satisfy a >= 1/n")
    threshold = 8.0 * a
    exceed = _exceed_fraction(
        trials, lambda t: float(d_box(f_random_word(f, n, stream.substream(t)), f)) >= threshold)
    bound = 4 * n * math.exp(-2 * a * a * n)
    return TailReport(
        trials=trials,
        threshold=threshold,
        exceed_fraction=exceed,
        bound=min(bound, 1.0),
        prng=PRNG_ID,
        seed=stream.seed,
    )


def subsequence_tail_experiment(
    w: Word, length: int, eps: float, trials: int, stream: SeededStream
) -> TailReport:
    """Empirical P(d_box(f_u, f_w) >= eps) over uniformly random
    subsequences u of the given length, against 4 l exp(-eps^2 l / 300)."""
    exceed = _exceed_fraction(
        trials, lambda t: float(d_box(random_subsequence(w, length, stream.substream(t)), w)) >= eps)
    bound = 4 * length * math.exp(-eps * eps * length / 300)
    note = ""
    if length < tail_floor(eps):
        note = f"length {length} below tail floor {tail_floor(eps)}; bound is vacuous"
    return TailReport(
        trials=trials,
        threshold=eps,
        exceed_fraction=exceed,
        bound=min(bound, 1.0),
        prng=PRNG_ID,
        seed=stream.seed,
        note=note,
    )

