"""Interval-uniformity and quasi-randomness diagnostics for binary words.

A word w of length n is (d, eps)-uniform when every set of consecutive
positions I satisfies |sum_{i in I} w_i - d|I|| <= eps*n.  At d = p/q the
un-normalized interval discrepancy is (max - min of q*S_j - p*j) / q over
the prefix sums S_j.  For every d, the first argmax is a vertex of the
upper hull of the prefix-sum graph and the first argmin one of its lower
hull, so one scorer, `_score`, reads both off the hull vertices in Python
ints: for `discrepancy`, and for the best uniformity over d (a convex
piecewise-linear minimum) at 0, 1 and the hull edge slopes.

The prefix-sum walk (j, S_j) steps by 0 or 1, so its upper hull turns
only where a run of 1s ends (w_j = 1, w_{j+1} = 0) and its lower hull
only where a run of 0s ends: each hull is built from those corners, 0
and n.  Exponential sums take the 1-positions' angles as one float64
array, by the same float operations in the same order as one expression
per position.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .words import BINARY, Word, _letter_masks, pattern_counts

#: Converse constant: length-3 residual eps forces (d, 42 eps^(1/3))-uniformity.
CONVERSE_CONSTANT = 42


def _require_binary(w: Word) -> None:
    if set(w.alphabet) != {"0", "1"}:
        raise ValueError("uniformity diagnostics require the binary alphabet")


def _hull(points: list[tuple[int, int]], sign: int) -> list[tuple[int, int]]:
    """Upper (sign 1) or lower (sign -1) convex hull of points sorted by x,
    keeping only its vertices."""
    hull: list[tuple[int, int]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if sign * ((y2 - y1) * (x - x1) - (y - y1) * (x2 - x1)) <= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _hulls(w: Word) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Vertex lists of the upper and lower hulls of the prefix-sum walk of
    a nonempty binary word, each from 0, n and its run corners."""
    _require_binary(w)
    if len(w) == 0:
        raise ValueError("word must be nonempty")
    ones = _letter_masks(w, "1")["1"]
    S = np.concatenate(([0], ones.cumsum(dtype=np.int64)))
    hulls = []
    for corners, sign in ((ones[:-1] & ~ones[1:], 1), (~ones[:-1] & ones[1:], -1)):
        x = np.concatenate(([0], np.flatnonzero(corners) + 1, [len(w)]))
        hulls.append(_hull(list(zip(x.tolist(), S[x].tolist())), sign))
    return hulls[0], hulls[1]


@dataclass(frozen=True)
class UniformityReport:
    density: Fraction
    discrepancy: Fraction  # un-normalized; w is (density, discrepancy/n)-uniform
    witness: tuple[int, int]
    length: int

    @property
    def normalized(self) -> Fraction:
        return self.discrepancy / self.length


def _score(hulls, d: Fraction) -> tuple[Fraction, tuple[int, int]]:
    """`discrepancy` at d = p/q of a nonempty word with hulls (upper, lower)
    from `_hulls`: the max of q*y - p*x over upper, minus the min over
    lower, over q; the witness is (1, 1) if their first x agree, else
    (lo + 1, hi) for the two sorted."""
    upper, lower = hulls
    p, q = d.numerator, d.denominator
    tmax, xmax = max((q * y - p * x, -x) for x, y in upper)
    tmin, xmin = min((q * y - p * x, x) for x, y in lower)
    lo, hi = sorted((xmin, -xmax))
    return Fraction(tmax - tmin, q), (1, 1) if lo == hi else (lo + 1, hi)


def discrepancy(w: Word, d) -> tuple[Fraction, tuple[int, int]]:
    """Un-normalized sup over intervals of |sum_I w - d|I||, with a
    1-based closed witness interval attaining it (`_score` on `_hulls`)."""
    _require_binary(w)
    d = Fraction(d)
    if len(w) == 0:
        return Fraction(0), (1, 0)
    return _score(_hulls(w), d)


def _best(hulls, n: int) -> UniformityReport:
    """`best_uniformity` of a word of length n from its `_hulls`: the first
    strict minimum over the sorted candidates."""
    cands = {Fraction(0), Fraction(1), *(
        Fraction(y2 - y1, x2 - x1) for hull in hulls for (x1, y1), (x2, y2) in zip(hull, hull[1:]))}
    d, (disc, wit) = min(((d, _score(hulls, d)) for d in sorted(cands)), key=lambda c: c[1][0])
    return UniformityReport(density=d, discrepancy=disc, witness=wit, length=n)


def best_uniformity(w: Word) -> UniformityReport:
    """Density d in [0, 1] minimizing the interval discrepancy, found
    exactly: the discrepancy is convex piecewise-linear in d, so the
    minimum sits at a breakpoint contributed by a convex-hull edge of
    the prefix-sum graph, whose vertices are run corners (`_hulls`)."""
    return _best(_hulls(w), len(w))


def minimizer_residuals(w: Word, d) -> dict[str, Fraction]:
    """Length-3 pattern-count residuals |binom(w,u) - d^s (1-d)^(3-s) C(n,3)|
    normalized by n^3, keyed by pattern."""
    _require_binary(w)
    d = Fraction(d)
    n = len(w)
    if n < 3:
        raise ValueError("need length >= 3")
    pats = list(itertools.product(BINARY, repeat=3))
    out = {}
    for u, count in zip(pats, pattern_counts(w, pats)):
        s = u.count("1")
        expected = d**s * (1 - d) ** (3 - s) * math.comb(n, 3)
        out["".join(u)] = Fraction(abs(count - expected), n**3)
    return out


def exponential_sum(w: Word, k: int) -> complex:
    """(1/n) sum_j w_j exp(2 pi i k j / n), compensated summation: the
    angles ((2 pi k) j) / n of the 1-positions j as one float64 array,
    then math.cos, math.sin and math.fsum on them as Python floats."""
    _require_binary(w)
    n = len(w)
    j = np.flatnonzero(_letter_masks(w, "1")["1"]) + 1
    # without a 1, 2 pi k is never computed: a k beyond the float range gives 0j
    ang = (2 * math.pi * k * j / n).tolist() if len(j) else []
    return complex(math.fsum(map(math.cos, ang)) / n, math.fsum(map(math.sin, ang)) / n)


@dataclass(frozen=True)
class QuasirandomnessReport:
    density: Fraction
    discrepancy: Fraction
    witness: tuple[int, int]
    residuals: dict[str, Fraction]
    residual_eps: Fraction
    converse_bound: float
    exponential_sums: dict[int, complex]
    best: UniformityReport


def quasirandomness_report(w: Word, d=None, num_frequencies: int = 4) -> QuasirandomnessReport:
    """One-stop diagnostic bundle: interval discrepancy at d and the best
    uniformity, both scored on one build of the hulls, length-3 count
    residuals with the 42 eps^(1/3) converse bound, and low-frequency
    exponential sums."""
    hulls, n = _hulls(w), len(w)
    if num_frequencies < 0:
        raise ValueError(f"the number of frequencies must be nonnegative, got {num_frequencies}")
    if d is None:
        d = Fraction(w.weight(), n)
    d = Fraction(d)
    disc, wit = _score(hulls, d)
    res = minimizer_residuals(w, d)
    eps = max(res.values())
    return QuasirandomnessReport(
        density=d,
        discrepancy=disc / n,
        witness=wit,
        residuals=res,
        residual_eps=eps,
        converse_bound=CONVERSE_CONSTANT * float(eps) ** (1 / 3),
        exponential_sums={k: exponential_sum(w, k) for k in range(1, num_frequencies + 1)},
        best=_best(hulls, n),
    )
