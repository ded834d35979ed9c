"""Interval-uniformity and quasi-randomness diagnostics for binary words.

A word w of length n is (d, eps)-uniform when every set of consecutive
positions I satisfies |sum_{i in I} w_i - d|I|| <= eps*n.  The
un-normalized interval discrepancy is computed exactly in O(n) from
prefix sums, swept as Python ints; the best achievable uniformity over
d is the minimum of a convex piecewise-linear function and is located
exactly via the two convex hulls of the prefix-sum graph.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .piecewise import PiecewisePoly, grid_primitive
from .words import BINARY, Word, pattern_counts, subsequence_count

#: Forward constant: pattern-count error is at most 5 * eps * n^l for
#: every pattern of length l when w is (d, eps)-uniform.
FORWARD_CONSTANT = 5

#: Converse constant: length-3 residual eps forces (d, 42 eps^(1/3))-uniformity.
CONVERSE_CONSTANT = 42


def _require_binary(w: Word) -> None:
    if set(w.alphabet) != {"0", "1"}:
        raise ValueError("uniformity diagnostics require the binary alphabet")


def discrepancy(w: Word, d) -> tuple[Fraction, tuple[int, int]]:
    """Un-normalized sup over intervals of |sum_I w - d|I||, with a
    1-based closed witness interval attaining it."""
    _require_binary(w)
    d = Fraction(d)
    if len(w) == 0:
        return Fraction(0), (1, 0)
    # t[j] = q*S_j - p*j for d = p/q and the prefix sums S_j of w
    _, t, _, q = grid_primitive(w, PiecewisePoly.constant(d))
    jmax, jmin = t.index(max(t)), t.index(min(t))
    if jmax == jmin:
        return Fraction(0), (1, 1)
    lo, hi = sorted((jmin, jmax))
    return Fraction(t[jmax] - t[jmin], q), (lo + 1, hi)


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


@dataclass(frozen=True)
class UniformityReport:
    density: Fraction
    discrepancy: Fraction  # un-normalized; w is (density, discrepancy/n)-uniform
    witness: tuple[int, int]
    length: int

    @property
    def normalized(self) -> Fraction:
        return self.discrepancy / self.length


def best_uniformity(w: Word) -> UniformityReport:
    """Density d in [0, 1] minimizing the interval discrepancy, found
    exactly: the discrepancy is convex piecewise-linear in d, so the
    minimum sits at a breakpoint contributed by a convex-hull edge of
    the prefix-sum graph."""
    _require_binary(w)
    n = len(w)
    if n == 0:
        raise ValueError("word must be nonempty")
    pts = list(enumerate(grid_primitive(w)[1]))
    upper, lower = _hull(pts, 1), _hull(pts, -1)
    cands = {Fraction(0), Fraction(1)}
    for hull in (upper, lower):
        cands.update(Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    # disc(p/q) = (max_j - min_j of q*S_j - p*j) / q; the first argmax is an
    # upper-hull vertex and the first argmin a lower-hull vertex
    best = None
    for d in sorted(cands):
        p, q = d.numerator, d.denominator
        tmax, jmax = max((q * y - p * x, -x) for x, y in upper)
        tmin, jmin = min((q * y - p * x, x) for x, y in lower)
        disc = Fraction(tmax - tmin, q)
        if best is None or disc < best[0]:
            best = (disc, d, jmin, -jmax)
    disc, d, jmin, jmax = best
    lo, hi = sorted((jmin, jmax))
    wit = (1, 1) if lo == hi else (lo + 1, hi)
    return UniformityReport(density=d, discrepancy=disc, witness=wit, length=n)


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


def forward_pattern_bound(w: Word, u: Word, d, eps) -> tuple[Fraction, Fraction]:
    """(actual residual, bound 5*eps*n^l) for the count of u in a
    (d, eps)-uniform word."""
    _require_binary(w)
    d, eps = Fraction(d), Fraction(eps)
    n, l = len(w), len(u)
    s = u.weight()
    expected = d**s * (1 - d) ** (l - s) * math.comb(n, l)
    actual = abs(subsequence_count(w, u) - expected)
    return actual, FORWARD_CONSTANT * eps * Fraction(n) ** l


def exponential_sum(w: Word, k: int) -> complex:
    """(1/n) sum_j w_j exp(2 pi i k j / n), compensated summation."""
    _require_binary(w)
    n = len(w)
    re = math.fsum(
        math.cos(2 * math.pi * k * j / n) for j, c in enumerate(w.letters, 1) if c == "1"
    )
    im = math.fsum(
        math.sin(2 * math.pi * k * j / n) for j, c in enumerate(w.letters, 1) if c == "1"
    )
    return complex(re / n, im / n)


def equidistribution_error(w: Word, phi: list[tuple[Fraction, Fraction]], d=None) -> float:
    """|(1/n) sum_j w_j phi(j/n) - d * integral(phi)| for a piecewise-linear
    circle function phi given by (x, value) nodes with phi(0) = phi(1)."""
    _require_binary(w)
    nodes = [(Fraction(x), Fraction(y)) for x, y in phi]
    if nodes[0][0] != 0 or nodes[-1][0] != 1:
        raise ValueError("nodes must span [0, 1]")
    if any(a[0] >= b[0] for a, b in zip(nodes, nodes[1:])):
        raise ValueError("node abscissae must be strictly increasing")
    if nodes[0][1] != nodes[-1][1]:
        raise ValueError("circle function needs phi(0) == phi(1)")
    n = len(w)
    if d is None:
        d = Fraction(w.weight(), n)
    d = Fraction(d)

    def phi_at(x: float) -> float:
        for (x1, y1), (x2, y2) in zip(nodes, nodes[1:]):
            if x <= float(x2):
                t = (x - float(x1)) / float(x2 - x1)
                return float(y1) + t * float(y2 - y1)
        return float(nodes[-1][1])

    integral = sum((y1 + y2) / 2 * (x2 - x1) for (x1, y1), (x2, y2) in zip(nodes, nodes[1:]))
    avg = math.fsum(phi_at(j / n) for j, c in enumerate(w.letters, 1) if c == "1") / n
    return abs(avg - float(d) * float(integral))


def cayley_walk_count(w: Word, u: Word) -> int:
    """Number of induced u-walks in the circulant graph of w on Z_{2n};
    equals 2n * binom(w, u) exactly."""
    _require_binary(w)
    return 2 * len(w) * subsequence_count(w, u)


@dataclass(frozen=True)
class InverseCSReport:
    hypothesis_holds: bool
    ratio: float
    bad_indices: int
    bad_bound: float


def inverse_cs_check(g, h, eps: float) -> InverseCSReport:
    """Check the stability version of Cauchy-Schwarz: when <g,h>^2 >=
    |g|^2 |h|^2 - eps n^3 |h|^2, all but eps^(1/3) n indices satisfy
    |g_i - lambda h_i| <= eps^(1/3) n for lambda = <g,h>/<h,h>."""
    g = [float(x) for x in g]
    h = [float(x) for x in h]
    if len(g) != len(h):
        raise ValueError("sequences must have equal length")
    n = len(g)
    gh = math.fsum(a * b for a, b in zip(g, h))
    gg = math.fsum(a * a for a in g)
    hh = math.fsum(b * b for b in h)
    holds = gh * gh >= gg * hh - eps * n**3 * hh
    lam = gh / hh if hh else 0.0
    cube = eps ** (1 / 3)
    bad = sum(1 for a, b in zip(g, h) if abs(a - lam * b) > cube * n)
    return InverseCSReport(
        hypothesis_holds=holds,
        ratio=lam,
        bad_indices=bad,
        bad_bound=cube * n,
    )


@dataclass(frozen=True)
class QuasirandomnessReport:
    density: Fraction
    discrepancy: Fraction
    witness: tuple[int, int]
    residuals: dict[str, Fraction]
    residual_eps: Fraction
    converse_bound: float
    exponential_sums: dict[int, complex]


def quasirandomness_report(w: Word, d=None, num_frequencies: int = 4) -> QuasirandomnessReport:
    """One-stop diagnostic bundle: interval discrepancy, length-3 count
    residuals with the 42 eps^(1/3) converse bound, and low-frequency
    exponential sums."""
    _require_binary(w)
    n = len(w)
    if n == 0:
        raise ValueError("word must be nonempty")
    if num_frequencies < 0:
        raise ValueError(f"the number of frequencies must be nonnegative, got {num_frequencies}")
    if d is None:
        d = Fraction(w.weight(), n)
    d = Fraction(d)
    disc, wit = discrepancy(w, d)
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
    )
