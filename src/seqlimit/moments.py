"""Joint moments of (x, F(x)) from pattern densities, and forcibility.

The moment of x^i F(x)^j of a limit function f with primitive F is a
fixed rational combination of pattern densities of length i+j+1: the
patterns are the binary words whose first i+j letters contain at least
j ones (the last letter is unconstrained), with weight
i! j! / (i+j+1)! * C(ones, j).

A forcibility certificate for piecewise-polynomial f packages the
finitely many pattern densities that pin f down among all limit
functions with the same branch structure: with Q_1, ..., Q_k the
distinct primitive branches of f, the polynomial
P(x, y) = prod_i (y - Q_i(x))^2 has integral of P(x, H(x)) expressible
in pattern densities of any candidate with primitive H, vanishing
exactly when H follows the branches.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import poly
from .piecewise import PiecewisePoly, _densities, d1_fn
from .words import Word

MAX_PATTERN_LENGTH = 12


@dataclass(frozen=True)
class MomentCombination:
    i: int
    j: int
    terms: tuple[tuple[Word, Fraction], ...]

    def evaluate(self, densities: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for u, c in self.terms:
            key = str(u)
            if key not in densities:
                raise KeyError(f"missing pattern density for {key}")
            total += c * Fraction(densities[key])
        return total


def moment_words(i: int, j: int) -> MomentCombination:
    """The moment identity (acceptance criterion 06): the exact
    pattern-density combination equal to the moment of x^i F(x)^j for
    every limit function f with primitive F."""
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    n = i + j + 1
    if n > MAX_PATTERN_LENGTH:
        raise ValueError(f"pattern length {n} exceeds cap {MAX_PATTERN_LENGTH}")
    base = Fraction(math.factorial(i) * math.factorial(j), math.factorial(n))
    counted = ((Word._from_codes(bits), bits[:-1].count(1)) for bits in itertools.product((0, 1), repeat=n))
    terms = tuple((u, base * math.comb(ones, j)) for u, ones in counted if ones >= j)
    return MomentCombination(i=i, j=j, terms=terms)


def limit_densities(f: PiecewisePoly, words) -> dict[str, Fraction]:
    """Pattern densities of f for a collection of binary patterns, each
    equal to `t_density_limit(u, f)`, whose checks `_densities` runs once
    for the batch: the patterns' alphabet, then f's range."""
    patterns = [u if isinstance(u, Word) else Word.from_string(u) for u in words]
    return dict(zip(map(str, patterns), _densities(patterns, f)))


# -- forcibility -------------------------------------------------------


@dataclass(frozen=True)
class ForcibilityCertificate:
    branches: tuple[poly.Poly, ...]
    words: tuple[Word, ...]
    weights: tuple[Fraction, ...]  # per word: its coefficient in the residual

    def residual(self, densities: Mapping[str, Fraction]) -> Fraction:
        """Integral of P(x, H(x)) over [0, 1] for the candidate whose
        pattern densities are given; nonnegative, zero iff the candidate
        primitive follows the branch polynomials almost everywhere."""
        return sum((w * densities[str(u)] for u, w in zip(self.words, self.weights)), Fraction(0))


def forcibility_certificate(f: PiecewisePoly) -> ForcibilityCertificate:
    """Certificate words and residual functional for a piecewise-
    polynomial limit function f: each monomial x^a y^b of P contributes
    its coefficient times the weight of each pattern in the moment of
    x^a F(x)^b, coeff * a! b! / n! * C(s, b) on a word of length
    n = a + b + 1 with s >= b ones before its last letter, summed into
    one weight per (n, s) and so per word."""
    F = f.antiderivative()
    branches = list(dict.fromkeys(F.pieces))
    # P(x, y) = prod (y - Q)^2, expanded as polynomials in y whose
    # coefficients are polynomials in x
    ycoeffs: list[poly.Poly] = [poly.ONE]
    for q in branches:
        sq = poly.pmul(q, q)
        nq2 = poly.pscale(q, -2)
        new = [poly.ZERO] * (len(ycoeffs) + 2)
        for b, c in enumerate(ycoeffs):
            new[b] = poly.padd(new[b], poly.pmul(c, sq))
            new[b + 1] = poly.padd(new[b + 1], poly.pmul(c, nq2))
            new[b + 2] = poly.padd(new[b + 2], c)
        ycoeffs = new
    exponents = [(a, b, coeff) for b, c in enumerate(ycoeffs)
                 for a, coeff in enumerate(c) if coeff != 0]
    max_len = max(a + b + 1 for a, b, _ in exponents)
    if max_len > MAX_PATTERN_LENGTH:
        raise ValueError(
            f"certificate needs patterns of length {max_len} > cap {MAX_PATTERN_LENGTH}"
        )
    table: dict[tuple[int, int], Fraction] = {}
    for a, b, coeff in exponents:
        n = a + b + 1
        base = coeff * Fraction(math.factorial(a) * math.factorial(b), math.factorial(n))
        for s in range(b, n):
            table[n, s] = table.get((n, s), 0) + base * math.comb(s, b)
    weights = {Word._from_codes(bits): table[key] for n in {n for n, _ in table}
               for bits in itertools.product((0, 1), repeat=n) if (key := (n, bits[:-1].count(1))) in table}
    words = sorted(weights, key=operator.attrgetter("codes"))  # binary codes sort as the text does
    # structural budget: monomial bidegrees are bounded by twice the sum
    # of branch degrees, so no pattern exceeds 2*d_sum + 1 letters and the
    # word list stays finite and small
    d_sum = sum(max(poly.degree(q), 1) for q in branches)
    if max_len > 2 * d_sum + 1:
        raise RuntimeError("certificate pattern length exceeds budget")
    if len(words) > 2 ** (2 * d_sum + 2):
        raise RuntimeError("certificate exceeds its word budget")
    return ForcibilityCertificate(
        branches=tuple(branches), words=tuple(words), weights=tuple(weights[u] for u in words)
    )


@dataclass(frozen=True)
class ForcedVerdict:
    densities_match: bool
    witness: Word | None
    residual: Fraction
    d1: Fraction | float | None


def check_forced(
    f: PiecewisePoly,
    h: PiecewisePoly,
    cert: ForcibilityCertificate | None = None,
    df: Mapping[str, Fraction] | None = None,
) -> ForcedVerdict:
    """Compare a candidate h against f on the certificate words.

    A density mismatch distinguishes the two outright (witness reported).
    When all certificate densities agree, the candidate satisfies the
    same branch constraints; the L1 distance is reported as a mismatch
    indicator rather than constructing further distinguishing words.
    `df` may pass f's densities on the certificate words when the caller
    already has them.
    """
    if cert is None:
        cert = forcibility_certificate(f)
    if df is None:
        df = limit_densities(f, cert.words)
    dh = limit_densities(h, cert.words)
    witness = next((u for u in cert.words if df[str(u)] != dh[str(u)]), None)
    return ForcedVerdict(
        densities_match=witness is None,
        witness=witness,
        residual=cert.residual(dh),
        d1=d1_fn(f, h),
    )
