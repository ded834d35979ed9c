"""Dense univariate polynomials with exact rational coefficients, for the
pieces in x of limit functions and their real roots (sums and primitives
of limit functions are taken on the integer cells of `piecewise`).

A polynomial is a tuple of Fractions in ascending order of degree:
(c0, c1, c2) means c0 + c1*x + c2*x**2.  The zero polynomial is ().
Rational roots are exact at every degree: in closed form through degree
2, by the rational root theorem on integer coefficients above.  Only
irrational roots are floats, flagged as such: math.sqrt of the
discriminant at degree 2, np.roots once the rational roots are divided out.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def normalize(p) -> Poly:
    """p as a Poly: its coefficients as Fractions (one already a Fraction is
    kept), without trailing zeros."""
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in p]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def degree(p: Poly) -> int:
    """Degree of p, with the convention deg 0 = -1."""
    return len(p) - 1


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for i, c in enumerate(b):
        res[i] += c
    return normalize(res)


def pscale(a: Poly, s) -> Poly:
    s = Fraction(s)
    if s == 0:
        return ZERO
    return tuple(c * s for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    res = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            res[i + j] += ca * cb
    return normalize(res)


def peval(p: Poly, x):
    """Evaluate by Horner's rule.  Exact for Fraction x, float for float x."""
    if isinstance(x, float):
        p = [float(c) for c in p]
    acc = p[-1] if p else (0.0 if isinstance(x, float) else Fraction(0))
    for c in p[-2::-1]:
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return tuple(c * (i + 1) for i, c in enumerate(p[1:]))


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational q >= 0, or None if irrational."""
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def _divisors(n: int) -> list[int]:
    """The positive divisors of n > 0, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small if d * d != n]


def _rational_roots_int(coeffs: list[int], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """The rational roots in (lo, hi), sorted, of sum c_i x^i for integers
    c_i, the last nonzero.  A root s/q in lowest terms has |s| dividing
    the lowest nonzero c_i and q the leading one (rational root theorem);
    each such candidate is placed in (lo, hi) and tested in integers."""
    shift = next(i for i, c in enumerate(coeffs) if c)
    coeffs = coeffs[shift:]
    roots = [Fraction(0)] if shift and lo < 0 < hi else []
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    qs = _divisors(abs(coeffs[-1]))
    for p in _divisors(abs(coeffs[0])):
        for q in qs:
            for s in (p, -p):
                if ln * q < s * ld and s * hd < hn * q and math.gcd(p, q) == 1:
                    acc, qpow = coeffs[-1], 1  # q^d * c(s/q), by Horner in s
                    for c in reversed(coeffs[:-1]):
                        qpow *= q
                        acc = acc * s + c * qpow
                    if acc == 0:
                        roots.append(Fraction(s, q))
    return sorted(roots)


def real_roots(p: Poly, lo: Fraction, hi: Fraction):
    """Real roots of p in the open interval (lo, hi).

    Returns (exact, approximate): exact roots are Fractions, the rational
    roots (sorted from degree 3 on); approximate roots are floats, the
    irrational ones.
    """
    p = normalize(p)
    d = degree(p)
    exact: list[Fraction] = []
    approx: list[float] = []
    if d <= 0:
        return exact, approx
    if d == 1:
        r = -p[0] / p[1]
        if lo < r < hi:
            exact.append(r)
        return exact, approx
    if d == 2:
        c, b, a = p
        disc = b * b - 4 * a * c
        if disc < 0:
            return exact, approx
        s = _frac_sqrt(disc)
        if s is not None:
            for r in ((-b + s) / (2 * a), (-b - s) / (2 * a)):
                if lo < r < hi and r not in exact:
                    exact.append(r)
        else:
            sf = math.sqrt(float(disc))
            for rf in ((float(-b) + sf) / (2 * float(a)),
                       (float(-b) - sf) / (2 * float(a))):
                if float(lo) < rf < float(hi):
                    approx.append(rf)
        return exact, approx

    # degree >= 3: divide out the rational roots, then go numeric
    scale = math.lcm(*(c.denominator for c in p))
    exact = _rational_roots_int([c.numerator * (scale // c.denominator) for c in p], lo, hi)
    rem = p
    for r in exact:
        rem = _pdiv_linear(rem, r)
    for z in np.roots(list(reversed([float(c) for c in rem]))):
        if abs(z.imag) < 1e-12 and float(lo) < z.real < float(hi):
            if all(abs(z.real - float(e)) > 1e-12 for e in exact):
                approx.append(float(z.real))
    return exact, approx


def _pdiv_linear(p: Poly, r: Fraction) -> Poly:
    """Synthetic division of p by (x - r); assumes r is a root."""
    out, acc = [], Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    return normalize(reversed(out[:-1]))  # out[-1] is the remainder
