"""Dense univariate polynomials with exact rational coefficients.

A polynomial is a tuple of Fractions in ascending order of degree:
(c0, c1, c2) means c0 + c1*x + c2*x**2.  The zero polynomial is ().
Root extraction is exact through degree 2 whenever the roots are
rational; otherwise numeric roots are returned and flagged as such.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def normalize(p) -> Poly:
    coeffs = [Fraction(c) for c in p]
    while coeffs and coeffs[-1] == 0:
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


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


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


def ppow(a: Poly, n: int) -> Poly:
    res = ONE
    for _ in range(n):
        res = pmul(res, a)
    return res


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


def pantider(p: Poly) -> Poly:
    """Antiderivative with constant term 0."""
    if not p:
        return ZERO
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))


def pintegrate(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    P = pantider(p)
    return peval(P, hi) - peval(P, lo)


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _rational_roots_int(coeffs: list[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial (rational root theorem)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    coeffs = coeffs[shift:]
    roots = [Fraction(0)] if shift else []
    lead, const = abs(coeffs[-1]), abs(coeffs[0])

    def divisors(n):
        ds = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                ds.append(d)
                ds.append(n // d)
            d += 1
        return ds

    for pn in divisors(const):
        for qd in divisors(lead):
            for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                if cand in roots:
                    continue
                if peval(tuple(Fraction(c) for c in coeffs), cand) == 0:
                    roots.append(cand)
    return roots


def real_roots(p: Poly, lo: Fraction, hi: Fraction):
    """Real roots of p in the open interval (lo, hi).

    Returns (exact, approximate): exact roots are Fractions; approximate
    roots are floats for which no rational representation was found.
    Exactness is guaranteed through degree 2; for higher degree, rational
    roots are recovered when they exist and any remainder is numeric.
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

    # degree >= 3: peel off rational roots, then go numeric
    scale = math.lcm(*(c.denominator for c in p))
    int_coeffs = [int(c * scale) for c in p]
    for r in _rational_roots_int(list(int_coeffs)):
        if lo < r < hi:
            exact.append(r)
    rem = p
    for r in sorted(exact):
        rem = _pdiv_linear(rem, r)
    for z in np.roots(list(reversed([float(c) for c in rem]))):
        if abs(z.imag) < 1e-12 and float(lo) < z.real < float(hi):
            if all(abs(z.real - float(e)) > 1e-12 for e in exact):
                approx.append(float(z.real))
    return exact, approx


def _pdiv_linear(p: Poly, r: Fraction) -> Poly:
    """Synthetic division of p by (x - r); assumes r is a root."""
    out = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    out.pop()  # remainder
    return normalize(reversed([c for c in out]))
