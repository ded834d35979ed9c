"""Exact polynomial arithmetic and root extraction."""

import math
import random
from fractions import Fraction

import numpy as np

from seqlimit import poly

from util import X, pantider, pintegrate, ppow, psub


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_arithmetic_basics():
    p = F(1, 2)  # 1 + 2x
    q = F(0, 0, 3)  # 3x^2
    assert poly.padd(p, q) == F(1, 2, 3)
    assert psub(p, p) == ()
    assert poly.pmul(p, q) == F(0, 0, 3, 6)
    assert ppow(X, 3) == F(0, 0, 0, 1)
    assert poly.pscale(p, Fraction(1, 2)) == F(Fraction(1, 2), 1)
    assert poly.normalize((1, 2, 0, 0)) == F(1, 2)
    assert poly.degree(()) == -1


def test_eval_deriv_antider():
    p = F(1, -3, 2)  # (2x-1)(x-1)
    assert poly.peval(p, Fraction(1, 2)) == 0
    assert poly.peval(p, 1) == 0
    assert poly.pderiv(p) == F(-3, 4)
    P = pantider(p)
    assert poly.pderiv(P) == p
    assert pintegrate(p, 0, 1) == Fraction(1) - Fraction(3, 2) + Fraction(2, 3)


def test_roots_linear_and_quadratic_exact():
    ex, ap = poly.real_roots(F(-1, 2), Fraction(0), Fraction(1))
    assert ex == [Fraction(1, 2)] and not ap
    ex, ap = poly.real_roots(F(1, -3, 2), Fraction(0), Fraction(2))
    assert sorted(ex) == [Fraction(1, 2), Fraction(1)] and not ap
    # negative discriminant: no real roots
    ex, ap = poly.real_roots(F(1, 0, 1), Fraction(0), Fraction(1))
    assert not ex and not ap


def test_roots_quadratic_irrational_flagged():
    # x^2 - 1/2: root 1/sqrt(2) is irrational
    ex, ap = poly.real_roots(F(Fraction(-1, 2), 0, 1), Fraction(0), Fraction(1))
    assert not ex
    assert len(ap) == 1 and abs(ap[0] - 0.5**0.5) < 1e-12


def test_roots_cubic_rational_recovered():
    # (x - 1/3)(x - 1/2)(x - 2/3)
    p = poly.pmul(poly.pmul(F(Fraction(-1, 3), 1), F(Fraction(-1, 2), 1)), F(Fraction(-2, 3), 1))
    ex, ap = poly.real_roots(p, Fraction(0), Fraction(1))
    assert sorted(ex) == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    assert not ap


def test_roots_cubic_mixed():
    # (x - 1/2)(x^2 - 1/2): one rational, one irrational root in (0, 1)
    p = poly.pmul(F(Fraction(-1, 2), 1), F(Fraction(-1, 2), 0, 1))
    ex, ap = poly.real_roots(p, Fraction(0), Fraction(1))
    assert ex == [Fraction(1, 2)]
    assert len(ap) == 1 and abs(ap[0] - 0.5**0.5) < 1e-9


# -- the parent trial-division root finder, kept as the oracle ----------


def _trial_division_roots(coeffs):
    """All rational roots of an integer polynomial: every ±p/q with p
    dividing the lowest nonzero coefficient and q the leading one, each
    tried by Fraction Horner on the whole real line."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
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
                if poly.peval(tuple(Fraction(c) for c in coeffs), cand) == 0:
                    roots.append(cand)
    return roots


def _oracle_real_roots(p, lo, hi):
    """real_roots from degree 3 on, as it was before the interval moved into
    the rational root search: every rational root, then those in (lo, hi)."""
    p = poly.normalize(p)
    scale = math.lcm(*(c.denominator for c in p))
    exact = [r for r in _trial_division_roots([int(c * scale) for c in p]) if lo < r < hi]
    rem = p
    for r in sorted(exact):
        rem = poly._pdiv_linear(rem, r)
    approx = []
    for z in np.roots(list(reversed([float(c) for c in rem]))):
        if abs(z.imag) < 1e-12 and float(lo) < z.real < float(hi):
            if all(abs(z.real - float(e)) > 1e-12 for e in exact):
                approx.append(float(z.real))
    return sorted(exact), approx


# irreducible over the rationals; x^2 - 2, x^2 - x - 1, 3x^2 - 5, x^3 - 2
# and x^3 - x - 1 have irrational real roots, which come back as floats
IRREDUCIBLE = [F(1, 0, 1), F(-2, 0, 1), F(1, 1, 2), F(-1, -1, 1), F(-5, 0, 3),
               F(-2, 0, 0, 1), F(-1, -1, 0, 1), F(3, 1, 0, 2)]


def _seeded_case(rng):
    """A polynomial of degree 3..8 and an interval (lo, hi) on either side
    of 0: a rational scalar times linear factors (q x - p), some repeated
    and some at lo, hi or 0, times an irreducible quadratic or cubic."""
    lo = Fraction(rng.randint(-6, 4), rng.randint(1, 4))
    hi = lo + Fraction(rng.randint(1, 8), rng.randint(1, 4))
    p = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6)),)
    if rng.random() < 0.5:
        p = poly.pmul(p, rng.choice(IRREDUCIBLE))
    target = rng.randint(3, 8)
    pool = [lo, hi, Fraction(0)]
    while poly.degree(p) < target:
        r = rng.choice(pool) if rng.random() < 0.4 else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        pool.append(r)
        factor = (Fraction(-r.numerator), Fraction(r.denominator))
        p = poly.pmul(p, factor)
    return p, lo, hi


def test_real_roots_match_the_trial_division_oracle():
    rng = random.Random(20260)
    cases = [_seeded_case(rng) for _ in range(320)]
    for p, lo, hi in cases:
        assert poly.real_roots(p, lo, hi) == _oracle_real_roots(p, lo, hi), (p, lo, hi)
    # every shape the rational root search must get right shows up
    assert sum(lo < 0 < hi and poly.peval(p, 0) == 0 for p, lo, hi in cases) >= 20
    assert sum(poly.peval(p, lo) == 0 for p, lo, hi in cases) >= 20
    assert sum(poly.peval(p, hi) == 0 for p, lo, hi in cases) >= 20
    assert sum(any(r < 0 for r in poly.real_roots(p, lo, hi)[0]) for p, lo, hi in cases) >= 20
    assert sum(bool(poly.real_roots(p, lo, hi)[1]) for p, lo, hi in cases) >= 20
