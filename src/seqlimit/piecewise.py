"""Limit objects for words: piecewise-polynomial functions on [0, 1].

A PiecewisePoly is determined by rational breakpoints
0 = b_0 < b_1 < ... < b_m = 1 and one rational-coefficient polynomial
per piece [b_i, b_{i+1}).  The last piece is closed on the right.  Step
functions are the degree-0 case; the associated function of a word w of
length n is the n-step indicator profile of w.

All arithmetic is exact.  Floats only enter through explicitly inexact
paths: irrational extrema in box/L1 distances (tolerance 1e-12) and the
numeric quadrature fallback for pieces of degree above 3.

Words and step functions skip the polynomial machinery: their
breakpoints and values are scaled to common integer denominators and
the merged grid is swept over Python ints.  `step_primitive` sums the
primitive of a difference (box, prefix and L1 distances); `step_density`
runs the piece DP for the pattern density t(u, F) of step components,
which `t_density_vector` and `t_density_limit` use whenever every
component is a step function.  Polynomial pieces keep the iterated
antiderivative.

A word never becomes an n-piece function either.  Against a polynomial
limit g with exact values in [0, 1], `_word_primitive` evaluates the
primitive of g at the word's grid points j/n as scaled Python ints; the
primitive of w - g is monotone on every cell, so box, prefix and L1
distances are read off the grid with no root finding.

Range checks, box/prefix/L1 distances between two polynomial sides (or
a word and a limit whose range is inexact or leaves [0, 1]) and weak
regularity share one critical-cut scan, `_critical_cuts`: each piece P
is taken on its closed interval [lo, hi], so a value P only approaches
at its open right end counts, and cut at lo, the roots of P', and hi.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from . import poly
from .poly import Poly
from .words import Word

NUMERIC_TOL = 1e-12


@dataclass(frozen=True)
class PiecewisePoly:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(poly.normalize(p) for p in self.pieces))
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must span [0, 1]")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("need exactly one piece per interval")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value) -> "PiecewisePoly":
        return cls((Fraction(0), Fraction(1)), (poly.normalize((Fraction(value),)),))

    @classmethod
    def step(cls, values, breakpoints=None) -> "PiecewisePoly":
        """Step function; equal-width pieces unless breakpoints are given."""
        values = [Fraction(v) for v in values]
        if not values:
            raise ValueError("need at least one step value")
        if breakpoints is None:
            m = len(values)
            breakpoints = [Fraction(i, m) for i in range(m + 1)]
        return cls(tuple(breakpoints), tuple((v,) for v in values))

    @classmethod
    def associated(cls, w: Word, letter: str = "1") -> "PiecewisePoly":
        """Indicator step function of a letter of w on the uniform n-grid."""
        if len(w) == 0:
            raise ValueError("word must be nonempty")
        return cls.step([1 if c == letter else 0 for c in w.letters])

    # -- basic queries ------------------------------------------------

    def piece_index(self, x: Fraction | float) -> int:
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"argument {x} outside [0, 1]")
        return poly.peval(self.pieces[self.piece_index(x)], x)

    def eval_float(self, x: float) -> float:
        return poly.peval(self.pieces[self.piece_index(x)], float(x))

    def max_degree(self) -> int:
        return max(poly.degree(p) for p in self.pieces)

    def is_step(self) -> bool:
        return self.max_degree() <= 0

    def simplify(self) -> "PiecewisePoly":
        """Merge adjacent pieces carrying identical polynomials."""
        bps = [self.breakpoints[0]]
        pcs: list[Poly] = []
        for b, p in zip(self.breakpoints[1:], self.pieces):
            if pcs and pcs[-1] == p:
                bps[-1] = b
            else:
                pcs.append(p)
                bps.append(b)
        return PiecewisePoly(tuple(bps), tuple(pcs))

    # -- exact arithmetic ---------------------------------------------

    def refined(self, breakpoints) -> "PiecewisePoly":
        bps = sorted(set(self.breakpoints) | set(breakpoints))
        if len(bps) == len(self.breakpoints):
            return self
        pcs = [self.pieces[self.piece_index(lo)] for lo in bps[:-1]]
        return PiecewisePoly(tuple(bps), tuple(pcs))

    def _zip(self, other: "PiecewisePoly"):
        bps = tuple(sorted(set(self.breakpoints) | set(other.breakpoints)))
        a = self.refined(bps)
        b = other.refined(bps)
        return bps, a.pieces, b.pieces

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        bps, pa, pb = self._zip(other)
        return PiecewisePoly(bps, tuple(poly.padd(p, q) for p, q in zip(pa, pb)))

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        bps, pa, pb = self._zip(other)
        return PiecewisePoly(bps, tuple(poly.psub(p, q) for p, q in zip(pa, pb)))

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        bps, pa, pb = self._zip(other)
        return PiecewisePoly(bps, tuple(poly.pmul(p, q) for p, q in zip(pa, pb)))

    def scale(self, s) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints, tuple(poly.pscale(p, s) for p in self.pieces))

    def antiderivative(self) -> "PiecewisePoly":
        """The continuous primitive F with F(0) = 0, piece by piece."""
        acc = Fraction(0)
        out: list[Poly] = []
        for lo, hi, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            P = poly.pantider(p)
            q = poly.padd(P, (acc - poly.peval(P, lo),))
            out.append(q)
            acc = poly.peval(q, hi)
        return PiecewisePoly(self.breakpoints, tuple(out))

    def integral(self) -> Fraction:
        total = Fraction(0)
        for lo, hi, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces):
            total += poly.pintegrate(p, lo, hi)
        return total

    def equals(self, other: "PiecewisePoly") -> bool:
        _, pa, pb = self._zip(other)
        return pa == pb

    # -- extrema ------------------------------------------------------

    def range_bounds(self):
        """(min, max) over [0, 1], each piece on its closed interval.  Exact
        unless a critical point is irrational, then floats."""
        if self.is_step():
            values = [p[0] if p else Fraction(0) for p in self.pieces]
            return min(values), max(values)
        vals, fvals = [], []
        for P, cuts, approx in _critical_cuts(self.breakpoints, self.pieces):
            vals += [poly.peval(P, x) for x in cuts]
            fvals += [poly.peval(P, x) for x in approx]
        if fvals:
            fvals = [float(v) for v in vals] + fvals
            return min(fvals), max(fvals)
        return min(vals), max(vals)


def _critical_cuts(breakpoints, pieces):
    """For each closed piece [lo, hi] with polynomial P, (P, cuts, approx):
    cuts is lo, the rational roots of P' in (lo, hi) in increasing order,
    and hi; approx holds the irrational ones as floats.  Without those, P
    is monotone between consecutive cuts."""
    for lo, hi, P in zip(breakpoints, breakpoints[1:], pieces):
        exact, approx = poly.real_roots(poly.pderiv(P), lo, hi)
        yield P, [lo, *sorted(exact), hi], approx


def require_unit_range(f: PiecewisePoly, tol: float = NUMERIC_TOL) -> PiecewisePoly:
    """Validate that f maps [0, 1] into [0, 1]."""
    lo, hi = f.range_bounds()
    if isinstance(lo, Fraction):
        ok = 0 <= lo and hi <= 1
    else:
        ok = -tol <= lo and hi <= 1 + tol
    if not ok:
        raise ValueError(f"function range [{lo}, {hi}] leaves [0, 1]")
    return f


class LimitVector:
    """A tuple of limit functions, one per letter, summing to 1 exactly."""

    def __init__(self, components: dict[str, PiecewisePoly]):
        if not components:
            raise ValueError("need at least one component")
        self.alphabet = tuple(components)
        self.components = dict(components)
        total = None
        for letter, f in components.items():
            require_unit_range(f)
            total = f if total is None else total + f
        if not total.equals(PiecewisePoly.constant(1)):
            raise ValueError("component functions must sum to 1 exactly")

    @classmethod
    def associated(cls, w: Word) -> "LimitVector":
        return cls({a: PiecewisePoly.associated(w, a) for a in w.alphabet})

    @classmethod
    def from_binary(cls, f: PiecewisePoly) -> "LimitVector":
        require_unit_range(f)
        one = PiecewisePoly.constant(1)
        return cls({"0": one - f, "1": f})

    def __getitem__(self, letter: str) -> PiecewisePoly:
        return self.components[letter]


# -- pattern densities of limit objects -------------------------------


def t_density_vector(u: Word, F: LimitVector) -> Fraction:
    """Exact pattern density t(u, F) = l! * integral over x_1 < ... < x_l
    of F_{u_1}(x_1) ... F_{u_l}(x_l).

    When every component is a step function this is the integer piece DP
    of `step_density`, O(m * l^2) int operations on m merged cells.
    Otherwise it is l rounds of multiply-and-antiderivative, exact over
    rational polynomial pieces.
    """
    if tuple(sorted(u.alphabet)) != tuple(sorted(F.alphabet)):
        raise ValueError(f"alphabet mismatch: {u.alphabet!r} vs {F.alphabet!r}")
    if all(f.is_step() for f in F.components.values()):
        return step_density(u, F.components)
    if len(u) == 0:
        raise ValueError("pattern must be nonempty")
    acc = PiecewisePoly.constant(1)
    for letter in u.letters:
        acc = (F[letter] * acc).antiderivative()
    return math.factorial(len(u)) * acc(1)


def t_density_limit(u: Word, f: PiecewisePoly) -> Fraction:
    """Binary-alphabet pattern density of u in the limit function f.

    A step f is range-checked once and goes straight to the integer DP
    with the components 1 - f and f; 1 - f is then in range and the two
    sum to 1 exactly, so no LimitVector is built."""
    if set(u.alphabet) != {"0", "1"}:
        raise ValueError("t_density_limit requires the binary alphabet")
    if not f.is_step():
        return t_density_vector(u, LimitVector.from_binary(f))
    return step_density(u, require_unit_range(f))


# -- integer sweeps over words and step functions ----------------------


def _denominators(f) -> tuple[int, int]:
    """Common denominators of the breakpoints and of the values of a word
    (the indicator of its letter 1 on the n-grid) or a step function."""
    if isinstance(f, Word):
        if len(f) == 0:
            raise ValueError("word must be nonempty")
        return len(f), 1
    if not f.is_step():
        raise ValueError("the integer sweep needs words or step functions")
    bden = math.lcm(*(b.denominator for b in f.breakpoints))
    return bden, math.lcm(*(p[0].denominator for p in f.pieces if p))


def _scaled_ints(f, bden: int, vden: int) -> tuple[list[int], list[int]]:
    """Breakpoints times bden and values times vden, as Python ints."""
    if isinstance(f, Word):
        return list(range(0, bden + 1, bden // len(f))), [vden if c == "1" else 0 for c in f.letters]
    return (
        [b.numerator * (bden // b.denominator) for b in f.breakpoints],
        [p[0].numerator * (vden // p[0].denominator) if p else 0 for p in f.pieces],
    )


def _spread(xs: list[int], vs: list[int], grid: list[int]):
    """Values of the step function (xs, vs) on the cells of grid, which refines xs."""
    if len(xs) == len(grid):
        return vs
    pos = [bisect_left(grid, x) for x in xs]
    return itertools.chain.from_iterable(map(itertools.repeat, vs, map(sub, pos[1:], pos)))


def _step_cells(fs):
    """Merge words or step functions on one integer grid.

    Returns (grid, values, bden, vden): the merged breakpoints are
    grid[k] / bden and values[i] holds vden times fs[i] on each cell.
    """
    dens = [_denominators(f) for f in fs]
    bden, vden = math.lcm(*(b for b, _ in dens)), math.lcm(*(v for _, v in dens))
    scaled = [_scaled_ints(f, bden, vden) for f in fs]
    grid = max((xs for xs, _ in scaled), key=len)
    if any(len(xs) > 2 and xs is not grid and xs != grid for xs, _ in scaled):
        grid = sorted({x for xs, _ in scaled for x in xs})
    return grid, [_spread(xs, vs, grid) for xs, vs in scaled], bden, vden


def step_primitive(f, g=PiecewisePoly.constant(0)) -> tuple[list[int], list[int], int, int]:
    """Exact primitive H of f - g, where f and g are words or step
    functions, swept over Python ints.

    Returns (grid, prim, bden, vden): the merged breakpoints are
    grid[k] / bden and H(grid[k] / bden) = prim[k] / (bden * vden).
    """
    grid, (vf, vg), bden, vden = _step_cells((f, g))
    diff = map(sub, vf, vg)
    prim = list(itertools.accumulate(map(mul, diff, map(sub, grid[1:], grid)), initial=0))
    return grid, prim, bden, vden


def step_density(u: Word, F) -> Fraction:
    """Exact t(u, F) for step components F: a mapping from letters to step
    functions, or one step function f taken as the binary vector (1 - f, f).

    Breakpoints and values are scaled to integer denominators bden and
    vden, so that each cell of the merged grid has integer width L and
    letter values c(a).  The sweep keeps D[j] = j! * (bden * vden)^j *
    (mass of the first j letters placed in the cells so far), an integer,
    and a cell adds to D[j'] the sum over j < j' of
    C(j', j) * D[j] * prod_{i = j+1..j'} L * c(u_i).
    """
    if len(u) == 0:
        raise ValueError("pattern must be nonempty")
    if isinstance(F, PiecewisePoly):
        grid, (ones,), bden, vden = _step_cells((F,))
        values = ([vden - v for v in ones], ones)
        index = [int(c) for c in u.letters]
    else:
        letters = sorted(set(u.letters))
        grid, values, bden, vden = _step_cells([F[a] for a in letters])
        index = [letters.index(c) for c in u.letters]
    l = len(index)
    binom = [[math.comb(jp, j) for j in range(jp)] for jp in range(l + 1)]
    D = [1] + [0] * l
    for L, *c in zip(map(sub, grid[1:], grid), *values):
        a = [L * c[i] for i in index]
        for jp in range(l, 0, -1):
            prod, acc = 1, 0
            for j in range(jp - 1, -1, -1):
                prod *= a[j]
                if not prod:
                    break
                acc += binom[jp][j] * D[j] * prod
            D[jp] += acc
    return Fraction(D[l], (bden * vden) ** l)


# -- distances --------------------------------------------------------


def _is_step(f) -> bool:
    return isinstance(f, Word) or f.is_step()


def _limit_of(f) -> PiecewisePoly:
    return PiecewisePoly.associated(f) if isinstance(f, Word) else f


def _word_primitive(w: Word, g: PiecewisePoly) -> tuple[list[int], int] | None:
    """Exact primitive H of w - g on the grid j/n of a word of length n,
    swept over Python ints, for a limit g with exact values in [0, 1].

    On a cell (j/n, (j+1)/n) the derivative w_j - g(x) of H has one sign,
    since w_j is 0 or 1, even where a breakpoint of g falls inside the
    cell.  So H is monotone on every cell: its extremes lie on the grid
    and the cell's share of the L1 distance is |H((j+1)/n) - H(j/n)|.
    The primitive G of g is continuous, so a grid point on a breakpoint
    of g may take either piece.

    Returns (prim, scale) with H(j/n) = prim[j] / scale, where scale =
    lcm(denominators of G) * n^deg(G).  Returns None when the range of g
    is not exact (an irrational critical point) or leaves [0, 1].
    """
    n = len(w)
    if n == 0:
        raise ValueError("word must be nonempty")
    lo, hi = g.range_bounds()
    if not (isinstance(lo, Fraction) and 0 <= lo and hi <= 1):
        return None
    G = g.antiderivative()
    e = max(map(len, G.pieces)) - 1
    den = math.lcm(*(c.denominator for P in G.pieces for c in P))
    starts = [-(-b.numerator * n // b.denominator) for b in G.breakpoints[:-1]] + [n + 1]
    prim: list[int] = []
    for P, a, b in zip(G.pieces, starts, starts[1:]):
        js = range(a, b)
        # den * n^e * P(j/n) by Horner in j over int coefficients
        coeffs = [c.numerator * (den // c.denominator) * n ** (e - k) for k, c in enumerate(P)] or [0]
        vals = [coeffs[-1]] * len(js)
        for c in reversed(coeffs[:-1]):
            vals = [v * j + c for v, j in zip(vals, js)]
        prim += vals
    unit = den * n ** (e - 1)
    ones = itertools.accumulate((unit if c == "1" else 0 for c in w.letters), initial=0)
    return list(map(sub, ones, prim)), den * n**e


def _swept_primitive(f, g) -> tuple[list[int], int] | None:
    """(prim, scale) of an integer sweep of the primitive H of f - g or of
    g - f, whose extremes lie on prim / scale, or None if neither sweep
    applies.  Box, prefix and L1 distances do not depend on the sign."""
    if _is_step(f) and _is_step(g):
        _, prim, bden, vden = step_primitive(f, g)
        return prim, bden * vden
    if isinstance(g, Word):
        f, g = g, f
    if isinstance(f, Word):
        return _word_primitive(f, g)
    return None


def _primitive_range(f, g):
    """(min, max) of the primitive H of f - g over [0, 1], up to a common
    sign.  Words and step functions, and words against limits with values
    in [0, 1], take an integer sweep; otherwise the range of H, exact
    unless an extremum sits at an irrational point."""
    swept = _swept_primitive(f, g)
    if swept is not None:
        prim, scale = swept
        return Fraction(min(prim), scale), Fraction(max(prim), scale)
    return (_limit_of(f) - _limit_of(g)).antiderivative().range_bounds()


def d_box(f, g):
    """Box distance sup over intervals of |integral of f - g|, where f and
    g are limit functions or words (taken as their step functions).

    Equals max H - min H for the primitive H of f - g.  A word against a
    step function or a limit with exact values in [0, 1] is swept over
    ints on the word's grid, with no root finding.  Exact (Fraction)
    when every candidate extremum is rational, else float within 1e-12.
    """
    lo, hi = _primitive_range(f, g)
    return hi - lo


def prefix_sup_dist(f, g):
    """sup_b |integral over [0, b] of f - g|; sandwiched by d_box:
    prefix_sup_dist <= d_box <= 2 * prefix_sup_dist."""
    lo, hi = _primitive_range(f, g)
    return max(abs(hi), abs(lo))


def d1_fn(f, g):
    """L1 distance integral of |f - g| of limit functions or words.  Exact
    whenever every sign change of f - g is rational; numeric within 1e-12
    otherwise.  Words and step functions, and a word against a limit with
    exact values in [0, 1], sum |H(b) - H(a)| over the cells of an integer
    sweep.  Otherwise, on each piece, a primitive P of f - g is monotone
    between consecutive cuts, so the piece contributes the sum of
    |P(b) - P(a)|."""
    swept = _swept_primitive(f, g)
    if swept is not None:
        prim, scale = swept
        return Fraction(sum(map(abs, map(sub, prim[1:], prim))), scale)
    h = _limit_of(f) - _limit_of(g)
    total = Fraction(0)
    inexact = 0.0
    any_inexact = False
    for P, cuts, approx in _critical_cuts(h.breakpoints, map(poly.pantider, h.pieces)):
        if approx:
            any_inexact = True
            inner = sorted(cuts[1:-1] + [Fraction(a).limit_denominator(10**15) for a in approx])
            inexact += _numeric_abs_integral(poly.pderiv(P), cuts[0], cuts[-1], inner)
            continue
        vals = [poly.peval(P, x) for x in cuts]
        total += sum(map(abs, map(sub, vals[1:], vals)))
    if any_inexact:
        return float(total) + inexact
    return total


def _numeric_abs_integral(p: Poly, lo, hi, cuts) -> float:
    from scipy.integrate import quad

    val, _ = quad(
        lambda x: abs(poly.peval(p, float(x))),
        float(lo),
        float(hi),
        points=[float(c) for c in cuts],
        limit=200,
    )
    return val


# -- Bernstein approximants -------------------------------------------


def bernstein_eval(J, t: int, x):
    """Evaluate the degree-t Bernstein approximant of J at x.

    J is a callable on [0,1] (1-D) or [0,1]^2 (2-D, pass x as a pair).
    Exact when J returns rationals and x is rational.
    """
    if t < 1:
        raise ValueError("degree must be >= 1")
    if isinstance(x, (tuple, list)):
        if len(x) != 2:
            raise ValueError("only 1-D and 2-D approximants are supported")
        x1, x2 = Fraction(x[0]), Fraction(x[1])
        w1 = _bernstein_weights(t, x1)
        w2 = _bernstein_weights(t, x2)
        return sum(
            J(Fraction(i, t), Fraction(j, t)) * w1[i] * w2[j]
            for i in range(t + 1)
            for j in range(t + 1)
        )
    x = Fraction(x)
    w = _bernstein_weights(t, x)
    return sum(J(Fraction(i, t)) * w[i] for i in range(t + 1))


def _bernstein_weights(t: int, x: Fraction) -> list[Fraction]:
    return [math.comb(t, i) * x**i * (1 - x) ** (t - i) for i in range(t + 1)]
