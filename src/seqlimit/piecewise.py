"""Limit objects for words: piecewise-polynomial functions on [0, 1].

A PiecewisePoly is determined by rational breakpoints
0 = b_0 < b_1 < ... < b_m = 1 and one rational-coefficient polynomial
per piece [b_i, b_{i+1}).  The last piece is closed on the right.  Step
functions are the degree-0 case; a binary word w of length n stands for
the n-step indicator profile of its letter 1.

All arithmetic is exact.  Floats only enter through explicitly inexact
paths: irrational extrema in box/prefix distances and range checks
(tolerance 1e-12), and an L1 distance across an irrational sign change
of f - g, which a difference of any degree from 2 up can have.  That
piece's float is QUADPACK's (dqagpe, as quad runs it), bit for bit, where
its first 21-point Gauss-Kronrod pass (`_numeric_abs_integral`, in
Python floats) settles it; where it does not (a cut as sharp as that of
|x^30 - 1/3|), the exact primitive read at rationalized roots gives it.

Words never become n-piece functions, and limits are never added or
multiplied as `Fraction` pieces.  There is one merge, `_cells`: words and
limits of any degree on one integer grid, each given on every cell by
the integer Taylor columns of its scaled values in the cell's own
coordinate, and one integration of such columns in Python ints,
`_antiderivative`.  The primitive H of f - g is the antiderivative of
their difference (`_difference_primitive`): `grid_primitive` reads it
at the grid points, and box, prefix and L1 distances are read there
when both sides are words or step functions, or when a word meets a
limit with exact values in [0, 1]; H is then monotone on every cell.
`_densities` walks the prefix trie of a batch of patterns once
(`words._prefix_walk`, which also counts patterns in words) on f's cells
or those a `LimitVector` keeps from its sum check: each prefix multiplies
its parent's columns by its letter's and takes the antiderivative.

A limit's check 0 <= f <= 1 (`require_unit_range`) reads f's own cells,
derived once per instance (`PiecewisePoly.cells`, which f's density
batches read too), and accepts in integers when the Bernstein
coefficients of every cell's polynomial lie in [0, 1] (`_unit_cells`).
That test is exact for steps and linear pieces, and a pass proves the
range at any degree; a limit that fails it goes on to `range_bounds`,
whose decision and message stand.  `_swept_primitive` reads the same
decision (`_unproven_range`), without the float tolerance.

Pieces in x of a primitive come only from `_x_primitive`, which shifts
H's columns back to x for `antiderivative` and the root search.  Range
checks the certificate does not settle, box/prefix/L1 distances off the
grid (two polynomial sides, a step function and a polynomial, or a word
and a limit whose range is inexact or leaves [0, 1]) and weak regularity
share one critical-cut scan, `_critical_cuts`: each piece P is taken on
its closed interval [lo, hi], so a value P only approaches at its open
right end counts, and cut at lo, the roots of P', and hi.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ge, mul, neg, sub
from types import MappingProxyType

from . import poly
from .poly import Poly
from .words import Word, _prefix_walk

NUMERIC_TOL = 1e-12


def _unit_breakpoints(breakpoints) -> tuple[Fraction, ...]:
    """breakpoints as Fractions (one already a Fraction is kept), checked to
    run from 0 up to 1 strictly increasing (a `PiecewisePoly`'s or an
    interval partition's).  b < c is decided on the integer cross-products
    of their numerators and (positive) denominators."""
    bps = tuple(b if type(b) is Fraction else Fraction(b) for b in breakpoints)
    if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
        raise ValueError("breakpoints must span [0, 1]")
    nums, dens = [b.numerator for b in bps], [b.denominator for b in bps]
    if any(map(ge, map(mul, nums, dens[1:]), map(mul, nums[1:], dens))):
        raise ValueError("breakpoints must be strictly increasing")
    return bps


@dataclass(frozen=True)
class PiecewisePoly:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]

    def __post_init__(self):
        bps = _unit_breakpoints(self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(map(poly.normalize, self.pieces)))
        if len(self.pieces) != len(bps) - 1:
            raise ValueError("need exactly one piece per interval")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value) -> "PiecewisePoly":
        return cls((Fraction(0), Fraction(1)), (poly.normalize((Fraction(value),)),))

    @classmethod
    def step(cls, values, breakpoints=None) -> "PiecewisePoly":
        """Step function; equal-width pieces unless breakpoints are given."""
        values = list(values)
        if not values:
            raise ValueError("need at least one step value")
        if breakpoints is None:
            m = len(values)
            breakpoints = [Fraction(i, m) for i in range(m + 1)]
        return cls(tuple(breakpoints), tuple((v,) for v in values))

    # -- basic queries ------------------------------------------------

    def piece_index(self, x: Fraction | float) -> int:
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError(f"argument {x} outside [0, 1]")
        return poly.peval(self.pieces[self.piece_index(x)], x)

    def max_degree(self) -> int:
        return max(map(len, self.pieces)) - 1  # poly.degree of the longest piece

    def is_step(self) -> bool:
        return self.max_degree() <= 0

    # -- exact primitive ----------------------------------------------

    def antiderivative(self) -> "PiecewisePoly":
        """The continuous primitive F with F(0) = 0 (`_x_primitive`),
        derived once per instance (instances are frozen)."""
        return self._primitive

    @functools.cached_property
    def _primitive(self) -> "PiecewisePoly":
        return _x_primitive(self)

    @functools.cached_property
    def cells(self):
        """`_cells((self,))`, derived once per instance (instances are
        frozen), for the range certificate and density batches."""
        return _cells((self,))

    # -- extrema ------------------------------------------------------

    def range_bounds(self):
        """(min, max) over [0, 1], each piece on its closed interval.  Exact
        unless a critical point is irrational, then floats.  Derived once
        per instance (instances are frozen)."""
        return self._range

    @functools.cached_property
    def _range(self):
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


def _unit_cells(cols, grid, vden) -> bool:
    """Whether the Bernstein coefficients of every cell's polynomial lie in
    [0, 1], for f given by its `_cells` columns cols on grid over vden.
    Such a polynomial lies between its least and greatest coefficient on
    the cell (Farouki, CAGD 29, 2012), so True proves 0 <= f <= 1; False
    is exact at degree 0 and 1, where the coefficients are f's values at
    the cell ends.

    On cell k, with s = t / w_k in [0, 1], f = sum over r of a_r s^r,
    a_r = c_r w_k^r / vden, and its degree-e coefficients are the binomial
    transform b_j = sum over r <= j of C(j, r) a_r / C(e, r); e! vden b_j
    is that transform of the integers r! (e - r)! c_r w_k^r."""
    e = len(cols) - 1
    if e == 0:  # a step: its values are its coefficients
        return min(cols[0]) >= 0 and max(cols[0]) <= vden
    widths = list(map(sub, grid[1:], grid))
    a, power = [], [1] * len(widths)
    for r, c in enumerate(cols):
        weight = math.factorial(r) * math.factorial(e - r)
        a.append([weight * x * p for x, p in zip(c, power)])
        power = list(map(mul, power, widths))
    for i in range(1, e + 1):
        for r in range(e, i - 1, -1):
            a[r] = list(map(add, a[r], a[r - 1]))
    top = math.factorial(e) * vden
    return all(min(b) >= 0 and max(b) <= top for b in a)


def _unproven_range(f: PiecewisePoly):
    """None when f provably maps [0, 1] into [0, 1]: in integers when the
    Bernstein coefficients on f's `cells` prove it (`_unit_cells`), else
    by an exact `range_bounds` inside [0, 1].  Otherwise f's
    `range_bounds`, (lo, hi), inexact when lo is a float."""
    grid, _, vden, (cols,) = f.cells
    if _unit_cells(cols, grid, vden):
        return None
    lo, hi = f.range_bounds()
    return None if isinstance(lo, Fraction) and 0 <= lo and hi <= 1 else (lo, hi)


def require_unit_range(f: PiecewisePoly) -> PiecewisePoly:
    """Validate that f maps [0, 1] into [0, 1] (`_unproven_range`, or an
    inexact range within NUMERIC_TOL of [0, 1]); the range gives the
    message of a refusal."""
    bounds = _unproven_range(f)
    if bounds is not None:
        lo, hi = bounds
        if isinstance(lo, Fraction) or not (-NUMERIC_TOL <= lo and hi <= 1 + NUMERIC_TOL):
            raise ValueError(f"function range [{lo}, {hi}] leaves [0, 1]")
    return f


class LimitVector:
    """A tuple of limit functions, one per letter, summing to 1 exactly: on
    every cell of `cells`, their `_cells` in alphabet order, built once and
    walked by every density batch, their columns add up to (vden, 0, ...)."""

    def __init__(self, components: dict[str, PiecewisePoly]):
        if not components:
            raise ValueError("need at least one component")
        self.alphabet = tuple(components)
        self.components = MappingProxyType(dict(components))
        for f in self.components.values():
            require_unit_range(f)
        self.cells = grid, _, vden, cols = _cells(self.components.values())
        for r in range(max(map(len, cols))):
            # column r of every component, cell by cell; a missing one is 0
            total = [sum(cells) for cells in zip(*(c[r] for c in cols if r < len(c)))]
            if total != [vden if r == 0 else 0] * (len(grid) - 1):
                raise ValueError("component functions must sum to 1 exactly")

    def __getitem__(self, letter: str) -> PiecewisePoly:
        return self.components[letter]


# -- pattern densities of limit objects -------------------------------


def _densities(patterns, F) -> list[Fraction]:
    """Exact t(u, F) = l! * integral over x_1 < ... < x_l of
    F_{u_1}(x_1) ... F_{u_l}(x_l) for each pattern u, in order, for F a
    `LimitVector` or one binary limit function f read as (1 - f, f); for
    f, the patterns' binary alphabet is checked, then f's range.

    A vector's batch walks its kept `cells`, whichever letters the
    patterns use: the values are exact on any grid.  f is merged on its own
    grid (`_cells`), and the columns of 1 - f are vden - c_0 and -c_r from
    those of f.  `words._prefix_walk`, the trie walk that also counts
    patterns in words, derives each distinct prefix once, from its
    parent: the state of u_1..u_j is the primitive Phi_j of F_{u_j} *
    Phi_{j-1} (Phi_0 = 1) as (columns, total, denominator), Phi_j =
    columns / denominator on each cell and Phi_j(1) = total / denominator,
    and `extend` multiplies the parent's columns by the letter's cell by
    cell and takes `_antiderivative`.
    """
    if isinstance(F, LimitVector):
        grid, bden, vden, colss = F.cells
        cols = dict(zip(F.alphabet, colss))
    else:
        if any(set(u.alphabet) != {"0", "1"} for u in patterns):
            raise ValueError("t_density_limit requires the binary alphabet")
        grid, bden, vden, ((c0, *rest),) = require_unit_range(F).cells
        cols = {"0": [list(map(sub, itertools.repeat(vden), c0)), *(list(map(neg, c)) for c in rest)],
                "1": [c0, *rest]}
    if any(len(u) == 0 for u in patterns):
        raise ValueError("pattern must be nonempty")
    widths = list(map(sub, grid[1:], grid))

    def extend(state, letter):
        L, A, prim = _antiderivative(_times(cols[letter], state[0]), widths)
        return A, prim[-1], state[2] * bden * vden * L

    return _prefix_walk([u.letters for u in patterns], ([[1] * len(widths)], 1, 1), extend,
                        lambda l, s: Fraction(math.factorial(l) * s[1], s[2]))


def t_density_vector(u: Word, F: LimitVector) -> Fraction:
    """Exact pattern density t(u, F) of u in the limit vector F, whose
    alphabet must be u's (see `_densities`)."""
    if tuple(sorted(u.alphabet)) != tuple(sorted(F.alphabet)):
        raise ValueError(f"alphabet mismatch: {u.alphabet!r} vs {F.alphabet!r}")
    return _densities([u], F)[0]


def t_density_limit(u: Word, f: PiecewisePoly) -> Fraction:
    """Binary-alphabet pattern density of u in the limit function f, read
    as the vector (1 - f, f), which sums to 1 (see `_densities`)."""
    return _densities([u], f)[0]


# -- integer cells on merged grids ------------------------------------


def _is_step(f) -> bool:
    return isinstance(f, Word) or f.is_step()


def _spread(xs: list[int], vs: list[int], grid: list[int]) -> list[int]:
    """Values of the step function (xs, vs) on the cells of grid, which refines xs."""
    if len(xs) == len(grid):
        return vs
    pos = [bisect_left(grid, x) for x in xs]
    return list(itertools.chain.from_iterable(map(itertools.repeat, vs, map(sub, pos[1:], pos))))


def _cells(fs) -> tuple[list[int], int, int, list[list[list[int]]]]:
    """(grid, bden, vden, cols) of words or limit functions fs merged on
    one integer grid: the breakpoints of all of them (a word's are the
    n-grid) are grid[k] / bden, and on cell k, with t = bden * x - grid[k],
    vden * fs[i](x) is the sum over r of cols[i][r][k] * t^r.

    A word (the indicator of its letter 1, so its alphabet must be binary)
    or a step function has one column, its values spread over the cells.
    A function of degree e >= 1 has e + 1: vden is a multiple of
    den * bden^e, for den the common denominator of its coefficients, so
    each piece is an integer polynomial in X = bden * x, Taylor-shifted to
    t = X - grid[k] by Horner, vectorised over the piece's cells.
    """
    for f in fs:
        if isinstance(f, Word) and set(f.alphabet) != {"0", "1"}:
            raise ValueError(f"a word is read as the indicator of its letter '1', so its alphabet must be "
                             f"['0', '1'], got {list(f.alphabet)!r}")
    if any(isinstance(f, Word) and len(f) == 0 for f in fs):
        raise ValueError("word must be nonempty")
    bden = math.lcm(*(
        len(f) if isinstance(f, Word) else math.lcm(*(b.denominator for b in f.breakpoints)) for f in fs))
    xss = [list(range(0, bden + 1, bden // len(f))) if isinstance(f, Word)
           else [b.numerator * (bden // b.denominator) for b in f.breakpoints] for f in fs]
    grid = max(xss, key=len)
    if any(len(xs) > 2 and xs is not grid and xs != grid for xs in xss):
        grid = sorted({x for xs in xss for x in xs})
    degrees = [0 if isinstance(f, Word) else max(f.max_degree(), 0) for f in fs]
    vden = math.lcm(*(math.lcm(*(c.denominator for p in f.pieces for c in p)) * bden**e
                      for f, e in zip(fs, degrees) if not isinstance(f, Word)))
    cols = []
    for f, xs, e in zip(fs, xss, degrees):
        if e == 0:
            vs = ([vden if c == "1" else 0 for c in f.letters] if isinstance(f, Word)
                  else [p[0].numerator * (vden // p[0].denominator) if p else 0 for p in f.pieces])
            cols.append([_spread(xs, vs, grid)])
            continue
        out = [[] for _ in range(e + 1)]
        starts = [bisect_left(grid, x) for x in xs]
        for p, a, b in zip(f.pieces, starts, starts[1:]):
            shifted = _shift([[c.numerator * (vden // (c.denominator * bden**r))] * (b - a)
                              for r, c in enumerate(p)], grid[a:b], add)
            for r, col in enumerate(out):
                col += shifted[r] if r < len(p) else [0] * (b - a)
        cols.append(out)
    return grid, bden, vden, cols


def _shift(cols, xs, op) -> list[list[int]]:
    """Columns of P(t + xs[k]) (op add) or P(t - xs[k]) (op sub) on each
    cell k, for P given by columns cols in t: a Taylor shift by Horner."""
    cols = list(cols)
    for i in range(len(cols) - 1):
        for j in range(len(cols) - 2, i - 1, -1):
            cols[j] = list(map(op, cols[j], map(mul, cols[j + 1], xs)))
    return cols


def _times(a, b) -> list[list[int]]:
    """Columns of the cell-by-cell product of two polynomials given by columns."""
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = map(mul, x, y)
            out[i + j] = xy if out[i + j] is None else map(add, out[i + j], xy)
    return list(map(list, out))


def _antiderivative(cols, widths) -> tuple[int, list[list[int]], list[int]]:
    """(L, A, prim) for the polynomial P given on each cell k by columns
    cols in t in [0, widths[k]]: with L = lcm(1..len(cols)), L times the
    primitive of P from 0 is the sum over r of A[r][k] * t^r on cell k,
    and prim[k] = A[0][k] is its value at the start of cell k, prim[-1]
    at the end of the last.  So A[r + 1] = L / (r + 1) * cols[r], which
    is cols[r] itself where that factor is 1, and A[0] sums the integrals
    of the cells before.  Columns may be one-pass iterables if A is not
    read, and widths too if there is one column."""
    L = math.lcm(*range(1, len(cols) + 1))
    A = [c if L == r else list(map(mul, c, itertools.repeat(L // r))) for r, c in enumerate(cols, 1)]
    v = A[-1]
    for c in reversed(A[:-1]):
        v = map(add, map(mul, v, widths), c)
    prim = list(itertools.accumulate(map(mul, v, widths), initial=0))
    return L, [prim[:-1], *A], prim


ZERO_FN = PiecewisePoly.constant(0)


def _difference_primitive(f, g, columns: bool):
    """(grid, bden, den, A, prim): `_antiderivative` of f's `_cells`
    columns minus g's, den = vden * L.  On cell k, the primitive H of f - g
    is the sum over r of A[r][k] * t^r / (bden * den), t = bden * x - grid[k]
    (A is read only if columns is set: then they are lists)."""
    grid, bden, vden, (cf, cg) = _cells((f, g))
    diff = [map(sub, a, b) for a, b in zip(cf, cg)] + cf[len(cg):] + [map(neg, c) for c in cg[len(cf):]]
    widths = map(sub, grid[1:], grid)
    if columns:
        diff = list(map(list, diff))
    L, A, prim = _antiderivative(diff, widths if len(diff) == 1 else list(widths))
    return grid, bden, vden * L, A, prim


def grid_primitive(f, g=ZERO_FN) -> tuple[list[int], list[int], int, int]:
    """Exact primitive H of f - g, for f and g words or limit functions,
    swept over Python ints: `_antiderivative` of the difference of their
    `_cells` columns.

    Returns (grid, prim, bden, vden): the merged breakpoints of f and g
    are grid[k] / bden and H(grid[k] / bden) = prim[k] / (bden * vden).
    """
    grid, bden, den, _, prim = _difference_primitive(f, g, False)
    return grid, prim, bden, den


def _x_primitive(f, g=ZERO_FN) -> PiecewisePoly:
    """The primitive H of f - g with H(0) = 0, for words or limit functions,
    as a PiecewisePoly on their merged breakpoints (pieces in x, for the
    root search and `antiderivative`): `_difference_primitive`'s columns
    shifted back from t = X - grid[k] to X = bden * x, then scaled to x."""
    grid, bden, den, A, _ = _difference_primitive(f, g, True)
    powers = [bden**r for r in range(len(A))]
    return PiecewisePoly(tuple(Fraction(x, bden) for x in grid), tuple(
        tuple(Fraction(c * q, bden * den) for c, q in zip(cs, powers)) for cs in zip(*_shift(A, grid, sub))))


# -- distances --------------------------------------------------------


def _swept_primitive(f, g):
    """grid_primitive of f and g, in either order (box, prefix and L1
    distances do not depend on the sign of H), when the primitive H of
    f - g is monotone between grid points, else None.

    That holds when both sides are words or step functions, and for a
    word w against a limit g with values proven in [0, 1]
    (`_unproven_range`): on a cell
    (j/n, (j+1)/n) the derivative w_j - g(x) of H has one sign, since w_j
    is 0 or 1, even where a breakpoint of g falls inside the cell.
    """
    if not _is_step(f):
        f, g = g, f
    on_grid = _is_step(f) and _is_step(g) or isinstance(f, Word) and _unproven_range(g) is None
    return grid_primitive(f, g) if on_grid else None


def _primitive_range(f, g):
    """(min, max) of the primitive H of f - g over [0, 1], up to a common
    sign: read off the grid where `_swept_primitive` applies, otherwise
    exact unless an extremum sits at an irrational point."""
    swept = _swept_primitive(f, g)
    if swept is not None:
        _, prim, bden, vden = swept
        return Fraction(min(prim), bden * vden), Fraction(max(prim), bden * vden)
    return _x_primitive(f, g).range_bounds()


def d_box(f, g):
    """Box distance sup over intervals of |integral of f - g|, where f and
    g are limit functions or words (taken as their step functions).

    Equals max H - min H for the primitive H of f - g.  Exact (Fraction)
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
    otherwise.  Where `_swept_primitive` applies, the sum of |H(b) - H(a)|
    over its grid cells; otherwise, on each piece, a primitive P of f - g
    is monotone between consecutive cuts, so the piece contributes the
    sum of |P(b) - P(a)|.  A piece with an irrational cut contributes the
    float `_numeric_abs_integral` gives for |f - g| on it, quad's value,
    where QUADPACK's first Gauss-Kronrod pass settles it; else the same
    sum, with each irrational cut taken at its `limit_denominator(10**15)`
    (P' = f - g vanishes there, so P is off by a second-order term), and
    the distance is a float."""
    swept = _swept_primitive(f, g)
    if swept is not None:
        _, prim, bden, vden = swept
        return Fraction(sum(map(abs, map(sub, prim[1:], prim))), bden * vden)
    H, total, inexact = _x_primitive(f, g), Fraction(0), None
    for P, cuts, approx in _critical_cuts(H.breakpoints, H.pieces):
        if approx:
            lo, hi = cuts[0], cuts[-1]
            cuts = [lo, *sorted(cuts[1:-1] + [Fraction(a).limit_denominator(10**15) for a in approx]), hi]
            numeric, inexact = _numeric_abs_integral(poly.pderiv(P), lo, hi, cuts[1:-1]), inexact or 0.0
            if numeric is not None:
                inexact += numeric
                continue
        vals = [poly.peval(P, x) for x in cuts]
        total += sum(map(abs, map(sub, vals[1:], vals)))
    return total if inexact is None else float(total) + inexact


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., QUADPACK,
# Springer 1983, routine dqk21): the positive Kronrod abscissae on [-1, 1]
# (those at odd indices are the 10-point Gauss abscissae), their weights
# and that of the centre, and the weights of the Gauss rule
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH, _UFLOW = sys.float_info.epsilon, sys.float_info.min
_QUAD_TOL = 1.49e-8  # quad's default epsabs = epsrel


def _qk21(f, a: float, b: float) -> tuple[float, float]:
    """(result, abserr) of dqk21 for f on [a, b], in its operation order:
    the Gauss nodes first, then the other Kronrod nodes, and the error
    scaled by resasc * min(1, (200 abserr / resasc) ** 1.5) with the floor
    50 eps resabs."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fv1[j] = fval1 = f(centr - absc)
        fv2[j] = fval2 = f(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs, resasc = resabs * hlgth, resasc * hlgth  # hlgth > 0, as a < b
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return resk * hlgth, abserr


def _numeric_abs_integral(p: Poly, lo, hi, cuts) -> float | None:
    """The integral of |p| over [lo, hi] as quad, QUADPACK's dqagpe with
    break points cuts, gives it, bit for bit, when dqagpe's first pass
    settles it, else None.  That pass applies `_qk21` once to each
    interval between the sorted distinct cuts inside (lo, hi).  When their
    summed error estimate is at most max(1.49e-8, 1.49e-8 |result|),
    dqagpe returns the sum of their results in interval order, and so does
    this; otherwise quad would go on to its adaptive loop.  p's
    coefficients become floats once, so each evaluation is `poly.peval`'s
    float Horner on them alone."""
    coeffs = tuple(map(float, p))
    f = lambda x: abs(poly.peval(coeffs, float(x)))
    a, b = float(lo), float(hi)
    if a == b:
        return 0.0
    pts = sorted({c for c in map(float, cuts) if a < c < b})
    result = abserr = 0.0
    for a1, b1 in zip([a, *pts], [*pts, b]):
        area, error = _qk21(f, a1, b1)
        result, abserr = result + area, abserr + error
    return result if abserr <= max(_QUAD_TOL, _QUAD_TOL * abs(result)) else None
