"""Shared generators for randomized tests, all driven by SeededStream."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from seqlimit import GridMeasure, PiecewisePoly, SeededStream, Word, limit_densities, poly
from seqlimit.permutons import _tensor
from seqlimit.piecewise import LimitVector, grid_primitive
from seqlimit.uniformity import _hull, _require_binary


def rand_frac(rng, den: int = 32) -> Fraction:
    return Fraction(int(rng.integers(0, den + 1)), den)


def random_step(stream: SeededStream, max_steps: int = 8, den: int = 32) -> PiecewisePoly:
    """Random step function into [0, 1] on an equal-width grid."""
    rng = stream.generator()
    m = int(rng.integers(1, max_steps + 1))
    return PiecewisePoly.step([rand_frac(rng, den) for _ in range(m)])


def random_step_irregular(
    stream: SeededStream, max_steps: int = 8, den: int = 32, bden: int = 64
) -> PiecewisePoly:
    """Random step function with random (rational) breakpoints."""
    rng = stream.generator()
    m = int(rng.integers(1, max_steps + 1))
    cuts = sorted({Fraction(int(x), bden) for x in rng.integers(1, bden, size=m - 1)})
    bps = [Fraction(0)] + cuts + [Fraction(1)]
    vals = [rand_frac(rng, den) for _ in bps[:-1]]
    return PiecewisePoly.step(vals, bps)


def random_poly_limit(stream: SeededStream, max_pieces: int = 3, den: int = 8) -> PiecewisePoly:
    """Random piecewise-quadratic function into [0, 1]: each piece is
    c0 (1 - x)^2 + 2 c1 x (1 - x) + c2 x^2 with c0, c1, c2 in [0, 1], a
    Bernstein form that stays in [0, 1] on [0, 1]."""
    rng = stream.generator()
    m = int(rng.integers(1, max_pieces + 1))
    cuts = sorted({Fraction(int(x), 12) for x in rng.integers(1, 12, size=m - 1)})
    bps = [Fraction(0)] + cuts + [Fraction(1)]
    pieces = []
    for _ in bps[:-1]:
        c0, c1, c2 = (rand_frac(rng, den) for _ in range(3))
        pieces.append((c0, 2 * (c1 - c0), c0 - 2 * c1 + c2))
    return PiecewisePoly(tuple(bps), tuple(pieces))


def random_word(stream: SeededStream, n: int, density: float = 0.5) -> Word:
    rng = stream.generator()
    return Word(tuple("1" if x < density else "0" for x in rng.random(n)))


def brute_subsequence_count(w: Word, u: Word) -> int:
    """Explicit enumeration over all index sets; oracle for the DP."""
    n, l = len(w), len(u)
    return sum(
        1
        for idx in itertools.combinations(range(n), l)
        if tuple(w.letters[i] for i in idx) == u.letters
    )


def dp_subsequence_count(w: Word, u: Word) -> int:
    """Per-letter Python DP over the prefix counts of u; oracle for the
    numpy counting engine."""
    counts = [0] * len(u)
    pat = u.letters
    for c in w.letters:
        for j in range(len(u) - 1, -1, -1):
            if pat[j] == c:
                counts[j] += counts[j - 1] if j else 1
    return counts[-1]


def cayley_walk_enumerate(w: Word, u: Word, cap: int = 30) -> int:
    """Direct enumeration over start vertices and increasing step tuples
    in the circulant graph; small-n oracle for the walk-count identity."""
    _require_binary(w)
    n, l = len(w), len(u)
    if n > cap:
        raise ValueError(f"enumeration limited to n <= {cap}")
    edges = set()
    for v in range(2 * n):
        for i, c in enumerate(w.letters, 1):
            if c == "1":
                edges.add((v, (v + i) % (2 * n)))
    total = 0
    for v0 in range(2 * n):
        for steps in itertools.combinations(range(1, n + 1), l):
            v = v0
            ok = True
            for step, uc in zip(steps, u.letters):
                nxt = (v + step) % (2 * n)
                if ((v, nxt) in edges) != (uc == "1"):
                    ok = False
                    break
                v = nxt
            if ok:
                total += 1
    return total


def all_points_hulls(w: Word) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Upper and lower hulls of every prefix point (j, S_j) of w; oracle for
    the hulls built from run corners only."""
    pts = list(enumerate(grid_primitive(w)[1]))
    return _hull(pts, 1), _hull(pts, -1)


def generator_exponential_sum(w: Word, k: int) -> complex:
    """(1/n) sum_j w_j exp(2 pi i k j / n), one float expression per
    1-position in a generator; oracle for the angle array."""
    _require_binary(w)
    n = len(w)
    re = math.fsum(math.cos(2 * math.pi * k * j / n) for j, c in enumerate(w.letters, 1) if c == "1")
    im = math.fsum(math.sin(2 * math.pi * k * j / n) for j, c in enumerate(w.letters, 1) if c == "1")
    return complex(re / n, im / n)


def random_grid(m: int, stream: SeededStream, blend: int = 3) -> GridMeasure:
    """Random grid measure: the average of blend random permutation
    measures, which keeps the marginals uniform and the masses rational."""
    rng = stream.generator()
    cells = [[0] * m for _ in range(m)]
    for _ in range(blend):
        for i, j in enumerate(rng.permutation(m).tolist()):
            cells[i][j] += 1
    return GridMeasure(m, [[Fraction(c, m * blend) for c in row] for row in cells])


def ties_by_identity_tensor(m: int, k: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The nondecreasing cell tuples of length k over m cells, in
    lexicographic order, and their collision weights, as the nonzero
    entries of the density tensor DP run on the m x m identity (weights
    at most k! = 24 and Horner sums at most 41 for k <= 4, so int8)."""
    W = _tensor(np.eye(m, dtype=np.int8), k)
    cs = np.nonzero(W)
    return cs, W[cs]


def grid_mass(mu: GridMeasure) -> tuple[tuple[Fraction, ...], ...]:
    """mass[row=x-cell][col=y-cell] of a grid measure as Fractions."""
    return tuple(tuple(Fraction(c, mu.den) for c in row) for row in mu.cells.tolist())


def d_box_grid_brute(mu: GridMeasure, nu: GridMeasure) -> Fraction:
    """O(L^4) enumeration over all grid rectangles; oracle for d_box_grid."""
    L = math.lcm(mu.m, nu.m)
    a = grid_mass(mu.refine(L) if mu.m != L else mu)
    b = grid_mass(nu.refine(L) if nu.m != L else nu)
    P = [[Fraction(0)] * (L + 1) for _ in range(L + 1)]
    for i in range(L):
        for j in range(L):
            P[i + 1][j + 1] = (
                P[i][j + 1] + P[i + 1][j] - P[i][j] + a[i][j] - b[i][j]
            )
    best = Fraction(0)
    for i1 in range(L + 1):
        for i2 in range(i1 + 1, L + 1):
            for j1 in range(L + 1):
                for j2 in range(j1 + 1, L + 1):
                    v = abs(P[i2][j2] - P[i1][j2] - P[i2][j1] + P[i1][j1])
                    if v > best:
                        best = v
    return best


def density_tables_upto(f: PiecewisePoly, max_len: int) -> dict[str, Fraction]:
    """t(u, f) for every binary pattern u of length 1..max_len, computed
    with shared prefixes (each prefix's iterated antiderivative reused),
    by `Fraction` arithmetic piece by piece."""
    F = LimitVector({"0": fn_sub(PiecewisePoly.constant(1), f), "1": f})
    out: dict[str, Fraction] = {}

    def rec(prefix: str, acc: PiecewisePoly) -> None:
        if prefix:
            out[prefix] = math.factorial(len(prefix)) * acc(1)
        if len(prefix) == max_len:
            return
        for letter in "01":
            rec(prefix + letter, piece_primitive(fn_mul(F[letter], acc)))

    rec("", PiecewisePoly.constant(1))
    return out


def same_function(f: PiecewisePoly, g: PiecewisePoly) -> bool:
    """f and g agree on every cell of their merged breakpoints."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return refined(f, bps).pieces == refined(g, bps).pieces


# Exact helpers that only the oracles and the tests use: the `Fraction`
# arithmetic of polynomials and of limit functions piece by piece, which
# src/ replaced by its integer cells (`piecewise._cells`).
X = (Fraction(0), Fraction(1))


def pneg(a: poly.Poly) -> poly.Poly:
    return tuple(-c for c in a)


def psub(a: poly.Poly, b: poly.Poly) -> poly.Poly:
    return poly.padd(a, pneg(b))


def pantider(p: poly.Poly) -> poly.Poly:
    """Antiderivative with constant term 0."""
    if not p:
        return poly.ZERO
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(p))


def associated(w: Word) -> PiecewisePoly:
    """Indicator step function of the letter 1 of w on the uniform n-grid."""
    if len(w) == 0:
        raise ValueError("word must be nonempty")
    return PiecewisePoly.step([1 if c == "1" else 0 for c in w.letters])


def limit_of(f) -> PiecewisePoly:
    return associated(f) if isinstance(f, Word) else f


def refined(f: PiecewisePoly, breakpoints) -> PiecewisePoly:
    """f on the union of its breakpoints and the given ones."""
    bps = sorted(set(f.breakpoints) | set(breakpoints))
    return PiecewisePoly(tuple(bps), tuple(f.pieces[f.piece_index(lo)] for lo in bps[:-1]))


def _piecewise(op, f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    bps = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    return PiecewisePoly(bps, tuple(map(op, refined(f, bps).pieces, refined(g, bps).pieces)))


def fn_add(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return _piecewise(poly.padd, f, g)


def fn_sub(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return _piecewise(psub, f, g)


def fn_mul(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return _piecewise(poly.pmul, f, g)


def piece_primitive(f: PiecewisePoly) -> PiecewisePoly:
    """The continuous primitive F with F(0) = 0, piece by piece in
    `Fraction`s; oracle for `PiecewisePoly.antiderivative`."""
    acc, out = Fraction(0), []
    for lo, hi, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        P = pantider(p)
        out.append(poly.padd(P, (acc - poly.peval(P, lo),)))
        acc = poly.peval(out[-1], hi)
    return PiecewisePoly(f.breakpoints, tuple(out))


def generic_primitive(f, g) -> PiecewisePoly:
    """The primitive of f - g for words or limit functions, piece by piece
    on their merged breakpoints; oracle for `piecewise._x_primitive`."""
    return piece_primitive(fn_sub(limit_of(f), limit_of(g)))


def ppow(a: poly.Poly, n: int) -> poly.Poly:
    res = poly.ONE
    for _ in range(n):
        res = poly.pmul(res, a)
    return res


def pintegrate(p: poly.Poly, lo, hi) -> Fraction:
    P = pantider(p)
    return poly.peval(P, hi) - poly.peval(P, lo)


def moment_direct(i: int, j: int, f: PiecewisePoly) -> Fraction:
    """Moment of x^i F(x)^j by direct symbolic integration."""
    F = piece_primitive(f)
    total = Fraction(0)
    for lo, hi, p in zip(F.breakpoints, F.breakpoints[1:], F.pieces):
        integrand = poly.pmul(ppow(X, i), ppow(p, j))
        total += pintegrate(integrand, lo, hi)
    return total


def moment_bridge(k: int, f: PiecewisePoly) -> tuple[Fraction, Fraction]:
    """The identity tying ordinary moments of f to pattern densities:
    integral of f(x) x^k equals 1/(k+1) times the sum of t(u1, f) over
    all binary u of length k.  Returns (direct value, density value)."""
    direct = piece_primitive(fn_mul(f, PiecewisePoly((0, 1), (ppow(X, k),))))(1)
    densities = limit_densities(f, [Word(bits + ("1",)) for bits in itertools.product("01", repeat=k)])
    return direct, sum(densities.values()) / (k + 1)


@functools.lru_cache(maxsize=None)
def _moment_coeffs(i: int, j: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Coefficients C_sigma with integral of x^i y^j d mu equal to
    sum_sigma C_sigma t(sigma, mu) over sigma in S_{i+j+1}.

    Derived by direct counting: x^i y^j is the probability that i extra
    points fall left of (x, y) and j extra points fall below it, so the
    moment is the probability of that event over i+j+1 independent
    points; conditioning on the pattern sigma and counting the labelings
    of the points that realize the event gives C_sigma exactly.
    """
    N = i + j + 1
    coeffs = []
    fact = math.factorial(N)
    for sigma in itertools.permutations(range(1, N + 1)):
        good = 0
        for assign in itertools.permutations(range(N)):
            # assign[label] = x-rank slot (0-based); label 0 is the
            # distinguished point, 1..i must lie left, i+1..i+j below
            p = assign[0]
            q = sigma[p]
            if all(assign[l] < p for l in range(1, i + 1)) and all(
                sigma[assign[l]] < q for l in range(i + 1, N)
            ):
                good += 1
        if good:
            coeffs.append((sigma, Fraction(good, fact)))
    return tuple(coeffs)


def moment_xy_direct(i: int, j: int, mu: GridMeasure) -> Fraction:
    """Integral of x^i y^j d mu by exact cellwise integration."""

    def avg_pow(cell: int, m: int, e: int) -> Fraction:
        lo, hi = Fraction(cell, m), Fraction(cell + 1, m)
        return (hi ** (e + 1) - lo ** (e + 1)) / ((e + 1) * (hi - lo))

    total, mass = Fraction(0), grid_mass(mu)
    for a in range(mu.m):
        xa = avg_pow(a, mu.m, i)
        for b in range(mu.m):
            if mass[a][b]:
                total += mass[a][b] * xa * avg_pow(b, mu.m, j)
    return total


def moment_xy_from_densities(i: int, j: int, densities: dict[str, Fraction]) -> Fraction:
    """Integral of x^i y^j d mu from pattern densities of size i+j+1,
    keyed by one-line pattern string as `grid_density_table` keys them."""
    if i < 0 or j < 0 or i + j + 1 > 4:
        raise ValueError("need i, j >= 0 and i + j + 1 <= 4")
    return sum((c * densities[",".join(map(str, s))] for s, c in _moment_coeffs(i, j)), Fraction(0))
