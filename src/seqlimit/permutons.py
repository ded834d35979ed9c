"""Permutations, grid measures, pattern densities and box distance.

Pattern counts in a permutation sigma of length n are exact integers
computed without enumerating the C(n, k) index sets: sizes 2 and 3 from
one Fenwick-tree pass over the values (O(n log n): the counts of
smaller/larger letters on each side of every position, plus the index
sums of the non-inverted pairs, determine all of S_3), size 4 from a
table of left-of/below counts with the 2nd and 3rd pattern letters fixed
(O(n^3) vectorized numpy, O(n^2) memory).

A grid measure is a probability measure on [0, 1]^2 that is uniform on
each cell of an m x m grid and has uniform marginals (every row and
column of cell masses sums to 1/m).  The measure of a permutation sigma
puts mass 1/n on each cell (i, sigma(i)).  Pattern densities t(tau, .)
of grid measures are computed exactly for patterns of size <= 3 (and
size 4 on small grids) by summing over cell assignments of the sampled
points, with ties between points landing in a common row or column
handled by factorial collision weights; larger patterns fall back to
Monte Carlo with a reported standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .streams import PRNG_ID, SeededStream

EXACT_PATTERN_CAP = 3
EXACT_K4_GRID_CAP = 6


@dataclass(frozen=True)
class Permutation:
    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values!r}")

    @classmethod
    def from_csv(cls, text: str) -> "Permutation":
        parts = text.replace(",", " ").split()
        if len(parts) == 1 and len(parts[0]) > 1:
            parts = list(parts[0])
        return cls(tuple(int(p) for p in parts))

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


def pattern_of(points) -> Permutation:
    """Pattern of points (x, y) with distinct coordinates: sort by x,
    record the ranks of the y values."""
    pts = sorted(points)
    ys = [y for _, y in pts]
    ranks = {y: r for r, y in enumerate(sorted(ys), start=1)}
    return Permutation(tuple(ranks[y] for y in ys))


def _smaller_left(values: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """For each position j: a_j = #{i < j : sigma_i < sigma_j} and the
    sum of those indices i, from one Fenwick-tree pass over the values."""
    n = len(values)
    count = [0] * (n + 1)
    index_sum = [0] * (n + 1)
    a, s = [], []
    for j, v in enumerate(values):
        c = t = 0
        x = v - 1
        while x:
            c += count[x]
            t += index_sum[x]
            x &= x - 1
        a.append(c)
        s.append(t)
        x = v
        while x <= n:
            count[x] += 1
            index_sum[x] += j
            x += x & -x
    return a, s


def _count_size3(values: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Counts of all six size-3 patterns in O(n log n).

    With j as the middle letter, a/b count the smaller/larger letters to
    its left and c/d those to its right, so sum(ad) = #123, sum(bc) = #321,
    sum(ac) = #132 + #231, sum(bd) = #213 + #312 and, with j as the last
    letter, sum(ab) = #132 + #312.  X, the sum of l - i - 1 over the
    non-inverted pairs i < l, is #123 + #132 + #213; these five sums
    determine all six counts.
    """
    n = len(values)
    a_list, s_list = _smaller_left(values)
    ad = bc = ac = bd = ab = x = 0
    for j, (v, a, s) in enumerate(zip(values, a_list, s_list)):
        b = j - a
        c = v - 1 - a
        d = n - 1 - j - c
        ad += a * d
        bc += b * c
        ac += a * c
        bd += b * d
        ab += a * b
        x += a * (j - 1) - s
    c132 = (x - ad - bd + ab) // 2
    c213 = x - ad - c132
    c312 = ab - c132
    return {
        (1, 2, 3): ad, (1, 3, 2): c132, (2, 1, 3): c213,
        (2, 3, 1): ac - c132, (3, 1, 2): c312, (3, 2, 1): bc,
    }


def _count_size4(values: tuple[int, ...], tau: tuple[int, ...]) -> int:
    """Occurrences of a size-4 pattern tau in O(n^3) numpy work.

    Fix the positions j < k of tau's 2nd and 3rd letters; their values
    split 1..n into three gaps, and tau says which gap holds its 1st
    letter (left of j) and its 4th (right of k).  Lt[p][v], the number of
    letters before position p with value below v, gives both side counts
    as differences.  When the 1st and 4th letters share a gap their order
    couples them, and the count becomes a sum of Lt[j][sigma_l] over the
    qualifying l > k.  Products are at most n^2 and the sums over k at
    most n^3, so int64 is exact for every n whose O(n^2) table fits in
    memory.
    """
    n = len(values)
    s = np.array(values, dtype=np.int64)
    below = s[:, None] < np.arange(n + 2)[None, :]
    Lt = np.zeros((n + 1, n + 2), dtype=np.int64)
    np.cumsum(below, axis=0, out=Lt[1:])
    later = np.triu(np.ones((n, n), dtype=bool), 1)  # later[k, l] = l > k
    t1, t2, t3, t4 = tau
    g1 = (t1 > t2) + (t1 > t3)  # gap index: 0 below both, 1 between, 2 above
    g4 = (t4 > t2) + (t4 > t3)
    total = 0
    for j in range(1, n - 2):
        cand = s[j + 1:n - 1]
        sel = cand > s[j] if t3 > t2 else cand < s[j]
        ks = np.flatnonzero(sel) + j + 1
        vk = cand[sel]
        lo = np.minimum(vk, s[j])
        hi = np.maximum(vk, s[j])
        bounds = (np.zeros_like(lo), lo, hi, np.full_like(lo, n + 1))
        left_row = Lt[j]
        lo4, hi4 = bounds[g4], bounds[g4 + 1]
        right = (hi4 - lo4 - 1) - (Lt[ks + 1, hi4] - Lt[ks + 1, lo4 + 1])
        if g1 != g4:
            left = left_row[bounds[g1 + 1]] - left_row[bounds[g1] + 1]
            total += int(left @ right)
            continue
        cols = s[j + 1:]
        inside = later[ks, j + 1:] & (cols > lo4[:, None]) & (cols < hi4[:, None])
        if t1 < t4:
            pairs = inside @ left_row[cols] - right * left_row[lo4 + 1]
        else:
            pairs = right * left_row[hi4] - inside @ left_row[cols + 1]
        total += int(pairs.sum())
    return total


def pattern_count_perm(sigma: Permutation, tau: Permutation) -> int:
    """Exact number of index sets of sigma inducing the pattern tau,
    without enumerating them: sizes 2 and 3 in O(n log n) from one
    Fenwick-tree pass, size 4 in O(n^3) vectorized work (see
    _count_size3 and _count_size4)."""
    k, n = len(tau), len(sigma)
    if not 1 <= k <= 4:
        raise ValueError("pattern size must be between 1 and 4")
    if k > n:
        return 0
    if k == 1:
        return n
    if k == 2:
        asc = sum(_smaller_left(sigma.values)[0])
        return asc if tau.values == (1, 2) else math.comb(n, 2) - asc
    if k == 3:
        return _count_size3(sigma.values)[tau.values]
    return _count_size4(sigma.values, tau.values)


def t_perm(tau: Permutation, sigma: Permutation) -> Fraction:
    """Pattern density of tau in sigma, 0 when sigma is too short."""
    k, n = len(tau), len(sigma)
    if k > n:
        return Fraction(0)
    return Fraction(pattern_count_perm(sigma, tau), math.comb(n, k))


# -- grid measures -----------------------------------------------------


@dataclass(frozen=True)
class GridMeasure:
    m: int
    mass: tuple[tuple[Fraction, ...], ...]  # mass[row=x-cell][col=y-cell]

    def __post_init__(self):
        mass = tuple(tuple(Fraction(v) for v in row) for row in self.mass)
        object.__setattr__(self, "mass", mass)
        m = self.m
        if m < 1:
            raise ValueError(f"grid size m must be at least 1, got {m}")
        if len(mass) != m or any(len(row) != m for row in mass):
            raise ValueError("mass must be an m x m table")
        cell = Fraction(1, m)
        for idx, row in enumerate(mass):
            if any(v < 0 for v in row):
                raise ValueError("cell masses must be nonnegative")
            if sum(row) != cell:
                raise ValueError(f"row {idx} mass {sum(row)} != 1/{m}")
        for j in range(m):
            col = sum(row[j] for row in mass)
            if col != cell:
                raise ValueError(f"column {j} mass {col} != 1/{m}")

    @classmethod
    def from_permutation(cls, sigma: Permutation) -> "GridMeasure":
        n = len(sigma)
        unit = Fraction(1, n)
        mass = [[Fraction(0)] * n for _ in range(n)]
        for i, v in enumerate(sigma.values):
            mass[i][v - 1] = unit
        return cls(n, tuple(tuple(r) for r in mass))

    @classmethod
    def random(cls, m: int, stream: SeededStream, blend: int = 3) -> "GridMeasure":
        """Random grid measure: average of random permutation measures,
        which keeps marginals uniform and masses rational."""
        rng = stream.generator()
        mass = [[Fraction(0)] * m for _ in range(m)]
        unit = Fraction(1, m * blend)
        for _ in range(blend):
            perm = rng.permutation(m)
            for i in range(m):
                mass[i][int(perm[i])] += unit
        return cls(m, tuple(tuple(r) for r in mass))

    def refine(self, L: int) -> "GridMeasure":
        if L % self.m:
            raise ValueError("refinement must be a multiple of m")
        r = L // self.m
        scale = Fraction(1, r * r)
        mass = [
            [self.mass[i // r][j // r] * scale for j in range(L)]
            for i in range(L)
        ]
        return GridMeasure(L, tuple(tuple(row) for row in mass))

    def _int_mass(self) -> tuple[list[list[int]], int]:
        den = math.lcm(*(v.denominator for row in self.mass for v in row))
        return [[int(v * den) for v in row] for row in self.mass], den


def _collision_weight(tup, k: int) -> int:
    """k! divided by the product of factorials of multiplicities."""
    w = math.factorial(k)
    for _, grp in itertools.groupby(tup):
        w //= math.factorial(sum(1 for _ in grp))
    return w


def _x_tensor(M: list[list[int]], m: int, k: int) -> dict[tuple[int, ...], int]:
    """X[b] = sum over nondecreasing x-cell tuples a of
    (k!/prod tie-factorials) * prod_j M[a_j][b_j], as exact integers."""
    if k == 1:
        return {(b,): sum(M[a][b] for a in range(m)) for b in range(m)}
    if k == 2:
        X: dict[tuple[int, ...], int] = {}
        S = [0] * m  # prefix over rows, per column
        for a in range(m):
            for b1 in range(m):
                if M[a][b1] == 0 and S[b1] == 0:
                    continue
                for b2 in range(m):
                    if M[a][b2]:
                        v = 2 * S[b1] * M[a][b2] + M[a][b1] * M[a][b2]
                        if v:
                            X[(b1, b2)] = X.get((b1, b2), 0) + v
            for b in range(m):
                S[b] += M[a][b]
        return X
    if k == 3:
        return _x_tensor_k3(M, m)
    if k == 4:
        return _x_tensor_direct(M, m, 4)
    raise ValueError("exact tensors only for k <= 4")


def _x_tensor_k3(M: list[list[int]], m: int) -> dict[tuple[int, ...], int]:
    S1 = [[0] * m for _ in range(m + 1)]  # S1[a][b] = sum_{a'<a} M[a'][b]
    for a in range(m):
        for b in range(m):
            S1[a + 1][b] = S1[a][b] + M[a][b]
    # T2[b1][b2] accumulates sum_{a2<a} M[a2][b2] * S1[a2][b1]
    # P12[b1][b2] accumulates sum_{a'<a} M[a'][b1] * M[a'][b2]
    T2 = [[0] * m for _ in range(m)]
    P12 = [[0] * m for _ in range(m)]
    X: dict[tuple[int, ...], int] = {}
    for a in range(m):
        row = M[a]
        for b1 in range(m):
            s1 = S1[a][b1]
            for b2 in range(m):
                if row[b2] == 0 and T2[b1][b2] == 0 and P12[b1][b2] == 0:
                    continue
                head = 6 * T2[b1][b2] + 3 * P12[b1][b2] + 3 * s1 * row[b2]
                tail = row[b1] * row[b2]
                for b3 in range(m):
                    v = head * row[b3] if row[b3] else 0
                    v += tail * row[b3] if tail else 0
                    if v:
                        key = (b1, b2, b3)
                        X[key] = X.get(key, 0) + v
        for b1 in range(m):
            s1 = S1[a][b1]
            for b2 in range(m):
                T2[b1][b2] += row[b2] * s1
                P12[b1][b2] += row[b1] * row[b2]
    return X


def _x_tensor_direct(M: list[list[int]], m: int, k: int) -> dict[tuple[int, ...], int]:
    support = [[b for b in range(m) if M[a][b]] for a in range(m)]
    work = sum(
        math.prod(len(support[a]) for a in cells)
        for cells in itertools.combinations_with_replacement(range(m), k)
    )
    if work > 5_000_000:
        raise ValueError("exact size-4 densities are limited to small grids")
    X: dict[tuple[int, ...], int] = {}
    for cells in itertools.combinations_with_replacement(range(m), k):
        wa = _collision_weight(cells, k)
        for b in itertools.product(*(support[a] for a in cells)):
            v = wa
            for a, bb in zip(cells, b):
                v *= M[a][bb]
            X[b] = X.get(b, 0) + v
    return X


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    trials: int
    prng: str
    seed: int


def t_grid(tau: Permutation, mu: GridMeasure, stream: SeededStream | None = None,
           trials: int = 100_000):
    """Pattern density of tau in the grid measure mu.

    Exact (Fraction) for |tau| <= 3, and for |tau| = 4 on grids of size
    at most 6; otherwise Monte Carlo over sampled sub-permutations,
    returning an MCEstimate (a stream is then required).
    """
    k = len(tau)
    exact_ok = k <= EXACT_PATTERN_CAP or (k == 4 and mu.m <= EXACT_K4_GRID_CAP)
    if exact_ok:
        return _t_grid_exact(tau, mu)
    if stream is None:
        raise ValueError(f"pattern size {k} needs Monte Carlo: pass a stream")
    return _t_grid_mc(tau, mu, stream, trials)


def _t_grid_exact(tau: Permutation, mu: GridMeasure) -> Fraction:
    k = len(tau)
    M, den = mu._int_mass()
    X = _x_tensor(M, mu.m, k)
    inv = [0] * k
    for j, v in enumerate(tau.values):
        inv[v - 1] = j  # position of y-rank v among x-ranks
    total = 0
    for c in itertools.combinations_with_replacement(range(mu.m), k):
        # b_j = y-cell of the point with x-rank j, forced by c and tau
        b = tuple(c[tau.values[j] - 1] for j in range(k))
        x = X.get(b)
        if x:
            total += _collision_weight(c, k) * x
    return Fraction(total, math.factorial(k) * den**k)


def _t_grid_mc(tau: Permutation, mu: GridMeasure, stream: SeededStream, trials: int) -> MCEstimate:
    if trials < 1:
        raise ValueError(f"Monte Carlo needs at least 1 trial, got {trials}")
    k = len(tau)
    hits = 0
    batch = 4096
    rng = stream.generator()
    probs = np.array([float(v) for row in mu.mass for v in row])
    probs = probs / probs.sum()
    m = mu.m
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        cells = rng.choice(m * m, size=(b, k), p=probs)
        xs = cells // m + rng.random((b, k))
        ys = cells % m + rng.random((b, k))
        order = np.argsort(xs, axis=1)
        yo = np.take_along_axis(ys, order, axis=1)
        pats = np.argsort(np.argsort(yo, axis=1), axis=1) + 1
        hits += int(np.sum(np.all(pats == np.array(tau.values), axis=1)))
        done += b
    p = hits / trials
    return MCEstimate(
        value=p,
        stderr=math.sqrt(max(p * (1 - p), 1e-12) / trials),
        trials=trials,
        prng=PRNG_ID,
        seed=stream.seed,
    )


def grid_density_table(mu: GridMeasure, k: int) -> dict[str, Fraction]:
    """Exact densities of every pattern of size k (k <= 3, or 4 on
    small grids), keyed by the one-line pattern string."""
    out = {}
    for vals in itertools.permutations(range(1, k + 1)):
        tau = Permutation(vals)
        out[str(tau)] = _t_grid_exact(tau, mu)
    return out


def sample_subperm(mu: GridMeasure, k: int, stream: SeededStream) -> Permutation:
    """Pattern of k independent points sampled from mu."""
    rng = stream.generator()
    probs = np.array([float(v) for row in mu.mass for v in row])
    probs = probs / probs.sum()
    m = mu.m
    cells = rng.choice(m * m, size=k, p=probs)
    xs = cells // m + rng.random(k)
    ys = cells % m + rng.random(k)
    return pattern_of(zip(xs.tolist(), ys.tolist()))


# -- box distance ------------------------------------------------------


def d_box_grid(mu: GridMeasure, nu: GridMeasure) -> Fraction:
    """Exact sup over axis-parallel rectangles of the measure difference,
    restricted (without loss for grid measures) to grid-aligned
    rectangles of the common refinement; O(L^3) column-pair sweep."""
    L = math.lcm(mu.m, nu.m)
    a = mu.refine(L) if mu.m != L else mu
    b = nu.refine(L) if nu.m != L else nu
    den = math.lcm(
        *(v.denominator for row in a.mass for v in row),
        *(v.denominator for row in b.mass for v in row),
    )
    D = [[int((av - bv) * den) for av, bv in zip(ra, rb)] for ra, rb in zip(a.mass, b.mass)]
    # prefix[i][j] = sum over rows < i, cols < j
    P = [[0] * (L + 1) for _ in range(L + 1)]
    for i in range(L):
        rowacc = 0
        for j in range(L):
            rowacc += D[i][j]
            P[i + 1][j + 1] = P[i][j + 1] + rowacc
    best = 0
    for j1 in range(L + 1):
        col1 = [P[i][j1] for i in range(L + 1)]
        for j2 in range(j1 + 1, L + 1):
            mx = mn = 0
            for i in range(L + 1):
                v = P[i][j2] - col1[i]
                if v > mx:
                    mx = v
                elif v < mn:
                    mn = v
            if mx - mn > best:
                best = mx - mn
    return Fraction(best, den)


def d_box_grid_brute(mu: GridMeasure, nu: GridMeasure) -> Fraction:
    """O(L^4) enumeration over all grid rectangles; test oracle."""
    L = math.lcm(mu.m, nu.m)
    a = mu.refine(L) if mu.m != L else mu
    b = nu.refine(L) if nu.m != L else nu
    P = [[Fraction(0)] * (L + 1) for _ in range(L + 1)]
    for i in range(L):
        for j in range(L):
            P[i + 1][j + 1] = (
                P[i][j + 1] + P[i + 1][j] - P[i][j] + a.mass[i][j] - b.mass[i][j]
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


# -- joint moments from densities --------------------------------------


@lru_cache(maxsize=None)
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

    total = Fraction(0)
    for a in range(mu.m):
        xa = avg_pow(a, mu.m, i)
        for b in range(mu.m):
            if mu.mass[a][b]:
                total += mu.mass[a][b] * xa * avg_pow(b, mu.m, j)
    return total


def moment_xy_from_densities(i: int, j: int, densities: Mapping) -> Fraction:
    """Integral of x^i y^j d mu from pattern densities of size i+j+1.

    Densities may be keyed by Permutation, one-line string, or value
    tuple.  The tests check the coefficient table against
    moment_xy_direct on 50 seeded random grid measures per (i, j).
    """
    if i < 0 or j < 0 or i + j + 1 > 4:
        raise ValueError("need i, j >= 0 and i + j + 1 <= 4")

    def lookup(sigma: tuple[int, ...]) -> Fraction:
        for key in (sigma, Permutation(sigma), ",".join(map(str, sigma))):
            try:
                if key in densities:
                    return Fraction(densities[key])
            except TypeError:
                continue
        raise KeyError(f"missing pattern density for {sigma}")

    return sum((c * lookup(s) for s, c in _moment_coeffs(i, j)), Fraction(0))


def moment_densities(mu: GridMeasure, i: int, j: int) -> dict[tuple[int, ...], Fraction]:
    """Exact densities of all patterns of size i+j+1, keyed by tuple."""
    k = i + j + 1
    return {
        s: _t_grid_exact(Permutation(s), mu)
        for s in itertools.permutations(range(1, k + 1))
    }
