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
column of cell masses sums to 1/m); it is stored as integer cell masses
over one common denominator.  The measure of a permutation sigma puts
mass 1/n on each cell (i, sigma(i)).  Exact pattern densities t(tau, .)
(size <= 3, and size 4 on small grids) come from one tensor DP over the
x-rows, whose m^k tensor (at most TENSOR_CAP = 2^24 entries: size 3 up
to m = 256, size 4 up to m = 64) is read, permuted by tau, at the
nondecreasing cell tuples with their collision weights; the box
distance is an O(L^3) sweep over integer prefix sums.  Kernels use int64
where a bound proves it exact and Python ints otherwise.  Larger
patterns and larger grids fall back to Monte Carlo with a reported
standard error.  Its cells come from a guide table cached on the measure
(Chen & Asau's inverse-transform method), which maps every uniform to
the cell that Generator.choice's binary search over the same float cdf
picks, so a seeded estimate equals the one drawn with rng.choice; the
x- and y-cell of each cell it keeps are cached beside it as floats.  A
sample of k <= RANK_TEST_K points is a hit when the x-ranks and y-ranks
of its points, counted by k x k compares, follow tau; larger samples,
and samples with tied coordinates, are decided by argsort, as before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .streams import PRNG_ID, SeededStream

EXACT_PATTERN_CAP = 3
# t_grid's size-4 exact limit; kept only so that the seeded Monte Carlo
# output for size 4 on grids with m > 6 (corpus and benchmark reference
# digests) stays the same, although the tensor DP handles m <= 64
EXACT_K4_GRID_CAP = 6
# _count_size4's (n + 1) x (n + 2) int64 table is 128 MB at this host length
K4_HOST_CAP = 4000


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
    _count_size3 and _count_size4).  Size 4 needs an O(n^2) int64 table,
    so hosts longer than K4_HOST_CAP letters are refused."""
    k, n = len(tau), len(sigma)
    if not 1 <= k <= 4:
        raise ValueError("pattern size must be between 1 and 4")
    if k > n:
        return 0
    if k == 4 and n > K4_HOST_CAP:
        raise ValueError(
            f"size-4 pattern counts are limited to hosts of at most {K4_HOST_CAP} letters, got {n}")
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


def _int_dtype(bound: int):
    """int64 when bound, a bound on every value a kernel computes, is
    below 2^63; Python ints (dtype=object) otherwise."""
    return np.int64 if bound < 1 << 63 else object


class GridMeasure:
    """Grid measure on the m x m grid, stored as integer cell masses over
    one common denominator: cell (i, j) (x-cell i, y-cell j) has mass
    cells[i, j] / den, with den the least such denominator.

    GridMeasure(m, mass) takes a table of rationals; `mass` gives it back
    as a table of Fractions, built on first use.  Instances are immutable
    (`cells` is a read-only array and no attribute can be set, so the
    hash and the cached views stay valid), and compare equal when they
    describe the same measure on the same grid.
    """

    def __init__(self, m: int, mass):
        table = [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in mass]
        self._init_ratios(m, [[(v.numerator, v.denominator) for v in row] for row in table])

    @classmethod
    def _of_ratios(cls, m: int, pairs) -> "GridMeasure":
        """The measure with mass p / q in each cell, from a table of int
        pairs (p, q) with q > 0."""
        mu = cls.__new__(cls)
        mu._init_ratios(m, pairs)
        return mu

    @classmethod
    def _of_ints(cls, m: int, cells: np.ndarray, den: int) -> "GridMeasure":
        mu = cls.__new__(cls)
        mu._init(m, cells, den)
        return mu

    def _init_ratios(self, m: int, pairs) -> None:
        """Validate the m x m table of masses p / q and store it over the
        lcm of the q (int64 cells when they fit, else Python ints)."""
        if m >= 1 and (len(pairs) != m or any(len(row) != m for row in pairs)):
            raise ValueError("mass must be an m x m table")
        den = math.lcm(*{q for row in pairs for _, q in row})
        cells = [[p * (den // q) for p, q in row] for row in pairs] if m >= 1 else []
        try:
            ints = np.array(cells, dtype=np.int64)
        except OverflowError:
            ints = np.array(cells, dtype=object)
        self._init(m, ints, den)

    def _init(self, m: int, cells: np.ndarray, den: int) -> None:
        """Validate cells / den and store it over the least denominator."""
        if m < 1:
            raise ValueError(f"grid size m must be at least 1, got {m}")
        g = math.gcd(den, int(np.gcd.reduce(cells.ravel())))
        cells, den = cells // g, den // g
        # row and column sums are at most m * top, compared as m * sum
        top = max(den, int(np.abs(cells).max()))
        cells = cells.astype(_int_dtype(m * m * top))
        cells.flags.writeable = False
        self.__dict__.update(m=m, cells=cells, den=den)
        neg = (cells < 0).any(axis=1)
        rows = cells.sum(axis=1)
        bad = neg | (rows * m != den)
        if bad.any():
            i = int(bad.argmax())
            if neg[i]:
                raise ValueError("cell masses must be nonnegative")
            raise ValueError(f"row {i} mass {Fraction(int(rows[i]), den)} != 1/{m}")
        cols = cells.sum(axis=0)
        bad = cols * m != den
        if bad.any():
            j = int(bad.argmax())
            raise ValueError(f"column {j} mass {Fraction(int(cols[j]), den)} != 1/{m}")

    def __setattr__(self, name, value):
        raise AttributeError(f"GridMeasure is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GridMeasure is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridMeasure):
            return NotImplemented
        return (self.m, self.den) == (other.m, other.den) and np.array_equal(self.cells, other.cells)

    def __hash__(self) -> int:
        return hash((self.m, self.den, tuple(self.cells.ravel().tolist())))

    def __repr__(self) -> str:
        return f"GridMeasure(m={self.m}, den={self.den}, cells={self.cells.tolist()})"

    @classmethod
    def from_permutation(cls, sigma: Permutation) -> "GridMeasure":
        n = len(sigma)
        cells = np.zeros((n, n), dtype=np.int64)
        cells[np.arange(n), np.array(sigma.values, dtype=np.int64) - 1] = 1
        return cls._of_ints(n, cells, n)

    def refine(self, L: int) -> "GridMeasure":
        if L % self.m:
            raise ValueError("refinement must be a multiple of m")
        r = L // self.m
        cells = np.repeat(np.repeat(self.cells, r, axis=0), r, axis=1)
        return GridMeasure._of_ints(L, cells, self.den * r * r)

    @cached_property
    def _cell_probs(self) -> np.ndarray:
        """Cell masses as floats, row-major and normalised: each is the
        correctly rounded c / den, equal to float(Fraction(c, den))."""
        den = self.den
        probs = np.array([c / den for c in self.cells.ravel().tolist()])
        probs /= probs.sum()
        probs.flags.writeable = False
        return probs

    @cached_property
    def _cell_sampler(self) -> "_GuideTable":
        """Sampler of row-major cell indices with probabilities _cell_probs."""
        return _GuideTable(self._cell_probs)

    @cached_property
    def _cell_corners(self) -> tuple[np.ndarray, np.ndarray]:
        """The x-cell and the y-cell, as floats, of each cell that
        _cell_sampler keeps, in the order of its `index`."""
        xcell, ycell = np.divmod(self._cell_sampler.index, self.m)
        return xcell.astype(float), ycell.astype(float)


class _GuideTable:
    """Inverse-transform sampling from a float distribution with a guide
    table (Chen & Asau, AIIE Trans. 6(2), 1974), drawing the same indices
    as Generator.choice(len(probs), size, p=probs) from the same stream.

    choice draws u = rng.random(size) and returns cdf.searchsorted(u,
    side="right"), with cdf = probs.cumsum() / its last entry: the first
    j with cdf[j] > u.  That j is a point where the float cdf strictly
    increases, so only those points are kept (c, in order, with their
    indices).  The table has T >= len(c) buckets, T a power of two, so
    u * T and b / T are exact and floor(u * T) = b < T gives
    b / T <= u; start[b], the first t with c[t] > b / T, is then at or
    before the answer, which the draw reaches by stepping right while
    c[t] <= u.
    """

    def __init__(self, probs: np.ndarray):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.index = np.flatnonzero(cdf > np.concatenate(([0.0], cdf[:-1])))
        self.c = cdf[self.index]
        self.T = 1 << (len(self.c) - 1).bit_length()
        self.start = self.c.searchsorted(np.arange(self.T) / self.T, side="right")

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.index[self.slots(rng, shape)]

    def slots(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Positions t in `index` of the outcomes that draw picks."""
        u = rng.random(shape)
        flat = u.ravel()
        t = self.start[(flat * self.T).astype(np.intp)]
        c = self.c
        j = np.flatnonzero(c[t] <= flat)
        while j.size:
            t[j] += 1
            j = j[c[t[j]] <= flat[j]]
        return t.reshape(u.shape)


# entries of one dense m^k density tensor (128 MB as int64): size 3 up to
# m = 256, size 4 up to m = 64; beyond it t_grid answers by Monte Carlo
# and the exact tables raise ValueError
TENSOR_CAP = 1 << 24


def _tensor(rows: np.ndarray, k: int) -> np.ndarray:
    """E[b_1..b_k] = sum over nondecreasing row tuples a_1 <= ... <= a_k of
    (k! / product of the factorials of tied rows) * prod_i rows[a_i, b_i].

    Walks the rows in order: a j-tuple whose last t entries are the new
    row r extends a (j - t)-tuple of earlier rows, and its weight is
    C(j, t) times that tuple's, so E_j += sum_t C(j, t) E_{j-t} (x) r^(x t)
    for j from k down to 1, summed in Horner form.  Each product with r
    is added one nonzero column of r at a time, so a row with s of them
    costs O(s m^(k-1)); E_j is kept with its axes reversed (newest point
    first), which makes each column's block contiguous, and E_k is
    returned as a transposed view.  Entries stay below den^j and Horner
    partial sums below 2^j den^(j-1), both at most k! den^k when den > 1.
    """
    m = rows.shape[1]
    E = [np.ones((), rows.dtype)] + [np.zeros((m,) * j, rows.dtype) for j in range(1, k + 1)]
    for r in rows:
        cols = [(b, r[b]) for b in np.flatnonzero(r).tolist()]
        for j in range(k, 0, -1):
            acc = E[0]
            for t in range(j - 1, 0, -1):
                nxt = math.comb(j, t) * E[j - t]
                for b, v in cols:
                    nxt[b] += v * acc
                acc = nxt
            for b, v in cols:
                E[j][b] += v * acc
    return E[k].transpose()


def _ties(m: int, k: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The nondecreasing cell tuples c of length k over m cells, as k index
    arrays in lexicographic order, and their collision weights k! /
    (product of the factorials of the runs of equal cells).  Each j-tuple
    extends, in order, by every cell from its last one on: the weight
    gains the factor j + 1, and the first extension, which repeats the
    last cell, divides it by the new length of the last run."""
    cs, w, run = [np.arange(m)], np.ones(m, dtype=np.int64), np.ones(m, dtype=np.int64)
    for j in range(1, k):
        last = cs[-1]
        ext = m - last  # extensions of each tuple
        first = np.cumsum(ext) - ext  # position of each tuple's first extension
        cell = np.arange(first[-1] + ext[-1])
        cell -= np.repeat(first - last, ext)
        w = np.repeat(w * (j + 1), ext)
        w[first] //= run + 1
        extended_run = np.ones_like(cell)
        extended_run[first] = run + 1
        cs, run = [np.repeat(c, ext) for c in cs] + [cell], extended_run
    return tuple(cs), w


def _grid_tensors(mu: GridMeasure, k: int) -> tuple[np.ndarray, tuple]:
    """(X, ties) for the exact size-k densities of mu: X from the cell
    masses, ties from _ties.  Every value of the density sums is at most
    k! den^k, so int64 is used exactly when that is below 2^63."""
    if not 1 <= k <= 4:
        raise ValueError("exact tensors only for k <= 4")
    if mu.m**k > TENSOR_CAP:
        raise ValueError(
            f"exact size-{k} densities on an {mu.m}-grid need {mu.m**k} tensor entries, "
            f"above the cap of {TENSOR_CAP}")
    dtype = _int_dtype(math.factorial(k) * mu.den**k)
    return _tensor(mu.cells.astype(dtype), k), _ties(mu.m, k)


def _density(tau: Permutation, X: np.ndarray, ties: tuple, den: int) -> Fraction:
    """t(tau, mu) = sum over nondecreasing y-cell tuples c of
    w(c) X[c o tau] / (k! den^k): the point of x-rank j has y-rank tau_j,
    so its y-cell is c[tau_j]."""
    cs, w = ties
    total = int((w.astype(X.dtype) * X[tuple(cs[v - 1] for v in tau.values)]).sum())
    return Fraction(total, math.factorial(len(tau)) * den**len(tau))


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
    at most 6, while the m^k density tensor is within TENSOR_CAP (so
    size 3 needs m <= 256 and size 2 m <= 4096); otherwise Monte Carlo
    over sampled sub-permutations, returning an MCEstimate (a stream is
    then required, else ValueError).
    """
    k, m = len(tau), mu.m
    exact_ok = k <= EXACT_PATTERN_CAP or (k == 4 and m <= EXACT_K4_GRID_CAP)
    if exact_ok and m**k <= TENSOR_CAP:
        return _density(tau, *_grid_tensors(mu, k), mu.den)
    if stream is None:
        raise ValueError(f"pattern size {k} on an {m}-grid needs Monte Carlo: pass a stream")
    return _t_grid_mc(tau, mu, stream, trials)


# largest pattern whose Monte Carlo rows are decided by the rank test; its
# k x k compare of a 4096-row batch is at most 500 KB, and its cost grows
# as k^2 per row, so above this size two argsorts cost less
RANK_TEST_K = 11


def _argsort_hits(xs: np.ndarray, ys: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Which rows of points (xs, ys) have the pattern tau, with inv =
    argsort(tau): those whose y values, taken in argsort(xs) order,
    argsort to inv.  Ties are broken as argsort breaks them."""
    yo = np.take_along_axis(ys, np.argsort(xs, axis=1), axis=1)
    return np.all(np.argsort(yo, axis=1) == inv, axis=1)


def _pattern_hits(xs: np.ndarray, ys: np.ndarray, inv: np.ndarray) -> int:
    """Rows of points (xs, ys), one row of k points each, whose pattern is
    tau, with inv = argsort(tau): the count of _argsort_hits.

    For k <= RANK_TEST_K the rows are columns of (k, rows) arrays, and
    rx, the x-rank of each point, counts the points left of it (ry the
    same in y).  Without ties the point of y-rank s has x-rank inv[s],
    so a row is a hit exactly when inv[ry] == rx in every column.  A row
    with a tie in x or in y has a rank sum below k(k - 1) / 2 in it;
    such rows are decided by argsort, as before.
    """
    k = xs.shape[1]
    if k > RANK_TEST_K:
        return int(np.count_nonzero(_argsort_hits(xs, ys, inv)))
    rank = np.min_scalar_type(k * k)  # holds the ranks and their sums
    X, Y = np.ascontiguousarray(xs.T), np.ascontiguousarray(ys.T)
    rx = (X[:, None] < X[None]).sum(0, dtype=rank)
    ry = (Y[:, None] < Y[None]).sum(0, dtype=rank)
    hit = (inv.astype(rank)[ry] == rx).all(0)
    tie = np.flatnonzero(rx.sum(0, dtype=rank) + ry.sum(0, dtype=rank) < k * (k - 1))
    if tie.size:
        hit[tie] = _argsort_hits(xs[tie], ys[tie], inv)
    return int(np.count_nonzero(hit))


def _t_grid_mc(tau: Permutation, mu: GridMeasure, stream: SeededStream, trials: int) -> MCEstimate:
    """Monte Carlo estimate of t(tau, mu): the share of `trials` samples
    of k points whose pattern is tau.  The samples are drawn from the
    stream's generator in batches of 4096, each the cells, x jitter and
    y jitter of _grid_points, and decided by _pattern_hits."""
    if trials < 1:
        raise ValueError(f"Monte Carlo needs at least 1 trial, got {trials}")
    rng, inv, k, hits = stream.generator(), np.argsort(tau.values), len(tau), 0
    for done in range(0, trials, 4096):
        xs, ys = _grid_points(mu, rng, (min(4096, trials - done), k))  # freed only once the next is drawn
        hits += _pattern_hits(xs, ys, inv)
    p = hits / trials
    return MCEstimate(
        value=p,
        stderr=math.sqrt(max(p * (1 - p), 1e-12) / trials),
        trials=trials,
        prng=PRNG_ID,
        seed=stream.seed,
    )


def grid_density_table(mu: GridMeasure, k: int) -> dict[str, Fraction]:
    """Exact densities of every pattern of size k, keyed by the one-line
    pattern string: the densities in which a permuton is Lipschitz in box
    distance (acceptance criterion 11).  Needs k <= 4 and m^k <= TENSOR_CAP
    (m <= 256 for size 3, m <= 64 for size 4); larger grids raise
    ValueError."""
    X, ties = _grid_tensors(mu, k)
    return {
        str(tau): _density(tau, X, ties, mu.den)
        for tau in map(Permutation, itertools.permutations(range(1, k + 1)))
    }


def sample_subperm(mu: GridMeasure, k: int, stream: SeededStream | np.random.Generator) -> Permutation:
    """Pattern of k independent points sampled from mu, drawn from the
    stream's generator or from a generator keyed to a stream, such as
    SeededStream.substream_generators yields."""
    if k < 1:
        raise ValueError(f"pattern size must be at least 1, got {k}")
    rng = stream.generator() if isinstance(stream, SeededStream) else stream
    xs, ys = _grid_points(mu, rng, k)
    return pattern_of(zip(xs.tolist(), ys.tolist()))


def _grid_points(mu: GridMeasure, rng: np.random.Generator, shape):
    """(xs, ys), arrays of the given shape, of points drawn from mu in
    m-grid units: the cells, then the x jitter, then the y jitter, each
    one draw from rng, in that order (seeded output depends on it).  The
    cell corners are read from the floats the sampler keeps, so each
    coordinate has the bits of cells // m + rng.random(shape)."""
    t = mu._cell_sampler.slots(rng, shape)
    xcell, ycell = mu._cell_corners
    return xcell[t] + rng.random(shape), ycell[t] + rng.random(shape)


# -- box distance ------------------------------------------------------


def d_box_grid(mu: GridMeasure, nu: GridMeasure) -> Fraction:
    """Exact sup over axis-parallel rectangles of the measure difference,
    restricted (without loss for grid measures) to grid-aligned
    rectangles of the common refinement; O(L^3) column-pair sweep, one
    vectorised step per left column, on values in [-2 den, 2 den]."""
    L = math.lcm(mu.m, nu.m)
    a = mu.refine(L) if mu.m != L else mu
    b = nu.refine(L) if nu.m != L else nu
    den = math.lcm(a.den, b.den)
    dtype = _int_dtype(2 * den)
    D = a.cells.astype(dtype) * (den // a.den) - b.cells.astype(dtype) * (den // b.den)
    P = np.zeros((L + 1, L + 1), dtype=dtype)  # P[i, j]: rows < i, cols < j
    P[1:, 1:] = D.cumsum(axis=0).cumsum(axis=1)
    best = 0
    for j1 in range(L):
        V = P[:, j1 + 1:] - P[:, j1:j1 + 1]  # column strips [j1, j2), every row prefix
        best = max(best, int((V.max(axis=0) - V.min(axis=0)).max()))
    return Fraction(best, den)

