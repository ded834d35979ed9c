"""Permutation patterns, grid measures, box distance, and 2-D moments."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from seqlimit import (
    GridMeasure,
    Permutation,
    SeededStream,
    d_box_grid,
    sample_subperm,
    t_grid,
    t_perm,
)
from seqlimit.permutons import (
    RANK_TEST_K,
    MCEstimate,
    _GuideTable,
    _grid_points,
    _grid_tensors,
    _pattern_hits,
    _t_grid_mc,
    _ties,
    grid_density_table,
    pattern_count_perm,
    pattern_of,
)

from util import (
    d_box_grid_brute,
    grid_mass,
    moment_xy_direct,
    moment_xy_from_densities,
    random_grid,
    ties_by_identity_tensor,
)

P = Permutation.from_csv
UNIFORM = GridMeasure(1, ((Fraction(1),),))


def brute_pattern_count(sigma: Permutation, tau: Permutation) -> int:
    k, n = len(tau), len(sigma)
    count = 0
    for idx in itertools.combinations(range(n), k):
        vals = [sigma.values[i] for i in idx]
        ranks = {v: r for r, v in enumerate(sorted(vals), start=1)}
        if tuple(ranks[v] for v in vals) == tau.values:
            count += 1
    return count


def _collision_weight(cells) -> int:
    """k! divided by the product of the factorials of tie multiplicities."""
    w = math.factorial(len(cells))
    for _, grp in itertools.groupby(cells):
        w //= math.factorial(sum(1 for _ in grp))
    return w


def brute_grid_density(tau: Permutation, mu: GridMeasure) -> Fraction:
    """Exact t(tau, mu) by enumeration over cell tuples, in Fractions.

    X[b] sums, over nondecreasing x-cell tuples a, the collision weight of
    a times prod_j mass[a_j][b_j] (b_j: the y-cell of the point of x-rank
    j); the density sums, over nondecreasing y-cell tuples c, the weight
    of c times X[c o tau], divided by k!."""
    k, m, mass = len(tau), mu.m, grid_mass(mu)
    support = [[b for b in range(m) if mass[a][b]] for a in range(m)]
    X: dict[tuple[int, ...], Fraction] = {}
    for cells in itertools.combinations_with_replacement(range(m), k):
        wa = _collision_weight(cells)
        for b in itertools.product(*(support[a] for a in cells)):
            v = Fraction(wa)
            for a, bb in zip(cells, b):
                v *= mass[a][bb]
            X[b] = X.get(b, 0) + v
    total = Fraction(0)
    for c in itertools.combinations_with_replacement(range(m), k):
        x = X.get(tuple(c[v - 1] for v in tau.values))
        if x:
            total += _collision_weight(c) * x
    return total / math.factorial(k)


def mixture(m: int, weights, stream: SeededStream) -> GridMeasure:
    """Mixture of random permutation measures with the given weights."""
    total = sum(map(Fraction, weights))
    mass = [[Fraction(0)] * m for _ in range(m)]
    for t, w in enumerate(weights):
        for i, v in enumerate(stream.substream(t).generator().permutation(m)):
            mass[i][int(v)] += Fraction(w) / (total * m)
    return GridMeasure(m, mass)


# two primes near 2^40 as weight denominators: the common denominator of
# the cell masses exceeds 2^63, so every kernel runs on Python ints
P1, P2 = 1099511627791, 1099511627817
BIG_WEIGHTS = (Fraction(P1 - 5, P1), Fraction(3, P2), Fraction(2, P1 * P2))


def test_permutation_parsing_and_validation():
    assert P("2,1,4,3").values == (2, 1, 4, 3)
    assert P("231").values == (2, 3, 1)
    assert str(P("3 1 2")) == "3,1,2"
    with pytest.raises(ValueError):
        Permutation((1, 3))


def test_pattern_count_examples():
    n = 8
    identity = Permutation(tuple(range(1, n + 1)))
    reverse = Permutation(tuple(range(n, 0, -1)))
    assert pattern_count_perm(identity, P("12")) == math.comb(n, 2)
    assert pattern_count_perm(reverse, P("12")) == 0
    assert pattern_count_perm(P("2143"), P("21")) == 2
    assert t_perm(P("123"), P("12")) == 0  # pattern longer than host
    with pytest.raises(ValueError):
        pattern_count_perm(identity, Permutation((1, 2, 3, 4, 5)))


PATTERNS = [
    Permutation(vals) for k in (2, 3, 4) for vals in itertools.permutations(range(1, k + 1))
]


def test_pattern_count_matches_brute_force():
    # every host of length n <= 6, so hosts shorter than and as long as
    # each pattern are covered, then seeded hosts of length 7..12
    hosts = [
        Permutation(vals)
        for n in range(7)
        for vals in itertools.permutations(range(1, n + 1))
    ]
    stream = SeededStream(71)
    for n in range(7, 13):
        rng = stream.substream(n).generator()
        hosts += [Permutation(tuple(int(v) + 1 for v in rng.permutation(n))) for _ in range(4)]
    for sigma in hosts:
        for tau in PATTERNS:
            count = pattern_count_perm(sigma, tau)
            assert type(count) is int
            assert count == brute_pattern_count(sigma, tau)


# reverse, complement and inverse, as maps of the points (i, sigma_i)
SYMMETRIES = (lambda x, y: (-x, y), lambda x, y: (x, -y), lambda x, y: (y, x))


def test_pattern_counts_large_host_sum_and_symmetries():
    # n = 300 is far beyond enumeration: check that the counts of each
    # size partition the C(n, k) index sets and are invariant under the
    # symmetries of the square applied to host and pattern together
    n = 300
    rng = SeededStream(70).generator()
    sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))

    def image(sym, p):
        return pattern_of(sym(x, y) for x, y in enumerate(p.values))

    for k in (2, 3, 4):
        counts = {tau: pattern_count_perm(sigma, tau) for tau in PATTERNS if len(tau) == k}
        assert sum(counts.values()) == math.comb(n, k)
        for sym in SYMMETRIES:
            host = image(sym, sigma)
            for tau, count in counts.items():
                assert pattern_count_perm(host, image(sym, tau)) == count


def test_grid_measure_construction():
    mu = GridMeasure.from_permutation(P("21"))
    assert grid_mass(mu)[0][1] == Fraction(1, 2) and grid_mass(mu)[1][0] == Fraction(1, 2)
    with pytest.raises(ValueError):  # column sums 3/4 and 1/4: not a permuton
        GridMeasure(2, ((Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(1, 4))))
    r = random_grid(5, SeededStream(72))
    assert all(sum(row) == Fraction(1, 5) for row in grid_mass(r))


def test_grid_measure_int_masses_equality_and_errors():
    mu = GridMeasure(2, (("1/4", "1/4"), ("1/4", "1/4")))
    assert mu.den == 4 and mu.cells.tolist() == [[1, 1], [1, 1]]
    refined = GridMeasure(1, ((1,),)).refine(2)
    assert mu == refined and hash(mu) == hash(refined)
    assert mu != GridMeasure.from_permutation(P("12"))
    # equal blended permutations reduce to the permutation measure
    assert random_grid(3, SeededStream(5), blend=1).den == 3
    with pytest.raises(ValueError, match="cell masses must be nonnegative"):
        GridMeasure(2, ((Fraction(3, 4), Fraction(-1, 4)), (Fraction(-1, 4), Fraction(3, 4))))
    with pytest.raises(ValueError, match=r"row 1 mass 3/4 != 1/2"):
        GridMeasure(2, ((Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 4))))
    with pytest.raises(ValueError, match=r"column 0 mass 3/4 != 1/2"):
        GridMeasure(2, ((Fraction(1, 2), 0), (Fraction(1, 4), Fraction(1, 4))))
    with pytest.raises(ValueError, match="m x m table"):
        GridMeasure(2, ((Fraction(1, 2), 0),))
    with pytest.raises(ValueError, match="multiple of m"):
        mu.refine(3)
    with pytest.raises(AttributeError, match="immutable"):
        mu.m = 3
    with pytest.raises(AttributeError, match="immutable"):
        mu.den = 8
    assert mu.m == 2 and hash(mu) == hash(refined)


def test_exact_grid_densities_match_enumeration_oracle():
    stream = SeededStream(82)
    grids = [random_grid(m, stream.substream(m), blend=1 + m % 3) for m in range(1, 7)]
    grids += [mixture(m, (1, 2, 4), stream.substream(10 + m)) for m in (3, 5)]
    grids += [GridMeasure.from_permutation(P(s)) for s in ("1", "21", "231", "3142", "25314")]
    for mu in grids:
        for k in (1, 2, 3, 4):
            table = grid_density_table(mu, k)
            assert sum(table.values()) == 1
            for vals in itertools.permutations(range(1, k + 1)):
                tau = Permutation(vals)
                assert table[str(tau)] == brute_grid_density(tau, mu)


def test_grid_kernels_on_python_ints_beyond_int64():
    mu = mixture(4, BIG_WEIGHTS, SeededStream(83))
    nu = random_grid(6, SeededStream(84))
    assert mu.den >= 2**63 and mu.cells.dtype == object
    assert all(X.dtype == object for X, _ in (_grid_tensors(mu, k) for k in (1, 2, 3, 4)))
    for k in (1, 2, 3, 4):
        for vals in itertools.permutations(range(1, k + 1)):
            tau = Permutation(vals)
            assert t_grid(tau, mu) == brute_grid_density(tau, mu)
    assert d_box_grid(mu, nu) == d_box_grid_brute(mu, nu)
    assert d_box_grid(mu, mu.refine(8)) == 0


def test_dense_tensor_cap_is_a_domain_error():
    big = GridMeasure.from_permutation(Permutation(tuple(range(1, 258))))  # 257^3 > 2^24
    with pytest.raises(ValueError, match="cap"):
        grid_density_table(big, 3)
    with pytest.raises(ValueError, match="needs Monte Carlo"):
        t_grid(P("123"), big)
    assert isinstance(t_grid(P("123"), big, stream=SeededStream(85), trials=100), MCEstimate)
    assert t_grid(P("12"), big) == 1 - Fraction(1, 2 * 257)


def test_size4_exact_densities_end_at_m_64():
    # 64^4 = 2^24 entries is the largest size-4 tensor; 65^4 is refused
    with pytest.raises(ValueError, match="cap"):
        grid_density_table(random_grid(65, SeededStream(86)), 4)
    with pytest.raises(ValueError, match="cap"):
        grid_density_table(GridMeasure.from_permutation(Permutation(tuple(range(1, 66)))), 4)
    m = 64
    table = grid_density_table(GridMeasure.from_permutation(Permutation(tuple(range(1, m + 1)))), 4)
    assert sum(table.values()) == 1
    # four points in diagonal cells form 1234 unless they share a cell; g
    # points in one cell form each pattern of S_g with probability 1/g!
    tuples = (m / Fraction(24) + 4 * m * (m - 1) / Fraction(6) + 3 * m * (m - 1) / Fraction(4)
              + 6 * m * (m - 1) * (m - 2) / Fraction(2) + m * (m - 1) * (m - 2) * (m - 3))
    assert table["1,2,3,4"] == tuples / m**4


def test_collision_weights_match_the_identity_tensor_oracle():
    for m in range(1, 13):
        for k in range(1, 5):
            (cs, w), (want_cs, want_w) = _ties(m, k), ties_by_identity_tensor(m, k)
            assert len(cs) == k and all(np.array_equal(c, want) for c, want in zip(cs, want_cs)), (m, k)
            assert np.array_equal(w, want_w), (m, k)
    cs, w = _ties(64, 4)
    assert all(len(c) == math.comb(67, 4) for c in cs)
    assert (np.diff(np.stack(cs), axis=0) >= 0).all()
    assert int(w.sum()) == 64**4


def test_t_grid_uniform_measure_is_symmetric():
    for k in (1, 2, 3):
        for vals in itertools.permutations(range(1, k + 1)):
            assert t_grid(Permutation(vals), UNIFORM) == Fraction(1, math.factorial(k))


def test_t_grid_densities_sum_to_one_and_refinement_invariance():
    stream = SeededStream(73)
    for t in range(8):
        mu = random_grid(4, stream.substream(t))
        for k in (1, 2, 3):
            table = grid_density_table(mu, k)
            assert sum(table.values()) == 1
        fine = mu.refine(8)  # same measure on a finer grid
        for vals in itertools.permutations((1, 2, 3)):
            tau = Permutation(vals)
            assert t_grid(tau, mu) == t_grid(tau, fine)


def test_t_grid_k4_exact_small_grid_consistency():
    mu = GridMeasure.from_permutation(P("3142"))
    total = Fraction(0)
    for vals in itertools.permutations((1, 2, 3, 4)):
        total += t_grid(Permutation(vals), mu)
    assert total == 1
    # the identity pattern in mu_sigma for sigma = 3142: compare against
    # the host-permutation count via the bridge bound C(4,2)/4
    gap = abs(t_perm(P("1234"), P("3142")) - t_grid(P("1234"), mu))
    assert gap <= Fraction(6, 4)


def test_t_grid_monte_carlo_within_stderr_of_exact():
    mu = random_grid(3, SeededStream(74))
    tau = P("132")
    exact = t_grid(tau, mu)
    est = t_grid(Permutation((1, 3, 2, 4, 5)), mu, stream=SeededStream(75), trials=20_000)
    assert isinstance(est, MCEstimate)
    mc = t_grid(tau, mu, stream=SeededStream(76))
    # force the Monte Carlo path on the same size-3 pattern for comparison
    from seqlimit.permutons import _t_grid_mc

    est3 = _t_grid_mc(tau, mu, SeededStream(77), 40_000)
    assert abs(est3.value - float(exact)) <= 4 * est3.stderr + 1e-9
    with pytest.raises(ValueError):
        t_grid(Permutation((1, 2, 3, 4, 5)), mu)  # needs a stream


def _sampler_grids() -> list[GridMeasure]:
    """Five grids per m = 1..40: a sparse and a dense blend of random
    permutations, the uniform measure (odd m) or a four-weight mixture
    (even m), one whose first m - 1 cells (row-major) have no mass, and
    one over two primes near 2^40, where the cells of the 2 / (P1 P2)
    weight do not move the float cdf at all."""
    stream = SeededStream(87)
    grids = []
    for m in range(1, 41):
        sub = stream.substream(m)
        grids.append(random_grid(m, sub.substream(0), blend=1 + m % 3))
        grids.append(random_grid(m, sub.substream(1), blend=2 * m))
        grids.append(GridMeasure(1, ((1,),)).refine(m) if m % 2 else
                     mixture(m, (1, 3, 5, 7), sub.substream(2)))
        last_first = (m,) + tuple(range(1, m))  # row 0 puts its mass in the last column
        grids.append(GridMeasure.from_permutation(Permutation(last_first)))
        grids.append(mixture(m, BIG_WEIGHTS, sub.substream(3)))
    return grids


def test_guide_table_draws_the_cells_generator_choice_draws():
    shapes = [(4097, 5), (1,), 7, (3, 11), (8191,), (0,)]
    stream = SeededStream(88)
    grids = _sampler_grids()
    assert len(grids) >= 200
    for t, mu in enumerate(grids):
        shape = shapes[t % len(shapes)]
        sub = stream.substream(t)
        fast, slow = sub.generator(), sub.generator()
        got = mu._cell_sampler.draw(fast, shape)
        want = slow.choice(mu.m * mu.m, size=shape, p=mu._cell_probs)
        assert got.dtype == want.dtype and np.array_equal(got, want), (t, mu.m)
        assert fast.random() == slow.random()  # the same draws were consumed
    assert grids[0]._cell_sampler is grids[0]._cell_sampler


def test_guide_table_on_float_distributions_with_flat_cdf_steps():
    # masses far below one ulp of the running cdf, exact zeros at both ends,
    # and a single cell
    rng = SeededStream(89).generator()
    for n in (1, 2, 3, 17, 900, 5000):
        for tiny in (0.0, 1e-30, 1e-17):
            p = rng.random(n) * (rng.random(n) < 0.5)
            p[rng.random(n) < 0.2] = tiny
            p[0] = p[-1] = 0.0
            if not p.any():
                p[n // 2] = 1.0
            p /= p.sum()
            sampler = _GuideTable(p)
            assert sampler.T >= len(sampler.c) and sampler.T & (sampler.T - 1) == 0
            seed = int(rng.integers(1 << 62))
            fast = np.random.Generator(np.random.Philox(seed))
            slow = np.random.Generator(np.random.Philox(seed))
            assert np.array_equal(sampler.draw(fast, (2000, 3)), slow.choice(n, size=(2000, 3), p=p))


def test_grid_points_have_the_bits_of_cells_plus_jitter():
    shapes = [(4097, 5), (1,), 7, (3, 11), (8191,), (0,)]
    stream = SeededStream(91)
    for t, mu in enumerate(_sampler_grids()):
        shape = shapes[t % len(shapes)]
        sub = stream.substream(t)
        fast, slow = sub.generator(), sub.generator()
        xs, ys = _grid_points(mu, fast, shape)
        cells = slow.choice(mu.m * mu.m, size=shape, p=mu._cell_probs)
        want_xs = cells // mu.m + slow.random(shape)
        want_ys = cells % mu.m + slow.random(shape)
        for got, want in ((xs, want_xs), (ys, want_ys)):
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64, (t, mu.m)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (t, mu.m)
        assert fast.random() == slow.random()  # the same draws were consumed


def _t_grid_mc_with_choice(tau: Permutation, mu: GridMeasure, stream: SeededStream, trials: int) -> int:
    """Hit count of the Monte Carlo kernel as it drew cells with
    Generator.choice and decided hits by two argsorts."""
    k, m = len(tau), mu.m
    rng = stream.generator()
    inv = np.argsort(tau.values)
    hits = done = 0
    while done < trials:
        b = min(4096, trials - done)
        cells = rng.choice(m * m, size=(b, k), p=mu._cell_probs)
        xs = cells // m + rng.random((b, k))
        ys = cells % m + rng.random((b, k))
        yo = np.take_along_axis(ys, np.argsort(xs, axis=1), axis=1)
        hits += int(np.sum(np.all(np.argsort(yo, axis=1) == inv, axis=1)))
        done += b
    return hits


def test_monte_carlo_hits_match_the_choice_and_argsort_kernel():
    stream = SeededStream(90)
    grids = [random_grid(m, stream.substream(m), blend=3) for m in (1, 4, 9, 30)]
    grids += [mixture(5, BIG_WEIGHTS, stream.substream(50)),
              GridMeasure.from_permutation(P("4123"))]
    cases = 0
    for g, mu in enumerate(grids):
        for k in range(1, 7):
            tau = Permutation(tuple(int(v) + 1 for v in stream.substream(100 + k).generator().permutation(k)))
            for trials in (1, 4097, 9000):
                sub = stream.substream(1000 * g + 10 * k + trials % 7)
                est = _t_grid_mc(tau, mu, sub, trials)
                assert est.value == _t_grid_mc_with_choice(tau, mu, sub, trials) / trials
                cases += 1
    assert cases == 108


def test_pattern_hits_decide_y_ties_as_argsort_does():
    # points in x order (xs increasing), y values with ties inside a row
    k = 3
    ys = np.array([[0.5, 0.5, 0.7], [0.5, 0.5, 0.2], [0.7, 0.5, 0.5], [0.1, 0.2, 0.3],
                   [0.3, 0.3, 0.3], [0.9, 0.1, 0.5], [0.2, 0.4, 0.4]])
    xs = np.tile(np.arange(k, dtype=float), (len(ys), 1))
    strict_differs = False
    for vals in itertools.permutations(range(1, k + 1)):
        inv = np.argsort(vals)
        old = np.all(np.argsort(ys, axis=1) == inv, axis=1)
        strict = np.all(np.diff(ys[:, inv], axis=1) > 0, axis=1)
        strict_differs |= bool((old != strict).any())
        assert _pattern_hits(xs, ys, inv) == int(old.sum())
        # the same rows with the points drawn in another order
        perm = [2, 0, 1]
        assert _pattern_hits(xs[:, perm], ys[:, perm], inv) == int(old.sum())
    assert strict_differs  # without the tie rule the counts would differ


def _argsort_rule(xs: np.ndarray, ys: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Per row: the y values in argsort(xs) order argsort to inv."""
    yo = np.take_along_axis(ys, np.argsort(xs, axis=1), axis=1)
    return np.all(np.argsort(yo, axis=1) == inv, axis=1)


def test_rank_test_decides_rows_with_ties_as_argsort_does():
    # dyadic coordinates on a 4-point lattice force ties inside rows; every
    # row is also checked alone, so no two wrong rows can cancel out
    rng = SeededStream(92).generator()
    rows, rank_only_differs = 96, False
    for k in (*range(1, 8), RANK_TEST_K, RANK_TEST_K + 1):
        for tied_x, tied_y in itertools.product((False, True), repeat=2):
            xs = rng.integers(0, 4, (rows, k)) / 4 if tied_x else rng.random((rows, k))
            ys = rng.integers(0, 4, (rows, k)) / 4 if tied_y else rng.random((rows, k))
            if tied_x and tied_y and k > 1:
                xs[:, 1], ys[:, 1] = xs[:, 0], ys[:, 0]  # and two equal points
            for _ in range(2):
                inv = np.argsort(rng.permutation(k))
                for order in (np.arange(k), rng.permutation(k)):
                    x, y = xs[:, order], ys[:, order]
                    want = _argsort_rule(x, y, inv)
                    assert _pattern_hits(x, y, inv) == int(want.sum()), (k, tied_x, tied_y)
                    assert [_pattern_hits(x[i:i + 1], y[i:i + 1], inv) for i in range(rows)] == want.tolist()
                    rx = (x[:, :, None] > x[:, None, :]).sum(2)
                    ry = (y[:, :, None] > y[:, None, :]).sum(2)
                    rank_only_differs |= bool(((inv[ry] == rx).all(1) != want).any())
    assert rank_only_differs  # without the argsort rule for ties some rows would differ


def test_monte_carlo_on_300_points_in_bounded_memory():
    # one (k, k, 4096) boolean compare alone would take 369 MB at k = 300
    tau = Permutation(tuple(int(v) + 1 for v in SeededStream(93).generator().permutation(300)))
    mu, stream = random_grid(30, SeededStream(94)), SeededStream(95)
    tracemalloc.start()
    try:
        est = _t_grid_mc(tau, mu, stream, 4097)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20  # about six 4096 x 300 float arrays
    assert est.value == _t_grid_mc_with_choice(tau, mu, stream, 4097) / 4097
    # rows of 300 points that have the pattern tau, half with one swap of
    # adjacent y values, so the count is not 0
    rng = SeededStream(96).generator()
    inv = np.argsort(tau.values)
    xs = np.sort(rng.random((64, 300)), axis=1)
    ys = np.sort(rng.random((64, 300)), axis=1)[:, np.array(tau.values) - 1]
    for i, j in enumerate(rng.integers(0, 299, 32).tolist()):
        ys[i, [j, j + 1]] = ys[i, [j + 1, j]]
    order = rng.permutation(300)
    assert _pattern_hits(xs[:, order], ys[:, order], inv) == 32


def test_identity_refinement_trend():
    # t(12, mu_{identity_n}) = 1 - 1/(2n), increasing to 1
    prev = None
    for n in (1, 2, 4, 8):
        sigma = Permutation(tuple(range(1, n + 1)))
        val = t_grid(P("12"), GridMeasure.from_permutation(sigma))
        assert val == 1 - Fraction(1, 2 * n)
        if prev is not None:
            assert val > prev
        prev = val


def test_d_box_examples_and_brute_oracle():
    mu1 = GridMeasure.from_permutation(P("1"))
    mu2 = GridMeasure.from_permutation(P("12"))
    assert d_box_grid(mu1, mu1) == 0
    # uniform gives 1/4 to [0,1/2] x [1/2,1]; the 2-cell diagonal measure gives 0
    assert d_box_grid(mu1, mu2) == Fraction(1, 4)
    stream = SeededStream(78)
    for t in range(10):
        m = 2 + t % 7
        a = random_grid(m, stream.substream(2 * t))
        b = random_grid(m, stream.substream(2 * t + 1))
        assert d_box_grid(a, b) == d_box_grid_brute(a, b)
    # mixed grid sizes exercise the common refinement
    a = random_grid(4, stream.substream(100))
    b = random_grid(6, stream.substream(101))
    assert d_box_grid(a, b) == d_box_grid_brute(a, b)


def test_d_box_triangle_inequality():
    stream = SeededStream(79)
    for t in range(30):
        a = random_grid(5, stream.substream(3 * t))
        b = random_grid(5, stream.substream(3 * t + 1))
        c = random_grid(5, stream.substream(3 * t + 2))
        assert d_box_grid(a, c) <= d_box_grid(a, b) + d_box_grid(b, c)


def test_sample_subperm_uniform_chi_square():
    stream = SeededStream(80)
    counts = {vals: 0 for vals in itertools.permutations((1, 2, 3))}
    trials = 3000
    for t in range(trials):
        counts[sample_subperm(UNIFORM, 3, stream.substream(t)).values] += 1
    exp = trials / 6
    chi2 = sum((c - exp) ** 2 / exp for c in counts.values())
    assert chi2 < 20.5  # 5 dof, p = 0.001
    assert sample_subperm(UNIFORM, 1, stream).values == (1,)
    # one re-keyed generator per pattern draws what each substream draws
    mu = random_grid(7, stream.substream(trials))
    by_generator = [sample_subperm(mu, 5, rng) for rng in stream.substream_generators(50)]
    assert by_generator == [sample_subperm(mu, 5, stream.substream(t)) for t in range(50)]


def test_pattern_of():
    assert pattern_of([(0.1, 0.9), (0.5, 0.2), (0.8, 0.6)]).values == (3, 1, 2)


def test_moment_direct_examples():
    assert moment_xy_direct(1, 1, UNIFORM) == Fraction(1, 4)
    assert moment_xy_direct(1, 1, GridMeasure.from_permutation(P("1"))) == Fraction(1, 4)
    assert moment_xy_direct(0, 0, UNIFORM) == 1
    # mass concentrated near the diagonal raises the xy moment
    big = GridMeasure.from_permutation(Permutation(tuple(range(1, 9))))
    assert moment_xy_direct(1, 1, big) > Fraction(1, 4)


def test_moment_from_densities_matches_direct():
    # per (i, j): 6 random 4-grids, and the 50 seeded 3-grids that check
    # the density-combination coefficients against direct integration
    stream = SeededStream(81)
    for i in range(4):
        for j in range(4 - i):
            check = SeededStream(987654321, i * 101 + j)
            grids = [random_grid(4, stream.substream(t)) for t in range(6)]
            grids += [random_grid(3, check.substream(t), blend=2) for t in range(50)]
            for mu in grids:
                dens = grid_density_table(mu, i + j + 1)
                assert moment_xy_from_densities(i, j, dens) == moment_xy_direct(i, j, mu)
    with pytest.raises(ValueError):
        moment_xy_from_densities(2, 2, {})
    with pytest.raises(KeyError):
        moment_xy_from_densities(1, 0, {})

