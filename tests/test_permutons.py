"""Permutation patterns, grid measures, box distance, and 2-D moments."""

import itertools
import math
from fractions import Fraction

import pytest

from seqlimit import (
    GridMeasure,
    Permutation,
    SeededStream,
    d_box_grid,
    moment_xy_direct,
    moment_xy_from_densities,
    sample_subperm,
    t_grid,
    t_perm,
)
from seqlimit.permutons import (
    MCEstimate,
    d_box_grid_brute,
    grid_density_table,
    moment_densities,
    pattern_count_perm,
    pattern_of,
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
    assert mu.mass[0][1] == Fraction(1, 2) and mu.mass[1][0] == Fraction(1, 2)
    with pytest.raises(ValueError):  # column sums 3/4 and 1/4: not a permuton
        GridMeasure(2, ((Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(1, 4))))
    r = GridMeasure.random(5, SeededStream(72))
    assert all(sum(row) == Fraction(1, 5) for row in r.mass)


def test_t_grid_uniform_measure_is_symmetric():
    for k in (1, 2, 3):
        for vals in itertools.permutations(range(1, k + 1)):
            assert t_grid(Permutation(vals), UNIFORM) == Fraction(1, math.factorial(k))


def test_t_grid_densities_sum_to_one_and_refinement_invariance():
    stream = SeededStream(73)
    for t in range(8):
        mu = GridMeasure.random(4, stream.substream(t))
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
    mu = GridMeasure.random(3, SeededStream(74))
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
        a = GridMeasure.random(m, stream.substream(2 * t))
        b = GridMeasure.random(m, stream.substream(2 * t + 1))
        assert d_box_grid(a, b) == d_box_grid_brute(a, b)
    # mixed grid sizes exercise the common refinement
    a = GridMeasure.random(4, stream.substream(100))
    b = GridMeasure.random(6, stream.substream(101))
    assert d_box_grid(a, b) == d_box_grid_brute(a, b)


def test_d_box_triangle_inequality():
    stream = SeededStream(79)
    for t in range(30):
        a = GridMeasure.random(5, stream.substream(3 * t))
        b = GridMeasure.random(5, stream.substream(3 * t + 1))
        c = GridMeasure.random(5, stream.substream(3 * t + 2))
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
            grids = [GridMeasure.random(4, stream.substream(t)) for t in range(6)]
            grids += [GridMeasure.random(3, check.substream(t), blend=2) for t in range(50)]
            for mu in grids:
                dens = moment_densities(mu, i, j)
                assert moment_xy_from_densities(i, j, dens) == moment_xy_direct(i, j, mu)
    with pytest.raises(ValueError):
        moment_xy_from_densities(2, 2, {})
    with pytest.raises(KeyError):
        moment_xy_from_densities(1, 0, {})

