"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every randomized check runs from a fixed SeededStream; exact claims use
rational arithmetic end to end.  Tolerances are stated inline next to
each assertion.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from seqlimit import (
    ForbiddenFamily,
    GridMeasure,
    Permutation,
    PiecewisePoly,
    SeededStream,
    Word,
    d1_to_family,
    d_box,
    d_box_grid,
    discrepancy,
    forcibility_certificate,
    hamming_d1,
    limit_densities,
    member_word,
    minimizer_residuals,
    moment_words,
    run_tester,
    subsequence_count,
    t_perm,
    tail_experiment_dbox,
    weak_regularity,
)
from seqlimit.permutons import grid_density_table, t_grid
from seqlimit.piecewise import LimitVector
from seqlimit.sampling import f_random_word_vector
from seqlimit.words import all_patterns, density_table

from util import (
    d_box_grid_brute,
    density_tables_upto,
    moment_direct,
    random_grid,
    random_step,
    random_step_irregular,
)

W = Word.from_string
HALF = PiecewisePoly.constant(Fraction(1, 2))
STEP_HALF = PiecewisePoly.step([1, 0])


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_c01_counting_oracle():
    """subsequence_count equals brute-force enumeration for every binary
    word of length <= 12 and every pattern of length <= 4."""
    t0 = time.perf_counter()
    checks = 0
    ok = True
    for n in range(1, 13):
        bits = np.array([[(w >> i) & 1 for i in range(n)] for w in range(2**n)], dtype=np.int8)
        words = [Word(tuple("1" if b else "0" for b in row)) for row in bits]
        for l in range(1, min(4, n) + 1):
            combos = np.array(list(itertools.combinations(range(n), l)))
            # enumeration oracle: extract every index set, tally pattern codes
            codes = bits[:, combos].astype(np.int64) @ (1 << np.arange(l, dtype=np.int64))
            offsets = np.arange(2**n, dtype=np.int64)[:, None] << l
            tallies = np.bincount((codes + offsets).ravel(), minlength=2**n << l)
            tallies = tallies.reshape(2**n, 1 << l)
            pats = [
                Word(tuple("1" if (p >> i) & 1 else "0" for i in range(l)))
                for p in range(1 << l)
            ]
            for widx, w in enumerate(words):
                for p, u in enumerate(pats):
                    if subsequence_count(w, u) != int(tallies[widx, p]):
                        ok = False
                    checks += 1
    elapsed = time.perf_counter() - t0
    report(1, "counting oracle", ok and elapsed < 60, f"{checks} checks in {elapsed:.1f}s")


def test_c02_forward_uniformity_bound():
    """(01)^1000: every length-3 count is within 5*eps*n^3 of the random
    benchmark at eps = 1/(2n); exact rational arithmetic."""
    n = 2000
    w = W("01" * (n // 2))
    eps = Fraction(1, 2 * n)
    bound = 5 * eps * Fraction(n) ** 3
    benchmark = Fraction(1, 8) * math.comb(n, 3)
    ok = all(abs(subsequence_count(w, u) - benchmark) <= bound for u in all_patterns(3))
    report(2, "forward constant 5", ok)


def test_c03_converse_uniformity_bound():
    """10^4 structured words: length-3 residual eps always implies
    discrepancy/n <= 42 eps^(1/3) (checked exactly as cubes)."""
    stream = SeededStream(300)
    rng = stream.generator()
    violations = 0
    for t in range(10_000):
        n = int(rng.integers(30, 121))
        kind = t % 3
        if kind == 0:  # block words
            letters: list[str] = []
            while len(letters) < n:
                letters.extend([str(int(rng.integers(0, 2)))] * int(rng.integers(1, 20)))
            w = Word(tuple(letters[:n]))
        elif kind == 1:  # alternations
            p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            unit = "0" * p + "1" * q
            w = Word(tuple((unit * (n // len(unit) + 1))[:n]))
        else:  # iid random with random density
            theta = float(rng.random())
            w = Word(tuple("1" if x < theta else "0" for x in rng.random(n)))
        d = Fraction(w.weight(), n)
        eps = max(minimizer_residuals(w, d).values())
        disc, _ = discrepancy(w, d)
        if (disc / n) ** 3 > 42**3 * eps:
            violations += 1
    report(3, "converse constant 42", violations == 0, "10000 words")


def test_c04_length_two_insufficiency():
    """0^{n/4} 1^{n/2} 0^{n/4}: near-random length-2 counts yet
    discrepancy at least n/4 - 1."""
    n = 400
    w = W("0" * (n // 4) + "1" * (n // 2) + "0" * (n // 4))
    benchmark = Fraction(math.comb(n, 2), 4)
    counts_ok = all(
        abs(subsequence_count(w, u) - benchmark) <= 2 * n for u in all_patterns(2)
    )
    disc, _ = discrepancy(w, Fraction(1, 2))
    report(4, "length-2 insufficiency", counts_ok and disc >= Fraction(n, 4) - 1)


def test_c05_density_lipschitz_in_box_distance():
    """1000 random step pairs: |t(u,f) - t(u,g)| <= l^2 d_box(f,g) for
    every pattern of length <= 4; exact, zero violations.  The densities
    are the shipped `limit_densities`, each equal to the symbolic oracle's."""
    stream = SeededStream(500)
    patterns = [u for l in range(1, 5) for u in all_patterns(l)]
    violations = mismatches = 0
    for t in range(1000):
        f = random_step(stream.substream(2 * t), max_steps=8)
        g = random_step(stream.substream(2 * t + 1), max_steps=8)
        d = d_box(f, g)
        tf, tg = limit_densities(f, patterns), limit_densities(g, patterns)
        mismatches += (tf != density_tables_upto(f, 4)) + (tg != density_tables_upto(g, 4))
        for key, vf in tf.items():
            if abs(vf - tg[key]) > len(key) ** 2 * d:
                violations += 1
    report(5, "density Lipschitz bound", violations == 0 and mismatches == 0,
           f"1000 pairs, |u| <= 4, {mismatches} oracle mismatches")


def test_c06_moment_identity():
    """200 random step functions (<= 8 steps): the pattern-density
    combination reproduces every moment with i+j <= 5 exactly.  The
    densities are the shipped `limit_densities`, each equal to the
    symbolic oracle's."""
    stream = SeededStream(600)
    patterns = [u for l in range(1, 7) for u in all_patterns(l)]
    ok = True
    for t in range(200):
        f = random_step(stream.substream(t), max_steps=8)
        dens = limit_densities(f, patterns)
        ok &= dens == density_tables_upto(f, 6)
        for i in range(6):
            for j in range(6 - i):
                if moment_words(i, j).evaluate(dens) != moment_direct(i, j, f):
                    ok = False
    report(6, "moment identity", ok, "200 functions, i+j <= 5, exact")


def test_c07_forcibility_certificates():
    """f = 1/2: length <= 3 certificate distinguishes the half indicator;
    a 2-piece piecewise-linear function has residual exactly 0."""
    cert = forcibility_certificate(HALF)
    short_words = all(len(u) <= 3 for u in cert.words)
    distinguishes = cert.residual(limit_densities(STEP_HALF, cert.words)) > 0
    self_zero = cert.residual(limit_densities(HALF, cert.words)) == 0
    pw = PiecewisePoly(
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        ((Fraction(3, 4), Fraction(-1, 2)), (Fraction(0), Fraction(1, 2))),
    )
    pw_cert = forcibility_certificate(pw)
    pw_zero = pw_cert.residual(limit_densities(pw, pw_cert.words)) == 0
    report(7, "forcibility", short_words and distinguishes and self_zero and pw_zero)


def test_c08_random_word_tail_bound():
    """f = 1/2, n = 400, a = 0.1, 2000 trials: empirical tail at most
    4n exp(-2a^2 n) plus 3-sigma binomial slack."""
    n, a, trials = 400, 0.1, 2000
    rep = tail_experiment_dbox(HALF, n, a, trials, SeededStream(800))
    sigma = math.sqrt(rep.bound * (1 - rep.bound) / trials)
    ok = rep.exceed_fraction <= rep.bound + 3 * sigma
    report(8, "random-word tail", ok, f"empirical {rep.exceed_fraction} vs bound {rep.bound:.3f}")


def test_c09_tester_contract():
    """F = {10}: perfect completeness at every query size; (10)^500 has
    d1 = 1/2 (checked against brute force for n <= 12) and accepts with
    fraction <= 1/3 at query size 30 over 1000 trials."""
    fam = ForbiddenFamily.from_strings(["10"])
    member = member_word(fam, 500)
    complete = all(
        run_tester(member, fam, l, 100, SeededStream(900 + l)).accepted == 100
        for l in (1, 10, 30, 200)
    )
    far = W("10" * 250)
    d_exact = d1_to_family(far, fam)[0] == Fraction(1, 2)
    brute_ok = True
    for n in (8, 10, 12):
        w = W("10" * (n // 2))
        best = min(
            hamming_d1(w, Word(bits))
            for bits in itertools.product("01", repeat=n)
            if fam.is_member(Word(bits))
        )
        brute_ok &= d1_to_family(w, fam)[0] == best == Fraction(1, 2)
    rep = run_tester(far, fam, 30, 1000, SeededStream(901))
    sound = rep.accept_fraction <= 1 / 3
    report(9, "tester contract", complete and d_exact and brute_ok and sound,
           f"far word accepted {rep.accept_fraction:.3f}")


def test_c10_permutation_measure_bridge():
    """Exhaustively over sigma in S_n, n <= 7, and tau in S_2 u S_3:
    |t(tau, sigma) - t(tau, mu_sigma)| <= C(k,2)/n, exact."""
    t0 = time.perf_counter()
    taus = [
        Permutation(v) for k in (2, 3) for v in itertools.permutations(range(1, k + 1))
    ]
    violations = 0
    checked = 0
    for n in range(1, 8):
        for vals in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(vals)
            mu = GridMeasure.from_permutation(sigma)
            for tau in taus:
                k = len(tau)
                gap = abs(t_perm(tau, sigma) - t_grid(tau, mu))  # exact: k <= 3
                if gap > Fraction(math.comb(k, 2), n):
                    violations += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    report(10, "permutation-measure bridge", violations == 0 and elapsed < 300,
           f"{checked} pairs in {elapsed:.1f}s")


def test_c11_grid_measure_lipschitz():
    """500 random grid-measure pairs (m <= 10): pattern densities are
    k^2 d_box-Lipschitz for k <= 3; the box distance matches the O(m^4)
    brute force on every pair with m <= 8."""
    stream = SeededStream(1100)
    violations = 0
    brute_ok = True
    for t in range(500):
        m = 2 + t % 9
        a = random_grid(m, stream.substream(2 * t))
        b = random_grid(m, stream.substream(2 * t + 1))
        d = d_box_grid(a, b)
        if m <= 8 and t % 10 == 0:
            brute_ok &= d == d_box_grid_brute(a, b)
        for k in (1, 2, 3):
            ta, tb = grid_density_table(a, k), grid_density_table(b, k)
            for key, va in ta.items():
                if abs(va - tb[key]) > k * k * d:
                    violations += 1
    report(11, "grid-measure Lipschitz", violations == 0 and brute_ok, "500 pairs")


def test_c12_weak_regularity():
    """100 random step functions (<= 64 steps), eps in {0.3, 0.1, 0.05}:
    post-checked box error <= eps, atom bound, energy increment > eps^2."""
    stream = SeededStream(1200)
    ok = True
    for t in range(100):
        f = random_step_irregular(stream.substream(t), max_steps=64, bden=256)
        for eps in (Fraction(3, 10), Fraction(1, 10), Fraction(1, 20)):
            res = weak_regularity(f, eps)
            ok &= d_box(f, res.approximation) <= eps
            ok &= res.partition.size() <= 1 + 2 * math.ceil(1 / (eps * eps))
            ok &= all(b - a > eps * eps for a, b in zip(res.energies, res.energies[1:]))
    report(12, "weak regularity", ok, "100 functions x 3 eps")


def test_c13_ternary_extension():
    """Constant ternary limit vector (1/3, 1/3, 1/3), n = 900: all 27
    length-3 densities within 0.05 of 1/27 for at least 99 of 100 seeds."""
    third = PiecewisePoly.constant(Fraction(1, 3))
    F = LimitVector({"a": third, "b": third, "c": third})
    good = 0
    for seed in range(100):
        w = f_random_word_vector(F, 900, SeededStream(1300, seed))
        table = density_table(w, 3)
        if max(abs(v - Fraction(1, 27)) for v in table.values()) < Fraction(5, 100):
            good += 1
    report(13, "ternary extension", good >= 99, f"{good}/100 seeds")


def test_c14_determinism():
    """Repeating every randomized command with the same seed produces
    byte-identical JSON output."""
    import io
    from contextlib import redirect_stdout

    from seqlimit.cli import dispatch

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = dispatch(argv)
        return code, buf.getvalue()

    commands = [
        ["--seed", "11", "sample", "--limit",
         '{"breakpoints": ["0","1"], "pieces": [{"coeffs": ["1/2"]}]}',
         "--length", "50", "--count", "5"],
        ["--seed", "12", "test", "--word", "10" * 50, "--forbid", "10",
         "--query-size", "10", "--trials", "200"],
        ["--seed", "13", "permuton", "sample", "--grid", "3,1,2",
         "--size", "3", "--count", "10"],
        ["--seed", "14", "permuton", "density", "--grid",
         ",".join(str(i) for i in range(1, 11)), "--pattern", "12345",
         "--trials", "2000"],
    ]
    ok = True
    for argv in commands:
        (c1, o1), (c2, o2) = run(argv), run(argv)
        ok &= c1 == 0 and c2 == 0 and o1 == o2 and o1.strip() != ""
    report(14, "determinism", ok, f"{len(commands)} commands replayed")
