"""Piecewise-polynomial limit functions: densities and distances."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from seqlimit import (
    PiecewisePoly,
    SeededStream,
    Word,
    d1_fn,
    d_box,
    limit_densities,
    pattern_density,
    prefix_sup_dist,
    t_density_limit,
    t_density_vector,
)
from seqlimit import piecewise, poly
from seqlimit.piecewise import (
    LimitVector,
    ZERO_FN,
    _cells,
    _densities,
    _swept_primitive,
    _x_primitive,
    grid_primitive,
    require_unit_range,
)
from seqlimit.serialize import limitfn_to_obj
from seqlimit.words import all_patterns

from test_cli import _outcome, run_cli
from util import (
    associated,
    density_tables_upto,
    fn_add,
    fn_mul,
    fn_sub,
    generic_primitive,
    limit_of,
    pantider,
    piece_primitive,
    ppow,
    psub,
    random_poly_limit,
    random_step,
    random_step_irregular,
    random_word,
    refined,
    same_function,
)

W = Word.from_string
HALF = PiecewisePoly.constant(Fraction(1, 2))
ONE = PiecewisePoly.constant(1)
STEP_HALF = PiecewisePoly.step([1, 0])  # indicator of [0, 1/2]


def test_constructors_and_validation():
    f = PiecewisePoly.step([Fraction(1, 3), Fraction(2, 3)])
    assert f(Fraction(1, 4)) == Fraction(1, 3)
    assert f(Fraction(3, 4)) == Fraction(2, 3)
    assert f(1) == Fraction(2, 3)  # right-closed last piece
    with pytest.raises(ValueError):
        PiecewisePoly((Fraction(0), Fraction(1, 2)), ((Fraction(1),),))
    with pytest.raises(ValueError):
        PiecewisePoly.step([])
    g = associated(W("0110"))
    assert [g(Fraction(2 * i + 1, 8)) for i in range(4)] == [0, 1, 1, 0]


def test_arithmetic_and_antiderivative():
    f = PiecewisePoly.step([1, 0])
    g = PiecewisePoly.constant(Fraction(1, 2))
    h = fn_sub(f, g)
    assert h(Fraction(1, 4)) == Fraction(1, 2)
    assert h(Fraction(3, 4)) == Fraction(-1, 2)
    assert fn_mul(f, g).antiderivative()(1) == Fraction(1, 4)
    H = h.antiderivative()
    assert H(0) == 0 and H(Fraction(1, 2)) == Fraction(1, 4) and H(1) == 0
    assert same_function(refined(f, [Fraction(1, 3)]), f)


def test_antiderivative_is_the_piece_by_piece_primitive():
    stream = SeededStream(31)
    fs = [HALF, STEP_HALF, PiecewisePoly.constant(0)]
    fs += [random_step_irregular(stream.substream(t), max_steps=6) for t in range(10)]
    fs += [random_poly_limit(stream.substream(50 + t)) for t in range(10)]
    for f in fs:
        assert f.antiderivative() == piece_primitive(f)


def test_density_of_constant_is_product_formula():
    d = Fraction(2, 5)
    f = PiecewisePoly.constant(d)
    for length in (1, 2, 3):
        for bits in itertools.product("01", repeat=length):
            u = Word(bits)
            s = u.weight()
            assert t_density_limit(u, f) == d**s * (1 - d) ** (length - s)


def test_densities_sum_to_one_and_refinement_invariant():
    stream = SeededStream(21)
    for t in range(10):
        f = random_step(stream.substream(t), max_steps=6)
        table = limit_densities(f, all_patterns(3))
        assert sum(table.values()) == 1
        g = refined(f, [Fraction(1, 7), Fraction(3, 7)])
        for bits in itertools.product("01", repeat=2):
            u = Word(bits)
            assert t_density_limit(u, f) == t_density_limit(u, g)


def test_step_half_example_densities():
    # indicator of [0, 1/2]: ones precede zeros in the limit
    assert t_density_limit(W("10"), STEP_HALF) == Fraction(1, 2)
    assert t_density_limit(W("01"), STEP_HALF) == 0
    assert t_density_limit(W("1"), STEP_HALF) == Fraction(1, 2)


def test_word_density_approximates_limit_density():
    # |t(u, f_w) - t(u, w)| <= l^2/n is logged, not asserted: record the
    # worst ratio and require only the documented 2x sanity envelope
    stream = SeededStream(22)
    worst = 0.0
    violations = 0
    for t in range(10):
        n = 60
        w = random_word(stream.substream(t), n)
        f = associated(w)
        for bits in itertools.product("01", repeat=3):
            u = Word(bits)
            gap = abs(t_density_limit(u, f) - pattern_density(w, u))
            bound = Fraction(9, n)
            worst = max(worst, float(gap / bound))
            if gap > bound:
                violations += 1
    print(f"word-vs-limit density gap: worst ratio {worst:.3f}, {violations} over l^2/n")
    assert worst <= 2.0


def test_vector_densities_match_binary_on_two_letters():
    stream = SeededStream(23)
    for t in range(5):
        f = random_step(stream.substream(t), max_steps=5)
        F = LimitVector({"0": fn_sub(ONE, f), "1": f})
        for bits in itertools.product("01", repeat=3):
            u = Word(bits)
            assert t_density_vector(u, F) == t_density_limit(u, f)


def test_ternary_constant_vector_densities():
    third = PiecewisePoly.constant(Fraction(1, 3))
    F = LimitVector({"a": third, "b": third, "c": third})
    u = Word.from_string("abc", ("a", "b", "c"))
    assert t_density_vector(u, F) == Fraction(1, 27)
    with pytest.raises(ValueError):
        LimitVector({"a": third, "b": third})
    # read-only components, so the cells built from them stay valid
    with pytest.raises(TypeError):
        F.components["a"] = PiecewisePoly.constant(1)
    assert F.components == {"a": third, "b": third, "c": third}


def symbolic_density(u: Word, F) -> Fraction:
    """Iterated-antiderivative density over PiecewisePoly objects: the
    general path, kept here as the oracle for the integer cell walk."""
    acc = PiecewisePoly.constant(1)
    for letter in u.letters:
        acc = piece_primitive(fn_mul(F[letter], acc))
    return math.factorial(len(u)) * acc(1)


def test_step_densities_match_symbolic_tables():
    stream = SeededStream(27)
    fs = [PiecewisePoly.constant(Fraction(3, 7)), PiecewisePoly.constant(0), PiecewisePoly.constant(1),
          PiecewisePoly.step([1, 0, 1, 1, 0]),
          PiecewisePoly.step([0, Fraction(2, 3), 1], [0, Fraction(1, 5), Fraction(4, 7), 1])]
    for t in range(8):
        fs.append(random_step(stream.substream(3 * t), max_steps=8))
        fs.append(random_step_irregular(stream.substream(3 * t + 1), max_steps=8, den=9 + t, bden=50 + t))
        fs.append(random_step_irregular(stream.substream(3 * t + 2), max_steps=6, den=1))  # values 0 and 1
    for f in fs:
        table = density_tables_upto(f, 6)
        assert len(table) == 126
        for key, expected in table.items():
            got = t_density_limit(W(key), f)
            assert type(got) is Fraction and got == expected, (f, key)


def random_ternary(stream: SeededStream) -> LimitVector:
    """Three step components on different grids: independent steps a and b
    with values in [0, 1/2], and c = 1 - a - b on their merged grid."""
    a = fn_mul(random_step_irregular(stream.substream(0), max_steps=5, den=6), HALF)
    b = fn_mul(random_step_irregular(stream.substream(1), max_steps=5, den=5, bden=24), HALF)
    return LimitVector({"a": a, "b": b, "c": fn_sub(fn_sub(ONE, a), b)})


def ternary_vectors(stream: SeededStream) -> list[LimitVector]:
    """Ternary vectors with step components on three different grids, one
    with a polynomial component, and six random ones from stream."""
    half_x = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1, 2)),))
    quarter = PiecewisePoly.step([Fraction(1, 4), 0], [0, Fraction(2, 3), 1])
    vectors = [
        LimitVector({
            "a": PiecewisePoly.step([Fraction(1, 2), Fraction(1, 6)], [0, Fraction(1, 3), 1]),
            "b": PiecewisePoly.step([Fraction(1, 5), Fraction(1, 4)], [0, Fraction(1, 4), 1]),
            "c": PiecewisePoly.step([Fraction(3, 10), Fraction(1, 4), Fraction(7, 12)],
                                    [0, Fraction(1, 4), Fraction(1, 3), 1]),
        }),
        # a polynomial component, walked on the same integer cells as steps
        LimitVector({"a": half_x, "b": quarter, "c": fn_sub(fn_sub(ONE, half_x), quarter)}),
    ]
    return vectors + [random_ternary(stream.substream(t)) for t in range(6)]


def test_ternary_step_densities_match_symbolic_path():
    abc = ("a", "b", "c")
    stream = SeededStream(28)
    vectors = ternary_vectors(stream)
    assert sum(len({F[x].breakpoints for x in abc}) == 3 for F in vectors) >= 4
    rng = stream.generator()
    for F in vectors:
        patterns = [p for n in range(1, 4) for p in itertools.product(abc, repeat=n)]
        patterns += [tuple(abc[i] for i in rng.integers(0, 3, size=n)) for n in (5, 6) for _ in range(4)]
        for p in patterns:
            u = Word(p, abc)
            got = t_density_vector(u, F)
            assert type(got) is Fraction and got == symbolic_density(u, F), (p,)
        # the densities of all words of one length sum to 1
        assert sum(t_density_vector(Word(p, abc), F) for p in itertools.product(abc, repeat=3)) == 1


def test_one_density_batch_matches_each_pattern_alone():
    # one _densities call over patterns of mixed lengths and letters, some
    # using only part of the alphabet, against each pattern's symbolic density
    abc = ("a", "b", "c")
    rng = SeededStream(29).generator()
    for F in ternary_vectors(SeededStream(28)):
        patterns = [Word(tuple(p), abc) for p in ("a", "cc", "ab", "ba", "bcb", "ccab", "aaaa", "cab")]
        patterns += [Word(tuple(abc[i] for i in rng.integers(0, 3, size=n)), abc) for n in (2, 4, 6)]
        got = _densities(patterns, F)
        assert all(type(x) is Fraction for x in got)
        assert got == [symbolic_density(u, F) for u in patterns]
    # binary steps, taken as (1 - f, f)
    stream = SeededStream(30)
    fs = [PiecewisePoly.constant(0), PiecewisePoly.constant(1), STEP_HALF,
          PiecewisePoly.step([0, Fraction(2, 3), 1], [0, Fraction(1, 5), Fraction(4, 7), 1])]
    fs += [random_step_irregular(stream.substream(t), max_steps=7, den=5 + t, bden=30 + t) for t in range(8)]
    patterns = [W(k) for k in ("1", "0", "00", "01", "110", "0000", "1111", "10110", "011010")]
    for f in fs:
        got = _densities(patterns, f)
        assert all(type(x) is Fraction for x in got)
        assert got == [symbolic_density(u, {"0": fn_sub(ONE, f), "1": f}) for u in patterns]


def test_shuffled_batch_with_duplicates_matches_the_symbolic_tables():
    # every binary pattern of length 1..6, some twice, in a seeded shuffle,
    # through one limit_densities call: one walk of the prefix trie
    stream = SeededStream(31)
    rng = stream.generator()
    keys = ["".join(bits) for n in range(1, 7) for bits in itertools.product("01", repeat=n)]
    batch = keys + [keys[i] for i in rng.integers(0, len(keys), size=40)]
    batch = [batch[i] for i in rng.permutation(len(batch))]
    fs = [random_step(stream.substream(1), max_steps=8), random_step(stream.substream(2), max_steps=5),
          random_step_irregular(stream.substream(3), max_steps=8, den=7, bden=40),
          random_step_irregular(stream.substream(4), max_steps=6, den=1),
          random_poly_limit(stream.substream(5)), random_poly_limit(stream.substream(6), max_pieces=2)]
    assert sum(not f.is_step() for f in fs) == 2
    for f in fs:
        got = limit_densities(f, batch)
        assert list(got) == list(dict.fromkeys(batch))
        assert all(type(x) is Fraction for x in got.values())
        assert got == density_tables_upto(f, 6), f


def test_shared_prefix_batch_matches_single_patterns_on_vectors():
    # ternary step vectors and one with a polynomial component: a batch of
    # every pattern of length <= 3, their extensions and repeats equals
    # each pattern alone and the iterated antiderivative
    abc = ("a", "b", "c")
    rng = SeededStream(32).generator()
    short = [p for n in range(1, 4) for p in itertools.product(abc, repeat=n)]
    for F in ternary_vectors(SeededStream(28))[:5]:
        patterns = short + [short[i] + tuple(abc[j] for j in rng.integers(0, 3, size=2)) for i in range(13, 39, 5)]
        patterns += [patterns[i] for i in rng.integers(0, len(patterns), size=8)]
        patterns = [Word(patterns[i], abc) for i in rng.permutation(len(patterns))]
        got = _densities(patterns, F)
        assert got == [_densities([u], F)[0] for u in patterns]
        assert got == [symbolic_density(u, F) for u in patterns]


def prefix_count(patterns) -> int:
    return len({u.letters[:j] for u in patterns for j in range(1, len(u) + 1)})


def test_a_batch_extends_each_distinct_prefix_once(monkeypatch):
    walk, extended = piecewise._prefix_walk, []

    def counting_walk(patterns, root, extend, read):
        return walk(patterns, root, lambda state, a: extended.append(a) or extend(state, a), read)

    monkeypatch.setattr(piecewise, "_prefix_walk", counting_walk)
    patterns = [W(k) for k in ("0110", "011", "0111", "1", "0110", "10", "01101", "1")]
    assert prefix_count(patterns) == 8
    quad = PiecewisePoly((Fraction(0), Fraction(1, 2), Fraction(1)),
                         ((0, 0, Fraction(2)), (Fraction(1, 2), Fraction(-1, 2))))
    for f in (random_step_irregular(SeededStream(33), max_steps=6), quad):
        want = [t_density_limit(u, f) for u in patterns]
        extended.clear()
        assert _densities(patterns, f) == want
        assert len(extended) == 8, f
    # a vector with a polynomial component also extends each distinct prefix once
    abc = ("a", "b", "c")
    F = ternary_vectors(SeededStream(28))[1]
    vector_patterns = [Word.from_string(k, abc) for k in ("abc", "ab", "abca", "c", "cb", "abc", "cbb")]
    extended.clear()
    assert _densities(vector_patterns, F) == [symbolic_density(u, F) for u in vector_patterns]
    assert len(extended) == prefix_count(vector_patterns) == 7


def test_density_domain_errors():
    for bad in (Fraction(5, 4), Fraction(-1, 8)):
        f = PiecewisePoly.step([Fraction(1, 2), bad, 0])
        with pytest.raises(ValueError, match="leaves"):
            t_density_limit(W("0110"), f)
        code, _, err = run_cli("density", "--limit", json.dumps(limitfn_to_obj(f)), "--pattern", "01")
        assert code == 1 and "leaves" in err
    half = PiecewisePoly.step([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="nonempty"):
        t_density_limit(W(""), half)
    with pytest.raises(ValueError, match="binary"):
        t_density_limit(Word.from_string("ab", ("a", "b")), half)
    code, _, err = run_cli("density", "--limit", json.dumps(limitfn_to_obj(half)), "--pattern", "")
    assert code == 1 and "nonempty" in err
    abc = ("a", "b", "c")
    third = PiecewisePoly.constant(Fraction(1, 3))
    F = LimitVector({"a": third, "b": third, "c": third})
    with pytest.raises(ValueError, match="nonempty"):
        t_density_vector(Word.from_string("", abc), F)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        t_density_vector(W("01"), F)
    off = {"a": third, "b": third, "c": PiecewisePoly.step([Fraction(1, 3), Fraction(1, 4)])}
    with pytest.raises(ValueError, match="sum to 1"):
        LimitVector(off)
    doc = json.dumps({"alphabet": list(abc), "components": {a: limitfn_to_obj(g) for a, g in off.items()}})
    code, _, err = run_cli("density", "--limit", doc, "--pattern", "abc")
    assert code == 1 and "sum to 1" in err


def pairwise_sum_is_one(components) -> bool:
    """The sum check by k - 1 pairwise `Fraction` additions and
    `same_function`: the oracle for LimitVector's one-pass check over the
    merged cells."""
    return same_function(functools.reduce(fn_add, components), ONE)


def random_part(stream: SeededStream, polynomial: bool) -> PiecewisePoly:
    """A step function or a function with quadratic pieces into [0, 1], on a
    random grid (each quadratic a + b x + c x^2 has a, b, c in [0, 1/3])."""
    f = random_step_irregular(stream, max_steps=5, den=12, bden=48)
    if not polynomial:
        return f
    rng = stream.substream(1).generator()
    return PiecewisePoly(f.breakpoints, tuple(
        tuple(Fraction(int(c), 12) for c in rng.integers(0, 5, size=3)) for _ in f.pieces))


def test_limit_vector_sum_check_matches_pairwise_sums():
    """k = 1..4 components, step or polynomial, on different grids: k - 1
    random parts scaled by 1/k and the rest 1 - their sum (at least 1/k),
    then the rest lowered by 1/q on one cell of its own grid."""
    stream = SeededStream(29)
    rng = stream.generator()
    verdicts = []
    for t in range(48):
        k = 1 + t % 4
        sub = stream.substream(t)
        share = PiecewisePoly.constant(Fraction(1, k))
        parts = [fn_mul(random_part(sub.substream(i), polynomial=((t >> 2) + i) % 2 == 0), share)
                 for i in range(k - 1)]
        rest = functools.reduce(fn_sub, parts, ONE)
        cell = int(rng.integers(len(rest.pieces)))
        q = int(rng.integers(k, 4 * k + 1))
        bump = [Fraction(-1, q) if j == cell else 0 for j in range(len(rest.pieces))]
        for last in (rest, fn_add(rest, PiecewisePoly.step(bump, rest.breakpoints))):
            components = dict(zip("abcd", parts + [last]))
            verdicts.append(pairwise_sum_is_one(components.values()))
            if verdicts[-1]:
                assert LimitVector(components).components == components
            else:
                with pytest.raises(ValueError, match="^component functions must sum to 1 exactly$"):
                    LimitVector(components)
    assert verdicts == [True, False] * 48


def test_limit_vector_sum_check_reads_every_taylor_column():
    # a = x^2/2 and b = 1 - x^2/2 - (x - x^2)/7 sum to 1 - (x - x^2)/7 on
    # their one cell: 1 at both ends, off only in the columns above the constant
    a = PiecewisePoly((Fraction(0), Fraction(1)), ((0, 0, Fraction(1, 2)),))
    b = PiecewisePoly((Fraction(0), Fraction(1)), ((1, Fraction(-1, 7), Fraction(-5, 14)),))
    assert fn_add(a, b)(0) == fn_add(a, b)(1) == 1 and not pairwise_sum_is_one([a, b])
    with pytest.raises(ValueError, match="^component functions must sum to 1 exactly$"):
        LimitVector({"a": a, "b": b})


def sympy_density(u: Word, F) -> Fraction:
    """t(u, F) by sympy, without PiecewisePoly arithmetic: the points
    x_1 < ... < x_l fall into cells c_1 <= ... <= c_l of the merged grid,
    and each run of r points in one cell [a, b] contributes the integral
    over a < y_1 < ... < y_r < b of its letters' polynomials, integrated
    by sympy with nested symbolic limits.  F maps letters to limit
    functions, or is one binary f with F_0 = 1 - f."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    binary = isinstance(F, PiecewisePoly)
    fs = [F] if binary else list(F.values())
    grid = sorted(set().union(*(f.breakpoints for f in fs)))

    def expr(letter, lo):
        f = F if binary else F[letter]
        e = sum(sp.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.pieces[f.piece_index(lo)]))
        return 1 - e if binary and letter == "0" else e

    total = sp.Integer(0)
    for cells in itertools.combinations_with_replacement(range(len(grid) - 1), len(u)):
        term = sp.Integer(1)
        for cell, run in itertools.groupby(zip(cells, u.letters), key=lambda pair: pair[0]):
            a, b = (sp.Rational(v.numerator, v.denominator) for v in grid[cell:cell + 2])
            inner = sp.Integer(1)
            for _, letter in run:
                inner = sp.integrate(expr(letter, grid[cell]) * inner, (x, a, y)).subs(y, x)
            term *= inner.subs(x, b)
        total += term
    value = sp.factorial(len(u)) * total
    return Fraction(int(value.p), int(value.q))


def test_polynomial_densities_match_sympy_integration():
    cubic = PiecewisePoly((Fraction(0), Fraction(1, 2), Fraction(1)), (
        (Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 8)), (Fraction(3, 4), 0, Fraction(-1, 4), Fraction(1, 64))))
    square = PiecewisePoly((Fraction(0), Fraction(1)), ((0, 0, Fraction(1)),))
    ramp = PiecewisePoly((Fraction(0), Fraction(1, 4), Fraction(3, 5), Fraction(1)),
                         ((), (Fraction(-5, 7), Fraction(20, 7)), (Fraction(1),)))
    for f in (cubic, square, ramp):
        for u in ("1", "01", "110", "0110"):
            assert t_density_limit(W(u), f) == sympy_density(W(u), f), (f, u)
    a = PiecewisePoly((Fraction(0), Fraction(1)), ((0, 0, Fraction(1, 2)),))
    b = PiecewisePoly((Fraction(0), Fraction(1, 3), Fraction(1)),
                      ((Fraction(1, 3), Fraction(-1, 3)), (Fraction(2, 9),)))
    F = LimitVector({"a": a, "b": b, "c": fn_sub(fn_sub(ONE, a), b)})
    abc = ("a", "b", "c")
    for u in ("a", "cb", "acb", "bcab"):
        assert t_density_vector(Word.from_string(u, abc), F) == sympy_density(Word.from_string(u, abc), F.components), u


def test_range_bounds_is_derived_once_per_limit(monkeypatch):
    # 1/2 + x/3 - x^2 + 2x^3/3 has two irrational critical points in (0, 1)
    pieces = ((Fraction(1, 2), Fraction(1, 3), Fraction(-1), Fraction(2, 3)),)
    f = PiecewisePoly((Fraction(0), Fraction(1)), pieces)
    first = f.range_bounds()
    calls = []
    real_roots = poly.real_roots
    monkeypatch.setattr(poly, "real_roots", lambda *args: calls.append(args) or real_roots(*args))
    assert f.range_bounds() == first and calls == []
    assert PiecewisePoly(f.breakpoints, pieces).range_bounds() == first and len(calls) == 1


def test_require_unit_range():
    with pytest.raises(ValueError):
        require_unit_range(PiecewisePoly.constant(2))
    with pytest.raises(ValueError):
        require_unit_range(PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(-1), Fraction(2)),)))
    require_unit_range(PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),)))
    # step functions read their range off the piece values: the same
    # bounds as evaluating f at every breakpoint
    stream = SeededStream(29)
    for t in range(20):
        f = random_step_irregular(stream.substream(t), max_steps=6, den=3 + t)
        vals = [f(b) for b in f.breakpoints]
        assert f.range_bounds() == (min(vals), max(vals))
    # each piece counts on its closed interval: 3x and 1 - 3x on [0, 1/2)
    # leave [0, 1] only toward 1/2, while 4x^2 there reaches exactly 1
    half = (Fraction(0), Fraction(1, 2), Fraction(1))
    for pieces in (((0, 3), (0,)), ((1, -3), (1,))):
        with pytest.raises(ValueError, match="leaves"):
            require_unit_range(PiecewisePoly(half, pieces))
    assert require_unit_range(PiecewisePoly(half, ((0, 0, 4), (1, -1)))).range_bounds() == (0, 1)


def test_range_check_and_density_batches_share_one_merge(monkeypatch):
    """A limit's own cells are derived once: the range certificate builds
    them, and every density batch of the limit reads them."""
    cells, calls = piecewise._cells, []
    monkeypatch.setattr(piecewise, "_cells", lambda fs: calls.append(fs) or cells(fs))
    for f in (random_step(SeededStream(61)), random_poly_limit(SeededStream(62))):
        calls.clear()
        require_unit_range(f)
        assert limit_densities(f, ["1", "01", "110"]) == {u: t_density_limit(W(u), f) for u in ("1", "01", "110")}
        assert calls == [(f,)]


def _unit_range_by_bounds(f):
    """require_unit_range as `range_bounds` alone decides it: exactly, or
    within NUMERIC_TOL when the range is a float pair."""
    lo, hi = f.range_bounds()
    tol = 0 if isinstance(lo, Fraction) else piecewise.NUMERIC_TOL
    if not (-tol <= lo and hi <= 1 + tol):
        raise ValueError(f"function range [{lo}, {hi}] leaves [0, 1]")
    return f


def _bernstein_limit(rng: random.Random) -> PiecewisePoly:
    """1 to 8 pieces on irregular breakpoints, each of degree 1 to 4 with
    Bernstein coefficients on its interval in {-1/8, 0, ..., 9/8}, or, for
    half of the limits, in {0, 1/8, ..., 1}."""
    lo_k, hi_k = (-1, 9) if rng.random() < 0.5 else (0, 8)
    cuts = {Fraction(rng.randint(1, d - 1), d) for d in (rng.randint(2, 9) for _ in range(rng.randint(0, 7)))}
    bps = (Fraction(0), *sorted(cuts), Fraction(1))
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        e = rng.randint(1, 4)
        s = (-lo / (hi - lo), 1 / (hi - lo))  # (x - lo) / (hi - lo)
        piece = poly.ZERO
        for j in range(e + 1):
            basis = poly.pmul(ppow(s, j), ppow(poly.padd(poly.ONE, poly.pscale(s, -1)), e - j))
            piece = poly.padd(piece, poly.pscale(basis, Fraction(rng.randint(lo_k, hi_k), 8) * math.comb(e, j)))
        pieces.append(piece)
    return PiecewisePoly(bps, tuple(pieces))


def test_range_certificate_agrees_with_range_bounds():
    """Where the Bernstein coefficients of f on its cells lie in [0, 1], f's
    exact range does too; and require_unit_range, certificate or not,
    accepts and refuses functions and vectors as range_bounds does, with
    its message.  4x(1 - x) = 1 - 4(x - 1/2)^2 (on one cell, and cut at
    1/3) and 4/5 (3x - 3x^3) (an irrational maximum) lie in [0, 1] but
    fail the certificate; x^2 passes it, its coefficients being 0, 0, 1."""
    rng = random.Random(53)
    x = (Fraction(0), Fraction(1))
    unit, third = (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1, 3), Fraction(1))
    hump = (Fraction(0), Fraction(4), Fraction(-4))
    limits = [PiecewisePoly(unit, (hump,)), PiecewisePoly(third, (hump, hump)),
              PiecewisePoly(unit, (poly.pscale((0, 3, 0, -3), Fraction(4, 5)),)), PiecewisePoly(unit, (ppow(x, 2),))]
    limits += [_bernstein_limit(rng) for _ in range(300)]
    decided = {"certified": 0, "by range_bounds": 0, "refused": 0}
    for f, g in zip(limits, limits[1:] + limits[:1]):
        grid, _, vden, (cols,) = f.cells
        certified = piecewise._unit_cells(cols, grid, vden)
        if certified:
            lo, hi = f.range_bounds()
            assert 0 <= lo and hi <= 1
        outcome = _outcome(require_unit_range, f)
        assert outcome == _outcome(_unit_range_by_bounds, f)
        decided["certified" if certified else "refused" if outcome[0] is ValueError else "by range_bounds"] += 1
        for components in ({"0": fn_sub(ONE, f), "1": f}, {"a": f, "b": g, "c": fn_sub(fn_sub(ONE, f), g)}):
            want = _outcome(lambda: [_unit_range_by_bounds(c) for c in components.values()] and None)
            assert _outcome(lambda: LimitVector(components) and None) == want
    assert decided["certified"] > 60 and decided["by range_bounds"] >= 3 and decided["refused"] > 60, decided
    assert [piecewise._unit_cells(f.cells[3][0], f.cells[0], f.cells[2]) for f in limits[:4]] == [False] * 3 + [True]


def test_distance_examples():
    assert d_box(STEP_HALF, HALF) == Fraction(1, 4)
    assert prefix_sup_dist(STEP_HALF, HALF) == Fraction(1, 4)
    assert d1_fn(STEP_HALF, HALF) == Fraction(1, 2)
    assert d_box(STEP_HALF, STEP_HALF) == 0


def test_d_box_step_fast_path_matches_breakpoint_sweep():
    stream = SeededStream(24)
    for t in range(50):
        f = random_step_irregular(stream.substream(2 * t), max_steps=7)
        g = random_step_irregular(stream.substream(2 * t + 1), max_steps=7)
        H = generic_primitive(f, g)
        vals = [H(b) for b in H.breakpoints]
        assert d_box(f, g) == max(vals) - min(vals)


def breakpoint_distances(f, g):
    """(box, prefix, L1) of two step functions or words from the generic
    primitive H of f - g, evaluated at every breakpoint: H is linear
    between breakpoints, so its extremes and the per-piece |integral|
    are read there."""
    H = generic_primitive(f, g)
    vals = [H(b) for b in H.breakpoints]
    l1 = sum(abs(b - a) for a, b in zip(vals, vals[1:]))
    return max(vals) - min(vals), max(abs(v) for v in vals), l1


def test_integer_sweep_matches_breakpoint_path_on_words_and_steps():
    stream = SeededStream(26)
    rng = stream.generator()
    pairs = [(W("1100"), W("011")), (W("0" * 7), W("1" * 5)), (W("10"), PiecewisePoly.constant(0))]
    for t in range(40):
        n, m = (int(x) for x in rng.integers(1, 60, size=2))
        u = random_word(stream.substream(4 * t), n)
        v = random_word(stream.substream(4 * t + 1), m)  # lengths differ: lcm grid
        f = random_step_irregular(stream.substream(4 * t + 2), max_steps=7)
        g = random_step_irregular(stream.substream(4 * t + 3), max_steps=7, den=7 + t, bden=30 + t)
        pairs += [(u, v), (u, f), (g, u), (f, g), (u, u), (u, associated(u))]
    for a, b in pairs:
        got = (d_box(a, b), prefix_sup_dist(a, b), d1_fn(a, b))
        assert all(type(x) is Fraction for x in got)
        assert got == breakpoint_distances(a, b)
    x = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),))
    for fn in (d_box, prefix_sup_dist, d1_fn):
        for g in (HALF, x):
            with pytest.raises(ValueError, match="word must be nonempty"):
                fn(W(""), g)
        # a word against a polynomial takes the word's integer sweep
        assert fn(W("0110"), x) == fn(associated(W("0110")), x)


def random_unit_poly(stream: SeededStream, max_pieces: int = 4) -> PiecewisePoly:
    """Random non-step limit with pieces of degree <= 3 and an exact range
    in [0, 1].  Each piece's derivative has rational roots, and its values
    on the piece are mapped affinely onto a random [a, b] in [0, 1]; about
    one piece in four is constant 0 or 1.  Breakpoints are on a grid of 97
    (off the grid of every word length but 97 and 194) or of 12."""
    rng = stream.generator()
    bden = int(rng.choice([12, 97]))
    cuts = {Fraction(int(x), bden) for x in rng.integers(1, bden, size=int(rng.integers(0, max_pieces)))}
    bps = [Fraction(0), *sorted(cuts), Fraction(1)]
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        deriv = (Fraction(1),)
        for _ in range(int(rng.integers(0, 3))):
            deriv = poly.pmul(deriv, (-Fraction(int(rng.integers(-8, 17)), 8), Fraction(1)))
        p = pantider(deriv)
        exact, approx = poly.real_roots(deriv, lo, hi)
        assert not approx
        vals = [poly.peval(p, x) for x in (lo, hi, *exact)]
        a, b = sorted(Fraction(int(v), 6) for v in rng.integers(0, 7, size=2))
        if rng.random() < 0.25:
            a = b = Fraction(int(rng.integers(0, 2)))
        # a + (b - a) (p - min) / (max - min)
        k = (b - a) / (max(vals) - min(vals))
        pieces.append(poly.padd(poly.pscale(p, k), (a - k * min(vals),)))
    g = PiecewisePoly(tuple(bps), tuple(pieces))
    return g if not g.is_step() else random_unit_poly(stream.substream(1), max_pieces)


def test_grid_primitive_is_the_generic_primitive_at_every_grid_point():
    """grid_primitive(f, g) against H = (f - g).antiderivative() on the
    generic route: the grid holds every breakpoint of f and g and nothing
    else, and prim[k] / (bden * vden) = H(grid[k] / bden), for words of
    1..200 letters against polynomial limits (breakpoints on a 97- or
    12-grid, mostly off the word's grid), steps against polynomials,
    words and steps, and words and steps against 0.  On every cell, each
    side's `_cells` columns at the midpoint are vden times its value."""
    stream = SeededStream(30)
    rng = stream.generator()
    cases = []
    for t, n in enumerate(rng.integers(1, 201, size=20)):
        w = random_word(stream.substream(4 * t), int(n))
        g = random_unit_poly(stream.substream(4 * t + 1))
        s = random_step_irregular(stream.substream(4 * t + 2), max_steps=7)
        r = random_step_irregular(stream.substream(4 * t + 3), max_steps=7, den=7 + t, bden=30 + t)
        cases += [(w, g), (s, g), (w, s), (s, w), (s, r), (w, W("01" * t + "1")), (w,), (s,)]
    off_grid = 0
    for f, *g in cases:
        grid, prim, bden, vden = grid_primitive(f, *g)
        fns = [limit_of(x) for x in (f, *g)]
        bps = set().union(*(h.breakpoints for h in fns))
        assert [Fraction(x, bden) for x in grid] == sorted(bps)
        H = generic_primitive(f, g[0]) if g else piece_primitive(fns[0])
        assert [Fraction(p, bden * vden) for p in prim] == [H(Fraction(x, bden)) for x in grid]
        # the Taylor columns of each side at every cell midpoint t = width / 2
        cgrid, cbden, cvden, cols = _cells((f, *g))
        assert (cgrid, cbden) == (grid, bden)
        for h, hcols in zip(fns, cols):
            for k, t in enumerate(Fraction(b - a, 2) for a, b in zip(grid, grid[1:])):
                assert sum(c[k] * t**r for r, c in enumerate(hcols)) == cvden * h((grid[k] + t) / bden)
        if isinstance(f, Word) and g and not isinstance(g[0], Word):
            off_grid += any((b * len(f)).denominator != 1 for b in g[0].breakpoints)
    assert off_grid >= 10


def test_word_sweep_against_polynomials_matches_the_generic_path():
    """(w, g) and (g, w) against fn on the n-piece step function of w, the
    generic route, in value and type, for words of 1..200 letters."""
    stream = SeededStream(27)
    rng = stream.generator()
    x = (Fraction(0), Fraction(1))
    quad3 = PiecewisePoly((Fraction(0), Fraction(1, 3), Fraction(5, 8), Fraction(1)), (
        (Fraction(1, 4), Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1), Fraction(-1)),
        (Fraction(0), Fraction(2), Fraction(-2))))
    ramp = PiecewisePoly((Fraction(0), Fraction(1, 4), Fraction(3, 5), Fraction(1)), (
        (), (Fraction(-5, 7), Fraction(20, 7)), (Fraction(1),)))
    # tangent to 1 at 1/2: 1 - (x - 1/2)^2 (x + 1)
    tangent = PiecewisePoly((Fraction(0), Fraction(1)), (psub(
        poly.ONE, poly.pmul(ppow((Fraction(-1, 2), Fraction(1)), 2), (Fraction(1), Fraction(1)))),))
    fixed = [(W("0110100"), quad3), (W("1101001"), quad3), (W("1" * 12), ramp),
             (W("0" * 9 + "1" * 11), ramp), (W("1"), tangent), (W("0111"), tangent),
             (W("01"), PiecewisePoly((Fraction(0), Fraction(1)), (x,)))]
    cases = fixed + [
        (random_word(stream.substream(2 * t), int(n)), random_unit_poly(stream.substream(2 * t + 1)))
        for t, n in enumerate(rng.integers(1, 201, size=20))
    ]
    assert sum(len(g.pieces) for _, g in cases) > len(cases)
    inexact = 0
    for w, g in cases:
        assoc = associated(w)
        for fn in (d_box, prefix_sup_dist, d1_fn):
            want = fn(assoc, g)
            for got in (fn(w, g), fn(g, w)):
                assert type(got) is Fraction
                if isinstance(want, float):
                    # the generic route reports a rational root of w - g at
                    # the end of a piece of degree >= 3 as a numeric one
                    inexact += 1
                    assert abs(got - Fraction(want)) <= 1e-12
                else:
                    assert got == want
    assert 0 < inexact < len(cases)


def test_word_sweep_is_exact_where_the_generic_route_was_numeric():
    """g reaches 1 at its breakpoint 3/4, the end of a cell of "1111"; the
    generic route finds that root of 1 - g numerically and returns floats.
    The sweep returns the distances of H at the grid points j/4 exactly."""
    g = PiecewisePoly((Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)), (
        (Fraction(1),), (Fraction(-344, 331), Fraction(360, 331), Fraction(528, 331), Fraction(256, 331)),
        (Fraction(3), Fraction(-8), Fraction(16, 3))))
    w = W("1111")
    G = g.antiderivative()
    H = [Fraction(j, 4) - G(Fraction(j, 4)) for j in range(5)]
    want = (max(H) - min(H), max(map(abs, H)), sum(abs(b - a) for a, b in zip(H, H[1:])))
    assoc = associated(w)
    for fn, exact in zip((d_box, prefix_sup_dist, d1_fn), want):
        assert isinstance(fn(assoc, g), float) and abs(fn(assoc, g) - exact) <= 1e-12
        assert fn(w, g) == fn(g, w) == exact


def test_word_against_a_limit_off_the_sweep_takes_the_generic_path():
    # 1 - 4 (x^2 - 1/2)^2 reaches 1 at 1/sqrt(2), so its range is a float;
    # 2x and 2x - 1 have exact ranges that leave [0, 1] above and below
    inexact = PiecewisePoly((Fraction(0), Fraction(1)), (psub(
        poly.ONE, poly.pscale(ppow((Fraction(-1, 2), Fraction(0), Fraction(1)), 2), 4)),))
    above = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(2)),))
    below = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(-1), Fraction(2)),))
    assert isinstance(inexact.range_bounds()[1], float)
    assert (above.range_bounds(), below.range_bounds()) == ((0, 2), (-1, 1))
    for g in (inexact, above, below):
        for w in (W("0110100"), W("1111111"), W("0000000"), random_word(SeededStream(28), 61)):
            assoc = associated(w)
            for fn in (d_box, prefix_sup_dist, d1_fn):
                for got, want in ((fn(w, g), fn(assoc, g)), (fn(g, w), fn(g, assoc))):
                    assert type(got) is type(want) and got == want
    assert all(isinstance(fn(W("0110100"), inexact), float) for fn in (d_box, prefix_sup_dist, d1_fn))


def random_piecewise(stream: SeededStream, bden: int, den: int, max_pieces: int = 4) -> PiecewisePoly:
    """Pieces of degree -1..4 (the zero polynomial to a quartic) with
    coefficients in [-1, 1] over den, on breakpoints over bden."""
    rng = stream.generator()
    cuts = {Fraction(int(x), bden) for x in rng.integers(1, bden, size=int(rng.integers(0, max_pieces)))}
    bps = (Fraction(0), *sorted(cuts), Fraction(1))
    return PiecewisePoly(bps, tuple(tuple(Fraction(int(c), den) for c in rng.integers(-den, den + 1, size=d))
                                    for d in rng.integers(0, 6, size=len(bps) - 1)))


def test_x_primitive_is_the_piece_by_piece_primitive():
    """`_x_primitive(f, g)` against the `Fraction` primitive of f - g piece
    by piece (tests/util), as whole PiecewisePoly objects: seeded words,
    steps (one of 256 pieces) and polynomials of degree <= 4, with
    breakpoints off each other's grids (over 97, 1009 and 2^31 - 1) and
    coefficient denominators up to 10^12 + 39."""
    stream = SeededStream(32)
    rng = stream.generator()
    big_step = PiecewisePoly.step([Fraction(int(v), 255) for v in rng.integers(0, 256, size=256)])
    assert len(big_step.pieces) == 256
    cases = [(big_step,), (big_step, W("0110100")), (W("1" * 9), big_step)]
    for t in range(12):
        sub = stream.substream(t)
        w = random_word(sub.substream(0), int(rng.integers(1, 120)))
        s = random_step_irregular(sub.substream(1), max_steps=7, den=7 + t, bden=30 + t)
        p = random_piecewise(sub.substream(2), 97, 10**12 + 39)
        q = random_piecewise(sub.substream(3), 1009, 3**t)
        r = random_piecewise(sub.substream(4), 2**31 - 1, 2**40 + t)
        cases += [(w, p), (p, w), (s, q), (q, s), (p, q), (q, r), (w, s), (w, random_word(sub, 7 + t)),
                  (big_step, p), (r, big_step), (w,), (s,), (p,), (w, w), (p, p)]
    assert sum(any(not isinstance(f, Word) and f.max_degree() == 4 for f in c) for c in cases) >= 5
    for f, *g in cases:
        H = _x_primitive(f, *g)
        assert H == generic_primitive(f, g[0] if g else ZERO_FN)
        if not g and not isinstance(f, Word):
            assert H == f.antiderivative() == piece_primitive(f)


def generic_pairs() -> list:
    """Pairs whose distances take the generic route (`_swept_primitive` is
    None): two polynomial limits, a step and a polynomial, and a word
    against a limit whose range is a float or leaves [0, 1].  Coefficients
    stay small, because the rational root search trial-divides them."""
    stream = SeededStream(33)
    bump = PiecewisePoly((Fraction(0), Fraction(1)), ((0, 0, 4, 0, -4),))
    pairs = [(W("0110100"), bump), (W("1101"), PiecewisePoly((0, 1), ((0, 2),)))]
    for t in range(16):
        sub = stream.substream(t)
        p = random_piecewise(sub.substream(0), 12, 4)
        q = random_piecewise(sub.substream(1), 7, 6)
        s = random_step_irregular(sub.substream(2), max_steps=6, den=5 + t, bden=20 + t)
        pairs += [(p, q), (s, p), (q, s), (random_word(sub.substream(3), 5 + t), p)]
    return [(f, g) for f, g in pairs if _swept_primitive(f, g) is None]


def test_generic_distances_are_symmetric_bit_for_bit():
    pairs = generic_pairs()
    assert len(pairs) >= 50
    floats = 0
    for f, g in pairs:
        for fn in (d_box, prefix_sup_dist, d1_fn):
            a, b = fn(f, g), fn(g, f)
            assert type(a) is type(b) and a == b, (fn.__name__, f, g)
            floats += isinstance(a, float)
    assert floats >= 10


def test_generic_distances_satisfy_the_prefix_box_sandwich():
    for f, g in generic_pairs():
        p, b = prefix_sup_dist(f, g), d_box(f, g)
        assert type(p) is type(b) and p <= b <= 2 * p, (f, g)


def test_word_against_a_polynomial_finds_no_roots(monkeypatch):
    """The sweep's only root finding is the range check of g, one call
    per piece; the n-piece generic route made thousands."""
    calls = []
    real_roots = poly.real_roots
    monkeypatch.setattr(poly, "real_roots", lambda *a: calls.append(a) or real_roots(*a))
    x = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),))
    w = random_word(SeededStream(29), 4000)
    for fn in (d_box, prefix_sup_dist, d1_fn):
        calls.clear()
        fn(w, x)
        assert len(calls) <= len(x.pieces)


def test_distance_sandwich_and_metric_properties():
    stream = SeededStream(25)
    for t in range(60):
        f = random_step(stream.substream(3 * t), max_steps=6)
        g = random_step(stream.substream(3 * t + 1), max_steps=6)
        h = random_step(stream.substream(3 * t + 2), max_steps=6)
        p, b = prefix_sup_dist(f, g), d_box(f, g)
        assert p <= b <= 2 * p
        assert b <= d1_fn(f, g)
        assert d_box(f, h) <= d_box(f, g) + d_box(g, h)
        assert d_box(f, g) == d_box(g, f)


def test_d1_with_irrational_sign_change():
    # f(x) = x^2 vs 1/2: the sign change at 1/sqrt(2) is irrational
    f = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1)),))
    r = 1 / math.sqrt(2)
    expected = r - 2 * r**3 / 3 - Fraction(1, 6)
    assert abs(d1_fn(f, HALF) - float(expected)) < 1e-9


def test_d_box_polynomial_vs_constant():
    # f(x) = x vs 1/2: H(x) = x^2/2 - x/2 has extrema at 0, 1/2, 1
    f = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),))
    assert d_box(f, HALF) == Fraction(1, 8)


def _quad_pieces(count: int, seed: int):
    """(p, lo, hi, cuts) for count seeded pieces of degrees 1 to 8: p has
    0, 1 or several roots inside [lo, hi] by construction, rational ones
    (cut exactly) or pairs m +- sqrt(s) with s not a square (cut at the
    float root's `limit_denominator(10**15)`, as `d1_fn` cuts), times a
    factor with positive coefficients, which has no root in x > 0.  Widths
    go down to 1e-18, below the spacing of floats near lo, so that some
    pieces are empty intervals as floats."""
    rng = random.Random(seed)
    for i in range(count):
        d, inner = 1 + i % 8, (i // 8) % 3
        lo = Fraction(rng.randint(0, 90), 100)
        width = Fraction(rng.randint(1, 100), rng.choice((100, 1000, 10**6, 10**12, 10**18)))
        p, cuts = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)),), []
        for _ in range(0 if inner == 0 else 1 if inner == 1 else rng.randint(2, max(d, 2))):
            u = Fraction(rng.randint(1, 99), 100)
            if d - (len(p) - 1) >= 2 and rng.random() < 0.5:
                m, s = lo + width * u, (width * Fraction(min(u, 1 - u)) / 2) ** 2 * rng.choice((2, 3, 5))
                p = poly.pmul(p, (m * m - s, -2 * m, Fraction(1)))
                cuts += [Fraction(float(m) + sign * math.sqrt(float(s))).limit_denominator(10**15)
                         for sign in (-1, 1)]
            elif d - (len(p) - 1) >= 1:
                p = poly.pmul(p, (-(lo + width * u), Fraction(1)))
                cuts.append(lo + width * u)
        rest = d - (len(p) - 1)
        p = poly.pmul(p, tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(rest + 1)))
        yield p, lo, lo + width, sorted(cuts)


def test_first_gauss_kronrod_pass_is_quad_bit_for_bit():
    """`_numeric_abs_integral` settles each of 2,000 seeded pieces and then
    equals scipy's quad with the same integrand, break points and limit
    bit for bit; cut lists may repeat a cut or hold lo or hi, which quad
    drops."""
    from scipy.integrate import quad

    cases = list(_quad_pieces(2000, 5))
    cases += [(p, lo, hi, [lo, *cuts, *cuts[:1], hi]) for p, lo, hi, cuts in cases[:200]]
    shapes = set()
    for p, lo, hi, cuts in cases:
        got = piecewise._numeric_abs_integral(p, lo, hi, cuts)
        want, _ = quad(lambda x: abs(poly.peval(p, float(x))), float(lo), float(hi),
                       points=[float(c) for c in cuts], limit=200)
        assert got is not None and got.hex() == want.hex(), (p, lo, hi, cuts)
        shapes.add((poly.degree(p), min(len(set(cuts)), 3), float(lo) == float(hi)))
    assert {d for d, _, _ in shapes} == set(range(1, 9))
    assert {k for _, k, _ in shapes} == {0, 1, 2, 3} and {e for _, _, e in shapes} == {False, True}


def _power(k: int, c: Fraction):
    """x^k and the constant c as limits."""
    return PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0),) * k + (Fraction(1),),)), PiecewisePoly.constant(c)


def _power_l1(k: int, c: Fraction) -> float:
    """The correctly rounded integral of |x^k - c| over [0, 1], for c in
    (0, 1): with r = c^(1/k), it is 2 c r k / (k + 1) + 1 / (k + 1) - c,
    taken to 60 digits by mpmath and rounded once, by `float(Fraction)`."""
    import mpmath

    with mpmath.workdps(60):
        C = mpmath.mpf(c.numerator) / c.denominator
        value = 2 * C * mpmath.root(C, k) * k / (k + 1) + mpmath.mpf(1) / (k + 1) - C
        return float(Fraction(mpmath.nstr(value, 60)))


def _quad_power_l1(k: int, c: Fraction) -> float:
    """quad's integral of |x^k - c| over [0, 1], broken at the float root."""
    from scipy.integrate import quad

    return quad(lambda x: abs(x**k - float(c)), 0.0, 1.0, points=[float(c) ** (1 / k)], limit=200)[0]


@pytest.fixture
def first_pass(monkeypatch):
    """What `_numeric_abs_integral` returns, call by call: None where
    QUADPACK's first Gauss-Kronrod pass does not settle a piece."""
    returned, inner = [], piecewise._numeric_abs_integral
    monkeypatch.setattr(piecewise, "_numeric_abs_integral", lambda *a: returned.append(inner(*a)) or returned[-1])
    return returned


def test_unsettled_first_pass_reads_the_exact_primitive(first_pass):
    """|x^30 - 1/3| on [0, 1], cut at its root 3^(-1/30): one Gauss-Kronrod
    pass per side does not settle it, so `d1_fn` reads the piece off the
    exact primitive at the rationalized root, as a float: the correctly
    rounded value, within 1e-12 of quad's."""
    got = d1_fn(*_power(30, Fraction(1, 3)))
    assert first_pass == [None]
    assert got == _power_l1(30, Fraction(1, 3)) == 0.32088731632702833
    assert abs(got - _quad_power_l1(30, Fraction(1, 3))) < 1e-12


def test_unsettled_pieces_are_correctly_rounded(first_pass):
    """On the pieces x^k - c, k from 12 to 45 and c = j/98, that QUADPACK's
    first pass does not settle, `d1_fn` gives the correctly rounded float,
    never farther from it than quad's adaptive loop."""
    unsettled = 0
    for k in range(12, 46):
        for c in (Fraction(j, 98) for j in range(1, 98, 8)):
            first_pass.clear()
            got = d1_fn(*_power(k, c))
            if first_pass == [None]:
                unsettled += 1
                want = _power_l1(k, c)
                assert got == want, (k, c)
                assert abs(Fraction(got) - Fraction(want)) <= abs(Fraction(_quad_power_l1(k, c)) - Fraction(want))
    assert unsettled >= 200


def test_distances_refuse_a_word_over_another_alphabet():
    """A word is read as the indicator of its letter 1, so `_cells`, which
    the box, prefix and L1 distances share, refuses any other alphabet."""
    message = "a word is read as the indicator of its letter '1', so its alphabet must be ['0', '1'], got "
    for w in (Word(tuple("abba"), ("a", "b")), Word(tuple("0120"), ("0", "1", "2"))):
        for dist in (d_box, prefix_sup_dist, d1_fn):
            for a, b in ((w, HALF), (HALF, w), (W("0110"), w)):
                with pytest.raises(ValueError) as err:
                    dist(a, b)
                assert str(err.value) == message + repr(list(w.alphabet))


def _identity_limits():
    """A 256-piece step function and a two-piece quartic, both into [0, 1]."""
    rng = random.Random(10)
    step = PiecewisePoly.step([Fraction(rng.randint(0, 64), 64) for _ in range(256)])
    quartic = PiecewisePoly((Fraction(0), Fraction(1, 3), Fraction(1)), (
        (Fraction(1, 5), Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(1, 7)),
        (Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(0), Fraction(-1, 8))))
    return step, quartic


def test_all_length_10_densities_sum_to_one():
    """sum over all 1,024 patterns u of length 10 of t(u, f) is exactly 1,
    on a 256-piece step function and on a two-piece quartic."""
    for f in _identity_limits():
        assert sum(limit_densities(f, all_patterns(10)).values()) == 1


def test_reflection_reverses_every_pattern():
    """t(u, f) = t(reversed u, f(1 - x)) for all patterns of length 6 on the
    same limits: the reflection moves every piece to another place on the
    grid, so it checks the cells' Taylor shifts, which the sum to 1 cannot
    see (the columns of 1 - f complete those of f whatever they are)."""
    for f in _identity_limits():
        pieces = []
        for p in reversed(f.pieces):  # p(1 - x) by Horner
            q = ()
            for c in reversed(p):
                q = poly.padd(poly.pmul(q, (Fraction(1), Fraction(-1))), (c,))
            pieces.append(q)
        g = PiecewisePoly(tuple(1 - b for b in reversed(f.breakpoints)), tuple(pieces))
        patterns = all_patterns(6)
        assert list(limit_densities(f, patterns).values()) == list(
            limit_densities(g, [Word(u.letters[::-1]) for u in patterns]).values())


def test_ternary_vector_densities_of_length_6_sum_to_one():
    """sum over all 729 ternary patterns u of length 6 of t(u, F) is exactly
    1, for a vector on 16 cells: a = x^2 / 4, b a 16-step and c = 1 - a - b,
    a quadratic on each cell."""
    rng = random.Random(11)
    bps = tuple(Fraction(k, 16) for k in range(17))
    b = [Fraction(rng.randint(0, 48), 64) for _ in range(16)]
    F = LimitVector({
        "a": PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1, 4)),)),
        "b": PiecewisePoly.step(b),
        "c": PiecewisePoly(bps, tuple((1 - v, Fraction(0), Fraction(-1, 4)) for v in b)),
    })
    assert len(F.cells[0]) == 17
    assert sum(_densities(all_patterns(6, ("a", "b", "c")), F)) == 1


def test_complement_swaps_the_letters():
    """t(u, 1 - f) = t(u with 0 and 1 swapped, f) for all 256 patterns of
    length 8, on the 256-piece step and the two-piece quartic."""
    swap = {"0": "1", "1": "0"}
    patterns = all_patterns(8)
    for f in _identity_limits():
        g = PiecewisePoly(f.breakpoints, tuple(psub((Fraction(1),), p) for p in f.pieces))
        assert _densities(patterns, g) == _densities([Word(tuple(map(swap.get, u.letters))) for u in patterns], f)


def test_prefix_distance_sandwiches_the_box_distance():
    """prefix <= box <= 2 prefix, between the 256-piece step and the
    quartic (off the grid: a root search on every piece) and between a
    10^5-letter word and the step (the integer sweep of 100,224 cells)."""
    step, quartic = _identity_limits()
    w = random_word(SeededStream(12), 10**5)
    for f, g in ((step, quartic), (quartic, step), (w, step)):
        box, prefix = d_box(f, g), prefix_sup_dist(f, g)
        assert 0 < prefix <= box <= 2 * prefix
    assert len(grid_primitive(w, step)[0]) == 100_225
