"""Moment identities of (x, F(x)) and forcibility certificates."""

import json
from fractions import Fraction

import pytest

from seqlimit import (
    PiecewisePoly,
    SeededStream,
    Word,
    check_forced,
    forcibility_certificate,
    limit_densities,
    moment_words,
    t_density_limit,
)
from seqlimit import moments, piecewise, poly
from seqlimit.serialize import limitfn_from_obj
from seqlimit.words import all_patterns

import test_cli_corpus as corpus
from util import (
    density_tables_upto,
    moment_bridge,
    moment_direct,
    piece_primitive,
    pintegrate,
    psub,
    random_poly_limit,
    random_step,
    random_step_irregular,
    refined,
)

HALF = PiecewisePoly.constant(Fraction(1, 2))
STEP_HALF = PiecewisePoly.step([1, 0])


def test_moment_direct_closed_forms():
    d = Fraction(2, 7)
    f = PiecewisePoly.constant(d)
    assert moment_direct(0, 1, f) == d / 2
    assert moment_direct(1, 1, f) == d / 3
    assert moment_direct(0, 0, f) == 1
    assert moment_direct(0, 1, STEP_HALF) == Fraction(3, 8)  # integral of min(x, 1/2)
    one = PiecewisePoly.constant(1)
    for i in range(4):
        for j in range(4):
            assert moment_direct(i, j, one) == Fraction(1, i + j + 1)


def test_moment_words_structure():
    mc = moment_words(1, 1)
    assert mc.i == 1 and mc.j == 1
    assert all(len(u) == 3 for u, _ in mc.terms)
    # first i+j letters must contain at least j ones
    assert all(sum(1 for c in u.letters[:2] if c == "1") >= 1 for u, _ in mc.terms)
    with pytest.raises(ValueError):
        moment_words(-1, 0)
    with pytest.raises(ValueError):
        moment_words(6, 6)


def test_moment_identity_zero_and_one():
    zero, one = PiecewisePoly.constant(0), PiecewisePoly.constant(1)
    for f, label in ((zero, "zero"), (one, "one")):
        dens = density_tables_upto(f, 5)
        for i in range(5):
            for j in range(5 - i):
                got = moment_words(i, j).evaluate(dens)
                assert got == moment_direct(i, j, f), (label, i, j)


def test_moment_identity_random_step_functions():
    stream = SeededStream(51)
    for t in range(25):
        f = random_step(stream.substream(t), max_steps=6)
        dens = density_tables_upto(f, 4)
        for i in range(4):
            for j in range(4 - i):
                assert moment_words(i, j).evaluate(dens) == moment_direct(i, j, f)


def test_moment_missing_density_raises():
    mc = moment_words(0, 1)
    with pytest.raises(KeyError):
        mc.evaluate({"01": Fraction(1, 4)})


def test_moment_bridge():
    stream = SeededStream(52)
    quadratic = PiecewisePoly((Fraction(0), Fraction(1, 3), Fraction(1)),
                              ((Fraction(1, 4), 0, Fraction(1)), (Fraction(1, 2), Fraction(-1, 2))))
    for f in [random_step(stream.substream(t), max_steps=5) for t in range(8)] + [quadratic]:
        for k in range(5):
            direct, from_densities = moment_bridge(k, f)
            assert direct == from_densities


def test_limit_densities_match_t_density_limit_with_one_range_check(monkeypatch):
    quadratic = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(0), Fraction(1)),))
    stream = SeededStream(47)
    limits = [random_step(stream.substream(t), max_steps=6) for t in range(6)] + [quadratic]
    words = all_patterns(1) + all_patterns(3) + ["0110", "0110", Word(("1", "0"))]
    check = piecewise.require_unit_range
    for f in limits:
        want = {str(u): t_density_limit(Word.from_string(str(u)), f) for u in words}
        calls = []
        counted = lambda g, *rest: calls.append(g) or check(g, *rest)
        with monkeypatch.context() as m:
            m.setattr(piecewise, "require_unit_range", counted)
            assert limit_densities(f, words) == want
        assert calls == [f]
    # both entries check inside _densities: the alphabet, then the range
    assert limit_densities is moments.limit_densities
    off_range = PiecewisePoly.step([Fraction(3, 2), 0])
    with pytest.raises(ValueError, match="^t_density_limit requires the binary alphabet$"):
        limit_densities(HALF, [Word(("a",), ("a", "b"))])
    with pytest.raises(ValueError, match="leaves"):
        limit_densities(off_range, ["1"])
    for density in (lambda u: limit_densities(off_range, [u]), lambda u: t_density_limit(u, off_range)):
        with pytest.raises(ValueError, match="^t_density_limit requires the binary alphabet$"):
            density(Word(("a",), ("a", "b")))


def test_certificate_for_constant_half():
    cert = forcibility_certificate(HALF)
    assert all(len(u) <= 3 for u in cert.words)
    assert cert.residual(limit_densities(HALF, cert.words)) == 0
    # distinguishes the indicator of [0, 1/2], which has the same 1-density
    assert t_density_limit(Word.from_string("1"), STEP_HALF) == Fraction(1, 2)
    assert cert.residual(limit_densities(STEP_HALF, cert.words)) > 0


def test_certificate_residual_nonnegative_on_random_candidates():
    cert = forcibility_certificate(HALF)
    stream = SeededStream(53)
    for t in range(100):
        h = random_step(stream.substream(t), max_steps=6)
        assert cert.residual(limit_densities(h, cert.words)) >= 0


def branch_integral(cert, g: PiecewisePoly) -> Fraction:
    """Integral over [0, 1] of prod_i (G - Q_i)^2 for G = g's primitive and
    Q_i the certificate's branches, by direct integration piece by piece."""
    G = piece_primitive(g)
    total = Fraction(0)
    for lo, hi, P in zip(G.breakpoints, G.breakpoints[1:], G.pieces):
        integrand = poly.ONE
        for q in cert.branches:
            d = psub(P, q)
            integrand = poly.pmul(integrand, poly.pmul(d, d))
        total += pintegrate(integrand, lo, hi)
    return total


def monomial_weights(branches) -> dict[Word, Fraction]:
    """Per-word weights of P(x, y) = prod (y - Q)^2, expanded as a dict of
    bidegrees (a, b), by summing coeff * c over moment_words(a, b).terms
    for every monomial: the oracle for the (length, ones) table."""
    P = {(0, 0): Fraction(1)}
    for q in branches:
        # (y - q)^2 = y^2 - 2 q y + q^2
        factor = {(0, 2): Fraction(1)}
        for a, c in enumerate(q):
            factor[a, 1] = factor.get((a, 1), 0) - 2 * c
        for a, c in enumerate(poly.pmul(q, q)):
            factor[a, 0] = factor.get((a, 0), 0) + c
        prod: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in P.items():
            for (a2, b2), c2 in factor.items():
                prod[a1 + a2, b1 + b2] = prod.get((a1 + a2, b1 + b2), 0) + c1 * c2
        P = prod
    weights: dict[Word, Fraction] = {}
    for (a, b), coeff in P.items():
        if coeff:
            for u, c in moment_words(a, b).terms:
                weights[u] = weights.get(u, 0) + coeff * c
    return weights


def test_certificate_weights_equal_the_per_monomial_sums():
    fs = [limitfn_from_obj(json.loads(text)) for text in (
        corpus.TWO_BRANCH, corpus.TWO_BRANCH_H, corpus.THREE_BRANCH, corpus.THREE_BRANCH_H, corpus.QUAD_HALF,
        corpus.LINEAR)]
    stream = SeededStream(55)
    fs += [random_step(stream.substream(t), max_steps=4) for t in range(6)]
    fs += [random_step_irregular(stream.substream(10 + t), max_steps=4, den=6) for t in range(4)]
    fs += [random_poly_limit(stream.substream(20 + t), max_pieces=1) for t in range(4)]
    assert sum(len(forcibility_certificate(f).branches) >= 3 for f in fs) >= 4
    for f in fs:
        cert = forcibility_certificate(f)
        want = monomial_weights(cert.branches)
        assert cert.words == tuple(sorted(want, key=str)), f
        assert cert.weights == tuple(want[u] for u in cert.words), f
        assert all(type(w) is Fraction for w in cert.weights)


def test_certificate_residual_is_the_branch_integral():
    # one, two and three branches; the residual is an exact value, not
    # only a sign
    fs = [HALF, PiecewisePoly.step([Fraction(1, 4), Fraction(3, 4)]),
          PiecewisePoly.step([Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)])]
    stream = SeededStream(54)
    steps = [random_step(stream.substream(t), max_steps=6) for t in range(40)] + [HALF, STEP_HALF]
    polys = [random_poly_limit(stream.substream(100 + t), max_pieces=2) for t in range(12)]
    for f in fs:
        cert = forcibility_certificate(f)
        assert cert.residual(limit_densities(f, cert.words)) == branch_integral(cert, f) == 0
        # the symbolic densities of polynomial candidates are slow on the
        # three-branch certificate's 7-letter words
        for g in steps + (polys if len(cert.branches) < 3 else polys[:3]):
            assert cert.residual(limit_densities(g, cert.words)) == branch_integral(cert, g), (f, g)


def test_certificate_for_identity_and_piecewise_linear():
    x = PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(0), Fraction(1)),))
    cert = forcibility_certificate(x)
    assert cert.residual(limit_densities(x, cert.words)) == 0
    # two linear pieces: f = 3/4 - x/2 on [0,1/2], x/2 on [1/2,1]
    f = PiecewisePoly(
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        ((Fraction(3, 4), Fraction(-1, 2)), (Fraction(0), Fraction(1, 2))),
    )
    cert = forcibility_certificate(f)
    assert len(cert.branches) == 2
    assert cert.residual(limit_densities(f, cert.words)) == 0


def test_check_forced_verdicts():
    cert = forcibility_certificate(HALF)
    same = check_forced(HALF, HALF, cert)
    assert same.densities_match and same.witness is None and same.d1 == 0
    split = refined(HALF, [Fraction(1, 3)])
    again = check_forced(HALF, split, cert)
    assert again.densities_match and again.d1 == 0
    other = check_forced(HALF, STEP_HALF, cert)
    assert not other.densities_match
    assert other.witness is not None and len(other.witness) <= 3
    assert other.residual > 0
    # f's densities passed in give the same verdict
    assert check_forced(HALF, STEP_HALF, cert, limit_densities(HALF, cert.words)) == other


def test_library_guarantees_are_not_asserts():
    # the certificate budgets, the regularity guarantees and the tester's
    # witness check must survive python -O, which strips assert statements
    import ast
    from pathlib import Path

    import seqlimit

    for path in sorted(Path(seqlimit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert on lines {asserts}"


def test_residual_zero_implies_branch_following():
    # whenever the residual vanishes, H must track some branch primitive
    f = PiecewisePoly.step([Fraction(1, 4), Fraction(3, 4)])
    cert = forcibility_certificate(f)
    assert cert.residual(limit_densities(f, cert.words)) == 0
    from seqlimit import poly

    H = f.antiderivative()
    for k in range(101):
        x = Fraction(k, 100)
        dist = min(abs(H(x) - poly.peval(q, x)) for q in cert.branches)
        assert dist <= Fraction(1, 10**9)
