"""Forbidden-family properties, exact distance, and the subsequence tester."""

import itertools
import math
from fractions import Fraction

import pytest

from seqlimit import (
    ForbiddenFamily,
    SeededStream,
    Word,
    d1_to_family,
    hamming_d1,
    member_word,
    run_tester,
    t_density_limit,
)
from seqlimit import hereditary
from seqlimit.hereditary import STATE_CAP, completeness_soundness_curve
from seqlimit.words import AlphabetError, random_subsequence

from util import associated, random_word

W = Word.from_string


def brute_d1(w: Word, family: ForbiddenFamily) -> Fraction:
    best = None
    for bits in itertools.product(family.alphabet, repeat=len(w)):
        u = Word(bits, family.alphabet)
        if family.is_member(u):
            d = hamming_d1(w, u)
            best = d if best is None else min(best, d)
    return best


def dict_dp_d1(w: Word, family: ForbiddenFamily, cap: int = STATE_CAP) -> tuple[Fraction, Word]:
    """The tuple-state dict DP that the table DP replaced: the reference
    for its values, witnesses and errors.  It keeps its own refusal, of
    families whose product bound on the states exceeds cap."""
    if math.prod(len(p) + 1 for p in family.patterns) > cap:
        raise ValueError(f"automaton would exceed {cap} states")
    n = len(w)
    frontier = {family.start_state(): 0}
    parents = []
    for c in w.letters:
        nxt, back = {}, {}
        for state, cost in frontier.items():
            for a in family.alphabet:
                ns = family.step(state, a)
                if ns is None:
                    continue
                nc = cost + (a != c)
                if nc < nxt.get(ns, n + 1):
                    nxt[ns] = nc
                    back[ns] = (state, a)
        if not nxt:
            raise ValueError("property is empty at this length")
        frontier = nxt
        parents.append(back)
    best_state = min(frontier, key=lambda s: (frontier[s], s))
    letters = []
    state = best_state
    for back in reversed(parents):
        state, a = back[state]
        letters.append(a)
    witness = Word(tuple(reversed(letters)), w.alphabet)
    return Fraction(frontier[best_state], n) if n else Fraction(0), witness


def _oracle_case(t: int, rng) -> tuple[Word, ForbiddenFamily]:
    """Case t of the oracle comparison: a word of length 0..80 over a
    binary or ternary alphabet against 1 to 3 random patterns; every third
    word is a member word with random letters changed, as in the curve
    search."""
    alphabet = ("0", "1") if t % 2 else ("a", "b", "c")
    k = len(alphabet)
    patterns = [
        "".join(alphabet[int(x)] for x in rng.integers(0, k, size=int(rng.integers(1, 5))))
        for _ in range(int(rng.integers(1, 4)))
    ]
    fam = ForbiddenFamily.from_strings(patterns, alphabet)
    n = int(rng.integers(0, 81))
    if t % 3 == 0:
        try:
            letters = list(member_word(fam, n).letters)
        except ValueError:  # the property is empty at this length
            letters = [alphabet[0]] * n
        for p in rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False):
            letters[p] = alphabet[int(rng.integers(k))]
    else:
        letters = [alphabet[int(x)] for x in rng.integers(0, k, size=n)]
    return Word(tuple(letters), alphabet), fam


def test_d1_matches_dict_dp_oracle(monkeypatch):
    """d1_to_family, and the value-only entry that the tester and the curve
    search use, against the dict DP: the same values and the same errors."""
    stream = SeededStream(67)
    errors = tested = 0
    for t in range(360):
        w, fam = _oracle_case(t, stream.substream(t).generator())
        try:
            want = dict_dp_d1(w, fam)
        except ValueError as exc:
            for d1 in (d1_to_family, hereditary._d1_value):
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    d1(w, fam)
            errors += 1
            continue
        assert d1_to_family(w, fam) == want, (str(w), [str(p) for p in fam.patterns])
        assert hereditary._d1_value(w, fam) == want[0]
        tested += 1
        if len(w) and t % 4 == 0:
            rep = run_tester(w, fam, min(len(w), 5), 3, stream.substream(1000 + t))
            assert rep.is_member == fam.is_member(w)
            assert rep.d1 == want[0]
    assert tested >= 300 and errors > 0
    # empty property and state cap: the same errors as the dict DP
    empty = ForbiddenFamily.from_strings(["0", "1"])
    for d1 in (dict_dp_d1, d1_to_family, hereditary._d1_value):
        with pytest.raises(ValueError, match="^property is empty at this length$"):
            d1(W("01"), empty)
    # a product bound of 81^4 states, of which the frontier reaches 80
    big, w = ForbiddenFamily.from_strings(["01" * 40] * 4), W("01" * 50)
    assert d1_to_family(w, big) == dict_dp_d1(w, big, cap=81**4)
    monkeypatch.setattr(hereditary, "STATE_CAP", 50)
    for d1 in (d1_to_family, hereditary._d1_value):
        with pytest.raises(ValueError, match="^automaton would exceed 50 states$"):
            d1(w, big)
        with pytest.raises(AlphabetError, match="^word and family must share one alphabet$"):
            d1(Word(tuple("ab"), ("a", "b")), empty)
    with pytest.raises(ValueError, match="^automaton would exceed 50 states$"):
        run_tester(w, big, 5, 1, stream)


WIDE = tuple(chr(0x100 + c) for c in range(64)) + ("X", "Y")  # X and Y past the 64th letter

LONG_FAMILIES = [
    (("0110", "1001"), ("0", "1")),
    (("110", "0101", "1001"), ("0", "1")),
    (("abc", "cba"), ("a", "b", "c")),
    (("cca", "baab"), ("a", "b", "c")),
    (("ccacc", "abbbb"), ("a", "b", "c")),  # frontier layouts settle after 8 letters
    (("aca", "b", "cbbcc"), ("a", "b", "c")),  # moves into states first reached earlier
    (("XY",), WIDE),  # self-loop letters that differ only past the 64th
]


def test_d1_matches_dict_dp_oracle_on_long_words():
    """Words up to 3,000 letters, longer than the runs a state keeps: a
    random word and a member word with random letters changed per length."""
    stream = SeededStream(68)
    for f, (patterns, alphabet) in enumerate(LONG_FAMILIES):
        fam = ForbiddenFamily.from_strings(patterns, alphabet)
        k = len(alphabet)
        for n in (0, 1, 3, 7, 500, 3000):
            rng = stream.substream(100 * f + n % 97).generator()
            letters = list(member_word(fam, n).letters)
            for p in rng.choice(n, size=n // 10, replace=False):
                letters[p] = alphabet[int(rng.integers(k))]
            for w in (Word(tuple(letters), alphabet),
                      Word(tuple(alphabet[int(x)] for x in rng.integers(0, k, size=n)), alphabet)):
                assert d1_to_family(w, fam) == dict_dp_d1(w, fam), (patterns, n)
    # the start state loops on Y and (1) does not: staying in (1) through Y costs 1
    xy = ForbiddenFamily.from_strings(["XY"], WIDE)
    assert d1_to_family(Word(("X", "Y", WIDE[0]), WIDE), xy)[0] == Fraction(1, 3)
    # 2**15 letters: costs up to n + 2 no longer fit in int16
    w, fam10 = random_word(stream.substream(2000), 2**15), ForbiddenFamily.from_strings(["10"])
    assert d1_to_family(w, fam10) == dict_dp_d1(w, fam10)
    # a property that is empty from 4 letters on: the same error at every length
    empty = ForbiddenFamily.from_strings(["000", "11", "01"])
    for n in (0, 1, 3, 7, 500, 3000):
        w = random_word(stream.substream(1000 + n), n)
        try:
            want = dict_dp_d1(w, empty)
        except ValueError as exc:
            assert n >= 4
            with pytest.raises(ValueError, match=f"^{exc}$"):
                d1_to_family(w, empty)
        else:
            assert n < 4 and d1_to_family(w, empty) == want


def test_membership_examples():
    fam = ForbiddenFamily.from_strings(["10"])
    assert fam.is_member(W("0011"))
    assert not fam.is_member(W("0101"))
    assert fam.is_member(W("0000"))
    with pytest.raises(ValueError):
        ForbiddenFamily(())


def test_automaton_agrees_with_direct_membership():
    fam = ForbiddenFamily.from_strings(["110", "011"])
    stream = SeededStream(61)
    for t in range(40):
        w = random_word(stream.substream(t), 10)
        state = fam.start_state()
        for c in w.letters:
            state = fam.step(state, c)
            if state is None:
                break
        assert (state is not None) == fam.is_member(w)


def test_heredity_subwords_of_members_are_members():
    fam = ForbiddenFamily.from_strings(["101"])
    stream = SeededStream(62)
    found = 0
    for t in range(150):
        w = random_word(stream.substream(t), 8, density=0.3)
        if not fam.is_member(w):
            continue
        found += 1
        for length in (1, 3, 6):
            u = random_subsequence(w, length, stream.substream(1000 + t))
            assert fam.is_member(u)
    assert found > 10


def test_d1_matches_brute_force():
    families = [
        ForbiddenFamily.from_strings(["10"]),
        ForbiddenFamily.from_strings(["111"]),
        ForbiddenFamily.from_strings(["01", "10"]),
        ForbiddenFamily.from_strings(["1100", "001"]),
    ]
    stream = SeededStream(63)
    for t in range(30):
        n = 6 + t % 5
        w = random_word(stream.substream(t), n)
        for fam in families:
            d, witness = d1_to_family(w, fam)
            assert fam.is_member(witness)
            assert hamming_d1(w, witness) == d
            assert d == brute_d1(w, fam)


def test_d1_closed_forms():
    fam10 = ForbiddenFamily.from_strings(["10"])
    assert d1_to_family(W("10" * 250), fam10)[0] == Fraction(1, 2)
    # avoiding 111 as a subsequence leaves at most two ones in total
    fam111 = ForbiddenFamily.from_strings(["111"])
    for n in (6, 9, 11):
        assert d1_to_family(W("1" * n), fam111)[0] == Fraction(n - 2, n)
    assert d1_to_family(W("0011"), fam10)[0] == 0


def test_d1_infeasible_and_cap(monkeypatch):
    # forbidding both single letters empties the binary property
    fam = ForbiddenFamily.from_strings(["0", "1"])
    with pytest.raises(ValueError):
        d1_to_family(W("01"), fam)
    # the cap counts the states built: 80 of a product bound of 81^4
    big, w = ForbiddenFamily.from_strings(["01" * 40] * 4), W("01" * 50)
    assert STATE_CAP == 10**6 and d1_to_family(w, big)[0] == Fraction(11, 100)
    monkeypatch.setattr(hereditary, "STATE_CAP", 80)
    assert d1_to_family(w, big)[0] == Fraction(11, 100)
    monkeypatch.setattr(hereditary, "STATE_CAP", 79)
    with pytest.raises(ValueError, match="^automaton would exceed 79 states$"):
        d1_to_family(w, big)


def test_d1_witness_check_survives_optimized_mode(monkeypatch):
    # the membership check on the DP witness is an explicit exception, not
    # an assert that python -O would strip
    fam = ForbiddenFamily.from_strings(["10"])
    monkeypatch.setattr(ForbiddenFamily, "is_member", lambda self, w: False)
    with pytest.raises(RuntimeError, match="not in the property"):
        d1_to_family(W("0110"), fam)


def test_member_word():
    fam = ForbiddenFamily.from_strings(["10"])
    w = member_word(fam, 20)
    assert len(w) == 20 and fam.is_member(w)


def test_tester_perfect_completeness():
    fam = ForbiddenFamily.from_strings(["10"])
    w = member_word(fam, 120)
    for length in (1, 5, 30, 120):
        rep = run_tester(w, fam, length, 200, SeededStream(64))
        assert rep.accepted == rep.trials
        assert rep.is_member and rep.d1 == 0
    with pytest.raises(ValueError):
        run_tester(w, fam, 121, 10, SeededStream(64))


def oracle_accepted(w: Word, fam: ForbiddenFamily, length: int, trials: int, stream: SeededStream) -> int:
    """One random subsequence and one membership check per trial: the
    reference for the tester's batched count."""
    return sum(fam.is_member(random_subsequence(w, length, stream.substream(t))) for t in range(trials))


def test_tester_count_matches_the_per_trial_oracle(monkeypatch):
    stream = SeededStream(68)
    multi = ("ab", "c", "de")  # letters of more than one character
    cases = [
        (("0", "1"), ["0110", "1001"]),
        (("0", "1"), ["10"]),
        (("a", "b", "c"), ["abc", "cba"]),
        (("a", "b", "c"), ["ccacc", "abbbb", "b" * 9]),
        (multi, [("ab", "ab", "c"), ("de", "c", "de")]),
        (multi, ["c"]),
        (("0", "1"), ["0110", "1001", "0110"]),  # a repeated pattern
        (("0", "1"), ["01", "0110", "101"]),  # patterns that contain another
        (("a", "b", "c"), ["ab", "cac", "aab", "ab"]),
        (("a", "b", "c", "d"), ["abcd", "dcb", "bd", "dcb"]),
    ]
    counts = []
    for c, (alphabet, patterns) in enumerate(cases):
        fam = ForbiddenFamily(tuple(Word(tuple(p), alphabet) for p in patterns))
        k = len(alphabet)
        for n in (1, 2, 9, 60):
            rng = stream.substream(100 * c + n).generator()
            letters = [alphabet[int(x)] for x in rng.integers(0, k, size=n)]
            if n > 2 and c % 2:  # a member with a few letters changed
                letters = list(member_word(fam, n).letters)
                for i in rng.choice(n, size=2, replace=False):
                    letters[i] = alphabet[int(rng.integers(k))]
            w = Word(tuple(letters), alphabet)
            # L = 1 and L = n, and lengths shorter than the longest pattern
            for length in sorted({1, 2, 3, n // 2, n} & set(range(1, n + 1))):
                sub = stream.substream(10_000 + 100 * c + n)
                counts.append(oracle_accepted(w, fam, length, 23, sub))
                assert run_tester(w, fam, length, 23, sub).accepted == counts[-1], (c, n, length)
    assert {0, 23} < set(counts)  # all, none and some accepted
    # more trials than one chunk holds, and counts that are no multiple of
    # it, on a sorted word with 4 letters changed
    letters = ["0"] * 150 + ["1"] * 150
    for i in (20, 90, 200, 280):
        letters[i] = "10"[int(letters[i])]
    w, fam = Word(tuple(letters)), ForbiddenFamily.from_strings(["10"])
    for length, trials in ((24, 2 * (hereditary.TESTER_CELLS // 24) + 5), (299, 150), (300, 111)):
        sub = stream.substream(2 + length)
        want = oracle_accepted(w, fam, length, trials, sub)
        assert run_tester(w, fam, length, trials, sub).accepted == want
        assert 0 < want < trials or length > 24
    monkeypatch.setattr(hereditary, "TESTER_CELLS", 20)  # chunks of 4, 2 and 1 trials
    for length in (5, 10, 21):
        for trials in (1, 7, 9):
            sub = stream.substream(3 + length + trials)
            want = oracle_accepted(w, fam, length, trials, sub)
            assert run_tester(w, fam, length, trials, sub).accepted == want


def test_tester_errors_keep_their_texts_and_order():
    fam = ForbiddenFamily.from_strings(["10"])
    ternary = Word(tuple("abca"), ("a", "b", "c"))  # not the family's alphabet
    s = SeededStream(69)
    with pytest.raises(ValueError, match="^query size exceeds word length$"):
        run_tester(ternary, fam, 5, 0, s)
    with pytest.raises(ValueError, match="^the tester needs at least 1 trial, got 0$"):
        run_tester(ternary, fam, 0, 0, s)
    with pytest.raises(ValueError, match=r"^need 1 <= length <= 4, got 0$"):
        run_tester(ternary, fam, 0, 1, s)
    with pytest.raises(ValueError, match=r"^need 1 <= length <= 0, got 0$"):
        run_tester(W(""), fam, 0, 1, s)
    with pytest.raises(AlphabetError) as err:
        run_tester(ternary, fam, 2, 1, s)
    assert str(err.value) == "alphabet mismatch: ('a', 'b', 'c') vs ('0', '1')"


def test_tester_rejects_far_words():
    fam = ForbiddenFamily.from_strings(["10"])
    w = W("10" * 250)
    rep = run_tester(w, fam, 20, 400, SeededStream(65))
    assert rep.d1 == Fraction(1, 2)
    assert rep.accept_fraction <= 1 / 3


def test_curve_monotone_endpoints():
    fam = ForbiddenFamily.from_strings(["10"])
    pts = completeness_soundness_curve(
        fam, 80, 16, [Fraction(0), Fraction(1, 4), Fraction(1, 2)], 200, SeededStream(66)
    )
    assert pts[0].achieved_d1 == 0 and pts[0].accept_fraction == 1
    assert pts[-1].accept_fraction < 1 / 3
    assert pts[0].accept_fraction >= pts[-1].accept_fraction


def test_zero_density_of_forbidden_patterns_for_descent_free_family():
    # members of the {10}-avoiding property are sorted words, whose
    # associated step functions carry zero density of the pattern 10
    fam = ForbiddenFamily.from_strings(["10"])
    for n in (10, 33):
        w = member_word(fam, n)
        f = associated(w)
        assert t_density_limit(W("10"), f) == 0
