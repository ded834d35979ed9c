"""Subsequence counting, densities, and word utilities."""

import collections
import itertools
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlimit import (
    AlphabetError,
    PiecewisePoly,
    SeededStream,
    Word,
    contains_pattern,
    f_random_word,
    f_random_word_vector,
    hamming_d1,
    pattern_density,
    random_subsequence,
    subsequence_count,
)
from seqlimit import words
from seqlimit.piecewise import LimitVector
from seqlimit.words import _crt_moduli, all_patterns, density_table, extract, pattern_counts

from util import brute_subsequence_count, dp_subsequence_count, random_word

W = Word.from_string


def test_count_small_examples():
    assert subsequence_count(W("0101"), W("01")) == 3
    assert subsequence_count(W("1111"), W("11")) == 6
    assert subsequence_count(W("0101"), W("10")) == 1
    assert subsequence_count(W("000"), W("1")) == 0
    assert subsequence_count(W("01"), W("010")) == 0


def test_count_matches_brute_force_random():
    stream = SeededStream(11)
    for t in range(60):
        w = random_word(stream.substream(t), 10)
        for length in (1, 2, 3):
            for u in all_patterns(length):
                assert subsequence_count(w, u) == brute_subsequence_count(w, u)


def test_counts_sum_to_binomial():
    stream = SeededStream(12)
    for t in range(30):
        w = random_word(stream.substream(t), 14)
        for length in (1, 2, 3, 4):
            total = sum(subsequence_count(w, u) for u in all_patterns(length))
            assert total == math.comb(len(w), length)


def test_pattern_counts_of_one_length_sum_to_binomial_on_100000_letters():
    """sum over all patterns u of length l of the count of u in w is
    C(n, l), through the uint64 levels (l <= 4) and the CRT levels (l = 5,
    whose all-0 and all-1 counts exceed 2^64)."""
    w = random_word(SeededStream(13), 10**5)
    for length in (1, 2, 3, 4, 5):
        counts = pattern_counts(w, list(itertools.product("01", repeat=length)))
        assert sum(counts) == math.comb(10**5, length)


def test_density_normalization_and_errors():
    assert pattern_density(W("0101"), W("01")) == Fraction(3, 6)
    with pytest.raises(ValueError):
        pattern_density(W("01"), W("010"))
    with pytest.raises(ValueError):
        subsequence_count(W("01"), Word((), ("0", "1")))


def test_relabeling_invariance():
    stream = SeededStream(13)
    swap = {"0": "1", "1": "0"}
    for t in range(20):
        w = random_word(stream.substream(t), 12)
        wc = Word(tuple(swap[c] for c in w.letters))
        for u in all_patterns(3):
            uc = Word(tuple(swap[c] for c in u.letters))
            assert subsequence_count(w, u) == subsequence_count(wc, uc)


def test_contains_iff_positive_count():
    stream = SeededStream(14)
    for t in range(40):
        w = random_word(stream.substream(t), 9)
        for u in all_patterns(3):
            assert contains_pattern(w, u) == (subsequence_count(w, u) > 0)


def test_alphabet_mismatch_raises():
    w = Word.from_string("abba", ("a", "b"))
    with pytest.raises(AlphabetError):
        subsequence_count(w, W("01"))
    with pytest.raises(AlphabetError):
        Word.from_string("012")


def test_word_error_names_the_first_bad_symbol():
    with pytest.raises(AlphabetError, match=r"^symbol 'x' not in alphabet \('0', '1'\)$"):
        Word.from_string("01x2y1")
    with pytest.raises(AlphabetError, match=r"^symbol 'c' not in alphabet \('a', 'b'\)$"):
        Word(("a", "b", "c", "a", "d"), ("a", "b"))
    assert W("0110").weight() == 2 and W("0110").weight("0") == 2


def test_ternary_counting():
    w = Word.from_string("abcabc", ("a", "b", "c"))
    u = Word.from_string("abc", ("a", "b", "c"))
    assert subsequence_count(w, u) == brute_subsequence_count(w, u)
    assert w.weight("b") == 2


def test_extract():
    w = W("0110100")
    assert str(extract(w, [1, 3, 5])) == "011"
    with pytest.raises(ValueError):
        extract(w, [3, 3])
    with pytest.raises(ValueError):
        extract(w, [0, 2])


def test_hamming_d1():
    assert hamming_d1(W("0101"), W("0101")) == 0
    assert hamming_d1(W("0000"), W("1111")) == 1
    assert hamming_d1(W("0011"), W("0101")) == Fraction(1, 2)
    with pytest.raises(ValueError):
        hamming_d1(W("01"), W("011"))


def test_random_subsequence_is_uniform_over_index_sets():
    # n=5, length=2: 10 index sets; chi-square at the 0.1% level
    w = W("01101")
    stream = SeededStream(15)
    counts: dict[tuple[int, ...], int] = {}
    trials = 4000
    for t in range(trials):
        u = random_subsequence(w, 2, stream.substream(t))
        # tally by extracted letters *and* implied index multiplicity:
        counts[u.letters] = counts.get(u.letters, 0) + 1
    # expected frequency of each letter pair = (#index sets yielding it)/10
    exp = {
        u.letters: brute_subsequence_count(w, u) * trials / 10
        for u in all_patterns(2)
        if brute_subsequence_count(w, u)
    }
    chi2 = sum((counts.get(k, 0) - e) ** 2 / e for k, e in exp.items())
    assert chi2 < 16.3  # 3 dof, p = 0.001


def scalar_random_subsequence(w: Word, length: int, stream: SeededStream) -> Word:
    """Floyd's sampling with one scalar draw per bound: the reference for
    the one-call draw of `random_subsequence`."""
    n = len(w)
    rng = stream.generator()
    chosen: set[int] = set()
    for j in range(n - length, n):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return extract(w, [i + 1 for i in sorted(chosen)])


def test_random_subsequence_matches_scalar_draws():
    stream = SeededStream(16)
    for t in range(400):
        rng = stream.substream(t).generator()
        n = int(rng.integers(1, 300))
        w = random_word(stream.substream(10_000 + t), n)
        for length in {1, n, int(rng.integers(1, n + 1))}:
            sub = stream.substream(20_000 + t)
            assert random_subsequence(w, length, sub) == scalar_random_subsequence(w, length, sub)
    # the one-call draw relies on numpy drawing an array of bounds exactly
    # as one scalar call per bound, also for bounds past 2**32
    for seed in range(12):
        highs = np.arange(2**32 - 30, 2**32 + 30) * (1 + seed % 3)
        drawn = SeededStream(seed).generator().integers(0, highs + 1)
        rng = SeededStream(seed).generator()
        assert drawn.tolist() == [int(rng.integers(0, h + 1)) for h in highs.tolist()]


def test_density_table_keys_and_cap(monkeypatch):
    table = density_table(W("0101"), 2)
    assert set(table) == {"00", "01", "10", "11"}
    assert sum(table.values()) == 1
    monkeypatch.setattr(words, "DENSITY_TABLE_CAP", 3)
    with pytest.raises(ValueError, match=r"^2\^2 patterns exceeds cap 3$"):
        density_table(W("01"), 2)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=12), st.text(alphabet="01", min_size=1, max_size=4))
def test_hypothesis_count_matches_brute(wt, ut):
    w, u = W(wt), W(ut)
    assert subsequence_count(w, u) == brute_subsequence_count(w, u)


def random_letters(stream: SeededStream, n: int, alphabet: tuple[str, ...]) -> Word:
    rng = stream.generator()
    return Word(tuple(alphabet[i] for i in rng.integers(0, len(alphabet), size=n)), alphabet)


def assert_engine_matches_oracle(w: Word, u: Word) -> None:
    count = subsequence_count(w, u)
    assert type(count) is int
    assert count == dp_subsequence_count(w, u)


@pytest.mark.parametrize("alphabet", [("0", "1"), ("a", "b", "c"), ("α", "β", "γ", "δ"),
                                      ("ab", "é", "x1")])
def test_engine_matches_dp_oracle(alphabet):
    # seeded words over single- and multi-character symbols, n from 1 up,
    # and pattern lengths from 1 past n (count 0) through n
    stream = SeededStream(17)
    for t in range(40):
        rng = stream.substream(t).generator()
        n = 1 if t < 4 else int(rng.integers(2, 90))
        w = random_letters(stream.substream(100 + t), n, alphabet)
        for l in {1, 2, 3, n, n + 1, int(rng.integers(1, n + 3))}:
            u = random_letters(stream.substream(200 + 7 * t + l), l, alphabet)
            assert_engine_matches_oracle(w, u)
        # l = n on the word itself: exactly one occurrence
        assert subsequence_count(w, w) == 1


def test_engine_wraps_exactly_when_binomial_fits():
    # C(n, l) < 2^63, but the middle levels pass C(130, 65) > 2^64
    assert math.comb(130, 120) < 2**63 and math.comb(130, 65) > 2**64
    assert subsequence_count(W("0" * 130), W("0" * 120)) == math.comb(130, 120)
    stream = SeededStream(18)
    for t in range(10):
        w = random_word(stream.substream(t), 130, density=0.8)
        for l in (100, 110, 120, 125):
            u = random_word(stream.substream(1000 * l + t), l, density=0.85)
            assert_engine_matches_oracle(w, u)


def test_engine_counts_all_zero_words_across_the_int64_bound():
    # 0^l occurs C(n, l) times in 0^n: the counts sit on both sides of 2^64
    # and, for n = 400, need up to eight moduli or Python-int levels
    for n in [*range(60, 72), 400]:
        w = W("0" * n)
        for l in range(1, n + 1, 1 if n < 100 else 37):
            assert subsequence_count(w, W("0" * l)) == math.comb(n, l)


def test_engine_crt_path_matches_dp_oracle():
    stream = SeededStream(19)
    binary = random_word(stream.substream(0), 3000)
    ternary = random_letters(stream.substream(1), 3200, ("a", "b", "c"))
    for t, (w, l) in enumerate([(binary, 8), (binary, 12), (binary, 20), (binary, 200),
                                (ternary, 7), (ternary, 9)]):
        assert math.comb(len(w), l) >= 2**64
        u = random_letters(stream.substream(10 + t), l, w.alphabet)
        assert_engine_matches_oracle(w, u)


def test_crt_moduli():
    for n in (64, 3000, 16000):
        bound = math.comb(n, n // 2)
        moduli = _crt_moduli(n, bound)
        assert all(q * (n + 1) < 2**63 for q in moduli)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
        assert math.prod(moduli) > bound >= math.prod(moduli[:-1])


def test_engine_picks_levels_by_the_size_of_the_count(monkeypatch):
    # uint64 below 2^64; a few moduli just above; Python ints once the
    # moduli would outnumber them in cost
    calls = []
    walk = words._trie_counts

    def spy(masks, patterns, n, q=None, dtype=np.uint64):
        calls.append((q is not None, dtype))
        return walk(masks, patterns, n, q, dtype)

    monkeypatch.setattr(words, "_trie_counts", spy)
    w = random_word(SeededStream(22), 3000)
    for l, path in [(6, [(False, np.uint64)]), (8, [(True, np.uint64)] * 2), (200, [(False, object)])]:
        calls.clear()
        u = Word(w.letters[:l])
        assert subsequence_count(w, u) == dp_subsequence_count(w, u)
        assert calls == path


def test_patterns_with_more_of_a_letter_than_the_word_count_0_without_a_walk(monkeypatch):
    walks = []
    walk = words._trie_counts
    monkeypatch.setattr(words, "_trie_counts", lambda *a, **k: walks.append(a[1]) or walk(*a, **k))
    w = random_word(SeededStream(23), 3000)
    assert w.weight("1") < 2900
    assert subsequence_count(w, W("1" * 2900)) == 0 and walks == []
    # in a table, only the patterns that fit are walked
    assert pattern_counts(W("0001"), [("1", "1"), ("0", "1"), ("0", "0", "0", "0")]) == [0, 3, 0]
    assert walks == [[("0", "1")]]
    # small seeded cases, l <= n, against the DP, many of them plainly 0
    stream = SeededStream(24)
    zeros = 0
    for t in range(200):
        rng = stream.substream(t).generator()
        n = int(rng.integers(1, 16))
        w = random_word(stream.substream(1000 + t), n, density=float(rng.random()))
        u = random_word(stream.substream(2000 + t), int(rng.integers(1, n + 1)), density=float(rng.random()))
        assert_engine_matches_oracle(w, u)
        zeros += u.weight("1") > w.weight("1") or u.weight("0") > w.weight("0")
    assert zeros > 50


def test_engine_sizes_levels_by_the_letter_counts(monkeypatch):
    # 0^100 occurs once in 0^100 1^100 although C(200, 100) > 2^64: the
    # bound C(100, 100) * C(100, 0) = 1 keeps the walk in plain uint64
    calls = []
    walk = words._trie_counts

    def spy(masks, patterns, n, q=None, dtype=np.uint64):
        calls.append((q is not None, dtype))
        return walk(masks, patterns, n, q, dtype)

    monkeypatch.setattr(words, "_trie_counts", spy)
    assert math.comb(200, 100) >= 2**64
    assert subsequence_count(W("0" * 100 + "1" * 100), W("0" * 100)) == 1
    assert calls == [(False, np.uint64)]
    calls.clear()
    w = W("01" * 100)
    u = W("0" * 97 + "1" * 3)
    assert subsequence_count(w, u) == dp_subsequence_count(w, u)
    assert math.comb(100, 97) * math.comb(100, 3) < 2**64 <= math.comb(200, 100)
    assert calls == [(False, np.uint64)]


def test_engine_counts_patterns_of_thousands_of_letters():
    # one level per letter: a walk as deep as the pattern, on both paths
    stream = SeededStream(21)
    w = random_word(stream.substream(0), 1600, density=0.9)
    u = random_word(stream.substream(1), 1500, density=0.95)
    assert math.comb(1600, 1500) >= 2**64
    assert_engine_matches_oracle(w, u)
    assert subsequence_count(W("0" * 1600), W("0" * 1500)) == math.comb(1600, 1500)
    assert subsequence_count(W("1" * 1502), W("1" * 1500)) == math.comb(1502, 1500)
    assert subsequence_count(w, w) == 1
    # longer than the word: 0, as the oracle counts it
    assert subsequence_count(W("01"), W("0" * 2000)) == 0
    assert subsequence_count(w, W("1" * 1601)) == dp_subsequence_count(w, W("1" * 1601)) == 0


def test_density_table_matches_per_pattern_oracle():
    stream = SeededStream(20)
    for t, (alphabet, n, length) in enumerate([(("0", "1"), 40, 3), (("0", "1"), 25, 5),
                                               (("a", "b", "c"), 30, 3), (("0", "1"), 4, 4)]):
        w = random_letters(stream.substream(t), n, alphabet)
        table = density_table(w, length)
        assert list(table) == [str(u) for u in all_patterns(length, alphabet)]
        for u in all_patterns(length, alphabet):
            assert table[str(u)] == Fraction(dp_subsequence_count(w, u), math.comb(n, length))
    with pytest.raises(ValueError, match="pattern length 5 exceeds word length 4"):
        density_table(W("0110"), 5)
    with pytest.raises(ValueError, match="pattern must be nonempty"):
        density_table(W("0110"), 0)


def test_one_nested_batch_counts_alike_on_every_tier():
    """Every binary pattern of lengths 1 to 8, some twice, and patterns
    with more of a letter than w, shuffled into one batch: the uint64
    levels, the residues mod three primes near 10^6 (the largest count
    needs all three) rebuilt by CRT, and the Python-int levels all give
    the DP's counts."""
    w = random_word(SeededStream(25), 300)
    batch = [u for l in range(1, 9) for u in itertools.product("01", repeat=l)]
    batch += batch[::37] + [("1",) * (w.weight("1") + 1), ("0",) * (w.weight("0") + 1) + ("1",)]
    np.random.default_rng(26).shuffle(batch)
    expected = [dp_subsequence_count(w, Word(u)) for u in batch]
    assert pattern_counts(w, batch) == expected and max(expected) < 2**64
    masks, n, moduli = words._letter_masks(w, "01"), len(w), [1_000_003, 1_000_033, 1_000_037]
    assert math.prod(moduli) > max(expected) > moduli[0] * moduli[1]
    assert words._trie_counts(masks, batch, n) == expected
    residues = [words._trie_counts(masks, batch, n, q) for q in moduli]
    assert [words._crt(r, moduli) for r in zip(*residues)] == expected
    assert words._trie_counts(masks, batch, n, dtype=object) == expected


def test_trie_walk_takes_one_level_per_inner_node_and_one_dot_per_pattern(monkeypatch):
    """A batch of every binary pattern of lengths 1 to 6, shuffled, with
    repeats, costs one cumsum per trie node below the root that has a
    child (the 62 patterns of lengths 1 to 5) and one dot product per
    distinct pattern (126): not one level per pattern, nor per sibling."""
    calls = collections.Counter()

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("cumsum", "dot"):
                return attr
            return lambda *a, **k: calls.update([name]) or attr(*a, **k)

    monkeypatch.setattr(words, "np", CountingNumpy())
    w = random_word(SeededStream(27), 400)
    batch = [u for l in range(1, 7) for u in itertools.product("01", repeat=l)]
    batch += batch[5::11]
    np.random.default_rng(28).shuffle(batch)
    assert pattern_counts(w, batch) == [dp_subsequence_count(w, Word(u)) for u in batch]
    assert calls == {"cumsum": 62, "dot": 126}


def test_a_long_pattern_holds_a_few_levels_at_a_time():
    """0^4000 in 0^4000 1^4000 walks 4,000 levels of 4,001 uint64 entries
    (32 kB each, 128 MB together): the walk drops each one once its
    child is derived, so the traced peak stays under 1 MB."""
    w, u = W("0" * 4000 + "1" * 4000), W("0" * 4000)
    tracemalloc.start()
    try:
        assert subsequence_count(w, u) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# alphabets whose codes differ from their letters' bytes: "1" listed first,
# Greek letters, one letter of two characters, and 66 letters past U+00FF
ALPHABETS = [("0", "1"), ("1", "0"), ("a", "b", "c"), ("α", "β", "γ"), ("a", "b", "cd"),
             tuple(chr(0x100 + c) for c in range(64)) + ("X", "Y")]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=lambda a: f"k{len(a)}-{a[0]}")
def test_words_from_text_tuples_and_codes_are_one_word(alphabet):
    """A word built from its text, from its tuple of letters, from its
    codes (`all_patterns`) or by `random_subsequence` is the same word:
    equal, of equal hash, spelled alike and surviving a pickle."""
    letters = random_letters(SeededStream(40), 50, alphabet).letters
    single = [a for a in alphabet if len(a) == 1]
    text = "".join(single[i % len(single)] for i in range(50))
    for word in (Word(letters, alphabet), Word.from_string(text, alphabet)):
        again = Word(word.letters, alphabet)
        assert word == again and hash(word) == hash(again) and str(word) == str(again)
        assert type(word.letters) is tuple and len(word) == len(word.letters) == 50
        assert pickle.loads(pickle.dumps(word)) == word
    assert Word(list(letters), list(alphabet)) == Word(letters, alphabet)
    for u in all_patterns(2, alphabet):
        assert u == Word(u.letters, alphabet) and hash(u) == hash(Word(u.letters, alphabet))
    w = Word(letters, alphabet)
    for t in range(5):
        u = random_subsequence(w, 7, SeededStream(41).substream(t))
        assert u == Word(u.letters, alphabet) and hash(u) == hash(Word(u.letters, alphabet))
        assert contains_pattern(w, u)
    assert Word.from_string("0110") != Word.from_string("0110", ("1", "0"))
    assert Word.from_string("0110") != "0110" and Word.from_string("") == Word(())


def test_sampled_words_equal_their_text_and_letters():
    f = PiecewisePoly.step([Fraction(1, 3), Fraction(3, 4)])
    third = PiecewisePoly.constant(Fraction(1, 3))
    for w in (f_random_word(f, 300, SeededStream(42)),
              f_random_word_vector(LimitVector({"a": third, "b": third, "c": third}), 300, SeededStream(43))):
        for again in (Word.from_string(str(w), w.alphabet), Word(w.letters, w.alphabet)):
            assert again == w and hash(again) == hash(w)


def test_letters_is_a_tuple_and_a_word_is_immutable():
    w = W("0110")
    assert w.letters == ("0", "1", "1", "0") and type(w.letters) is tuple
    for field in ("letters", "codes", "alphabet", "spare"):
        with pytest.raises(AttributeError):
            setattr(w, field, ("1",))
        with pytest.raises(AttributeError):
            delattr(w, field)
    assert w == W("0110") and {w: 1}[W("0110")] == 1
    assert repr(w) == "Word(letters=('0', '1', '1', '0'), alphabet=('0', '1'))"


def test_first_bad_symbol_message_on_every_path():
    cases = [
        (("0", "1"), "01é1x"),  # not ASCII, then an ASCII symbol outside
        (("0", "1"), "0 1"),
        (("α", "β"), "αβxβ"),
        (("a", "b", "cd"), "abcd"),  # text is read a character at a time
    ]
    for alphabet, text in cases:
        bad = next(c for c in text if c not in alphabet)
        message = "^" + re.escape(f"symbol {bad!r} not in alphabet {alphabet!r}") + "$"
        with pytest.raises(AlphabetError, match=message):
            Word.from_string(text, alphabet)
        with pytest.raises(AlphabetError, match=message):
            Word(tuple(text), alphabet)
    # tuples whose letters are not single characters, though their text is
    for letters, bad in [(("", "01"), ""), (("0", "01"), "01"), (("0", 1), 1)]:
        with pytest.raises(AlphabetError, match=f"^symbol {bad!r} not in alphabet"):
            Word(letters)
    assert Word(("a", "cd", "b"), ("a", "b", "cd")).letters == ("a", "cd", "b")
    assert str(Word(("a", "cd", "b"), ("a", "b", "cd"))) == "acdb"
    for alphabet in [("0", "0"), ()]:
        with pytest.raises(AlphabetError, match="^invalid alphabet"):
            Word((), alphabet)


def test_an_alphabet_of_300_letters_counts_as_the_dp():
    """More than 256 letters: the codes are a tuple of ints, and the
    kernels count, extract and compare as on bytes."""
    alphabet = tuple(chr(0x100 + c) for c in range(300))
    w = random_letters(SeededStream(44), 400, alphabet)
    assert type(w.codes) is tuple and max(w.codes) >= 256
    assert Word.from_string(str(w), alphabet) == w and w.weight(alphabet[299]) == w.letters.count(alphabet[299])
    for t, length in enumerate((1, 2, 3, 3)):
        u = extract(w, sorted(SeededStream(45).substream(t).generator().choice(400, length, replace=False) + 1))
        assert subsequence_count(w, u) == dp_subsequence_count(w, u) > 0
        assert contains_pattern(w, u)
    u, v = Word(alphabet[-3:], alphabet), Word(alphabet[-3:-1], alphabet)
    assert pattern_counts(w, [u.codes, v.codes]) == [dp_subsequence_count(w, u), dp_subsequence_count(w, v)]
    assert pattern_counts(w, [u.letters, v.letters]) == pattern_counts(w, [u.codes, v.codes])
    assert hamming_d1(w, w) == 0 and hamming_d1(w, Word(w.letters[::-1], alphabet)) > 0
