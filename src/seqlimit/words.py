"""Words over finite alphabets and exact subsequence-occurrence counting.

The number of occurrences of a pattern u in a word w is the number of
index sets 1 <= i_1 < ... < i_l <= n whose extracted subword equals u.
Counts are exact big integers; densities are exact rationals obtained by
dividing by C(n, l).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .streams import SeededStream

BINARY = ("0", "1")


class AlphabetError(ValueError):
    """Raised when a symbol or a pair of words disagrees on the alphabet."""


@dataclass(frozen=True)
class Word:
    letters: tuple[str, ...]
    alphabet: tuple[str, ...] = BINARY

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise AlphabetError(f"invalid alphabet {self.alphabet!r}")
        allowed = set(self.alphabet)
        for c in self.letters:
            if c not in allowed:
                raise AlphabetError(f"symbol {c!r} not in alphabet {self.alphabet!r}")

    @classmethod
    def from_string(cls, text: str, alphabet: tuple[str, ...] = BINARY) -> "Word":
        return cls(tuple(text), alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def weight(self, letter: str = "1") -> int:
        """Number of occurrences of a single letter."""
        return sum(1 for c in self.letters if c == letter)

    def binarize(self, letter: str) -> "Word":
        """Indicator word of one letter: same length, binary alphabet."""
        if letter not in self.alphabet:
            raise AlphabetError(f"{letter!r} not in alphabet {self.alphabet!r}")
        return Word(tuple("1" if c == letter else "0" for c in self.letters))


def _check_same_alphabet(w: Word, u: Word) -> None:
    if w.alphabet != u.alphabet:
        raise AlphabetError(f"alphabet mismatch: {w.alphabet!r} vs {u.alphabet!r}")


def subsequence_count(w: Word, u: Word) -> int:
    """Exact number of index sets extracting u from w; 0 when |u| > |w|."""
    _check_same_alphabet(w, u)
    l = len(u)
    if l == 0:
        raise ValueError("pattern must be nonempty")
    counts = [0] * l
    pat = u.letters
    for c in w.letters:
        for j in range(l - 1, -1, -1):
            if pat[j] == c:
                counts[j] += counts[j - 1] if j else 1
    return counts[-1]


def pattern_density(w: Word, u: Word) -> Fraction:
    """Occurrence count normalized by C(|w|, |u|).  Errors when |u| > |w|."""
    if len(u) > len(w):
        raise ValueError(f"pattern length {len(u)} exceeds word length {len(w)}")
    return Fraction(subsequence_count(w, u), math.comb(len(w), len(u)))


def all_patterns(length: int, alphabet: tuple[str, ...] = BINARY) -> list[Word]:
    return [Word(p, alphabet) for p in itertools.product(alphabet, repeat=length)]


def density_table(w: Word, length: int, cap: int = 1 << 20) -> dict[str, Fraction]:
    """Densities of every pattern of the given length, keyed by pattern text."""
    k = len(w.alphabet)
    if k ** length > cap:
        raise ValueError(f"{k}^{length} patterns exceeds cap {cap}")
    return {str(u): pattern_density(w, u) for u in all_patterns(length, w.alphabet)}


def extract(w: Word, indices: Iterable[int]) -> Word:
    """Subword at 1-based, strictly increasing indices."""
    idx = list(indices)
    if any(i2 <= i1 for i1, i2 in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if idx and (idx[0] < 1 or idx[-1] > len(w)):
        raise ValueError("index out of range")
    return Word(tuple(w.letters[i - 1] for i in idx), w.alphabet)


def hamming_d1(w: Word, v: Word) -> Fraction:
    """Normalized Hamming distance between equal-length words."""
    _check_same_alphabet(w, v)
    if len(w) != len(v):
        raise ValueError("words must have equal length")
    diff = sum(1 for a, b in zip(w.letters, v.letters) if a != b)
    return Fraction(diff, len(w))


def contains_pattern(w: Word, u: Word) -> bool:
    """Greedy subsequence containment test, O(|w|)."""
    _check_same_alphabet(w, u)
    rest = iter(w.letters)
    return all(c in rest for c in u.letters)  # each `in` consumes w up to a match


def random_subsequence(w: Word, length: int, stream: SeededStream) -> Word:
    """Subword at a uniformly random index set of the given size."""
    n = len(w)
    if not 1 <= length <= n:
        raise ValueError(f"need 1 <= length <= {n}, got {length}")
    # Floyd's sampling: uniform among all C(n, length) subsets.  The bounds
    # j = n - length, ..., n - 1 are drawn in one call, which numpy draws
    # exactly as one call per bound.
    draws = stream.generator().integers(0, np.arange(n - length, n) + 1).tolist()
    chosen: set[int] = set()
    for j, t in enumerate(draws, start=n - length):
        chosen.add(j if t in chosen else t)
    return extract(w, [i + 1 for i in sorted(chosen)])


@dataclass
class PrefixCounts:
    """O(1) letter counts over 1-based closed intervals after O(n) setup."""

    word: Word
    _prefix: dict[str, list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self._prefix = {a: [0] * (len(self.word) + 1) for a in self.word.alphabet}
        for i, c in enumerate(self.word.letters, start=1):
            for a in self.word.alphabet:
                self._prefix[a][i] = self._prefix[a][i - 1] + (1 if c == a else 0)

    def count(self, letter: str, lo: int, hi: int) -> int:
        """Occurrences of letter among positions lo..hi (1-based, inclusive)."""
        if letter not in self._prefix:
            raise AlphabetError(f"{letter!r} not in alphabet {self.word.alphabet!r}")
        if not 1 <= lo or hi > len(self.word):
            raise ValueError("interval out of range")
        if hi < lo:
            return 0
        return self._prefix[letter][hi] - self._prefix[letter][lo - 1]
