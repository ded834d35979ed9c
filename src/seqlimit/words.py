"""Words over finite alphabets and exact subsequence-occurrence counting.

The number of occurrences of a pattern u in a word w is the number of
index sets 1 <= i_1 < ... < i_l <= n whose extracted subword equals u.
Counts are exact big integers; densities are exact rationals obtained by
dividing by C(n, l).

Counting engine.  Let P_j[i] be the number of occurrences of u_1..u_j in
the first i letters of w (P_0 = 1).  One level is a masked cumulative
sum, P_j[i + 1] = P_j[i] + [w_i = u_j] * P_{j-1}[i], and the count is the
last level's total, a dot product of P_{l-1} with the mask of u_l.
Patterns that share a prefix share its levels in one walk of their trie,
`_prefix_walk`, which `piecewise._densities` runs for limits too: a node
derives its level when its first child is extended, and a pattern is one
dot product of its parent's level with its last letter's mask.  So all
k^l patterns of length l cost k + k^2 + ... + k^(l-1) levels and k^l dot
products, instead of l levels per pattern.  P_j only matters at
positions j..n-l+j, so each level is a window of n - l + 1 entries, and
a pattern with more of some letter than w has counts 0 without a walk.

An occurrence of u picks |u|_a of the |w|_a positions of each letter a,
so the count is at most B(u) = prod_a C(|w|_a, |u|_a) <= C(n, l).  The
levels run as numpy uint64 cumsums and stay exact without floats:
  - When every B(u) < 2^64, in plain uint64.  Every step only adds and
    multiplies by 0 or 1, so the arithmetic is that of the ring Z/2^64,
    and the final count is exact mod 2^64 even where an intermediate
    level wraps (0^120 in 0^130 passes through C(130, 65) > 2^64).  The
    count is at most B(u) < 2^64, so it equals its residue.
  - Otherwise, modulo pairwise coprime q < 2^63/(n + 1), reducing after
    each level, so no partial sum of n residues reaches 2^63.  Enough
    moduli are taken for their product to exceed the largest B(u), and
    the count is rebuilt from its residues by the Chinese remainder
    theorem.
  - Each modulus repeats every level, so when B(u) needs more than a few
    of them (long patterns), the levels hold Python ints in numpy object
    arrays instead: exact, at one big-int operation an entry.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .streams import SeededStream

BINARY = ("0", "1")
DENSITY_TABLE_CAP = 1 << 20  # patterns a density table may hold


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
        if not allowed.issuperset(self.letters):
            bad = next(c for c in self.letters if c not in allowed)
            raise AlphabetError(f"symbol {bad!r} not in alphabet {self.alphabet!r}")

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
        return self.letters.count(letter)


def _check_same_alphabet(w: Word, u: Word) -> None:
    if w.alphabet != u.alphabet:
        raise AlphabetError(f"alphabet mismatch: {w.alphabet!r} vs {u.alphabet!r}")


def _letter_masks(w: Word, letters: Iterable[str]) -> dict[str, np.ndarray]:
    """Boolean indicator, over the positions of w, of each given letter."""
    if all(len(a) == 1 for a in w.alphabet):
        # one code point per letter: encode in C rather than map in Python
        codes = np.frombuffer("".join(w.letters).encode("utf-32-le"), dtype="<u4")
        key = ord
    else:
        index = {a: i for i, a in enumerate(w.alphabet)}
        codes = np.fromiter(map(index.__getitem__, w.letters), dtype=np.intp, count=len(w))
        key = index.__getitem__
    return {a: codes == key(a) for a in set(letters)}


def _prefix_walk(patterns, root, extend, read) -> list:
    """[read(len(u), state of u) for u in patterns], for tuples of letters
    u, where the empty prefix has state root and u_1..u_j has
    extend(state of u_1..u_{j-1}, u_j).  In sorted order, each prefix is
    extended once and each distinct pattern read once, and only the
    states of the prefix the next pattern shares outlive a pattern: the
    last pattern holds none, not even the root's."""
    order = sorted(range(len(patterns)), key=patterns.__getitem__)
    out, states, prev, root = [None] * len(patterns), [root], None, None  # held by states alone
    for i, j in zip(order, [*order[1:], None]):
        u, v = patterns[i], None if j is None else patterns[j]
        keep = -1 if v is None else next((k for k, (a, b) in enumerate(zip(u, v)) if a != b), min(len(u), len(v)))
        k, state = len(states) - 1, states[-1]  # states[d] is the state of u[:d]
        del states[keep + 1:]
        if u != prev:
            for a in u[k:]:
                state = extend(state, a)
                if len(states) <= keep:
                    states.append(state)
            value = read(len(u), state)
        out[i], prev = value, u
    return out


def _trie_counts(
    masks: dict[str, np.ndarray],
    patterns: Sequence[tuple[str, ...]],
    n: int,
    q: int | None = None,
    dtype: type = np.uint64,
) -> list[int]:
    """Counts of the patterns, each nonempty and at most n long, by one
    `_prefix_walk`: mod q, or mod 2^64 when q is None, or exactly when
    dtype is object.  Node u_1..u_j is [P_{j-1}, u_j, j], read as one dot
    product, until its first child derives P_j and leaves [P_j, None, j]
    (a level per leaf or per child would cost more).  P_j[k] counts
    u_1..u_j in w[:j + k] on the shortest pattern's window, at most n - j
    entries, and a chain of single children holds two levels at a time
    (the root is passed inline, so that only the walk holds P_0)."""
    def extend(node, letter):
        level, a, j = node
        if a is not None:
            width = min(len(level), n - j)
            level = np.cumsum(level[:width] * masks[a][j - 1:j - 1 + width])
            node[:2] = np.remainder(level, q, out=level) if q else level, None
        return [node[0], letter, j + 1]

    def read(l, node):
        total = int(np.dot(node[0], masks[node[1]][l - 1:]))
        return total % q if q else total

    return _prefix_walk(patterns, [np.ones(n - min(map(len, patterns)) + 1, dtype=dtype), None, 0], extend, read)


def _crt_moduli(n: int, bound: int) -> list[int]:
    """Pairwise coprime moduli q < 2^63/(n + 1), counted down from the
    top, as many as it takes for their product to exceed bound."""
    moduli, product, q = [], 1, (2**63 - 1) // (n + 1)
    while product <= bound:
        if math.gcd(q, product) == 1:
            moduli.append(q)
            product *= q
        q -= 1
    return moduli


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """The x in [0, prod(moduli)) with x = r mod q for each pair (Garner)."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        x += m * ((r - x) * pow(m, -1, q) % q)
        m *= q
    return x


def pattern_counts(w: Word, patterns: Sequence[tuple[str, ...]]) -> list[int]:
    """Exact occurrence counts in w of nonempty patterns, each given as a
    tuple of letters of w's alphabet, sharing prefixes along their trie;
    a pattern with more of some letter than w, so any pattern longer than
    w, counts 0 without a walk."""
    if any(len(u) == 0 for u in patterns):
        raise ValueError("pattern must be nonempty")
    n = len(w)
    masks = _letter_masks(w, itertools.chain.from_iterable(patterns))
    have = [int(np.count_nonzero(m)) for m in masks.values()]
    needs = [tuple(u.count(a) for a in masks) for u in patterns]
    fits = [i for i, need in enumerate(needs) if all(map(operator.le, need, have))]
    out = [0] * len(patterns)
    if not fits:
        return out
    walked = [patterns[i] for i in fits]
    bound = max(math.prod(map(math.comb, have, need)) for need in {needs[i] for i in fits})
    moduli = _crt_moduli(n, bound) if bound >= 2**64 else []
    # A uint64 level costs about 1/12 of a level of Python ints an entry,
    # plus about 700 entries' worth of call overhead, once per modulus.
    width = n - min(map(len, walked)) + 1
    if not moduli:
        counts = _trie_counts(masks, walked, n)
    elif len(moduli) * (width + 700) <= 12 * width:
        residues = [_trie_counts(masks, walked, n, q) for q in moduli]
        counts = [_crt(r, moduli) for r in zip(*residues)]
    else:
        counts = _trie_counts(masks, walked, n, dtype=object)
    for i, count in zip(fits, counts):
        out[i] = count
    return out


def subsequence_count(w: Word, u: Word) -> int:
    """Exact number of index sets extracting u from w; 0 when |u| > |w|."""
    _check_same_alphabet(w, u)
    return pattern_counts(w, [u.letters])[0]


def index_sets(w: Word, length: int) -> int:
    """C(|w|, length), the number of index sets of that size.  Errors
    when length > |w|."""
    if length > len(w):
        raise ValueError(f"pattern length {length} exceeds word length {len(w)}")
    return math.comb(len(w), length)


def pattern_density(w: Word, u: Word) -> Fraction:
    """t(u, w), the paper's basic definition: the occurrence count of u in
    w normalized by C(|w|, |u|).  Errors when |u| > |w|."""
    total = index_sets(w, len(u))
    return Fraction(subsequence_count(w, u), total)


def all_patterns(length: int, alphabet: tuple[str, ...] = BINARY) -> list[Word]:
    """Every pattern of the given length, in lexicographic order: the
    patterns the uniformity results (acceptance criteria 02 and 04) count."""
    return [Word(p, alphabet) for p in itertools.product(alphabet, repeat=length)]


def density_table(w: Word, length: int) -> dict[str, Fraction]:
    """Densities t(u, w) of every pattern u of the given length, keyed by
    pattern text: the densities whose convergence defines a word limit
    (acceptance criterion 13 reads them off a ternary random word)."""
    k = len(w.alphabet)
    if k ** length > DENSITY_TABLE_CAP:
        raise ValueError(f"{k}^{length} patterns exceeds cap {DENSITY_TABLE_CAP}")
    pats = list(itertools.product(w.alphabet, repeat=length))
    total = index_sets(w, length)
    return {"".join(u): Fraction(c, total) for u, c in zip(pats, pattern_counts(w, pats))}


def extract(w: Word, indices: Iterable[int]) -> Word:
    """Subword at 1-based, strictly increasing indices."""
    idx = list(indices)
    if any(i2 <= i1 for i1, i2 in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if idx and (idx[0] < 1 or idx[-1] > len(w)):
        raise ValueError("index out of range")
    return Word(tuple(w.letters[i - 1] for i in idx), w.alphabet)


def hamming_d1(w: Word, v: Word) -> Fraction:
    """Normalized Hamming distance between equal-length words: the d1
    distance to a hereditary property that a tester's soundness is stated
    in (acceptance criterion 09)."""
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


def _floyd_bounds(n: int, length: int) -> np.ndarray:
    """The exclusive bounds j + 1, j = n - length, ..., n - 1, of Floyd's
    draws for a subset of range(n) of the given size."""
    if not 1 <= length <= n:
        raise ValueError(f"need 1 <= length <= {n}, got {length}")
    return np.arange(n - length, n) + 1


def _floyd(rng: np.random.Generator, bounds: np.ndarray) -> set[int]:
    """Floyd's sampling (Bentley & Floyd, CACM 30(9), 1987): a uniformly
    random subset of range(n) of size m, for bounds = _floyd_bounds(n, m).
    The m draws are made in one call, which numpy draws exactly as one
    call per bound."""
    chosen: set[int] = set()
    for j, t in enumerate(rng.integers(0, bounds).tolist(), start=int(bounds[0]) - 1):
        chosen.add(j if t in chosen else t)
    return chosen


def random_subsequence(w: Word, length: int, stream: SeededStream) -> Word:
    """Subword at a uniformly random index set of the given size."""
    chosen = _floyd(stream.generator(), _floyd_bounds(len(w), length))
    return extract(w, [i + 1 for i in sorted(chosen)])

