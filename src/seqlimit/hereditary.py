"""Hereditary word properties given by forbidden subsequences, and a
sampling-based membership tester.

The property P_F consists of all words containing no member of the
finite family F as a (not necessarily contiguous) subsequence.  P_F is
hereditary: subwords of members are members.  Exact distance to P_F is
a dynamic program over the product of the greedy prefix-matching
automata of the patterns; the tester draws random subsequences and
checks them against F directly, which gives perfect completeness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .streams import PRNG_ID, SeededStream
from .words import AlphabetError, Word, contains_pattern, random_subsequence

STATE_CAP = 10**6
SEARCH_ROUNDS = 50  # random perturbations tried per target distance of a curve


@dataclass(frozen=True)
class ForbiddenFamily:
    patterns: tuple[Word, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("need at least one forbidden pattern")
        alpha = self.patterns[0].alphabet
        for p in self.patterns:
            if p.alphabet != alpha:
                raise AlphabetError("patterns must share one alphabet")
            if len(p) == 0:
                raise ValueError("patterns must be nonempty")

    @classmethod
    def from_strings(cls, texts, alphabet=("0", "1")) -> "ForbiddenFamily":
        return cls(tuple(Word.from_string(t, alphabet) for t in texts))

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.patterns[0].alphabet

    def is_member(self, w: Word) -> bool:
        return not any(contains_pattern(w, p) for p in self.patterns)

    # -- product prefix-matching automaton -----------------------------

    def start_state(self) -> tuple[int, ...]:
        return (0,) * len(self.patterns)

    def step(self, state: tuple[int, ...], letter: str) -> tuple[int, ...] | None:
        """Advance greedy matched-prefix lengths; None means some pattern
        completed (dead: the word contains a forbidden subsequence)."""
        out = []
        for m, p in zip(state, self.patterns):
            if p.letters[m] == letter:
                m += 1
                if m == len(p):
                    return None
            out.append(m)
        return tuple(out)

    def state_bound(self) -> int:
        bound = 1
        for p in self.patterns:
            bound *= len(p) + 1
        return bound


def d1_to_family(
    w: Word, family: ForbiddenFamily, state_cap: int = STATE_CAP
) -> tuple[Fraction, Word]:
    """Exact normalized substitution distance from w to P_F, with a
    nearest member as witness.  DP over positions x automaton states."""
    if w.alphabet != family.alphabet:
        raise AlphabetError("word and family must share one alphabet")
    if family.state_bound() > state_cap:
        raise ValueError(f"automaton would exceed {state_cap} states")
    n = len(w)
    start = family.start_state()
    frontier: dict[tuple[int, ...], int] = {start: 0}
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], str]]] = []
    for c in w.letters:
        nxt: dict[tuple[int, ...], int] = {}
        back: dict[tuple[int, ...], tuple[tuple[int, ...], str]] = {}
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
    letters: list[str] = []
    state = best_state
    for back in reversed(parents):
        state, a = back[state]
        letters.append(a)
    witness = Word(tuple(reversed(letters)), w.alphabet)
    if not family.is_member(witness):
        raise RuntimeError(f"witness {witness} is not in the property")
    return Fraction(frontier[best_state], n) if n else Fraction(0), witness


def member_word(family: ForbiddenFamily, n: int) -> Word:
    """Some member of P_F of length n."""
    probe = Word(
        tuple(family.alphabet[i % len(family.alphabet)] for i in range(n)),
        family.alphabet,
    )
    _, witness = d1_to_family(probe, family)
    return witness


@dataclass(frozen=True)
class TesterReport:
    trials: int
    accepted: int
    query_size: int
    is_member: bool
    d1: Fraction
    prng: str
    seed: int

    @property
    def accept_fraction(self) -> float:
        return self.accepted / self.trials


def run_tester(
    w: Word,
    family: ForbiddenFamily,
    length: int,
    trials: int,
    stream: SeededStream,
) -> TesterReport:
    """Sample random subsequences of the given length and check each
    against the forbidden family.  Members are always accepted
    (hereditarily, every subword of a member is a member); words far
    from P_F are rejected with probability controlled by the sampling
    tail bounds."""
    if length > len(w):
        raise ValueError("query size exceeds word length")
    if trials < 1:
        raise ValueError(f"the tester needs at least 1 trial, got {trials}")
    accepted = 0
    for t in range(trials):
        u = random_subsequence(w, length, stream.substream(t))
        if family.is_member(u):
            accepted += 1
    d1, _ = d1_to_family(w, family)
    return TesterReport(
        trials=trials,
        accepted=accepted,
        query_size=length,
        is_member=family.is_member(w),
        d1=d1,
        prng=PRNG_ID,
        seed=stream.seed,
    )


@dataclass(frozen=True)
class CurvePoint:
    target_d1: Fraction
    achieved_d1: Fraction
    accept_fraction: float


def completeness_soundness_curve(
    family: ForbiddenFamily,
    n: int,
    length: int,
    distances,
    trials: int,
    stream: SeededStream,
) -> list[CurvePoint]:
    """Acceptance probability as a function of distance from P_F.

    For each target distance, perturbs a member word at random positions
    and keeps the perturbation whose exact distance is closest to (and
    when possible equal to) the target."""
    base = member_word(family, n)
    alphabet = family.alphabet
    points = []
    for pi, target in enumerate(distances):
        target = Fraction(target)
        flips = int(round(float(target) * n))
        best: tuple[Fraction, Word] | None = None
        for r in range(SEARCH_ROUNDS):
            rng = stream.substream(1000 + 100 * pi + r).generator()
            pos = rng.choice(n, size=min(flips, n), replace=False)
            letters = list(base.letters)
            for p in pos:
                options = [a for a in alphabet if a != letters[p]]
                letters[p] = options[int(rng.integers(len(options)))]
            cand = Word(tuple(letters), alphabet)
            d, _ = d1_to_family(cand, family)
            if best is None or abs(d - target) < abs(best[0] - target):
                best = (d, cand)
            if best[0] == target:
                break
        d, cand = best
        rep = run_tester(cand, family, length, trials, stream.substream(2_000_000 + pi))
        points.append(CurvePoint(target_d1=target, achieved_d1=d, accept_fraction=rep.accept_fraction))
    return points
