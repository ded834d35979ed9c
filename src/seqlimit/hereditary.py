"""Hereditary word properties given by forbidden subsequences, and a
sampling-based membership tester.

The property P_F consists of all words containing no member of the
finite family F as a (not necessarily contiguous) subsequence.  P_F is
hereditary: subwords of members are members.  The tester draws random
subsequences and checks them against F directly, which gives perfect
completeness.

The exact distance d1(w, P_F) is a dynamic program over the positions of
w and the states of the product of the greedy prefix-matching automata
of the patterns (`ForbiddenFamily.step`; a move that completes a pattern
is dead).  It runs on integer tables built as the DP reaches them.
States are numbered in order of first reach.  The frontier at a position
(the states that members of that length can end in) is a layout: a tuple
of state ids in the order the DP first reaches them.  A layout depends
on the automaton and the position only, never on the letters of w or on
costs: each layout is a function of the one before, so the sequence is
eventually periodic and the number of distinct layouts does not grow
with |w|.  The moves from each layout into the next are built once per
input letter, as (slot, next slot, cost, back code) int tuples, and one
DP step scans int lists and keeps one back code per slot.

Tie-break, which fixes the witness: a state's cost and back code come
from the first move of least cost in (frontier slot, letter in alphabet
order) order, and the final state is the one of least (cost,
matched-prefix tuple).  This is the rule of the tuple-state dict DP that
the tests keep as the oracle; `member_word` seeds the tester curve with
such a witness.
"""

from __future__ import annotations

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


_Moves = tuple[tuple[int, int, int, int], ...]


class _Layout:
    """One frontier of the DP: its state ids in the order the DP first
    reaches them, and, once built, the next frontier and the moves into it
    per input letter code as (slot, next slot, substitution cost, back
    code slot * k + letter), in (slot, letter) order.  Moves are kept from
    the layout's second visit on, so layouts that a word passes only once
    (the first positions against a large automaton) hold none."""

    __slots__ = ("states", "moves", "nxt", "seen")

    def __init__(self, states: tuple[int, ...], k: int):
        self.states = states
        self.moves: list[_Moves | None] = [None] * k
        self.nxt: _Layout | None = None
        self.seen = False


class _Tables:
    """Integer tables of the product automaton, built as the DP reaches
    them: state ids, live successors per state, and frontier layouts."""

    def __init__(self, family: ForbiddenFamily):
        self.family = family
        self.k = len(family.alphabet)
        self.tuples = [family.start_state()]  # id -> matched-prefix tuple
        self.ids = {self.tuples[0]: 0}
        self.succ: dict[int, tuple[tuple[int, int], ...]] = {}
        self.layouts: dict[tuple[int, ...], _Layout] = {}

    def layout(self, states: tuple[int, ...]) -> _Layout:
        lay = self.layouts.get(states)
        if lay is None:
            lay = self.layouts[states] = _Layout(states, self.k)
        return lay

    def successors(self, s: int) -> tuple[tuple[int, int], ...]:
        """(letter code, next id) of the live moves out of s, alphabet order."""
        out = self.succ.get(s)
        if out is None:
            live = []
            for a, letter in enumerate(self.family.alphabet):
                ns = self.family.step(self.tuples[s], letter)
                if ns is not None:
                    if ns not in self.ids:
                        self.ids[ns] = len(self.tuples)
                        self.tuples.append(ns)
                    live.append((a, self.ids[ns]))
            out = self.succ[s] = tuple(live)
        return out

    def moves(self, lay: _Layout, c: int) -> _Moves:
        """The moves out of lay on input letter code c; builds lay.nxt."""
        if lay.nxt is None:
            reached: dict[int, None] = {}
            for s in lay.states:
                for _, ns in self.successors(s):
                    reached.setdefault(ns)
            if not reached:
                raise ValueError("property is empty at this length")
            lay.nxt = self.layout(tuple(reached))
        slot = {ns: q for q, ns in enumerate(lay.nxt.states)}
        k = self.k
        out = tuple(
            (p, slot[ns], int(a != c), p * k + a)
            for p, s in enumerate(lay.states)
            for a, ns in self.successors(s)
        )
        if lay.seen:
            lay.moves[c] = out
        lay.seen = True
        return out


def d1_to_family(
    w: Word, family: ForbiddenFamily, state_cap: int = STATE_CAP
) -> tuple[Fraction, Word]:
    """Exact normalized substitution distance from w to P_F, with a
    nearest member as witness.  DP over positions x automaton states on
    integer tables (see the module docstring for the tie-break)."""
    if w.alphabet != family.alphabet:
        raise AlphabetError("word and family must share one alphabet")
    if family.state_bound() > state_cap:
        raise ValueError(f"automaton would exceed {state_cap} states")
    alphabet = family.alphabet
    k = len(alphabet)
    n = len(w)
    tables = _Tables(family)
    lay = tables.layout((0,))
    costs = [0]
    parents: list[list[int]] = []  # per position, a back code per slot
    for c in map({a: i for i, a in enumerate(alphabet)}.__getitem__, w.letters):
        moves = lay.moves[c] or tables.moves(lay, c)
        lay = lay.nxt
        new = [n + 1] * len(lay.states)
        back = [0] * len(new)
        for p, q, extra, code in moves:
            nc = costs[p] + extra
            if nc < new[q]:
                new[q] = nc
                back[q] = code
        costs = new
        parents.append(back)
    states = lay.states
    q = min(range(len(states)), key=lambda q: (costs[q], tables.tuples[states[q]]))
    best = costs[q]
    letters: list[str] = []
    for back in reversed(parents):
        q, a = divmod(back[q], k)
        letters.append(alphabet[a])
    witness = Word(tuple(reversed(letters)), w.alphabet)
    if not family.is_member(witness):
        raise RuntimeError(f"witness {witness} is not in the property")
    return Fraction(best, n) if n else Fraction(0), witness


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
        is_member=d1 == 0,
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
