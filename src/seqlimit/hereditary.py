"""Hereditary word properties given by forbidden subsequences, and a
sampling-based membership tester.

The property P_F consists of all words containing no member of the
finite family F as a (not necessarily contiguous) subsequence.  P_F is
hereditary: subwords of members are members.  The tester draws random
subsequences and accepts those in P_F, which gives perfect
completeness.  Trial t draws its positions by Floyd's sampling from
substream t, through one Philox generator re-keyed per trial
(`SeededStream.substream_generators`).  The trials are decided on the
automaton that d1 is computed on (`_d1_costs`), in chunks of rows of
sorted positions, TESTER_CELLS positions per chunk: every row walks the
table of moves from the start state one column at a time, with an
absorbing dead row for the moves that complete a pattern, and a row is a
member when it ends in a live state.  The count equals one greedy
`contains_pattern` scan per trial.

The exact distance d1(w, P_F) is a least-cost path through the
positions of w in the product of the greedy prefix-matching automata of
the patterns (`ForbiddenFamily.step`; a move that completes a pattern is
dead), where a move on letter a at position i costs a != w_i.  A move
keeps its state (a self-loop, on a letter that advances no pattern) or
raises its level, the total matched length, so states by level are in
topological order.  Taken in that order, each state q gets its costs
C[q, i] (int16 while n + 2 fits, else int32) at all positions in one
numpy pass: the inflow y[i + 1] is the least C[p, i] + (a != w_i) over
the moves (p, a) into q that raise the level, from rows already done,
and the self-loops then give C[q] = X + cumulative minimum of (y - X),
for X[i] the positions before i whose letter is not a self-loop letter
of q.

Tie-break, which fixes the witness: the move into a state at a position
is the first least-cost one in (frontier slot, letter in alphabet order)
order, the least rank cost * S * k + slot * k + letter for S states and
k letters, and the final state is the one of least (cost, matched-prefix
tuple): the rule of the tuple-state dict DP that the tests keep as the
oracle.  The frontier at
a position is a layout, the states that members of that length can end
in, in the order a per-position DP first reaches them from the layout
before.  It depends on the automaton and the position only, so the
layouts are eventually periodic: each distinct one is built once and
indexed by position.  The witness is read back by runs: at state q, one
argmin over the moves into q at every position finds the last one where
the chosen move enters q from another state, and the path stays in q
after it.  `member_word` seeds the tester curve with such a witness;
the tester and the curve search read the distance alone (`_least_cost`),
and build and check no witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .streams import PRNG_ID, SeededStream
from .words import AlphabetError, Word, _check_same_alphabet, _floyd, _floyd_bounds, _letter_masks, contains_pattern

STATE_CAP = 10**6
SEARCH_ROUNDS = 50  # random perturbations tried per target distance of a curve
TESTER_CELLS = 1 << 15  # query letters the tester decides per chunk of trials


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


def _d1_costs(w: Word, family: ForbiddenFamily):
    """The least cost C[q, i] of reaching the state of rank q after i
    letters of w, one numpy pass per state (see the module docstring),
    and what the tester and reading a witness back need: (C, tuples,
    order, nxt, loops, miss, slots, at).  Only the states the frontier
    reaches are built, and more than STATE_CAP of them are refused."""
    if w.alphabet != family.alphabet:
        raise AlphabetError("word and family must share one alphabet")
    alphabet = family.alphabet
    k, n = len(alphabet), len(w)
    tuples = [family.start_state()]  # state id -> matched-prefix tuple
    ids = {tuples[0]: 0}
    succ: list[tuple[int, ...]] = []  # next state id per letter, -1 where dead
    layouts: dict[tuple[int, ...], int] = {}  # frontier -> its first position
    lay: tuple[int, ...] = (0,)
    for i in range(n + 1):
        if lay in layouts:
            break
        if not lay:
            raise ValueError("property is empty at this length")
        layouts[lay] = i
        if i < n:
            for s in range(len(succ), len(tuples)):  # the states first reached at i
                row = []
                for letter in alphabet:
                    t = family.step(tuples[s], letter)
                    if t is not None and t not in ids:
                        ids[t] = len(tuples)
                        tuples.append(t)
                        if len(tuples) > STATE_CAP:
                            raise ValueError(f"automaton would exceed {STATE_CAP} states")
                    row.append(-1 if t is None else ids[t])
                succ.append(tuple(row))
            reached = dict.fromkeys(itertools.chain.from_iterable(map(succ.__getitem__, lay)))
            reached.pop(-1, None)
            lay = tuple(reached)
    at = np.arange(n + 1)  # position -> row of its frontier in `slots`
    if len(layouts) <= n:  # from here on, the frontiers repeat those from `lay` on
        mu = layouts[lay]
        at[len(layouts):] = mu + (at[len(layouts):] - mu) % (len(layouts) - mu)

    # states by rank, in order of level
    S = len(tuples)
    succ += [(-1,) * k] * (S - len(succ))  # the states first reached at n
    table = np.array(succ, np.intp)
    order = np.argsort(np.array(tuples).sum(axis=1), kind="stable")
    rank = np.argsort(order)
    nxt = np.where(table < 0, -1, rank[table])[order]  # rank reached per letter, -1 if dead
    loops = nxt == np.arange(S)[:, None]  # loops[r, a]: letter a keeps r in r
    src, let = np.nonzero((nxt >= 0) & ~loops)  # the moves that raise the level
    by_dst = np.argsort(nxt[src, let], kind="stable")
    src, let = src[by_dst], let[by_dst]
    first = np.searchsorted(nxt[src, let], np.arange(S + 1))  # into r: src[first[r]:first[r + 1]]
    slots = np.zeros((len(layouts), S), np.int32)
    for frontier, row in layouts.items():
        slots[row, rank[list(frontier)]] = np.arange(len(frontier))

    masks = _letter_masks(w, alphabet)
    dt = np.int16 if n + 2 < 2**15 else np.int32  # the smallest that holds n + 2
    miss = np.array([~masks[a] for a in alphabet], dt)  # miss[a, i]: cost of a at i
    C = np.full((S, n + 1), n + 1, dt)  # costs above n: out of reach
    C[0, 0] = 0
    scans: dict[bytes, np.ndarray] = {}  # self-loop letters -> X, their running mismatches
    for q in range(S):
        if q:  # the cost of entering q by a move that raises the level
            e = slice(first[q], first[q + 1])
            (C[src[e], :n] + miss[let[e]]).min(axis=0, out=C[q, 1:])
        if loops[q].any():  # then stay by self-loops
            m = loops[q].tobytes()
            if m not in scans:
                X = miss[loops[q]].min(axis=0).cumsum()
                scans[m] = np.concatenate(([0], X), dtype=dt)
            C[q] -= scans[m]
            np.minimum.accumulate(C[q], out=C[q])
            C[q] += scans[m]
    return C, tuples, order, nxt, loops, miss, slots, at


def _least_cost(C: np.ndarray) -> Fraction:
    """d1(w, P_F) from the `_d1_costs` table C of w: the least cost after
    the last letter, over the length."""
    n = C.shape[1] - 1
    return Fraction(int(C[:, n].min()), n) if n else Fraction(0)


def _d1_value(w: Word, family: ForbiddenFamily) -> Fraction:
    """d1(w, P_F) as d1_to_family finds it, without the witness."""
    return _least_cost(_d1_costs(w, family)[0])


def d1_to_family(w: Word, family: ForbiddenFamily) -> tuple[Fraction, Word]:
    """Exact normalized substitution distance from w to P_F, with a
    nearest member as witness, read back from the `_d1_costs` table by
    the tie-break of the module docstring."""
    C, tuples, order, nxt, loops, miss, slots, at = _d1_costs(w, family)
    alphabet = family.alphabet
    (S, k), n = nxt.shape, len(w)

    # backtrack by runs: the path stays in q back to the last position
    # where the chosen move into q is not a self-loop
    best = int(C[:, n].min())
    q = min(np.flatnonzero(C[:, n] == best), key=lambda r: tuples[order[r]])
    sk = S * k
    out = np.empty(n, np.intp)
    j = n
    while j:
        p, a = np.nonzero(nxt == q)  # every move (p, a) into q, self-loops included
        i = 0 if loops[q].any() else j - 1
        keys = ((C[p, i:j] + miss[a, i:j]).astype(np.int64) * sk
                + slots[:, p][at[i:j]].T * k + a[:, None])
        pick = keys.argmin(axis=0)  # the move chosen into q at positions i + 1, ..., j
        enter = np.flatnonzero(p[pick] != q)
        t = enter[-1] if len(enter) else 0
        out[i + t : j] = a[pick[t:]]
        q, j = p[pick[t]], i + t
    witness = Word(tuple(np.array(alphabet, dtype=object)[out].tolist()), w.alphabet)
    if not family.is_member(witness):
        raise RuntimeError(f"witness {witness} is not in the property")
    return _least_cost(C), witness


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
    tail bounds.  Trial t queries the subword that
    random_subsequence(w, length, stream.substream(t)) draws."""
    if length > len(w):
        raise ValueError("query size exceeds word length")
    if trials < 1:
        raise ValueError(f"the tester needs at least 1 trial, got {trials}")
    bounds = _floyd_bounds(len(w), length)
    _check_same_alphabet(w, family.patterns[0])
    C, _, _, nxt, _, miss, _, _ = _d1_costs(w, family)
    k = nxt.shape[1]
    codes = np.arange(k) @ (1 - miss)  # w's letters as alphabet indices, faster than argmin(axis=0)
    # moves[r * k + a] is k times the rank letter a leads rank r to; -k, a
    # move that completes a pattern, reads the dead row appended last
    moves = np.append(np.where(nxt < 0, -k, nxt * k), np.full(k, -k))
    draws = stream.substream_generators(trials)
    rows = max(1, TESTER_CELLS // length)
    accepted = 0
    for _ in range(0, trials, rows):
        chosen = (_floyd(rng, bounds) for rng in itertools.islice(draws, rows))
        queries = np.fromiter(itertools.chain.from_iterable(chosen), np.intp).reshape(-1, length)
        queries.sort(axis=1, kind="stable")  # the default kind pages in 256 KB more of numpy's code
        state = np.zeros(len(queries), np.intp)  # the start state has rank 0
        for column in codes[queries].T:
            state = moves[state + column]
        accepted += int(np.count_nonzero(state >= 0))
    d1 = _least_cost(C)
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
            d = _d1_value(cand, family)
            if best is None or abs(d - target) < abs(best[0] - target):
                best = (d, cand)
            if best[0] == target:
                break
        d, cand = best
        rep = run_tester(cand, family, length, trials, stream.substream(2_000_000 + pi))
        points.append(CurvePoint(target_d1=target, achieved_d1=d, accept_fraction=rep.accept_fraction))
    return points
