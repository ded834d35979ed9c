"""Byte-identical CLI output on a fixed command corpus.

The digests are SHA-256 hashes of stdout recorded from the all-Fraction
implementation of discrepancy, best uniformity, the step-function
distances and weak regularity, and from pattern densities and
forcibility certificates by iterated symbolic integration, from the
`Fraction` grid measures (cell-tuple enumeration for exact permuton
densities, `Fraction` prefix sums for their box distance), from the
tuple-state dict DP for the distance to a forbidden family (but for
`test-w240-nine-patterns`, whose figures a test checks against it), from the
per-letter Python DP for the pattern counts of words, from the
n-piece step function of a word for its distances to polynomial limits
(but for the `word-cubic-end` pair, see CUBIC_END), from the
per-letter generators that built f-random words, and from permuton
Monte Carlo cells drawn by `Generator.choice` on grids read token by
token with `Fraction(str)`.  Any change
to those paths must keep every byte of output, so a digest mismatch is
a behaviour change.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import seqlimit
from seqlimit import ForbiddenFamily, SeededStream, Word, words
from seqlimit.hereditary import STATE_CAP
from test_cli import run_cli
from test_hereditary import dict_dp_d1, oracle_accepted


def _word(n: int, a: int, b: int, m: int) -> str:
    """Deterministic pseudo-random binary word (quadratic residues mod m)."""
    return "".join("1" if (a * i * i + b * i) % m < m // 2 else "0" for i in range(n))


def _step(breakpoints, values) -> str:
    return json.dumps({"breakpoints": breakpoints, "pieces": [{"coeffs": [v]} for v in values]})


W200 = _word(200, 7, 3, 11)
W60A = _word(60, 5, 2, 13)
W60B = _word(60, 3, 1, 7)
W40 = _word(40, 2, 5, 9)
W25 = _word(25, 11, 4, 17)
STEP_A = _step(["0", "1/7", "2/5", "3/4", "1"], ["1/3", "1", "0", "5/8"])
STEP_B = _step(["0", "1/3", "1/2", "11/12", "1"], ["2/9", "3/4", "1/6", "1"])
STEP_EQ = _step(["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "7/8", "1"],
                ["1", "0", "1/2", "3/4", "0", "1", "1/4", "1/2"])
LINEAR = json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "1"]}]})
QUADRATIC = json.dumps({"breakpoints": ["0", "1/2", "1"],
                        "pieces": [{"coeffs": ["0", "0", "4"]}, {"coeffs": ["1", "-1"]}]})
# ternary components on three different grids, summing to 1 on the merged grid
TERNARY = json.dumps({"alphabet": ["a", "b", "c"], "components": {
    "a": json.loads(_step(["0", "1/3", "1"], ["1/2", "1/6"])),
    "b": json.loads(_step(["0", "1/4", "1"], ["1/5", "1/4"])),
    "c": json.loads(_step(["0", "1/4", "1/3", "1"], ["3/10", "1/4", "7/12"])),
}})
# ternary components with polynomial pieces: a = x^2 / 2, b on two pieces,
# c = 1 - a - b on the merged grid
TERNARY_POLY = json.dumps({"alphabet": ["a", "b", "c"], "components": {
    "a": {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "0", "1/2"]}]},
    "b": {"breakpoints": ["0", "1/3", "1"], "pieces": [{"coeffs": ["1/3", "-1/3"]}, {"coeffs": ["2/9"]}]},
    "c": {"breakpoints": ["0", "1/3", "1"], "pieces": [
        {"coeffs": ["2/3", "1/3", "-1/2"]}, {"coeffs": ["7/9", "0", "-1/2"]}]},
}})
TWO_BRANCH = _step(["0", "1/2", "1"], ["1/3", "2/3"])
TWO_BRANCH_H = _step(["0", "1/4", "1"], ["2/3", "1/3"])
THREE_BRANCH = _step(["0", "1/3", "2/3", "1"], ["1/4", "3/4", "1/2"])
THREE_BRANCH_H = _step(["0", "1/3", "2/3", "1"], ["1/4", "1/2", "3/4"])
SQUARE = json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "0", "1"]}]})
# 2x^2 on [0, 1/2), then 1/2: a cubic and a linear primitive branch, so the
# certificate holds patterns of up to 9 letters
QUAD_HALF = json.dumps({"breakpoints": ["0", "1/2", "1"],
                        "pieces": [{"coeffs": ["0", "0", "2"]}, {"coeffs": ["1/2"]}]})
# 2x^2 on [0, 1/2), then 1/2 - x/2: a cubic and a quadratic primitive
# branch, a certificate of 4070 words
QUAD_DROP = json.dumps({"breakpoints": ["0", "1/2", "1"],
                        "pieces": [{"coeffs": ["0", "0", "2"]}, {"coeffs": ["1/2", "-1/2"]}]})
# two-piece cubics whose difference has the rational roots 1/4, 1/3 | 1/2, 2/3, 3/4
CUBIC_F = json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [
    {"coeffs": ["1/2", "1/4", "0", "-1/8"]}, {"coeffs": ["3/4", "0", "-1/4", "1/64"]}]})
CUBIC_G = json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [
    {"coeffs": ["9/16", "-13/48", "4/3", "-9/8"]}, {"coeffs": ["1", "-29/24", "5/3", "-63/64"]}]})
# three quadratic pieces whose breakpoints 1/3 and 5/8 fall inside the cells
# of a 7-letter word; the middle piece peaks at 1/2 with value 3/4
QUAD3 = {"breakpoints": ["0", "1/3", "5/8", "1"], "pieces": [
    {"coeffs": ["1/4", "0", "1"]}, {"coeffs": ["1/2", "1", "-1"]}, {"coeffs": ["0", "2", "-2"]}]}
# reaches 1 at its breakpoint 3/4, inside a cell of a 7-letter word: the
# generic route found that root of 1 - g numerically and printed floats, so
# these three digests are recorded from the word's integer sweep (exact)
CUBIC_END = json.dumps({"breakpoints": ["0", "1/2", "3/4", "1"], "pieces": [
    {"coeffs": ["1"]}, {"coeffs": ["-344/331", "360/331", "528/331", "256/331"]},
    {"coeffs": ["3", "-8", "16/3"]}]})
# 0 on [0, 1/4], a ramp on [1/4, 3/5], 1 on [3/5, 1]
RAMP01 = json.dumps({"breakpoints": ["0", "1/4", "3/5", "1"], "pieces": [
    {"coeffs": ["0"]}, {"coeffs": ["-5/7", "20/7"]}, {"coeffs": ["1"]}]})
# two-piece quartics whose difference is 2(x - 1/4)^2 (x - 1/2)(x - 3/4) on
# [0, 1/2] and (x - 1/2)(x - 2/3)(x^2 + 1/5) on [1/2, 1]: a double root
# inside a piece, a root at the inner breakpoint and an irreducible quadratic
QUARTIC_F = json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [
    {"coeffs": ["73/192", "-53/160", "17/8", "-7/2", "15/7"]},
    {"coeffs": ["7/15", "-7/30", "47/60", "-7/6", "5/6"]}]})
QUARTIC_G = json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [
    {"coeffs": ["1/3", "1/5", "0", "0", "1/7"]}, {"coeffs": ["2/5", "0", "1/4", "0", "-1/6"]}]})
# 1 - 4 (x^2 - 1/2)^2 reaches 1 at the irrational 1/sqrt(2), so its range
# is a float pair and a word against it takes the generic route
BUMP = json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "0", "4", "0", "-4"]}]})
# x^30 crosses 1/3 at the irrational 3^(-1/30), where |x^30 - 1/3| is too
# sharp for one 21-point Gauss-Kronrod pass: its L1 float is read off the
# exact primitive, and is the correctly rounded 0.32088731632702833
X30 = json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0"] * 30 + ["1"]}]})


def _perm(m: int, seed: int) -> list[int]:
    """Deterministic permutation of 0..m-1 (Fisher-Yates driven by an LCG)."""
    p, x = list(range(m)), seed
    for i in range(m - 1, 0, -1):
        x = (6364136223846793005 * x + 1442695040888963407) % 2**64
        j = (x >> 33) % (i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def _grid(m: int, seed: int, weights=(1, 1, 1)) -> str:
    """Grid measure JSON: the mixture of len(weights) permutation measures
    with the given (rational) weights, normalised to total mass 1."""
    total = sum(Fraction(w) for w in weights)
    mass = [[Fraction(0)] * m for _ in range(m)]
    for t, w in enumerate(weights):
        for i, v in enumerate(_perm(m, seed * 31 + t)):
            mass[i][v] += Fraction(w) / (total * m)
    return json.dumps({"m": m, "mass": [[str(v) for v in row] for row in mass]})


def _perm_text(n: int, seed: int) -> str:
    return ",".join(str(v + 1) for v in _perm(n, seed))


G4 = _grid(4, 1)
G5 = _grid(5, 2, weights=(1, 2, 3, 5))
G6 = _grid(6, 3, weights=("1/3", "1/7", "11/21"))
G7 = _grid(7, 4)
G12A = _grid(12, 5)
G12B = _grid(12, 6, weights=(2, 3))
G20 = _grid(20, 7)
G30 = _grid(30, 8)
# weights over two primes near 2^40: the common mass denominator exceeds 2^63
P1, P2 = 1099511627791, 1099511627817
GBIG = _grid(4, 9, weights=(Fraction(P1 - 5, P1), Fraction(3, P2),
                            1 - Fraction(P1 - 5, P1) - Fraction(3, P2)))

PERMUTON = {
    "permuton-density-grid-k1-m7": ("permuton", "density", "--grid", G7, "--pattern", "1"),
    "permuton-density-grid-k2-m12": ("permuton", "density", "--grid", G12B, "--pattern", "21"),
    "permuton-density-grid-k2-m30": ("permuton", "density", "--grid", G30, "--pattern", "12"),
    "permuton-density-grid-k3-m20": ("permuton", "density", "--grid", G20, "--pattern", "231"),
    "permuton-density-grid-k3-m12": ("permuton", "density", "--grid", G12A, "--pattern", "132"),
    "permuton-density-grid-k3-m30": ("permuton", "density", "--grid", G30, "--pattern", "312"),
    "permuton-density-grid-k4-m4": ("permuton", "density", "--grid", G4, "--pattern", "2413"),
    "permuton-density-grid-k4-m5": ("permuton", "density", "--grid", G5, "--pattern", "1432"),
    "permuton-density-grid-k4-m6": ("permuton", "density", "--grid", G6, "--pattern", "3142"),
    "permuton-density-grid-k3-big-den": ("permuton", "density", "--grid", GBIG, "--pattern", "213"),
    "permuton-density-grid-k4-big-den": ("permuton", "density", "--grid", GBIG, "--pattern", "4231"),
    "permuton-density-grid-mc-k4-m30": (
        "--seed", "17", "permuton", "density", "--grid", G30, "--pattern", "2143", "--trials", "5000"),
    "permuton-density-grid-mc-k5-m7": (
        "--seed", "18", "permuton", "density", "--grid", G7, "--pattern", "25314", "--trials", "5000"),
    "permuton-density-perm-k3": ("permuton", "density", "--perm", _perm_text(60, 10), "--pattern", "321"),
    "permuton-density-perm-k4": ("permuton", "density", "--perm", _perm_text(40, 11), "--pattern", "2413"),
    "permuton-density-grid-as-perm-k3": (
        "permuton", "density", "--grid", _perm_text(9, 12), "--pattern", "213"),
    "permuton-density-grid-as-perm-k4": (
        "permuton", "density", "--grid", _perm_text(6, 13), "--pattern", "1324"),
    "permuton-distance-m30-m20": ("permuton", "distance", G30, G20),
    "permuton-distance-m12-m12": ("permuton", "distance", G12A, G12B),
    "permuton-distance-grid-perm": ("permuton", "distance", G5, _perm_text(7, 14)),
    "permuton-distance-big-den": ("permuton", "distance", GBIG, G6),
    "permuton-sample-m30": ("--seed", "19", "permuton", "sample", "--grid", G30, "--size", "5", "--count", "6"),
    "permuton-sample-big-den": ("--seed", "20", "permuton", "sample", "--grid", GBIG, "--size", "4", "--count", "6"),
}


def _mass(m: int, rows) -> str:
    return json.dumps({"m": m, "mass": rows})


# row 0 puts all its mass in its last cell, so the first m - 1 cells in
# row-major order (where the Monte Carlo cell sampler starts) have none
ZERO_LEAD = _mass(5, [["0", "0", "0", "0", "1/5"], ["1/10", "0", "0", "1/10", "0"],
                      ["0", "1/10", "1/10", "0", "0"], ["0", "1/10", "1/10", "0", "0"],
                      ["1/10", "0", "0", "1/10", "0"]])
G1 = _mass(1, [["1"]])

# Monte Carlo over several 4096-trial batches (20000 = 4 * 4096 + 3616,
# 4097 = 4096 + 1), on leading zero-mass cells, a single cell and masses
# over a denominator above 2^63; samples on the last three
PERMUTON_MC = {
    "permuton-density-grid-mc-k5-m30-t20000": (
        "--seed", "21", "permuton", "density", "--grid", G30, "--pattern", "31524", "--trials", "20000"),
    "permuton-density-grid-mc-k4-m30-t4097": (
        "--seed", "22", "permuton", "density", "--grid", G30, "--pattern", "2143", "--trials", "4097"),
    "permuton-density-grid-mc-k5-zero-lead": (
        "--seed", "23", "permuton", "density", "--grid", ZERO_LEAD, "--pattern", "14253", "--trials", "3000"),
    "permuton-density-grid-mc-k5-m1": (
        "--seed", "24", "permuton", "density", "--grid", G1, "--pattern", "12345", "--trials", "3000"),
    "permuton-density-grid-mc-k5-big-den": (
        "--seed", "25", "permuton", "density", "--grid", GBIG, "--pattern", "52143", "--trials", "3000"),
    "permuton-sample-zero-lead": (
        "--seed", "26", "permuton", "sample", "--grid", ZERO_LEAD, "--size", "4", "--count", "6"),
    "permuton-sample-m1": ("--seed", "27", "permuton", "sample", "--grid", G1, "--size", "3", "--count", "4"),
}

# grid files that spell cell masses in other ways than canonical "p/q"
SPELLED = {
    "two-sixths": _mass(2, [["2/6", "1/6"], ["1/6", "2/6"]]),
    "decimal-and-json-0": _mass(2, [["0.5", 0], [0, "1/2"]]),
    "json-0.25": _mass(2, [["0.25", 0.25], [0.25, "1/4"]]),
    "space-and-plus": _mass(3, [[" 1/3", "0", "0"], ["0", "+1/9", "2/9"], ["0", "2/9", "+1/9 "]]),
    "exponent": _mass(2, [["1e-1", "4e-1"], ["4e-1", "1e-1"]]),
    "leading-zeros": _mass(2, [["007/28", "1/4"], ["1/4", "0007/028"]]),
}
PERMUTON_SPELLED = {
    f"permuton-density-spelled-{name}": ("permuton", "density", "--grid", grid, "--pattern", "21")
    for name, grid in SPELLED.items()
}

def _ternary(n: int, a: int, b: int, m: int) -> str:
    """Deterministic pseudo-random word over a, b, c as a word JSON."""
    letters = "".join("abc"[(a * i * i + b * i) % m % 3] for i in range(n))
    return json.dumps({"letters": letters, "alphabet": ["a", "b", "c"]})


def _seeded_letters(n: int, alphabet: str, seed: int) -> str:
    """Seeded random string of n of the given letters."""
    codes = SeededStream(seed).generator().integers(0, len(alphabet), size=n)
    return "".join(alphabet[c] for c in codes)


def _seeded(n: int, alphabet: str, seed: int) -> str:
    """Seeded random word over the given letters, as --word JSON."""
    return json.dumps({"letters": _seeded_letters(n, alphabet, seed), "alphabet": list(alphabet)})


def _tester(word: str, forbid: str, query: int, trials: int, seed: int) -> tuple:
    return ("--seed", str(seed), "test", "--word", word, "--forbid", forbid,
            "--query-size", str(query), "--trials", str(trials))


# exact distance d1(w, P_F) and its witness search on ~200 letters against
# one to three forbidden patterns, a ternary word, and a member (d1 = 0);
# then long seeded words: 4,000 binary letters, and 1,500 ternary ones
# against a family whose frontier layouts take 8 positions to settle; then
# the tester's edges: one query of the whole word, 5,000 trials on a short
# word (more than one chunk of trials), and an alphabet whose letters are
# not all single characters; last, nine patterns, one of them repeated,
# whose product bound of 5^9 states is above STATE_CAP while the frontier
# reaches 22 (refused when the cap counted the bound)
NINE_PATTERNS = "0110,1001,1011,0111,0001,1000,1001,1110,0011"
TESTER = {
    "test-w200-one-pattern": _tester(W200, "0110", 12, 200, 31),
    "test-w210-two-patterns": _tester(_word(210, 3, 5, 13), "101,0110", 7, 200, 32),
    "test-w190-three-patterns": _tester(_word(190, 5, 1, 17), "110,0101,1001", 6, 150, 33),
    "test-ternary-two-patterns": _tester(_ternary(180, 4, 7, 19), "abc,cba", 12, 200, 34),
    "test-member-d1-zero": _tester("0" * 120 + "1" * 80, "10", 20, 100, 35),
    "test-w4000-two-patterns": _tester(_seeded(4000, "01", 43), "0110,1001", 24, 100, 43),
    "test-ternary1500-slow-layouts": _tester(_seeded(1500, "abc", 44), "ccacc,abbbb", 16, 100, 44),
    "test-w300-query-whole-word": _tester(_seeded(300, "01", 45), "0110,1001", 300, 1, 45),
    "test-w60-5000-trials": _tester(W60A, "0110", 10, 5000, 46),
    "test-multichar-alphabet": _tester(
        json.dumps({"letters": _seeded_letters(120, "ab", 47), "alphabet": ["a", "b", "cd"]}),
        "aab,bba", 6, 300, 47),
    "test-w240-nine-patterns": _tester(_word(240, 7, 3, 11), NINE_PATTERNS, 4, 200, 52),
}

# analyze on long seeded words, where the hull and the exponential sums walk
# thousands of positions (8 frequencies; a density whose denominator is a
# six-digit prime), and on words whose prefix walks turn at every point or
# at one only
ANALYZE_LONG = {
    "analyze-seeded-n1000": ("analyze", _seeded_letters(1000, "01", 48)),
    "analyze-seeded-n4000-f8": ("analyze", _seeded_letters(4000, "01", 49), "--frequencies", "8"),
    "analyze-seeded-n16000-big-den": (
        "analyze", _seeded_letters(16000, "01", 50), "--density", "499979/999983"),
    "analyze-0001": ("analyze", "0001"),
    "analyze-1110": ("analyze", "1110"),
    "analyze-0110": ("analyze", "0110"),
    "analyze-01x500": ("analyze", "01" * 500),
}

# the tester and the exact distance on 16,000 letters
TESTER_LONG = {
    "test-w16000-two-patterns": _tester(_seeded(16000, "01", 51), "0110,1001", 24, 100, 51),
}

# exact pattern counts of words: patterns of length 1, 3 and 6, a ternary
# word, l = n, counts whose intermediate prefix counts exceed 2^64 while
# C(n, l) < 2^63, and C(n, l) >= 2^63: counted mod 2^64 (uint64 levels),
# by CRT from a few moduli (l = 8 on 3,000 letters), and in Python ints
# (the word's own first 200 letters, whose bound needs dozens of moduli)
W3000 = _word(3000, 13, 7, 29)
WORD_DENSITY = {
    "density-word-w200-l1": ("density", "--word", W200, "--pattern", "1"),
    "density-word-w200-l3": ("density", "--word", W200, "--pattern", "011"),
    "density-word-w200-l6": ("density", "--word", W200, "--pattern", "101100"),
    "density-word-ternary-l4": ("density", "--word", _ternary(180, 4, 7, 19), "--pattern", "abca"),
    "density-word-l-equals-n": ("density", "--word", "0110100", "--pattern", "0110100"),
    "density-word-l-equals-n-absent": ("density", "--word", "0110100", "--pattern", "0110010"),
    "density-word-zeros-130-120": ("density", "--word", "0" * 130, "--pattern", "0" * 120),
    "density-word-n3000-l8": ("density", "--word", W3000, "--pattern", "01101001"),
    "density-word-n3000-own-prefix-200": ("density", "--word", W3000, "--pattern", W3000[:200]),
}

# completeness/soundness curves: `member_word` seeds the perturbation search
CURVE_BATCH = {"experiments": [
    {"kind": "tester_curve", "name": "curve-two", "forbid": ["110", "0101"], "n": 160,
     "query_size": 16, "distances": ["0", "1/20", "1/10", "1/5"], "trials": 60},
    {"kind": "tester_curve", "name": "curve-one", "forbid": ["10"], "n": 90,
     "query_size": 12, "distances": ["0", "1/9", "1/3"], "trials": 60},
]}

PAIRS = {
    "word-word-equal": (W60A, W60B),
    "word-word-unequal": (W40, W25),
    "word-step": (W60A, STEP_A),
    "step-word": (STEP_B, W25),
    "step-step": (STEP_A, STEP_B),
    "word-const": (W200, _step(["0", "1"], ["3/7"])),
    "word-poly": (W40, LINEAR),
    "square-half": (SQUARE, _step(["0", "1"], ["1/2"])),  # sign change at 1/sqrt(2): float path
    "word-square": (W40, SQUARE),
    "word7-quad3": ("0110100", json.dumps(QUAD3)),
    "quad3-word7": (json.dumps(QUAD3), "1101001"),
    "word-ramp01": (W25, RAMP01),
    "ramp01-word": (RAMP01, W40),
    "word-cubic-end": ("0110111", CUBIC_END),
    "cubic-cubic": (CUBIC_F, CUBIC_G),
    "quartic-quartic": (QUARTIC_F, QUARTIC_G),
    # a step against polynomials whose breakpoints fall between its own
    "step-quad3": (STEP_B, json.dumps(QUAD3)),
    "step-cubic": (STEP_B, CUBIC_F),
    "word-bump": (W40, BUMP),
    "word7-bump": ("0110100", BUMP),  # 1/sqrt(2) inside a 1-cell: floats
    "x30-third": (X30, _step(["0", "1"], ["1/3"])),
}

# f-random words: a binary step limit, a binary polynomial limit and a
# ternary limit vector (`f_random_word` and `f_random_word_vector`)
SAMPLE = {
    "sample-step": ("--seed", "41", "sample", "--limit", STEP_A, "--length", "60", "--count", "3"),
    "sample-quad3": ("--seed", "42", "sample", "--limit", json.dumps(QUAD3), "--length", "75", "--count", "3"),
    "sample-ternary": ("--seed", "43", "sample", "--limit", TERNARY, "--length", "50", "--count", "3"),
}

# pattern densities of polynomial limits: a ternary vector with polynomial
# components, the two-piece cubic CUBIC_F for patterns of length 1..6 and the
# quartic QUARTIC_F for one pattern of length 8; and patterns that leave out
# a component whose grid (TERNARY's c) or degree (TERNARY_POLY's c) the
# others lack
LIMIT_DENSITY = {
    "density-limit-ternary-aab": ("density", "--limit", TERNARY, "--pattern", "aab"),
    "density-limit-ternary-poly-bb": ("density", "--limit", TERNARY_POLY, "--pattern", "bb"),
    "density-limit-ternary-poly-l3": ("density", "--limit", TERNARY_POLY, "--pattern", "acb"),
    "density-limit-ternary-poly-l6": ("density", "--limit", TERNARY_POLY, "--pattern", "abcacb"),
    **{
        f"density-limit-cubic-l{len(u)}": ("density", "--limit", CUBIC_F, "--pattern", u)
        for u in ("1", "01", "110", "0110", "10110", "011010")
    },
    "density-limit-quartic-l8": ("density", "--limit", QUARTIC_F, "--pattern", "01101001"),
}

CORPUS = {
    "analyze-w200": ("analyze", W200),
    "analyze-w200-d1/3": ("analyze", W200, "--density", "1/3"),
    "analyze-thue-morse": ("analyze", "0110100110010110"),
    "analyze-alternating-d1/2": ("analyze", "01" * 20, "--density", "1/2"),
    "analyze-zeros": ("analyze", "0" * 12),
    "analyze-ones-d2/3": ("analyze", "1" * 12, "--density", "2/3"),
    **{
        f"distance-{metric}-{pair}": ("distance", a, b, "--metric", metric)
        for pair, (a, b) in PAIRS.items()
        for metric in ("box", "l1", "prefix")
    },
    "regularize-step-a": ("regularize", "--limit", STEP_A, "--eps", "1/40"),
    "regularize-step-eq-init3": ("regularize", "--limit", STEP_EQ, "--eps", "1/20", "--init-uniform", "3"),
    "regularize-quadratic": ("regularize", "--limit", QUADRATIC, "--eps", "1/30"),
    "regularize-cubic-init3": ("regularize", "--limit", CUBIC_F, "--eps", "1/30", "--init-uniform", "3"),
    # initial partitions off the limit's breakpoints
    "regularize-step-b-init5": ("regularize", "--limit", STEP_B, "--eps", "1/60", "--init-uniform", "5"),
    "regularize-quad3-init2": ("regularize", "--limit", json.dumps(QUAD3), "--eps", "1/60", "--init-uniform", "2"),
    "density-limit-step-eq": ("density", "--limit", STEP_EQ, "--pattern", "011010"),
    "density-limit-step-a": ("density", "--limit", STEP_A, "--pattern", "101101"),
    "density-limit-const": ("density", "--limit", _step(["0", "1"], ["3/7"]), "--pattern", "0110"),
    "density-limit-ternary": ("density", "--limit", TERNARY, "--pattern", "abcacb"),
    "density-limit-quadratic": ("density", "--limit", QUADRATIC, "--pattern", "01101"),
    "forcibility-two-branch": ("forcibility", "--limit", TWO_BRANCH),
    "forcibility-two-branch-candidate": ("forcibility", "--limit", TWO_BRANCH, "--candidate", TWO_BRANCH_H),
    "forcibility-three-branch": ("forcibility", "--limit", THREE_BRANCH),
    "forcibility-three-branch-candidate": (
        "forcibility", "--limit", THREE_BRANCH, "--candidate", THREE_BRANCH_H),
    "forcibility-quad-half-candidate": ("forcibility", "--limit", QUAD_HALF, "--candidate", LINEAR),
    "forcibility-quad-drop-candidate": ("forcibility", "--limit", QUAD_DROP, "--candidate", LINEAR),
    **PERMUTON,
    **PERMUTON_MC,
    **PERMUTON_SPELLED,
    **TESTER,
    **WORD_DENSITY,
    **SAMPLE,
    **LIMIT_DENSITY,
    **ANALYZE_LONG,
    **TESTER_LONG,
}

DIGESTS = {
    "analyze-alternating-d1/2": "ca02d0ba802a29a8b9b1dd5603feae7daec02e358537bee27ffe30caf26489fd",
    "analyze-ones-d2/3": "ffc58c87246ff08410b49db65e874fc975e49b2fbc0450a3d9b101b9b8a95223",
    "analyze-thue-morse": "2bec2c35d54aa79d295d70ee87dd50a4b852f36a9a677f2104cc40a04014cecb",
    "analyze-w200": "4c3a30976beb05132d1d12cc2fb4e37d7f5595932335ae80cca18d3486caf724",
    "analyze-w200-d1/3": "fc9e3809fe2a1bae7fc7516100da312bcbe1c01ac97303c417a0e7e0fb735637",
    "analyze-zeros": "a1a7b49aab9b8f141cb24b17cc65f1b8ababf8fae969eacc7411e1c7a54f793a",
    "density-limit-const": "d9ae30d03ef32bbb333d9a4ec555023848491e15d5f0946250eeda9c97000df0",
    "density-limit-quadratic": "fc1ee509b05073f64e24bb213d23770c32552b403db6ba9788ab58654aed3c87",
    "density-limit-step-a": "4dd528f57b7123218320999a6044d7ea9d4b6fb50e39a0b405b9eef6cd6ea177",
    "density-limit-step-eq": "75f25f7c6956ff4034cf033416221feeb59cc2eae324d26ccf364307f2837541",
    "density-limit-ternary": "fb977022acf47a2ce51dc14343508e7e9dd7956bda24eadb4fd53252d31efdcb",
    "density-word-w200-l1": "2c6992e7f15264f7505386ae4bcf0e567b60372a2a0311e5b4f09d8af422bf01",
    "density-word-w200-l3": "adf676f1b74b8d173462db6a7afa03bf1cb0bdaad34229d0997b2181dcd5f9a6",
    "density-word-w200-l6": "2e735f62f0599be07b5e4e46a399a1336b73a50abc513de9ee647c797616505f",
    "density-word-ternary-l4": "4528ffb575ecea029d6f18611c706ed7027b78f1371d0e9f49124f0a47a64abc",
    "density-word-l-equals-n": "abdd39a851b72daf8fbf182314b3494834b362d2030ce7fdb8a2c34bb869e437",
    "density-word-l-equals-n-absent": "d180107e956a8bb0d2bdd9640cc7d21a9ca07adead7b0d061fd084ca5c7b2828",
    "density-word-zeros-130-120": "6e7d4c78cdb72c60ed9a4a26d97edc68252028d0b85725edaa5ec869c823954d",
    "density-word-n3000-l8": "dfe36b3b331c0856c94082522d23603e4db7300ff3c2501078a4f614e190e1dc",
    "density-word-n3000-own-prefix-200": "861243d463f3946d1cfa426bacdfe10fd3e0b5d78b91355ae4cd0525d9d2a600",
    "distance-box-step-step": "ba993ae927208c9583f774dbb3a2713bc6643e1a3ea2e231659e96d73d1399b1",
    "distance-box-step-word": "a6d798b9b0672dfa5ecf2fd750869090d1572d4a3e5c9a8ba9faaa51744ed9ef",
    "distance-box-word-const": "d2dae81eb6958be75dd45b2f4023268a198b7f7896d51563b88b0e0d62733c5e",
    "distance-box-word-poly": "a9aff5b57f0f41f2a7db2edd258b7441176c1664220c5de330784c60d0bc644a",
    "distance-box-word-step": "622858ddedcf2faa09a3ab1ef3b4200acf8876b71a3281c3236fb90b08039452",
    "distance-box-word-word-equal": "676c239ab819d1069d5b93b55dbdd5b67caa1cbc63b0d6d1eb18089351002f78",
    "distance-box-word-word-unequal": "4ae4fad0f0823e6b483e6b505cfc76cb3db2a52577eaf79e2055cb2cac41b1ed",
    "distance-l1-step-step": "810838dc4c97dd8a8ec877aea3e58a5ba8b7494c216cf9bcb890816de0c3582e",
    "distance-l1-step-word": "f29b6d98de055b3bd4e7e3e6749927f9b6972d9da784054773d288959627f6c6",
    "distance-l1-word-const": "9f082e14d8e3e48bd0d42fda1d5a3c58e76fcf8dad842bf3f555b3ec5302493b",
    "distance-l1-word-poly": "2ba3d9443aa745478aff40f74a8835f6f2f5c7e49ca53b0c399b54bdf646f61f",
    "distance-l1-word-step": "1691959fd212448ce0c0778adec9ca772ebdbde98618d99cd436141a7e866ad9",
    "distance-l1-word-word-equal": "84d91a83f41000ae8234d903f0e77746d7f4288538aef289aa14c20642a3c421",
    "distance-l1-word-word-unequal": "00316ac145a8f6fbe929d060989c004adec0803bc6c5736e67b8238a649471fa",
    "distance-prefix-step-step": "74429df682d2f738cc76f5fd989bef62438a5b65a256db3ab9a68904ae293165",
    "distance-prefix-step-word": "54dd760bca4013a09838aad53528271367c286ca996f6c54fefe989b55668b19",
    "distance-prefix-word-const": "36560003c3eb0efdf0ed2dd6c366560e7e38dcf58046969fd53778c11cfadc08",
    "distance-prefix-word-poly": "63ec3ae5c0963c3f666452afebaccb5ea981feedfee1648f5a9e4158899dd69f",
    "distance-prefix-word-step": "0d27a24eefde76d7bad6b18caef28661fac61db2c231ac1a1b128b8cedf7cb66",
    "distance-prefix-word-word-equal": "859b1f9d10ead9d6b4b18d464dcbabdd5b81c3b0aefb0fecda27cf69ec18194a",
    "distance-prefix-word-word-unequal": "cb048b3f537e8e1d6ae25a91aefaf4a38fb792b1e614639114c7cd41733be37c",
    "distance-box-cubic-cubic": "88f8e3019d1ce08e251761ff484b62a7f2eb6e14cc4eb8c416326390505d5a92",
    "distance-box-square-half": "71578135a90cb8835ed0a0800a5aa444bc7472a77f2c7e63068cc7288d74983c",
    "distance-box-word-square": "20297b9b3a232ff12c84db23e2526bb7df73b79a3345c1695f0b410958010caa",
    "distance-l1-cubic-cubic": "15fe14cb54ef7baffa109d3f605f58230dedccab3c048a26dfeab989f95cea60",
    "distance-l1-square-half": "e3fb81399af8a70e09b5406d29e567d4310cba0a554d3d2630af8224d5bf27f3",
    "distance-l1-word-square": "a1eb20e5f08dd5a51d94d34dc6c9d8950330b5bbb2cf52924ab7a5bc349eb340",
    "distance-prefix-cubic-cubic": "ebbcbbaf2c77b07355d2769d3c697595093f54f1ec8c5521f995eb6bffc01303",
    "distance-box-quartic-quartic": "4e3f6e5c21e54a8d0edd889e6bcf620a2fb7921f9c3fe2085a36f9b572e9b17b",
    "distance-l1-quartic-quartic": "76e6b2e58c205f55c52f7dbfe94787cd8a3b169e0f8fb7ebd9735934537854e2",
    "distance-prefix-quartic-quartic": "f00ca6638c83eada3e0fe8604d6cebc4e82ec00ffe25380b8559ccbbda4589c0",
    "distance-prefix-square-half": "6a8df4c0c42de9235fb7e1f8748866694277e6888d1df02f5781393eadee56cd",
    "distance-prefix-word-square": "749ac83ab08cb95c8952cc45a30787b2aa3e1509e5712eaee8063dc97c5bb832",
    "distance-box-quad3-word7": "ca85efe0c1c351a321e871e2eb14612bce587d0ac7122fded3f33ee14f589143",
    "distance-box-ramp01-word": "17307d4d983ee70d0d5420ff5d23d23c41777e6e24db12bd6daa85c69adb6286",
    "distance-box-word-ramp01": "1eb95155ae560015c2c5d3618d672932acfb5167726cc384b55185a744b58ed1",
    "distance-box-word7-quad3": "3a45cbde82f74a0b39bac5677ec916818215e8f18c9a9e7d909de16a2cabc09e",
    "distance-l1-quad3-word7": "bf713637306230d1b9dc2de1f639d023787a6192da30500a9110cfa043b8a8a8",
    "distance-l1-ramp01-word": "27a2d520bedf4762afd47668da7550a47832c54639cd072f37d233918018c6b3",
    "distance-l1-word-ramp01": "8249905c7d805541e481e420b80f8510c4e17275e61967f8475c6c9b03a0b2c3",
    "distance-l1-word7-quad3": "b3a9857f0feea8109a140df6aa49aad2db8b07afeb466bf1c80b68b3d9cada85",
    "distance-prefix-quad3-word7": "0c37773ba85c629b069af2e75cd018eaa6e9274c7ff79f18f280b40614d90f4e",
    "distance-prefix-ramp01-word": "a3f4a567dc79084aee24693fc0551231fbd7904b41e52e22d3afe920d3071ddd",
    "distance-prefix-word-ramp01": "bd73649267ba4513cf0b646ca09e79bf589d0c029f9e4bc74a8bb5356fd4d0df",
    "distance-prefix-word7-quad3": "6356913d7b36c39cf335a2862b104a7bd0b1245e761aee683809affb549fc66f",
    "distance-box-word-cubic-end": "16faddf6789a7e122ce5e014dece81b66e0949cfb2704a39c5a28a7bbbc64beb",
    "distance-l1-word-cubic-end": "f5c225408190d5908b7bae4295fd063f3dffac9017ef7784a4ad90ff3758acdb",
    "distance-prefix-word-cubic-end": "868837b68035b71ade38736549bf9f071b24b5842614d1f8f3f2511fa5742d25",
    "distance-box-step-quad3": "159385174b7888f15a023a70ad2f7ea1b9d17bec3307873f58eaf07d16b070ee",
    "distance-l1-step-quad3": "206edfcd87134bb615584ac2cfc850ab1642591c2c8644ef3c7fed86dc9f5cd8",
    "distance-prefix-step-quad3": "50902cc72429ba791c529ba2d84741512190cb11f16f7dc022b99704040db5bb",
    "distance-box-step-cubic": "a4c7a1e06703c1ab9641db95d4c61cd891c1f7bca98808104fba91a187250d90",
    "distance-l1-step-cubic": "a61cbbeda605af274c1d7584a6841482bd6d6c66208a39d0fac6cedeac93fbf6",
    "distance-prefix-step-cubic": "589fb1ff34ff25f2a091de5126da5295c42056ac89a858ba6c7859ba0940eb5a",
    "distance-box-word-bump": "d59002ee81f2be428a44e5256ac134e8b37e874796c3cee0626d7ea13603389f",
    "distance-l1-word-bump": "b835f2fd9afb17b235a637606762638c678432c298aaf9230e004ccc85df8e21",
    "distance-prefix-word-bump": "fb7ea0476ccce76110e6dc68223b48d2f93b1343af945e5bde6ab5abc86c2471",
    "distance-box-word7-bump": "db3a826d495997dece47aa862ddde500ae5fd9f6dd5ac9b10f2e704aec645505",
    "distance-l1-word7-bump": "63d8a91d628d1d442890b3074e97362a57d43a888a76d3b64167e812d685a2de",
    "distance-prefix-word7-bump": "f433d673687d1bd0ebe3c9309a9a50ff8a2b588911fbcd5b7bd7a86a5484508d",
    "distance-box-x30-third": "f8097443aa4fda6f6b20b0ded388d19363687ee065e49bb1a18b09d138fb8508",
    "distance-l1-x30-third": "d9021d570d1a8572652ebf768799ccaf9afba6daf2dddc105a6d7c3e596c3925",
    "distance-prefix-x30-third": "8bc1a0f04b909d72ff735328ff46c7730f3d4f06b8c04ba4366a72a55a09f80e",
    "forcibility-three-branch": "3ff10cadd9eacc9dced0706cd99d7d17e15f2087561ccf0d37c928956f27d289",
    "forcibility-three-branch-candidate": "5e3af5d338dfbfb50116743472a96dd8f4e218ae502bffc270652882f561a67e",
    "forcibility-two-branch": "b94227bef23fc852b6df667343df845f9a13846e0e68268f80eddda2d508a7d8",
    "forcibility-two-branch-candidate": "9d9198cdf781041e35706af73aa1ba28cf7b6671a78335a506f2e95223c43711",
    "regularize-quadratic": "c7da513b0d9ffc00d11dae8193150b69e4bfdc82c6a7673c446e264fa72d065e",
    "regularize-cubic-init3": "a2ad9387f8e9b9dc4aac3de71420158e513b33eeff245905b448c5bfadb3c655",
    "regularize-step-a": "6d26c4d3bf4ec001c215d88d811947c9cd80a90ddce3cc40a3baad407c196e28",
    "regularize-step-eq-init3": "95278a1e07b274715aad1ece5d362a79c33ff2463f5b79af41f3d5632b24bd2f",
    "regularize-step-b-init5": "3d3aa75fe1472dff5a10e343b338d0acd6de8f8e379e07b1481410271d45e95c",
    "regularize-quad3-init2": "cc7c09bf130700fd8ac4ebb1c74bf8b8b74af5a03f319489d2875f853abcffdc",
    "forcibility-quad-half-candidate": "6356dcfc94e6725c9edd6ecba2e32ad2f32597a2f7bae99dd5a8bb160d7de832",
    "forcibility-quad-drop-candidate": "7f84e32e16b4792666c64d8d608975651497f3429c2ebc7651b6d3ad5789e94b",
    "permuton-density-grid-as-perm-k3": "28386410d0fc920fc1cb4432247115d5c1761755dd715a988497bd15ee3019bf",
    "permuton-density-grid-as-perm-k4": "4a6754f51461314f1c4da0dd9ae03f24944fa675b87b07000d6589659ce1b657",
    "permuton-density-grid-k1-m7": "0c12da5d6af6fb4fa46ee40d6ecf914560e25ce1b14b0624e7b0cc39ada8a222",
    "permuton-density-grid-k2-m12": "3cc0ca07d898213decd55811cd91c2a4d37e9190ccb55f343e80a304668c12e0",
    "permuton-density-grid-k2-m30": "dfc2cbda43d86351b41dadcb9479e92ce6003025ebcfb89930c8425187caae73",
    "permuton-density-grid-k3-big-den": "2eeca476b81901b398849fbc93f872c5f051e2421227bcf03937711c50f9a1bc",
    "permuton-density-grid-k3-m12": "7e73ea81358bab63d23b4a766555874854b6a92c21f5f0a8bc32d69dd7dc0e29",
    "permuton-density-grid-k3-m20": "3b5e9170c4da9c226743b62782052ce552aac149bf816526251b2f5fcf326d99",
    "permuton-density-grid-k3-m30": "3da648d8f305eae1b486d267fbe6bd493048e79fbf2445f3adaaa8e23d125774",
    "permuton-density-grid-k4-big-den": "f710b765ebb5ffd6759d567a659cbba302a6c4a1a48ed959395040a9a4aba709",
    "permuton-density-grid-k4-m4": "8f5adb584d3465fba5d06977b69ed1d9f20e7dcc3a375d24f97220d7bf9538ca",
    "permuton-density-grid-k4-m5": "fb99ad671e8a7ff2e7f033be1ef06b253cc409e00d5db219c387278e7afd30c8",
    "permuton-density-grid-k4-m6": "17d26562cc9123da1a768d6c45d0c941c446757f7588f1a7f7472ba4a425a644",
    "permuton-density-grid-mc-k4-m30": "a439e6f7ff39f388f20161defee9b6a025b0ffda9892d877cc63b2e5b217429b",
    "permuton-density-grid-mc-k5-m7": "6aef1f6a30c36ebd8cd0d79c1918aa2cbb814569adb740d68213a7aa82eaf75e",
    "permuton-density-perm-k3": "4cd4738d14917a7c043661d50fb8ce61be1c6076e6bb87aa24167ecbdec3d65f",
    "permuton-density-perm-k4": "e73f604195874b4118797aab0ebc69d846dd55c88d6043254c77d2d85fce8094",
    "permuton-distance-big-den": "2522c1946bdd283981a5c3b426d84ef9b1ee23498fe950de5430712716a0e245",
    "permuton-distance-grid-perm": "35c3b4021728ab90523807c6bf99450dfbd761f62d5ac20aef9ef77f2f16fe81",
    "permuton-distance-m12-m12": "22fa414cc43c720786298df53d33f74c77b62f9088b6842db7255542262e9617",
    "permuton-distance-m30-m20": "cc6bedb56850f370ebb7b49c8d55405d0074e8e40dbad6ac7affd72c7998479b",
    "permuton-sample-big-den": "d17bec4a18ea6899c58ce7dd40f97a96335e0648ba3d4e927c274fb92ad5afe1",
    "permuton-sample-m30": "78e2c0f7afbc62b8fa9911226489b34ec39f8d7ef65969d738e4077dc3e38aa5",
    "permuton-density-grid-mc-k4-m30-t4097": "bdde1e2a5113b5dc29cc7096356d13a7fea6b2fcb328744332db0b66abb58148",
    "permuton-density-grid-mc-k5-big-den": "2611cfc9d2f48723d2bdc96e002e75f3f4f1f0d4445ea7431628b9a96c69cdbc",
    "permuton-density-grid-mc-k5-m1": "a5e751c32f4a00a10c1e0f952af8b161b26bad27b22ce1834d3c3bbe3b0649aa",
    "permuton-density-grid-mc-k5-m30-t20000": "9716bfcc339a60f9a2f1f664694354d9423f6a0d440d4ec0810e385d116c5738",
    "permuton-density-grid-mc-k5-zero-lead": "5b44bce617132b3dc379d455efc4b4e70d074da0d5292ac7e6c84ea03611033a",
    "permuton-density-spelled-decimal-and-json-0": "5cdc8bc04065dd95d0757694b918cd100a5eb018660c4638b2aa1a862c4c58b6",
    "permuton-density-spelled-exponent": "777bb1ab950eded5dbb05fd24538d6b676d1facf1bea3d07d9d168e1c5300f84",
    "permuton-density-spelled-json-0.25": "876be3cb5422a8b4637656cfdcd5c99f04b8df610bce5dfac456c66598a96311",
    "permuton-density-spelled-leading-zeros": "876be3cb5422a8b4637656cfdcd5c99f04b8df610bce5dfac456c66598a96311",
    "permuton-density-spelled-space-and-plus": "d4de99f7559a86f7688810e8e555ffd20c9ca2c5afe3289a3fbeb3b3033a50b7",
    "permuton-density-spelled-two-sixths": "2698a6be72a4933b6a7e8c31d76932db3c05d66afd678b33f26afe656b0aebbe",
    "permuton-sample-m1": "88a81cae834b1eaa2acc06e8acc6432ebb04d15f3a3c3c9555b91c9c2698d80f",
    "permuton-sample-zero-lead": "3dfcd022a7f8fe7b2671312e77793fd599e988663b235cbd5e720449a761ca73",
    "sample-quad3": "357752d41f8eba0fffe942479f009146dec22aecaea8918b94a5bc5f8c89886f",
    "sample-step": "f0a2ade51bc4c45b6f96b712f2355bd3539176ddcee46998495e8a505a3bbfc2",
    "sample-ternary": "ca0d4a481d439057528bc5a230a1779ccc7ad16ec19fd8675713956a8f826f64",
    "test-member-d1-zero": "f435cb8e65fd2ac982f2d1f300c763215975330d91f7ae8a97a5006f5e7d2b58",
    "test-ternary-two-patterns": "9c41bff83beffa713f50f273afbf1af8238550333cf748e62def5621d16e06be",
    "test-w190-three-patterns": "9c1f7416781bf53969d238cc1f0d01fa92acb36d455ce53ecc2d134968125da8",
    "test-w200-one-pattern": "13606af0a720e34ac80d14d13e71993f6955b3aeef67ee54d5de1baac4ffadd3",
    "test-w210-two-patterns": "4a4bbe09fd10dd8394b8fc235444bc8969284a92f5c7bef347426a9a1fb66472",
    "density-limit-ternary-aab": "bab02a2ddfc48a0fad2e914e35c52cb45d76b93f25769f2826ac9e9ae54df74e",
    "density-limit-ternary-poly-bb": "90cb4a4de602bfd29b25cce3807047f6b65362314315c7c71e2c845f153aa6eb",
    "density-limit-ternary-poly-l3": "b74e714ede17bf1bee5a463660a668ab0c86e62a7faf7b24f734f9e02510d505",
    "density-limit-ternary-poly-l6": "85613df9f488f757521879f622963f5fc580942b0f664219119de174b1b91355",
    "density-limit-cubic-l1": "916fe19017db1fc253a47b10e9fa4edf5d5f9cdc406df0c29fd253a332e23a2e",
    "density-limit-cubic-l2": "9476587ffa97ebc77ca8d0c36d9861277ed8251fa38e032adb6e781ac1cd980f",
    "density-limit-cubic-l3": "1e3b8abd6fc71433dc159fb36d7b2a66dd54d9bd2dcf1f36fc354a30361bf8b4",
    "density-limit-cubic-l4": "ea023de6afc800966c2485828ec7ced95cc363629b5680d45354bb8cee8699c1",
    "density-limit-cubic-l5": "3488df903a3254b9968f6f77a73ec28e33f6dd3417d8225c2258d75675856bf2",
    "density-limit-cubic-l6": "5cfdd22ed67251a88eb40b52e879ce09b17c4258b00f4613e31a1ea119178c22",
    "density-limit-quartic-l8": "26f97e63c0ba3c68e35a3ed04bb709dd09aff062d89417e2305e0526edf855ac",
    "test-w4000-two-patterns": "dfe02b93fc04fee914e96918449e97fff66f51232696f5d18066ce12784f4676",
    "test-ternary1500-slow-layouts": "ab458e82c8540171b9ef566ce78f6fe9fb69bdbdf04d52e14a81e5ea957a4092",
    "test-w300-query-whole-word": "5818711d9c3c2e0597926b8f146ea054bf1c6ff9378f088c2d3807a9800ea667",
    "test-w60-5000-trials": "e1f4778f04e0f7915ab313cc80878ac30c6203536afe6fceb9dadf89dc81eb78",
    "test-multichar-alphabet": "52c0b0b3f2d70f79f5c76a46af917709103b0ea72cfa16f5a70320af18d2792e",
    "test-w240-nine-patterns": "3a00bb14dcbb50489eb83ada50cf9113234306fba64e12769381df5d87f8ce01",
    "analyze-seeded-n1000": "7c607fd1a14906f57ce1862a173f513680eb804435f2b05ba1ad937821c1a628",
    "analyze-seeded-n4000-f8": "8e4b4fe96f788348d1913e2f498c4a82034633d5481051ecef01035003acbb08",
    "analyze-seeded-n16000-big-den": "70b920ef8bd2f028f82e1908c0ddf7babdc5b26eafc9eb0cf67c385f8dbd3741",
    "analyze-0001": "4ea3c90e1e9096a34b67298f416cd0e637fd6d1adac76b567bb59d5c2ff074fb",
    "analyze-1110": "418c76cfe7637791075812be121efdedd2968782f83b9cb4d5a59b32c4665e77",
    "analyze-0110": "ea91b21d4f1813df13492a8d9cebbe7aac51a18084bc3032f1346ba3533c197d",
    "analyze-01x500": "81a3a1ed34a9a01dd590379d9059c32084da79c60f463ef143930b11c2c62e10",
    "test-w16000-two-patterns": "819053069920c383cf6b6bec38243bcd3d664bb2517f635829f6954d19213cec",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_corpus_stdout_is_byte_identical(name):
    code, out, err = run_cli(*CORPUS[name])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_nine_pattern_pin_matches_the_dict_dp_and_per_trial_oracles():
    """The digest of `test-w240-nine-patterns` was recorded when the cap
    first counted the states built, so its figures are checked here: d1
    against the dict DP (with its product-bound refusal lifted above 5^9),
    and the accepted count against one greedy scan per trial."""
    out = json.loads(run_cli(*CORPUS["test-w240-nine-patterns"])[1])
    w, fam = Word.from_string(_word(240, 7, 3, 11)), ForbiddenFamily.from_strings(NINE_PATTERNS.split(","))
    assert math.prod(len(p) + 1 for p in fam.patterns) > STATE_CAP
    assert Fraction(out["d1"]) == dict_dp_d1(w, fam, cap=5**9)[0] == Fraction(11, 30)
    assert out["accepted"] == oracle_accepted(w, fam, 4, 200, SeededStream(52)) == 98
    assert not out["is_member"]


# the environment of a `python` subprocess that imports this seqlimit
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(seqlimit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def test_long_analyze_and_tester_pins_replay_under_python_O():
    """python -O strips asserts, so no check the output relies on may be
    one: the long analyze and tester pins print the same bytes in
    `python -O -m seqlimit` processes."""
    for name, argv in {**ANALYZE_LONG, **TESTER_LONG}.items():
        done = subprocess.run([sys.executable, "-O", "-m", "seqlimit", *argv],
                              capture_output=True, text=True, env=ENV)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == DIGESTS[name], name


def test_float_l1_distance_leaves_scipy_unimported():
    """QUADPACK's first Gauss-Kronrod pass settles the irrational sign
    change of `step-quad3` in Python, and the exact primitive reads that of
    `x30-third`, which the pass does not settle, so a `python -m seqlimit`
    process, with or without -O, prints the pinned float without importing
    scipy (its -X importtime log, on stderr, names every module imported)."""
    for name in ("distance-l1-step-quad3", "distance-l1-x30-third"):
        for flags in ((), ("-O",)):
            done = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "seqlimit", *CORPUS[name]],
                                  capture_output=True, text=True, env=ENV)
            assert done.returncode == 0, done.stderr
            assert hashlib.sha256(done.stdout.encode()).hexdigest() == DIGESTS[name]
            assert json.loads(done.stdout)["exact"] is False
            imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()}
            assert "seqlimit.piecewise" in imported and not any(m.split(".")[0] == "scipy" for m in imported)


def test_every_pin_replays_with_scipy_unimportable():
    """A process in which `sys.modules["scipy"] = None` makes every scipy
    import fail replays each `CORPUS` pin through `cli.dispatch` with exit
    code 0 and the pinned digest: no command needs scipy at run time."""
    script = """
import sys
sys.modules["scipy"] = None
import contextlib, hashlib, io, json
from seqlimit.cli import dispatch
got = {}
for name, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    got[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(got))
"""
    done = subprocess.run([sys.executable, "-c", script], input=json.dumps(CORPUS),
                          capture_output=True, text=True, env=ENV)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: [0, DIGESTS[name]] for name in CORPUS}


LONG_DIGITS = "1" * 4301  # above the int/str conversion limit of 4300 digits
LIMIT_MESSAGE = ("error: Exceeds the limit (4300 digits) for integer string conversion: "
                 "value has 4301 digits; use sys.set_int_max_str_digits() to increase the limit\n")

# grid files that are refused, with the one stderr line of each
BAD_GRIDS = {
    "zero-denominator": (_mass(1, [["1/0"]]), "error: rational '1/0' has a zero denominator\n"),
    "not-a-number": (_mass(1, [["x"]]), "error: Invalid literal for Fraction: 'x'\n"),
    "negative": (_mass(3, [["-1/9", "2/9", "2/9"], ["2/9", "1/9", "0"], ["2/9", "0", "1/9"]]),
                 "error: cell masses must be nonnegative\n"),
    "short-row": (_mass(2, [["1/2"], ["1/4", "1/4"]]), "error: mass must be an m x m table\n"),
    "long-numerator": (_mass(1, [[LONG_DIGITS]]), LIMIT_MESSAGE),
    "long-denominator": (_mass(1, [["1/" + LONG_DIGITS]]), LIMIT_MESSAGE),
    "leading-zeros-wrong-mass": (_mass(1, [["007"]]), "error: row 0 mass 7 != 1/1\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_grid_files_exit_1_with_the_same_message(name):
    grid, message = BAD_GRIDS[name]
    for argv in (("permuton", "density", "--grid", grid, "--pattern", "21"),
                 ("--seed", "3", "permuton", "sample", "--grid", grid, "--size", "3")):
        assert run_cli(*argv) == (1, "", message)


def _range_message(lo, hi) -> str:
    return f"error: function range [{lo}, {hi}] leaves [0, 1]\n"


# limit files that are refused, with the one stderr line of each: the
# breakpoint checks, both range paths (exact, and floats at the irrational
# extremum 1/sqrt(3) of 3x - 3x^3), the first refused vector component, the
# token reader, and a breakpoint token read before a coefficient token
BAD_LIMITS = {
    "repeated-breakpoint": (_step(["0", "1/2", "1/2", "1"], ["1/2", "1/3", "1/4"]),
                            "error: breakpoints must be strictly increasing\n"),
    "unsorted-breakpoints": (_step(["0", "2/3", "1/3", "1"], ["1/2", "1/3", "1/4"]),
                             "error: breakpoints must be strictly increasing\n"),
    "start-above-0": (_step(["1/4", "1"], ["1/2"]), "error: breakpoints must span [0, 1]\n"),
    "end-below-1": (_step(["0", "3/4"], ["1/2"]), "error: breakpoints must span [0, 1]\n"),
    "piece-count": (_step(["0", "1/2", "1"], ["1/2"]), "error: need exactly one piece per interval\n"),
    "step-below-0": (_step(["0", "1/2", "1"], ["1/2", "-1/8"]), _range_message("-1/8", "1/2")),
    "step-above-1": (_step(["0", "1/2", "1"], ["9/8", "1/2"]), _range_message("1/2", "9/8")),
    "poly-rational-extremum": (json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "5", "-5"]}]}),
                               _range_message("0", "5/4")),
    "poly-irrational-extremum": (json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [
        {"coeffs": ["0", "3", "0", "-3"]}, {"coeffs": ["0", "3", "0", "-3"]}]}),
        _range_message(0.0, 1.1547005383792515)),
    "vector-component": (json.dumps({"alphabet": ["a", "b"], "components": {
        "a": json.loads(_step(["0", "1/2", "1"], ["1/2", "9/8"])),
        "b": json.loads(_step(["0", "1/2", "1"], ["1/2", "-1/8"]))}}), _range_message("1/2", "9/8")),
    "token-x": (_step(["0", "1"], ["x"]), "error: Invalid literal for Fraction: 'x'\n"),
    "token-true": (json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": [True]}]}),
                   "error: Invalid literal for Fraction: 'True'\n"),
    "long-numerator": (_step(["0", "1"], [LONG_DIGITS]), LIMIT_MESSAGE),
    "bad-breakpoint-and-coefficient": (_step(["0", "y", "1"], ["1/2", "x"]),
                                       "error: Invalid literal for Fraction: 'y'\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_LIMITS))
def test_bad_limit_files_exit_1_with_the_same_message(name):
    limit, message = BAD_LIMITS[name]
    half = json.dumps({"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/2"]}]})
    for argv in (("density", "--limit", limit, "--pattern", "1"), ("distance", limit, half),
                 ("--seed", "3", "sample", "--limit", limit, "--length", "5")):
        assert run_cli(*argv) == (1, "", message)


def test_density_of_a_quartic_with_huge_coefficients_loads_without_a_root_search():
    """f = 1/2 - x/(10^20 + 3) + x^4/(10^20 + 1) is inside [0, 1] by its
    Bernstein coefficients; a rational root search on f' trial-divides its
    20-digit coefficients, which takes hours.  Run in a subprocess, so a
    regression fails on the timeout instead of hanging the suite."""
    a, b = 10**20 + 3, 10**20 + 1
    f = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/2", f"-1/{a}", "0", "0", f"1/{b}"]}]}
    done = subprocess.run([sys.executable, "-m", "seqlimit", "density", "--limit", json.dumps(f), "--pattern", "1"],
                          capture_output=True, text=True, env=ENV, timeout=10)
    assert done.returncode == 0, done.stderr
    assert Fraction(json.loads(done.stdout)["density"]) == Fraction(1, 2) - Fraction(1, 2 * a) + Fraction(1, 5 * b)


def test_box_distance_of_a_word_to_a_certified_quartic_is_swept_exactly():
    """The same quartic f against the word 0110: its Bernstein coefficients
    let the word sweep against f on its grid, without the root search of
    `range_bounds`, so the box distance is max - min of the primitive
    H = W - F of w - f at k/4 (F(x) = x/2 - x^2/(2a) + x^5/(5b)), exactly."""
    a, b = 10**20 + 3, 10**20 + 1
    f = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/2", f"-1/{a}", "0", "0", f"1/{b}"]}]}
    done = subprocess.run([sys.executable, "-m", "seqlimit", "distance", "0110", json.dumps(f)],
                          capture_output=True, text=True, env=ENV, timeout=10)
    assert done.returncode == 0, done.stderr
    H = [Fraction(w) - Fraction(k, 8) + Fraction(k**2, 32 * a) - Fraction(k**5, 5120 * b)
         for k, w in enumerate([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])]
    assert json.loads(done.stdout) == {"metric": "box", "value": str(max(H) - min(H)), "exact": True}


# limit vectors whose components miss 1 on one cell of the merged grid only:
# step components on three grids ([1/4, 1/3) sums to 61/60), and polynomial
# components ([1/3, 1] sums to 1 + 1/90); and a = x^2/2, b = 1 - x^2/2 -
# (x - x^2)/7 on one cell, whose sum 1 - (x - x^2)/7 is 1 at both ends
OFF_SUM_VECTORS = {
    "step": json.dumps({"alphabet": ["a", "b", "c"], "components": {
        "a": json.loads(_step(["0", "1/3", "1"], ["1/2", "1/6"])),
        "b": json.loads(_step(["0", "1/4", "1"], ["1/5", "1/4"])),
        "c": json.loads(_step(["0", "1/4", "1/3", "1"], ["3/10", "4/15", "7/12"])),
    }}),
    "poly": json.dumps({"alphabet": ["a", "b", "c"], "components": {
        "a": {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "0", "1/2"]}]},
        "b": {"breakpoints": ["0", "1/3", "1"], "pieces": [{"coeffs": ["1/3", "-1/3"]}, {"coeffs": ["7/30"]}]},
        "c": {"breakpoints": ["0", "1/3", "1"], "pieces": [
            {"coeffs": ["2/3", "1/3", "-1/2"]}, {"coeffs": ["7/9", "0", "-1/2"]}]},
    }}),
    "poly-exact-ends": json.dumps({"alphabet": ["a", "b"], "components": {
        "a": {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["0", "0", "1/2"]}]},
        "b": {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1", "-1/7", "-5/14"]}]},
    }}),
}


@pytest.mark.parametrize("name", sorted(OFF_SUM_VECTORS))
def test_density_of_a_vector_off_sum_on_one_cell_exits_1(name):
    pattern = "".join(json.loads(OFF_SUM_VECTORS[name])["alphabet"])
    code, out, err = run_cli("density", "--limit", OFF_SUM_VECTORS[name], "--pattern", pattern)
    assert (code, out, err) == (1, "", "error: component functions must sum to 1 exactly\n")


def test_density_word_pattern_longer_than_word_exits_1():
    code, out, err = run_cli("density", "--word", "0110", "--pattern", "01101")
    assert (code, out, err) == (1, "", "error: pattern length 5 exceeds word length 4\n")


def test_density_word_pins_reach_every_count_tier(monkeypatch):
    """The `density --word` pins count through each kind of level of
    `words._trie_counts`: uint64, residues mod q, and Python ints."""
    tiers = set()
    walk = words._trie_counts

    def spy(masks, patterns, n, q=None, dtype=np.uint64):
        tiers.add("object" if dtype is object else "crt" if q else "uint64")
        return walk(masks, patterns, n, q, dtype)

    monkeypatch.setattr(words, "_trie_counts", spy)
    for argv in WORD_DENSITY.values():
        assert run_cli(*argv)[0] == 0
    assert tiers == {"uint64", "crt", "object"}


CURVE_DIGESTS = {
    "stdout": "1662bc1ecefac197d439572520e0c13971b173e83128a404750c48ac03b8d95a",
    "curve-two": "dbe989dcbd3fd9e2071c2401cbfa49f01442a2233004ed7be8ecdf9607e58321",
    "curve-one": "78f61f4b210069dc13737421a88ec2d6c3b2a228e554d9393a6f2314b95cd462",
}


def _batch_digests(tmp_path, seed: int, batch: dict, exit_code: int = 0) -> dict:
    """SHA-256 of an experiment batch's stdout and of each result file
    (None for an experiment that failed and wrote none)."""
    code, out, err = run_cli("--seed", str(seed), "experiment", json.dumps(batch),
                             "--out", str(tmp_path))
    assert code == exit_code, err
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for spec in batch["experiments"]:
        path = tmp_path / f"{spec['name']}.json"
        got[spec["name"]] = hashlib.sha256(path.read_text().encode()).hexdigest() if path.exists() else None
    return got


def test_tester_curve_experiment_is_byte_identical(tmp_path):
    assert _batch_digests(tmp_path, 36, CURVE_BATCH) == CURVE_DIGESTS


# a curve on 1,000 letters: the member word's witness, perturbed, sets
# every achieved distance
LONG_CURVE_BATCH = {"experiments": [
    {"kind": "tester_curve", "name": "curve-long", "forbid": ["0110", "1001"], "n": 1000,
     "query_size": 20, "distances": ["0", "1/100", "1/20"], "trials": 40},
]}

LONG_CURVE_DIGESTS = {
    "stdout": "45bd0a777c50f40587825f1ed67da5a4b3ca3e1f4fbe80153e77466b623a10c3",
    "curve-long": "dfbefac138a2a16e53cb20c0dadbf367035542473ab9dc34091ea0a46210c18d",
}


def test_long_tester_curve_experiment_is_byte_identical(tmp_path):
    assert _batch_digests(tmp_path, 39, LONG_CURVE_BATCH) == LONG_CURVE_DIGESTS


# f-random words against a constant, a linear and a 3-piece quadratic limit;
# a is chosen so that some trials exceed the threshold 8a and some do not
TAIL_BATCH = {"experiments": [
    {"kind": "tail_dbox", "name": "tail-const", "n": 150, "a": "0.008", "trials": 12,
     "limit": json.loads(_step(["0", "1"], ["2/5"]))},
    {"kind": "tail_dbox", "name": "tail-linear", "n": 150, "a": "0.008", "trials": 12,
     "limit": {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/4", "1/2"]}]}},
    {"kind": "tail_dbox", "name": "tail-quad3", "n": 131, "a": "0.008", "trials": 12,
     "limit": QUAD3},
]}

TAIL_DIGESTS = {
    "stdout": "4fc63d1648e76c0f4bfa0a6f406e30f2091ce6acc44370fb4dba245c699b967c",
    "tail-const": "817fcf2872395bf3960c1df5837495c3ba43fca6d9039f0905451d133326008c",
    "tail-linear": "653d11f57e8567b6be521aef17ce5713ad9d56006cb7f0219566c21a671b6c47",
    "tail-quad3": "3f29c2d445bf9d89ffb93f8e2f4d53f304f4187ab76f72e5feabb59c2f4b86f3",
}


def test_tail_dbox_experiment_is_byte_identical(tmp_path):
    assert _batch_digests(tmp_path, 37, TAIL_BATCH) == TAIL_DIGESTS


# uniformly random subsequences of a binary and a ternary word; d_box reads
# a word as the indicator of its letter "1", so the ternary one is refused,
# in its error entry, and writes no file
SUBSEQ_BATCH = {"experiments": [
    {"kind": "subsequence_tail", "name": "subseq-w200", "word": W200, "length": 40,
     "eps": "0.15", "trials": 20},
    {"kind": "subsequence_tail", "name": "subseq-ternary", "word": _ternary(180, 4, 7, 19),
     "length": 30, "eps": "0.2", "trials": 15},
]}

SUBSEQ_DIGESTS = {
    "stdout": "3f66994f1c0ed1653526e7926e4b86d4c74964835bccc944b60b797f9746f117",
    "subseq-w200": "e4ae416ac83de2c89900f556495aa3fa1b47ee7e746a01d53c0a47ef741498d1",
    "subseq-ternary": None,
}


def test_subsequence_tail_experiment_is_byte_identical(tmp_path):
    assert _batch_digests(tmp_path, 38, SUBSEQ_BATCH, exit_code=1) == SUBSEQ_DIGESTS
    _, out, _ = run_cli("--seed", "38", "experiment", json.dumps(SUBSEQ_BATCH), "--out", str(tmp_path))
    assert json.loads(out)["experiments"][1]["error"] == (
        "a word is read as the indicator of its letter '1', so its alphabet must be ['0', '1'], "
        "got ['a', 'b', 'c']")
