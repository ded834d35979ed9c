"""Deterministic serialization: rationals in lowest terms, finite floats
with 17 significant digits, stable key order.

Interchange formats:
  word        one line of symbols, or JSON {"alphabet": [...], "letters": "..."}
  limit fn    JSON {"breakpoints": ["0","1/2","1"], "pieces": [{"coeffs": ["1"]}, ...]}
  limit vec   JSON {"alphabet": [...], "components": {letter: limit fn}}
  grid        JSON {"m": n, "mass": [["1/4", ...], ...]}
  permutation one-line CSV "2,1,4,3"
  partition   JSON {"breakpoints": [...]}
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .piecewise import LimitVector, PiecewisePoly, require_unit_range
from .permutons import GridMeasure, Permutation
from .regularity import IntervalPartition
from .words import BINARY, Word


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_frac(text) -> Fraction:
    return Fraction(str(text))


def float_str(x: float) -> str:
    return f"{x:.17g}"


_FLOAT_TOKEN = re.compile(r'\{\s*"__float__":\s*"([^"]+)"\s*\}')


def _convert(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite float {obj!r}: JSON has no such value")
        return {"__float__": float_str(obj)}
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, complex):
        return {"re": _convert(obj.real), "im": _convert(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v) for v in obj]
    return str(obj)


def dumps(obj) -> str:
    """JSON text with rationals as canonical strings and floats rendered
    with exactly 17 significant digits; byte-stable for equal inputs."""
    text = json.dumps(_convert(obj), indent=2)
    return _FLOAT_TOKEN.sub(lambda m: m.group(1), text) + "\n"


# -- words -------------------------------------------------------------


def word_to_text(w: Word) -> str:
    if w.alphabet == BINARY:
        return str(w) + "\n"
    return json.dumps({"alphabet": list(w.alphabet), "letters": str(w)}) + "\n"


def word_from_text(text: str, alphabet: tuple[str, ...] | None = None) -> Word:
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        return Word.from_string(obj["letters"], tuple(obj["alphabet"]))
    return Word.from_string(text, alphabet or BINARY)


# -- limit functions ---------------------------------------------------


def limitfn_to_obj(f: PiecewisePoly) -> dict:
    return {
        "breakpoints": [frac_str(b) for b in f.breakpoints],
        "pieces": [{"coeffs": [frac_str(c) for c in (p or (Fraction(0),))]} for p in f.pieces],
    }


def limitfn_from_obj(obj: dict) -> PiecewisePoly:
    return require_unit_range(PiecewisePoly(
        tuple(parse_frac(b) for b in obj["breakpoints"]),
        tuple(tuple(parse_frac(c) for c in p["coeffs"]) for p in obj["pieces"]),
    ))


def limitvector_to_obj(F: LimitVector) -> dict:
    return {
        "alphabet": list(F.alphabet),
        "components": {a: limitfn_to_obj(F[a]) for a in F.alphabet},
    }


def limitvector_from_obj(obj: dict) -> LimitVector:
    return LimitVector(
        {a: limitfn_from_obj(obj["components"][a]) for a in obj["alphabet"]}
    )


def limit_from_text(text: str):
    """A limit function or limit vector, whichever the JSON declares."""
    obj = json.loads(text)
    if "components" in obj:
        return limitvector_from_obj(obj)
    return limitfn_from_obj(obj)


# -- permutons ---------------------------------------------------------


def grid_to_obj(mu: GridMeasure) -> dict:
    return {"m": mu.m, "mass": [[frac_str(v) for v in row] for row in mu.mass]}


def grid_from_obj(obj: dict) -> GridMeasure:
    return GridMeasure(
        int(obj["m"]),
        tuple(tuple(parse_frac(v) for v in row) for row in obj["mass"]),
    )


def permutation_to_text(sigma: Permutation) -> str:
    return str(sigma) + "\n"


def permutation_from_text(text: str) -> Permutation:
    return Permutation.from_csv(text.strip())


# -- partitions --------------------------------------------------------


def partition_to_obj(part: IntervalPartition) -> dict:
    return {"breakpoints": [frac_str(b) for b in part.breakpoints]}


def partition_from_obj(obj: dict) -> IntervalPartition:
    return IntervalPartition(tuple(parse_frac(b) for b in obj["breakpoints"]))
