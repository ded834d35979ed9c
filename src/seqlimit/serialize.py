"""Deterministic serialization: rationals in lowest terms, finite floats
with 17 significant digits, stable key order.

Interchange formats:
  word        one line of symbols, or JSON {"alphabet": [...], "letters": "..."}
  limit fn    JSON {"breakpoints": ["0","1/2","1"], "pieces": [{"coeffs": ["1"]}, ...]}
  limit vec   JSON {"alphabet": [...], "components": {letter: limit fn}}
  grid        JSON {"m": n, "mass": [["1/4", ...], ...]}
  permutation one-line CSV "2,1,4,3"
  partition   JSON {"breakpoints": [...]}

A JSON field of another type than its format's (list, object, integer,
string) is refused with a ValueError naming it.  Rationals are read by
parse_frac exactly as Fraction(str) reads them.
A JSON integer or an ASCII-digit "p" or "p/q" with q > 0 is read as the
pair (p, q) with int() (_ratio); every other spelling, and every error,
is Fraction(str)'s, but for a zero denominator: that ValueError quotes
the token.  A limit file (all components of a vector together) and a
grid read each distinct token once (`_token_reader`), and a grid becomes
integer cell masses without a Fraction per cell.
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


_INT64 = 1 << 64


def _ratio(token) -> tuple[int, int] | None:
    """(num, den) for a plain ratio token: an int of at most 64 bits (a
    JSON integer) or a str "p" or "p/q" of ASCII digits with q nonzero.
    None for every other spelling, which Fraction(str(token)) then reads
    or refuses with its own message (signs, spaces, decimals, exponents,
    underscores, non-ASCII digits, a zero denominator, bools, floats,
    digit strings beyond the int/str conversion limit)."""
    if type(token) is int:
        return (token, 1) if -_INT64 < token < _INT64 else None
    if type(token) is not str:
        return None
    num, slash, den = token.partition("/")
    if not (num.isascii() and num.isdigit()) or slash and not (den.isascii() and den.isdigit()):
        return None
    try:
        q = int(den) if slash else 1
        return (int(num), q) if q else None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def parse_frac(text) -> Fraction:
    pair = _ratio(text)
    if pair:
        return Fraction(*pair)
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def _token_reader(convert=None):
    """parse_frac, then convert if given, but once per distinct str token:
    a limit or grid file repeats a few tokens (step values, masses, shared
    breakpoints)."""
    seen = {}

    def read(token):
        if type(token) is str and token in seen:
            return seen[token]
        value = parse_frac(token)
        if convert:
            value = convert(value)
        if type(token) is str:
            seen[token] = value
        return value

    return read


_JSON_TYPES = {list: "list", dict: "object", int: "integer", str: "string"}


def json_value(value, kind: type | tuple[type, ...], name: str):
    """value, refused with a ValueError that names the field unless its type
    is kind (or one of the kinds): a JSON list, object, integer or string."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        raise ValueError(f"{name} must be a JSON {' or '.join(_JSON_TYPES[k] for k in kinds)}")
    return value


def json_field(obj: dict, key: str, kind: type | tuple[type, ...], name: str | None = None):
    """obj[key], refused with a ValueError that names the field (name, or
    else key) when it is missing or is not of kind, as json_value reads it."""
    name = name or key
    if key not in obj:
        raise ValueError(f"{name} is missing")
    return json_value(obj[key], kind, name)


def _alphabet(obj: dict) -> tuple[str, ...]:
    return tuple(json_value(a, str, "each alphabet letter") for a in json_field(obj, "alphabet", list))


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


def word_from_obj(obj: dict) -> Word:
    return Word.from_string(json_field(obj, "letters", str), _alphabet(obj))


def word_from_text(text: str, alphabet: tuple[str, ...] | None = None) -> Word:
    text = text.strip()
    if text.startswith("{"):
        return word_from_obj(json.loads(text))
    return Word.from_string(text, alphabet or BINARY)


# -- limit functions ---------------------------------------------------


def limitfn_to_obj(f: PiecewisePoly) -> dict:
    return {
        "breakpoints": [frac_str(b) for b in f.breakpoints],
        "pieces": [{"coeffs": [frac_str(c) for c in (p or (Fraction(0),))]} for p in f.pieces],
    }


def limitfn_from_obj(obj: dict, read=None) -> PiecewisePoly:
    """The limit function of obj: breakpoints, then coefficients, read by
    read (a fresh `_token_reader` if None), then validated."""
    read = read or _token_reader()
    return require_unit_range(PiecewisePoly(
        tuple(map(read, json_field(obj, "breakpoints", list))),
        tuple(tuple(map(read, json_field(json_value(p, dict, "each piece"), "coeffs", list)))
              for p in json_field(obj, "pieces", list)),
    ))


def limitvector_from_obj(obj: dict) -> LimitVector:
    alphabet = _alphabet(obj)
    components = json_field(obj, "components", dict)
    if repeated := [a for i, a in enumerate(alphabet) if a in alphabet[:i]]:
        raise ValueError(f"alphabet letter {repeated[0]!r} is repeated")
    if stray := [a for a in components if a not in alphabet]:
        raise ValueError(f"component {stray[0]!r} is not in the alphabet {list(alphabet)!r}")
    read = _token_reader()
    return LimitVector({a: limitfn_from_obj(json_field(components, a, dict, f"component {a!r}"), read)
                        for a in alphabet})


def limit_from_obj(obj: dict):
    """A limit function or limit vector, whichever the JSON object declares."""
    if "components" in obj:
        return limitvector_from_obj(obj)
    return limitfn_from_obj(obj)


def limit_from_text(text: str):
    return limit_from_obj(json.loads(text))


# -- permutons ---------------------------------------------------------


def grid_from_obj(obj: dict) -> GridMeasure:
    """The grid measure of {"m": m, "mass": rows}.  The tokens are read by
    a `_token_reader`, in row-major order, and the masses go to
    GridMeasure as integer pairs, without a Fraction per cell."""
    m = json_field(obj, "m", int)
    read = _token_reader(lambda v: (v.numerator, v.denominator))
    rows = json_field(obj, "mass", list)
    return GridMeasure._of_ratios(m, [list(map(read, json_value(row, list, "each mass row"))) for row in rows])


def permutation_from_text(text: str) -> Permutation:
    return Permutation.from_csv(text.strip())


# -- partitions --------------------------------------------------------


def partition_to_obj(part: IntervalPartition) -> dict:
    return {"breakpoints": [frac_str(b) for b in part.breakpoints]}
