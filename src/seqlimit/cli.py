"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad values, infeasible requests),
2 usage error (unknown flags, missing arguments).  All randomized
subcommands take --seed and report the generator and seed used, so
equal invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize as ser
from .hereditary import ForbiddenFamily, completeness_soundness_curve, run_tester
from .moments import check_forced, forcibility_certificate, limit_densities
from .permutons import (
    GridMeasure,
    MCEstimate,
    Permutation,
    d_box_grid,
    sample_subperm,
    t_grid,
    t_perm,
)
from .piecewise import (
    NUMERIC_TOL,
    LimitVector,
    d1_fn,
    d_box,
    prefix_sup_dist,
    t_density_limit,
    t_density_vector,
)
from .regularity import IntervalPartition, weak_regularity
from .sampling import (
    f_random_word,
    f_random_word_vector,
    subsequence_tail_experiment,
    tail_experiment_dbox,
)
from .streams import PRNG_ID, SeededStream
from .uniformity import quasirandomness_report
from .words import Word, index_sets, subsequence_count


class CliError(ValueError):
    pass


def _read_input(value: str) -> str:
    """Treat the argument as a path when a file of that name exists,
    otherwise as a literal."""
    if os.path.exists(value):
        return Path(value).read_text()
    return value


def _load_word(value: str) -> Word:
    return ser.word_from_text(_read_input(value))


def _load_limit(value: str):
    text = _read_input(value)
    if not text.lstrip().startswith("{"):
        raise CliError(f"not a limit-function JSON: {value!r}")
    return ser.limit_from_text(text)


def _load_word_or_limit(value: str):
    """A limit function or vector when the JSON object has its breakpoints
    or components key, otherwise a word; JSON is parsed once."""
    text = _read_input(value).strip()
    if not text.startswith("{"):
        return ser.word_from_text(text)
    obj = json.loads(text)
    if {"breakpoints", "components"} & obj.keys():
        return ser.limit_from_obj(obj)
    return ser.word_from_obj(obj)


def _as_limit(obj):
    """A single limit function, or a word (which the distances and `_cells`
    read as the step function of its letter '1'); not a limit vector."""
    if isinstance(obj, LimitVector):
        raise CliError("this operation needs a single (binary) limit function")
    return obj


def _render(obj: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = []
        for k, v in obj.items():
            if isinstance(v, dict):
                for k2, v2 in v.items():
                    lines.append(f"{k}.{k2},{_csv_cell(v2)}")
            elif isinstance(v, (list, tuple)):
                lines.append(f"{k}," + ";".join(_csv_cell(x) for x in v))
            else:
                lines.append(f"{k},{_csv_cell(v)}")
        return "\n".join(lines) + "\n"
    return ser.dumps(obj)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return ser.float_str(v)
    if isinstance(v, Fraction):
        return ser.frac_str(v)
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(ser._convert(v), separators=(",", ":"))
    return str(v)


# -- subcommand handlers -----------------------------------------------


def _cmd_analyze(args, stream) -> dict:
    w = _load_word(args.word)
    d = ser.parse_frac(args.density) if args.density else None
    rep = quasirandomness_report(w, d, num_frequencies=args.frequencies)
    return {
        "length": len(w),
        "density": rep.density,
        "discrepancy": rep.discrepancy,
        "witness": list(rep.witness),
        "best_uniformity": {
            "density": rep.best.density,
            "discrepancy": rep.best.discrepancy,
            "normalized": rep.best.normalized,
            "witness": list(rep.best.witness),
        },
        "residuals": rep.residuals,
        "residual_eps": rep.residual_eps,
        "converse_bound": rep.converse_bound,
        "exponential_sums": {str(k): v for k, v in rep.exponential_sums.items()},
    }


def _cmd_density(args, stream) -> dict:
    if args.word is not None:
        w = _load_word(args.word)
        u = ser.word_from_text(args.pattern, w.alphabet)
        total = index_sets(w, len(u))
        count = subsequence_count(w, u)
        dens = Fraction(count, total)
        return {
            "pattern": str(u),
            "count": count,
            "num": str(dens.numerator),
            "den": str(dens.denominator),
            "density": dens,
        }
    limit = _load_limit(args.limit)
    if isinstance(limit, LimitVector):
        u = ser.word_from_text(args.pattern, limit.alphabet)
        dens = t_density_vector(u, limit)
    else:
        u = ser.word_from_text(args.pattern)
        dens = t_density_limit(u, limit)
    return {
        "pattern": str(u),
        "num": str(dens.numerator),
        "den": str(dens.denominator),
        "density": dens,
    }


def _cmd_distance(args, stream) -> dict:
    a = _as_limit(_load_word_or_limit(args.a))
    b = _as_limit(_load_word_or_limit(args.b))
    if args.metric == "box":
        value = d_box(a, b)
    elif args.metric == "l1":
        value = d1_fn(a, b)
    else:
        value = prefix_sup_dist(a, b)
    out = {"metric": args.metric, "value": value}
    if isinstance(value, float):
        out["exact"] = False
        out["tolerance"] = NUMERIC_TOL
    else:
        out["exact"] = True
    return out


def _cmd_sample(args, stream) -> dict:
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    limit = _load_limit(args.limit)
    words = []
    for c in range(args.count):
        sub = stream.substream(c)
        if isinstance(limit, LimitVector):
            words.append(str(f_random_word_vector(limit, args.length, sub)))
        else:
            words.append(str(f_random_word(limit, args.length, sub)))
    return {
        "length": args.length,
        "count": args.count,
        "prng": PRNG_ID,
        "seed": stream.seed,
        "words": words,
    }


def _cmd_regularize(args, stream) -> dict:
    f = _as_limit(_load_limit(args.limit))
    init = IntervalPartition.uniform(args.init_uniform) if args.init_uniform else None
    res = weak_regularity(f, ser.parse_frac(args.eps), initial=init)
    return {
        "eps": ser.parse_frac(args.eps),
        "rounds": res.rounds,
        "final_deviation": res.final_deviation,
        "partition": ser.partition_to_obj(res.partition),
        "energies": list(res.energies),
        "approximation": ser.limitfn_to_obj(res.approximation),
    }


def _cmd_test(args, stream) -> dict:
    w = _load_word(args.word)
    fam = ForbiddenFamily.from_strings(args.forbid.split(","), w.alphabet)
    rep = run_tester(w, fam, args.query_size, args.trials, stream)
    return {
        "forbidden": [str(p) for p in fam.patterns],
        "query_size": rep.query_size,
        "trials": rep.trials,
        "accepted": rep.accepted,
        "accept_fraction": rep.accept_fraction,
        "is_member": rep.is_member,
        "d1": rep.d1,
        "prng": rep.prng,
        "seed": rep.seed,
    }


def _cmd_forcibility(args, stream) -> dict:
    f = _as_limit(_load_limit(args.limit))
    cert = forcibility_certificate(f)
    df = limit_densities(f, cert.words)
    out = {
        "branches": [[ser.frac_str(c) for c in q] for q in cert.branches],
        "word_count": len(cert.words),
        "words": [str(u) for u in cert.words],
        "residual_self": cert.residual(df),
    }
    if args.candidate:
        h = _as_limit(_load_limit(args.candidate))
        verdict = check_forced(f, h, cert, df)
        out["candidate"] = {
            "densities_match": verdict.densities_match,
            "witness": str(verdict.witness) if verdict.witness else None,
            "residual": verdict.residual,
            "d1": verdict.d1,
        }
    return out


def _load_grid_or_perm(value: str) -> GridMeasure:
    text = _read_input(value).strip()
    if text.startswith("{"):
        return ser.grid_from_obj(json.loads(text))
    return GridMeasure.from_permutation(ser.permutation_from_text(text))


def _cmd_permuton(args, stream) -> dict:
    if args.action == "density":
        tau = Permutation.from_csv(args.pattern)
        if args.perm is not None:
            sigma = ser.permutation_from_text(_read_input(args.perm))
            return {"pattern": str(tau), "value": t_perm(tau, sigma), "exact": True}
        mu = _load_grid_or_perm(args.grid)
        value = t_grid(tau, mu, stream=stream, trials=args.trials)
        if isinstance(value, MCEstimate):
            return {
                "pattern": str(tau),
                "value": value.value,
                "stderr": value.stderr,
                "trials": value.trials,
                "exact": False,
                "prng": value.prng,
                "seed": value.seed,
            }
        return {"pattern": str(tau), "value": value, "exact": True}
    if args.action == "distance":
        mu = _load_grid_or_perm(args.a)
        nu = _load_grid_or_perm(args.b)
        return {"metric": "box", "value": d_box_grid(mu, nu), "exact": True}
    # sample
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    mu = _load_grid_or_perm(args.grid)
    pats = [str(sample_subperm(mu, args.size, rng)) for rng in stream.substream_generators(args.count)]
    return {
        "size": args.size,
        "count": args.count,
        "prng": PRNG_ID,
        "seed": stream.seed,
        "patterns": pats,
    }


def _finite_field(spec: dict, key: str) -> float:
    """spec[key] as a finite float, from a JSON number or a numeric string
    such as "0.008"; anything else is refused with a message naming key."""
    if key not in spec:
        raise ValueError(f"{key} is missing")
    value = spec[key]
    try:
        x = float(value) if type(value) in (int, float, str) else None
    except (ValueError, OverflowError):  # not a number, or an int beyond the float range
        x = math.inf if type(value) is int else None
    if x is None:
        raise ValueError(f"{key} must be a JSON number or numeric string, got {value!r}")
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got the non-finite {value!r}")
    return x


def _run_experiment(spec: dict, stream) -> dict:
    kind = spec.get("kind")
    field = functools.partial(ser.json_field, spec)
    if kind == "tail_dbox":
        limit = field("limit", (dict, str))
        f = ser.limitfn_from_obj(limit) if isinstance(limit, dict) else _as_limit(_load_limit(limit))
        n, a = field("n", int), _finite_field(spec, "a")
        rep = tail_experiment_dbox(f, n, a, field("trials", int), stream)
        return {
            "kind": kind,
            "n": n,
            "a": a,
            "trials": rep.trials,
            "threshold": rep.threshold,
            "exceed_fraction": rep.exceed_fraction,
            "bound": rep.bound,
            "prng": rep.prng,
            "seed": rep.seed,
        }
    if kind == "subsequence_tail":
        w = _load_word(field("word", str))
        length, eps = field("length", int), _finite_field(spec, "eps")
        rep = subsequence_tail_experiment(w, length, eps, field("trials", int), stream)
        return {
            "kind": kind,
            "length": length,
            "eps": eps,
            "trials": rep.trials,
            "exceed_fraction": rep.exceed_fraction,
            "bound": rep.bound,
            "note": rep.note,
            "prng": rep.prng,
            "seed": rep.seed,
        }
    if kind == "tester_curve":
        forbid = [ser.json_value(u, str, "each forbidden pattern") for u in field("forbid", list)]
        points = completeness_soundness_curve(
            ForbiddenFamily.from_strings(forbid),
            field("n", int),
            field("query_size", int),
            [ser.parse_frac(d) for d in field("distances", list)],
            field("trials", int),
            stream,
        )
        return {
            "kind": kind,
            "forbid": forbid,
            "points": [
                {
                    "target_d1": p.target_d1,
                    "achieved_d1": p.achieved_d1,
                    "accept_fraction": p.accept_fraction,
                }
                for p in points
            ],
            "prng": PRNG_ID,
            "seed": stream.seed,
        }
    raise CliError(f"unknown experiment kind {kind!r}")


def _cmd_experiment(args, stream) -> dict:
    batch = json.loads(_read_input(args.batch))
    if not isinstance(batch, dict):
        raise CliError("an experiment batch must be a JSON object")
    specs = batch.get("experiments", [])
    if not isinstance(specs, list):
        raise CliError('"experiments" must be a list')
    first_of: dict[str, int] = {}
    for idx, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise CliError(f"experiment {idx} must be a JSON object, got {spec!r}")
        name = str(spec.get("name", f"experiment-{idx}"))
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise CliError(f"experiment {idx} needs a plain file name, got {name!r}")
        if name in first_of:
            raise CliError(f"experiments {first_of[name]} and {idx} would both write {name}.json")
        first_of[name] = idx
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    failures = 0
    for idx, spec in enumerate(specs):
        name = spec.get("name", f"experiment-{idx}")
        sub = stream.substream(idx)
        try:
            result = _run_experiment(spec, sub)
            (outdir / f"{name}.json").write_text(ser.dumps(result))
            summary.append({"name": name, "status": "ok", "file": f"{name}.json"})
        except Exception as exc:  # isolate per-experiment failures
            failures += 1
            summary.append({"name": name, "status": "error", "error": str(exc)})
    out = {"experiments": summary, "failures": failures}
    if failures:
        out["exit"] = 1
    return out


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="seqlimit", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="PRNG seed (Philox 4x64)")
    top.add_argument("--format", choices=("json", "csv"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="quasi-randomness diagnostics of a word")
    p.add_argument("word", help="word literal or file")
    p.add_argument("--density", help="reference density d (rational)")
    p.add_argument("--frequencies", type=int, default=4)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("density", help="pattern density of a word or limit function")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word")
    g.add_argument("--limit")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("distance", help="box / L1 / prefix distance of two objects")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--metric", choices=("box", "l1", "prefix"), default="box")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("sample", help="f-random words from a limit function")
    p.add_argument("--limit", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("regularize", help="weak regularity partition")
    p.add_argument("--limit", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--init-uniform", type=int, default=0)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("test", help="subsequence tester for a forbidden family")
    p.add_argument("--word", required=True)
    p.add_argument("--forbid", required=True, help="comma-separated patterns")
    p.add_argument("--query-size", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("forcibility", help="forcibility certificate of a limit function")
    p.add_argument("--limit", required=True)
    p.add_argument("--candidate")
    p.set_defaults(func=_cmd_forcibility)

    p = sub.add_parser("permuton", help="pattern densities and distances of permutons")
    psub = p.add_subparsers(dest="action", required=True)
    pd = psub.add_parser("density")
    g = pd.add_mutually_exclusive_group(required=True)
    g.add_argument("--perm")
    g.add_argument("--grid")
    pd.add_argument("--pattern", required=True)
    pd.add_argument("--trials", type=int, default=100_000)
    pd.set_defaults(func=_cmd_permuton)
    pdist = psub.add_parser("distance")
    pdist.add_argument("a")
    pdist.add_argument("b")
    pdist.set_defaults(func=_cmd_permuton)
    ps = psub.add_parser("sample")
    ps.add_argument("--grid", required=True)
    ps.add_argument("--size", type=int, required=True)
    ps.add_argument("--count", type=int, default=1)
    ps.set_defaults(func=_cmd_permuton)

    p = sub.add_parser("experiment", help="run a batch of named experiments")
    p.add_argument("batch", help="batch description JSON (file or literal)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_experiment)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `dispatch` call in this process: parsing leaves
    it unchanged, and help and usage text are formatted when printed."""
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    stream = SeededStream(args.seed)
    try:
        result = args.func(args, stream)
        code = int(result.pop("exit", 0)) if isinstance(result, dict) else 0
        text = _render(result, args.format)  # refuses values JSON cannot hold
    except (ValueError, KeyError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
