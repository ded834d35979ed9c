"""Command-line interface and serialization round-trips."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import seqlimit
from seqlimit import PiecewisePoly, SeededStream, Word, cli, permutons
from seqlimit import serialize as ser
from seqlimit.cli import dispatch
from seqlimit.permutons import GridMeasure, Permutation
from seqlimit.piecewise import NUMERIC_TOL, LimitVector
from seqlimit.regularity import IntervalPartition

from util import fn_sub, grid_mass, random_step_irregular


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_density_word():
    code, out, _ = run_cli("density", "--word", "0101", "--pattern", "01")
    assert code == 0
    doc = json.loads(out)
    assert doc["density"] == "1/2"
    assert doc["count"] == 3 and doc["num"] == "1" and doc["den"] == "2"


def test_density_word_with_a_pattern_of_thousands_of_letters():
    code, out, _ = run_cli("density", "--word", "0" * 1600, "--pattern", "0" * 1500)
    assert code == 0
    assert json.loads(out)["count"] == math.comb(1600, 1500)
    code, out, err = run_cli("density", "--word", "01", "--pattern", "0" * 2000)
    assert code == 1 and out == "" and err == "error: pattern length 2000 exceeds word length 2\n"


def test_density_limit(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(ser.dumps(ser.limitfn_to_obj(PiecewisePoly.constant(Fraction(1, 2)))))
    code, out, _ = run_cli("density", "--limit", str(f), "--pattern", "11")
    assert code == 0
    assert json.loads(out)["density"] == "1/4"


def test_analyze_constant_word():
    code, out, _ = run_cli("analyze", "1111", "--density", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["discrepancy"] == "0"
    assert doc["best_uniformity"]["density"] == "1"


def test_module_entry_points_match_dispatch():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(seqlimit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    _, expected, _ = run_cli("analyze", "0101")
    for module in ("seqlimit", "seqlimit.cli"):
        done = subprocess.run([sys.executable, "-m", module, "analyze", "0101"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0 and done.stdout == expected
        bad = subprocess.run([sys.executable, "-m", module, "analyze", "0101", "--bogus-flag"],
                             capture_output=True, text=True, env=env)
        assert bad.returncode == 2 and bad.stdout == ""


def test_one_parser_per_process_parses_like_a_fresh_one(monkeypatch):
    step = json.dumps({"breakpoints": ["0", "1/2", "1"], "pieces": [{"coeffs": ["1/4"]}, {"coeffs": ["3/4"]}]})
    argvs = [
        ("--seed", "5", "test", "--word", "0110" * 10, "--forbid", "10,011", "--query-size", "6",
         "--trials", "20"),
        ("--format", "csv", "density", "--word", "0110", "--pattern", "01"),
        ("--seed", "7", "sample", "--limit", step, "--length", "8", "--count", "2"),
        ("analyze", "0101"),
        ("--help",),
        ("test", "--help"),
        ("permuton",),
        ("test", "--word", "01", "--bogus"),
        ("density", "--word", "01", "--limit", step, "--pattern", "1"),
        ("--format", "xml", "analyze", "01"),
        (),
        ("--seed", "5", "test", "--word", "0110" * 10, "--forbid", "10,011", "--query-size", "6",
         "--trials", "20"),
    ]
    shared = [run_cli(*argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert [run_cli(*argv) for argv in argvs] == shared
    assert shared[0] == shared[-1]
    assert [code for code, _, _ in shared[4:11]] == [0, 0, 2, 2, 2, 2, 2]
    assert shared[4][1].startswith("usage: seqlimit") and "error:" in shared[7][2]


def test_exit_codes():
    assert run_cli("analyze", "1111", "--bogus-flag")[0] == 2
    assert run_cli("no-such-command")[0] == 2
    code, _, err = run_cli("density", "--word", "01", "--pattern", "0101")
    assert code == 1 and "error:" in err
    code, _, err = run_cli("density", "--word", "01x2", "--pattern", "01")
    assert code == 1


def test_distance_modes(tmp_path):
    code, out, _ = run_cli("distance", "1100", "0011", "--metric", "l1")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1" and doc["exact"] is True
    code, out, _ = run_cli("distance", "1100", "0011", "--metric", "box")
    assert json.loads(out)["value"] == "1/2"
    code, out, _ = run_cli("distance", "1100", "0011", "--metric", "prefix")
    assert json.loads(out)["value"] == "1/2"


def test_sample_deterministic():
    args = ("--seed", "5", "sample", "--limit", '{"breakpoints": ["0","1"], "pieces": [{"coeffs": ["1/2"]}]}', "--length", "20", "--count", "3")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5 and doc["prng"] == "philox4x64"
    assert len(doc["words"]) == 3 and all(len(w) == 20 for w in doc["words"])
    _, other, _ = run_cli("--seed", "6", *args[2:])
    assert other != out1


def test_limits_leaving_the_unit_range_at_an_open_piece_end_are_refused():
    # 3x on [0, 1/2) tends to 3/2; 1 - 3x on [0, 1/2) tends to -1/2
    for first, second in ((["0", "3"], ["0"]), (["1", "-3"], ["1"])):
        limit = json.dumps({"breakpoints": ["0", "1/2", "1"],
                            "pieces": [{"coeffs": first}, {"coeffs": second}]})
        for argv in (("density", "--limit", limit, "--pattern", "1"),
                     ("sample", "--limit", limit, "--length", "5")):
            code, out, err = run_cli(*argv)
            assert code == 1 and out == "" and "leaves [0, 1]" in err


def test_regularize(tmp_path):
    f = tmp_path / "step.json"
    f.write_text(ser.dumps(ser.limitfn_to_obj(PiecewisePoly.step([1, 0]))))
    code, out, _ = run_cli("regularize", "--limit", str(f), "--eps", "1/10")
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["final_deviation"]) <= Fraction(1, 10)
    assert len(doc["energies"]) == doc["rounds"] + 1


def test_tester_member_and_far():
    code, out, _ = run_cli("--seed", "3", "test", "--word", "0" * 30 + "1" * 30, "--forbid", "10", "--query-size", "10", "--trials", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["accept_fraction"] == 1 and doc["is_member"] is True
    code, out, _ = run_cli("--seed", "3", "test", "--word", "10" * 40, "--forbid", "10", "--query-size", "12", "--trials", "100")
    doc = json.loads(out)
    assert doc["d1"] == "1/2" and doc["accept_fraction"] < 0.5


def test_neighbouring_seeds_past_2_63_sample_different_words():
    limit = '{"breakpoints": ["0","1"], "pieces": [{"coeffs": ["1/2"]}]}'
    words = []
    for seed in ("9223372036854775809", "9223372036854775810"):
        code, out, err = run_cli("--seed", seed, "sample", "--limit", limit, "--length", "40", "--count", "2")
        assert code == 0, err
        words.append(json.loads(out)["words"])
    assert words[0] != words[1]


def test_forcibility_cli():
    limit = '{"breakpoints": ["0","1"], "pieces": [{"coeffs": ["1/2"]}]}'
    cand = '{"breakpoints": ["0","1/2","1"], "pieces": [{"coeffs": ["1"]}, {"coeffs": ["0"]}]}'
    code, out, _ = run_cli("forcibility", "--limit", limit, "--candidate", cand)
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_self"] == "0"
    assert all(len(w) <= 3 for w in doc["words"])
    assert doc["candidate"]["densities_match"] is False
    assert Fraction(doc["candidate"]["residual"]) > 0


def test_permuton_cli():
    code, out, _ = run_cli("permuton", "density", "--perm", "2,1,4,3", "--pattern", "21")
    assert code == 0
    assert json.loads(out)["value"] == "1/3"
    code, out, _ = run_cli("permuton", "density", "--grid", "2,1,4,3", "--pattern", "21")
    assert json.loads(out)["exact"] is True
    code, out, _ = run_cli("permuton", "distance", "1", "1,2")
    assert json.loads(out)["value"] == "1/4"
    code, out, _ = run_cli("--seed", "9", "permuton", "sample", "--grid", "3,1,2", "--size", "2", "--count", "4")
    doc = json.loads(out)
    assert len(doc["patterns"]) == 4
    # large pattern on a large grid falls back to Monte Carlo
    perm10 = ",".join(str(i) for i in range(1, 11))
    code, out, _ = run_cli("--seed", "9", "permuton", "density", "--grid", perm10, "--pattern", "12345", "--trials", "2000")
    doc = json.loads(out)
    assert doc["exact"] is False and doc["trials"] == 2000
    # so does a size-3 pattern whose dense tensor exceeds the cap
    perm257 = ",".join(str(i) for i in range(1, 258))
    code, out, _ = run_cli("permuton", "density", "--grid", perm257, "--pattern", "321", "--trials", "500")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is False and doc["value"] == 0.0


def test_size4_count_on_too_long_host_is_a_domain_error(monkeypatch):
    def no_table(*args):
        raise AssertionError("the O(n^2) table must not be built")

    monkeypatch.setattr(permutons, "_count_size4", no_table)
    host = ",".join(str(i) for i in range(permutons.K4_HOST_CAP + 1, 0, -1))
    code, out, err = run_cli("permuton", "density", "--perm", host, "--pattern", "2413")
    assert code == 1 and out == ""
    assert f"at most {permutons.K4_HOST_CAP} letters" in err
    code, out, _ = run_cli("permuton", "density", "--perm", host, "--pattern", "321")
    assert code == 0 and json.loads(out)["value"] == "1"


def test_malformed_experiment_batches_are_domain_errors(tmp_path):
    cases = {
        "[]": "error: an experiment batch must be a JSON object\n",
        '{"experiments": 5}': 'error: "experiments" must be a list\n',
        '{"experiments": [{"kind": "nonsense"}, 1]}': "error: experiment 1 must be a JSON object, got 1\n",
    }
    for batch, message in cases.items():
        code, out, err = run_cli("experiment", batch, "--out", str(tmp_path / "results"))
        assert (code, out, err) == (1, "", message)
    assert not (tmp_path / "results").exists()


def test_domain_errors_for_trials_and_empty_grids():
    perm10 = ",".join(str(i) for i in range(1, 11))
    for trials in ("0", "-3"):
        code, out, err = run_cli("permuton", "density", "--grid", perm10, "--pattern", "12345", "--trials", trials)
        assert code == 1 and out == ""
        assert "at least 1 trial" in err
    code, out, err = run_cli("test", "--word", "0101", "--forbid", "10", "--query-size", "2", "--trials", "0")
    assert code == 1 and out == "" and "at least 1 trial" in err
    code, out, err = run_cli("permuton", "density", "--grid", '{"m": 0, "mass": []}', "--pattern", "12")
    assert code == 1 and out == "" and "at least 1" in err
    limit = '{"breakpoints": ["0","1"], "pieces": [{"coeffs": ["1/2"]}]}'
    for count in ("0", "-1"):
        code, out, err = run_cli("sample", "--limit", limit, "--length", "5", "--count", count)
        assert code == 1 and out == "" and "--count must be at least 1" in err
        code, out, err = run_cli("permuton", "sample", "--grid", "2,1", "--size", "2", "--count", count)
        assert code == 1 and out == "" and "--count must be at least 1" in err


def test_analyze_empty_word_is_a_domain_error():
    for argv in (("analyze", ""), ("analyze", "", "--density", "1/2")):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert err == "error: word must be nonempty\n"


def test_experiment_batch(tmp_path):
    batch = {
        "experiments": [
            {"kind": "subsequence_tail", "name": "tail", "word": "01" * 200, "length": 50, "eps": 0.6, "trials": 20},
            {"kind": "nonsense", "name": "broken"},
        ]
    }
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps(batch))
    code, out, _ = run_cli("--seed", "2", "experiment", str(spec), "--out", str(tmp_path / "results"))
    assert code == 1  # one experiment failed, the other completed
    doc = json.loads(out)
    statuses = {e["name"]: e["status"] for e in doc["experiments"]}
    assert statuses == {"tail": "ok", "broken": "error"}
    saved = json.loads((tmp_path / "results" / "tail.json").read_text())
    assert saved["trials"] == 20
    # empty batch: success, nothing written
    spec.write_text(json.dumps({"experiments": []}))
    code, out, _ = run_cli("experiment", str(spec), "--out", str(tmp_path / "empty"))
    assert code == 0 and json.loads(out)["failures"] == 0


def test_non_finite_floats_are_refused(tmp_path, monkeypatch):
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ser.dumps({"x": [1.5, x]})
    with pytest.raises(ValueError, match="non-finite"):
        ser.dumps({"z": complex(1.0, math.inf)})
    # a command result holding nan: exit 1, nothing on stdout (the shared
    # parser bound the real handler, so parse with a fresh one)
    monkeypatch.setattr(cli, "_cmd_density", lambda args, stream: {"density": math.nan})
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    code, out, err = run_cli("density", "--word", "01", "--pattern", "0")
    assert code == 1 and out == "" and "non-finite" in err
    # a tail experiment with a = inf reports threshold inf: the experiment
    # fails and writes no result file
    limit = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/2"]}]}
    batch = {"experiments": [{"kind": "tail_dbox", "name": "inf", "limit": limit,
                              "n": 8, "a": "inf", "trials": 2}]}
    code, out, _ = run_cli("experiment", json.dumps(batch), "--out", str(tmp_path))
    assert code == 1
    assert "non-finite" in json.loads(out)["experiments"][0]["error"]
    assert not (tmp_path / "inf.json").exists()


def test_csv_format():
    code, out, _ = run_cli("--format", "csv", "density", "--word", "0101", "--pattern", "01")
    assert code == 0
    cells = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert cells["density"] == "1/2" and cells["count"] == "3"


def test_float_serialization_has_17_significant_digits():
    text = ser.dumps({"x": 1 / 3})
    assert "0.33333333333333331" in text
    assert ser.dumps({"x": 1 / 3}) == ser.dumps({"x": 1 / 3})


def test_serialization_round_trips(tmp_path):
    assert ser.word_from_text("01101\n") == Word.from_string("01101")
    stream = SeededStream(101)
    for t in range(5):
        f = random_step_irregular(stream.substream(t), max_steps=6)
        assert ser.limitfn_from_obj(ser.limitfn_to_obj(f)) == f
    f = PiecewisePoly.step([1, 0])
    F = LimitVector({"0": fn_sub(PiecewisePoly.constant(1), f), "1": f})
    G = ser.limitvector_from_obj(json.loads(
        '{"alphabet": ["0", "1"], "components": {'
        '"0": {"breakpoints": ["0", "1/2", "1"], "pieces": [{"coeffs": ["0"]}, {"coeffs": ["1"]}]}, '
        '"1": {"breakpoints": ["0", "1/2", "1"], "pieces": [{"coeffs": ["1"]}, {"coeffs": ["0"]}]}}}'))
    assert G.components == F.components
    mu = GridMeasure(2, ((Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 3))))
    assert ser.grid_from_obj(json.loads('{"m": 2, "mass": [["1/3", "1/6"], ["1/6", "1/3"]]}')) == mu
    assert ser.permutation_from_text("2,1,4,3\n") == Permutation((2, 1, 4, 3))
    part = IntervalPartition((Fraction(0), Fraction(1, 3), Fraction(1)))
    assert ser.partition_to_obj(part) == {"breakpoints": ["0", "1/3", "1"]}


LONG = "1" * 4301  # above the int/str conversion limit of 4300 digits

# grid mass tokens: plain ratios, and spellings only Fraction(str) reads or refuses
TOKENS = [
    "0", "1", "1/3", "2/6", "007", "007/028", "0/5", "12345678901234567890/3", "9" * 4300,
    "1/0", "0/0", "x", "", " ", "/", "1/", "/3", "1/3/5", "-1/9", "+1/9", "-0", " 1/3", "1/3 ",
    "\t1/3\n", "1 /3", "1/ 3", "0.5", ".5", "5.", "1e-1", "1E2", "1_0", "1_0/3", "1__0", "_1",
    "1_", "\u00b2", "\u0663", "1/\u0663", "\u0661\u0662/3", "\u216b", "\uff11", "0x10", "inf", "nan",
    LONG, "1/" + LONG, LONG + "/1",
    0, 1, -1, 7, 2**63, 2**64 - 1, 2**64, -(2**64), 10**30, True, False, 0.25, 0.1, 1e300,
    math.nan, None, [1], {"a": 1}, Fraction(1, 3),
]


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc))


def _zero_den_named(outcome, token):
    """outcome, but for a zero denominator the ValueError that quotes the
    token instead of Fraction's ZeroDivisionError "Fraction(1, 0)"."""
    if outcome[0] is ZeroDivisionError:
        return (ValueError, f"rational {token!r} has a zero denominator")
    return outcome


def _grid_by_fractions(obj):
    return GridMeasure(int(obj["m"]), tuple(tuple(Fraction(str(v)) for v in row) for row in obj["mass"]))


def _limit_by_fractions(obj):
    """The limit of obj with each token read by Fraction(str), and the range
    decided by `range_bounds` alone, exactly or within NUMERIC_TOL."""
    f = PiecewisePoly(tuple(Fraction(str(b)) for b in obj["breakpoints"]),
                      tuple(tuple(Fraction(str(c)) for c in p["coeffs"]) for p in obj["pieces"]))
    lo, hi = f.range_bounds()
    tol = 0 if isinstance(lo, Fraction) else NUMERIC_TOL
    if not (-tol <= lo and hi <= 1 + tol):
        raise ValueError(f"function range [{lo}, {hi}] leaves [0, 1]")
    return f


@pytest.mark.parametrize("i", range(len(TOKENS)))
def test_token_reader_agrees_with_fraction_of_str(i):
    token = TOKENS[i]
    assert _outcome(ser.parse_frac, token) == _zero_den_named(_outcome(lambda t: Fraction(str(t)), token), token)
    pair = ser._ratio(token)
    if pair is not None:
        assert Fraction(*pair) == Fraction(str(token))
    # as the mass of a 1-grid and beside canonical tokens in a 2-grid
    for obj in ({"m": 1, "mass": [[token]]},
                {"m": 2, "mass": [["1/4", token], ["1/4", "1/4"]]}):
        assert _outcome(ser.grid_from_obj, obj) == _zero_den_named(_outcome(_grid_by_fractions, obj), token)
    # as the inner breakpoint and as a coefficient of a limit function
    for obj in ({"breakpoints": ["0", token, "1"], "pieces": [{"coeffs": ["1/2"]}, {"coeffs": ["1/3"]}]},
                {"breakpoints": ["0", "1/2", "1"], "pieces": [{"coeffs": ["1/2", token]}, {"coeffs": [token]}]}):
        assert _outcome(ser.limitfn_from_obj, obj) == _zero_den_named(_outcome(_limit_by_fractions, obj), token)


def test_malformed_grid_tables_fail_as_the_fraction_path_does():
    """A JSON integer m and a list of lists fail as the Fraction path does;
    other shapes are refused by field before any token is read."""
    tables = [
        (2, [["x", "0"], 5]), (2, []),
        (2, [["1/4", "1/4"], ["1/4", "1/4"], ["0", "0"]]), (2, [["1/4", "1/4"], ["1/4", "1/4", "0"]]),
        (0, []), (-1, [["1"]]), (1, [[["1"]]]), (1, [[{"1": 1}]]),
    ]
    for m, mass in tables:
        obj = {"m": m, "mass": mass}
        assert _outcome(ser.grid_from_obj, obj) == _outcome(_grid_by_fractions, obj), obj
    quarters = [["1/4", "1/4"], ["1/4", "1/4"]]
    misshapen = [
        (2, [["1/2", "0"], 5], "each mass row must be a JSON list"),
        (2, [["1/2"], 5], "each mass row must be a JSON list"),
        (2, ["ab", "cd"], "each mass row must be a JSON list"),
        (1, ["1"], "each mass row must be a JSON list"),
        (2, 5, "mass must be a JSON list"),
        ("2", quarters, "m must be a JSON integer"),
        (2.5, quarters, "m must be a JSON integer"),
        (2.0, quarters, "m must be a JSON integer"),
        (True, [["1"]], "m must be a JSON integer"),
    ]
    for m, mass, message in misshapen:
        assert _outcome(ser.grid_from_obj, {"m": m, "mass": mass}) == (ValueError, message), (m, mass)
    assert _outcome(ser.grid_from_obj, {"mass": []}) == (ValueError, "m is missing")


def test_plain_ratio_grids_load_without_fraction_parsing(monkeypatch):
    # a grid as perfbench writes them: three permutation measures of
    # weight 1/3 each, masses in lowest terms
    rng = SeededStream(103).generator()
    m = 30
    mass = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(3):
        for i, v in enumerate(rng.permutation(m).tolist()):
            mass[i][v] += Fraction(1, 3 * m)
    obj = json.loads(json.dumps({"m": m, "mass": [[str(v) for v in row] for row in mass]}))
    want = GridMeasure(m, mass)

    def no_str(*args):
        if isinstance(args[0], str):
            raise AssertionError(f"Fraction(str) fallback taken for {args[0]!r}")
        return Fraction(*args)

    monkeypatch.setattr(ser, "Fraction", no_str)
    got = ser.grid_from_obj(obj)
    assert got == want and grid_mass(got) == grid_mass(want) and got.cells.dtype == np.int64
    with pytest.raises(AssertionError, match="fallback taken for '1.0'"):
        ser.grid_from_obj({"m": 1, "mass": [["1.0"]]})


def test_each_distinct_token_is_parsed_once(monkeypatch):
    """Inputs shaped like the benchmark's: a 256-piece step with values
    k/16, a ternary vector on 16 pieces (its components share their
    breakpoints) and a 30-grid."""
    rng = SeededStream(107).generator()
    step = {"breakpoints": [str(Fraction(i, 256)) for i in range(257)],
            "pieces": [{"coeffs": [str(Fraction(int(k), 16))]} for k in rng.integers(1, 16, 256)]}
    a, b = rng.integers(0, 5, 16), rng.integers(0, 5, 16)
    bps = [str(Fraction(i, 16)) for i in range(17)]
    ternary = {"alphabet": ["a", "b", "c"], "components": {
        letter: {"breakpoints": bps, "pieces": [{"coeffs": [str(Fraction(int(v), 12))]} for v in vs]}
        for letter, vs in zip("abc", (a, b, 12 - a - b))}}
    m = 30
    mass = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(3):
        for i, v in enumerate(rng.permutation(m).tolist()):
            mass[i][v] += Fraction(1, 3 * m)
    grid = {"m": m, "mass": [[str(v) for v in row] for row in mass]}
    parsed = []
    parse = ser.parse_frac
    monkeypatch.setattr(ser, "parse_frac", lambda token: parsed.append(token) or parse(token))
    for load, obj in ((ser.limitfn_from_obj, step), (ser.limitvector_from_obj, ternary), (ser.grid_from_obj, grid)):
        parsed.clear()
        load(json.loads(json.dumps(obj)))
        assert sorted(parsed) == sorted(set(parsed)) and len(parsed) > 1


HALF_LIMIT = '{"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/2"]}]}'
PERM10 = ",".join(str(i) for i in range(1, 11))


def _batch(*names) -> str:
    """One subsequence_tail experiment per name; None leaves the name out."""
    specs = [{"kind": "subsequence_tail", "word": "0110", "length": 2, "eps": 0.5, "trials": 1}
             for _ in names]
    for spec, name in zip(specs, names):
        if name is not None:
            spec["name"] = name
    return json.dumps({"experiments": specs})


# argv (OUT stands for a fresh output directory) and a fragment of the message
EDGE_INPUTS = {
    "analyze-empty-word": (("analyze", ""), "word must be nonempty"),
    "analyze-two-letters": (("analyze", "01"), "need length >= 3"),
    "analyze-frequencies-negative": (("analyze", "0110100", "--frequencies", "-1"),
                                     "the number of frequencies must be nonnegative, got -1"),
    # zero denominators, named with their token rather than as Fraction(1, 0)
    "analyze-density-zero-denominator": (("analyze", "0110100", "--density", "1/0"),
                                         "rational '1/0' has a zero denominator"),
    "regularize-eps-zero-denominator": (("regularize", "--limit", HALF_LIMIT, "--eps", "1/0"),
                                        "rational '1/0' has a zero denominator"),
    "density-limit-coeff-zero-denominator": (
        ("density", "--limit", '{"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/0"]}]}', "--pattern", "1"),
        "rational '1/0' has a zero denominator"),
    "permuton-grid-mass-zero-denominator": (
        ("permuton", "density", "--grid", '{"m": 1, "mass": [["1/0"]]}', "--pattern", "1"),
        "rational '1/0' has a zero denominator"),
    "density-empty-pattern": (("density", "--word", "0110", "--pattern", ""), "pattern must be nonempty"),
    "regularize-eps-0": (("regularize", "--limit", HALF_LIMIT, "--eps", "0"), "eps must lie in (0, 1)"),
    "regularize-init-uniform-negative": (("regularize", "--limit", HALF_LIMIT, "--eps", "1/10", "--init-uniform", "-3"),
                                         "a uniform partition needs at least 1 atom, got -3"),
    "test-query-size-0": (("test", "--word", "0101", "--forbid", "10", "--query-size", "0"), "got 0"),
    "permuton-grid-m-0": (("permuton", "density", "--grid", '{"m": 0, "mass": []}', "--pattern", "12"),
                          "grid size m must be at least 1, got 0"),
    "permuton-mc-trials-0": (("permuton", "density", "--grid", PERM10, "--pattern", "12345", "--trials", "0"),
                             "Monte Carlo needs at least 1 trial, got 0"),
    "permuton-sample-size-0": (("permuton", "sample", "--grid", "2,1,3", "--size", "0"),
                               "pattern size must be at least 1, got 0"),
    "permuton-sample-size-negative": (("permuton", "sample", "--grid", "2,1,3", "--size", "-1"),
                                      "pattern size must be at least 1, got -1"),
    **{
        f"experiment-name-{label}": (("experiment", _batch(name), "--out", "OUT"),
                                     f"experiment 0 needs a plain file name, got {name!r}")
        for label, name in (("parent", "../evil"), ("slash", "a/b"), ("backslash", "a\\b"),
                            ("empty", ""), ("dot", "."), ("dotdot", ".."))
    },
    # two entries that would write one file, compared as str(name)
    "experiment-name-repeated": (("experiment", _batch("x", "y", "x"), "--out", "OUT"),
                                 "experiments 0 and 2 would both write x.json"),
    "experiment-name-default-repeated": (("experiment", _batch("experiment-1", None), "--out", "OUT"),
                                         "experiments 0 and 1 would both write experiment-1.json"),
    "experiment-name-int-and-str": (("experiment", _batch(7, "7"), "--out", "OUT"),
                                    "experiments 0 and 1 would both write 7.json"),
    # JSON fields of the wrong type, refused by name
    **{
        f"permuton-grid-{label}": (("permuton", "density", "--grid", grid, "--pattern", pattern), message)
        for label, grid, pattern, message in (
            ("row-int", '{"m": 2, "mass": [["1/2", "0"], 5]}', "21", "each mass row must be a JSON list"),
            ("m-list", '{"m": [2], "mass": [["1/2", "0"], ["0", "1/2"]]}', "21", "m must be a JSON integer"),
            ("mass-int", '{"m": 2, "mass": 5}', "21", "mass must be a JSON list"),
            ("m-float", '{"m": 1.5, "mass": [["1"]]}', "1", "m must be a JSON integer"),
            ("m-string", '{"m": "2", "mass": [["1/2", "0"], ["0", "1/2"]]}', "21", "m must be a JSON integer"),
        )
    },
    **{
        f"density-limit-{label}": (("density", "--limit", limit, "--pattern", pattern), message)
        for label, limit, pattern, message in (
            ("breakpoints-int", '{"breakpoints": 5, "pieces": []}', "01", "breakpoints must be a JSON list"),
            ("piece-int", '{"breakpoints": ["0", "1"], "pieces": [5]}', "01", "each piece must be a JSON object"),
            ("coeffs-int", '{"breakpoints": ["0", "1"], "pieces": [{"coeffs": 5}]}', "01",
             "coeffs must be a JSON list"),
            ("components-int", '{"alphabet": ["a"], "components": 5}', "a", "components must be a JSON object"),
            ("component-int", '{"alphabet": ["a"], "components": {"a": 5}}', "a",
             "component 'a' must be a JSON object"),
            ("alphabet-int", '{"alphabet": 5, "components": {}}', "a", "alphabet must be a JSON list"),
            ("letter-list", '{"alphabet": [["a"]], "components": {}}', "a",
             "each alphabet letter must be a JSON string"),
        )
    },
    "density-word-alphabet-int": (("density", "--word", '{"alphabet": 5, "letters": "ab"}', "--pattern", "a"),
                                  "alphabet must be a JSON list"),
    "density-word-letters-int": (("density", "--word", '{"alphabet": ["a", "b"], "letters": 5}', "--pattern", "a"),
                                 "letters must be a JSON string"),
    "distance-breakpoints-int": (("distance", '{"breakpoints": 5}', "0101"), "breakpoints must be a JSON list"),
    # missing JSON fields, named
    "distance-alphabet-missing": (("distance", '{"components": 5}', "0101"), "alphabet is missing"),
    "distance-pieces-missing": (("distance", '{"breakpoints": ["0", "1"]}', "0101"), "pieces is missing"),
    "permuton-grid-m-missing": (("permuton", "density", "--grid", '{"mass": []}', "--pattern", "1"),
                                "m is missing"),
    "permuton-grid-mass-missing": (("permuton", "density", "--grid", '{"m": 1}', "--pattern", "1"),
                                   "mass is missing"),
    "density-word-letters-missing": (("density", "--word", '{"alphabet": ["a", "b"]}', "--pattern", "a"),
                                     "letters is missing"),
    "density-limit-coeffs-missing": (("density", "--limit", '{"breakpoints": ["0", "1"], "pieces": [{}]}',
                                      "--pattern", "1"), "coeffs is missing"),
    "density-limit-component-missing": (
        ("density", "--limit", json.dumps({"alphabet": ["a", "b"], "components": {"a": json.loads(HALF_LIMIT)}}),
         "--pattern", "a"), "component 'b' is missing"),
    # a component outside the alphabet, and a repeated alphabet letter
    "density-limit-component-outside-alphabet": (
        ("density", "--limit", json.dumps({"alphabet": ["a", "b"], "components": {
            "a": json.loads(HALF_LIMIT), "b": json.loads(HALF_LIMIT), "z": 7}}), "--pattern", "ab"),
        "component 'z' is not in the alphabet ['a', 'b']"),
    # a word is the indicator of its letter "1", so distances refuse other alphabets
    **{
        f"distance-{metric}-{label}-word": (("distance", word, HALF_LIMIT, "--metric", metric), message)
        for metric in ("box", "l1", "prefix")
        for label, word, message in (
            ("ab", '{"alphabet": ["a", "b"], "letters": "abba"}', "got ['a', 'b']"),
            ("ternary", '{"alphabet": ["0", "1", "2"], "letters": "0120"}', "got ['0', '1', '2']"),
        )
    },
    "density-limit-alphabet-repeated": (
        ("density", "--limit", json.dumps({"alphabet": ["a", "b", "a"], "components": {
            "a": json.loads(HALF_LIMIT), "b": json.loads(HALF_LIMIT)}}), "--pattern", "ab"),
        "alphabet letter 'a' is repeated"),
}


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_inputs_exit_1_with_one_error_line(name, tmp_path):
    argv, message = EDGE_INPUTS[name]
    out_dir = tmp_path / "results"
    code, out, err = run_cli(*(str(out_dir) if a == "OUT" else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err and "Fraction(" not in err
    assert not out_dir.exists() and list(tmp_path.iterdir()) == []


TAIL = {"kind": "tail_dbox", "limit": json.loads(HALF_LIMIT), "n": 4, "a": 0.1, "trials": 2}
SUBSEQ = {"kind": "subsequence_tail", "word": "0110", "length": 2, "eps": 0.5, "trials": 2}
CURVE = {"kind": "tester_curve", "forbid": ["10"], "n": 10, "query_size": 3, "distances": ["0"], "trials": 2}
# experiment fields of the wrong JSON type, or missing; each is refused by
# name in that experiment's error entry
EXPERIMENT_FIELDS = {
    "tail-limit-int": (dict(TAIL, limit=5), "limit must be a JSON object or string"),
    "tail-n-float": (dict(TAIL, n=4.9), "n must be a JSON integer"),
    "tail-n-integral-float": (dict(TAIL, n=4.0), "n must be a JSON integer"),
    "tail-n-string": (dict(TAIL, n="4"), "n must be a JSON integer"),
    "tail-trials-bool": (dict(TAIL, trials=True), "trials must be a JSON integer"),
    # out of the domain, in the library's words rather than Python's
    "tail-n-0": (dict(TAIL, n=0), "the tail experiment needs word length n >= 1, got 0"),
    "tail-n-negative": (dict(TAIL, n=-5), "the tail experiment needs word length n >= 1, got -5"),
    "subseq-length-null": (dict(SUBSEQ, length=None), "length must be a JSON integer"),
    "subseq-word-int": (dict(SUBSEQ, word=5), "word must be a JSON string"),
    "curve-forbid-int": (dict(CURVE, forbid=5), "forbid must be a JSON list"),
    "curve-forbid-pattern-int": (dict(CURVE, forbid=["10", 5]), "each forbidden pattern must be a JSON string"),
    "curve-distances-string": (dict(CURVE, distances="0"), "distances must be a JSON list"),
    "curve-query-size-missing": ({k: v for k, v in CURVE.items() if k != "query_size"}, "query_size is missing"),
    # a and eps: a finite JSON number or a numeric string such as "0.008"
    "tail-a-missing": ({k: v for k, v in TAIL.items() if k != "a"}, "a is missing"),
    "tail-a-bool": (dict(TAIL, a=True), "a must be a JSON number or numeric string, got True"),
    "tail-a-list": (dict(TAIL, a=[0.1]), "a must be a JSON number or numeric string, got [0.1]"),
    "tail-a-nan": (dict(TAIL, a=math.nan), "a must be finite, got the non-finite nan"),
    "tail-a-infinity": (dict(TAIL, a=math.inf), "a must be finite, got the non-finite inf"),
    "tail-a-infinity-string": (dict(TAIL, a="Infinity"), "a must be finite, got the non-finite 'Infinity'"),
    "tail-a-huge-int": (dict(TAIL, a=10**400), f"a must be finite, got the non-finite {10**400!r}"),
    "subseq-eps-missing": ({k: v for k, v in SUBSEQ.items() if k != "eps"}, "eps is missing"),
    "subseq-eps-null": (dict(SUBSEQ, eps=None), "eps must be a JSON number or numeric string, got None"),
    "subseq-eps-word": (dict(SUBSEQ, eps="half"), "eps must be a JSON number or numeric string, got 'half'"),
    "subseq-eps-nan-string": (dict(SUBSEQ, eps="nan"), "eps must be finite, got the non-finite 'nan'"),
}


@pytest.mark.parametrize("label", sorted(EXPERIMENT_FIELDS))
def test_experiment_fields_are_checked_by_type(tmp_path, label):
    spec, message = EXPERIMENT_FIELDS[label]
    code, out, err = run_cli("experiment", json.dumps({"experiments": [dict(spec, name="e")]}),
                             "--out", str(tmp_path))
    assert (code, err) == (1, "")
    assert json.loads(out)["experiments"] == [{"name": "e", "status": "error", "error": message}]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["tail_dbox", "subsequence_tail"])
@pytest.mark.parametrize("trials", [0, -2])
def test_experiments_with_fewer_than_one_trial_fail(tmp_path, kind, trials):
    spec = {"kind": kind, "name": "e", "trials": trials}
    if kind == "tail_dbox":
        spec.update(limit=json.loads(HALF_LIMIT), n=20, a=0.1)
    else:
        spec.update(word="0110", length=2, eps=0.5)
    code, out, err = run_cli("experiment", json.dumps({"experiments": [spec]}), "--out", str(tmp_path))
    assert (code, err) == (1, "")
    assert json.loads(out)["experiments"] == [{
        "name": "e", "status": "error",
        "error": f"the tail experiment needs at least 1 trial, got {trials}"}]
    assert list(tmp_path.iterdir()) == []


def test_word_json_is_read_by_its_keys_not_its_letters():
    # a word whose alphabet has a letter named like a limit's field is a
    # word: its density is read, and `distance` refuses it for its alphabet
    outs = []
    for letter in ("x", "components", "breakpoints"):
        word = json.dumps({"alphabet": [letter, "b"], "letters": "bb"})
        code, out, err = run_cli("density", "--word", word, "--pattern", "b")
        assert (code, err) == (0, ""), letter
        outs.append(out)
        code, out, err = run_cli("distance", word, word)
        assert (code, out) == (1, "") and err.endswith(f"got [{letter!r}, 'b']\n"), letter
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["density"] == "1"


def test_long_word_jobs_build_no_tuple_of_letters(monkeypatch):
    """The kernels read letter codes: replaying analyze, density, distance,
    test and sample on 10^5 letters through `cli.dispatch` never builds
    `Word.letters` for a word of more than 64 letters."""
    built = []
    letters = Word.letters

    def guarded(w):
        if len(w) > 64:
            built.append(len(w))
        return letters.fget(w)

    monkeypatch.setattr(Word, "letters", property(guarded))
    codes = SeededStream(70).generator().integers(0, 2, size=10**5)
    word = "".join(map("01".__getitem__, codes))
    ones_first = json.dumps({"letters": word, "alphabet": ["1", "0"]})
    step = json.dumps({"breakpoints": ["0", "1/3", "1"], "pieces": [{"coeffs": ["1/5"]}, {"coeffs": ["3/4"]}]})
    jobs = [("analyze", word), ("analyze", ones_first),
            ("density", "--word", word, "--pattern", "011010"),
            ("density", "--word", ones_first, "--pattern", "0110"),
            ("distance", word, step, "--metric", "box"), ("distance", ones_first, word, "--metric", "l1"),
            ("distance", word, step, "--metric", "prefix"),
            ("--seed", "71", "test", "--word", word, "--forbid", "0110,1001", "--query-size", "24",
             "--trials", "50"),
            ("--seed", "72", "sample", "--limit", step, "--length", str(10**5), "--count", "2")]
    for argv in jobs:
        code, _, err = run_cli(*argv)
        assert code == 0, err
    assert built == []
    assert Word.from_string(word).letters[:3] == tuple(word[:3]) and built == [10**5]
