"""Seeded job lists for the four benchmark workloads.

A workload is a list of job templates.  Each template fixes a CLI
subcommand and the size of its inputs; its contents come from one of
VARIANTS seeded variants.  The workload seed picks one variant per input
group and the order in which the jobs run, so every seed runs the same
mix of job kinds and sizes on different inputs.  Reference outputs are
recorded for every variant (see run.py --record), so any seed can be
checked.

Jobs reach the program only as argv literals and input files.  An argv
element starting with "@" names a file in the run's work directory.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 8


@dataclass
class Job:
    name: str  # template name, unique within its workload
    kind: str  # what a user asks for; setup runs the smallest job of each kind once
    size: int
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # name in work dir -> text
    out: str | None = None  # output directory of an experiment job
    ident: tuple | None = None  # role in the workload's dual-path identity


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- input generators ----------------------------------------------------


def frac_s(x) -> str:
    return str(Fraction(x))


def bernoulli_word(rng: random.Random, n: int, p: float = 0.5) -> str:
    return "".join("1" if rng.random() < p else "0" for _ in range(n))


def step_limit(rng: random.Random, m: int, q: int = 16, irregular: bool = False,
               values: list[int] | None = None) -> dict:
    """Step function with values k/q, 0 < k < q, on m pieces."""
    if irregular:
        cuts = sorted(rng.sample(range(1, 8 * m), m - 1))
        bps = [Fraction(0)] + [Fraction(c, 8 * m) for c in cuts] + [Fraction(1)]
    else:
        bps = [Fraction(i, m) for i in range(m + 1)]
    if values is None:
        values = [rng.randint(1, q - 1) for _ in range(m)]
    return {
        "breakpoints": [frac_s(b) for b in bps],
        "pieces": [{"coeffs": [frac_s(Fraction(k, q))]} for k in values],
    }


def two_branch_step(rng: random.Random, m: int, q: int = 6) -> dict:
    """Step function on m <= 3 pieces whose primitive has exactly two
    branches, which fixes the size of its forcibility certificate."""
    a, b = rng.sample(range(1, q), 2)
    return step_limit(rng, m, q, values=[a] + [b] * (m - 1))


def poly_pieces(rng: random.Random, m: int, degree: int) -> list[list[Fraction]]:
    """m polynomial pieces on the uniform grid with values in [0, 1]: each
    is a Bernstein polynomial on its interval with coefficients in [0, 1]."""
    bps = [Fraction(i, m) for i in range(m + 1)]
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        width = hi - lo
        bern = [Fraction(rng.randint(0, 8), 8) for _ in range(degree + 1)]
        in_t = [Fraction(0)] * (degree + 1)  # monomial coefficients in t = (x - lo)/width
        for k, b in enumerate(bern):
            for j in range(degree - k + 1):
                in_t[k + j] += b * math.comb(degree, k) * math.comb(degree - k, j) * (-1) ** j
        in_x = [Fraction(0)] * (degree + 1)
        for k, c in enumerate(in_t):
            for j in range(k + 1):
                in_x[j] += c * math.comb(k, j) * (-lo) ** (k - j) / width**k
        pieces.append(in_x)
    return pieces


def poly_limit_obj(pieces: list[list[Fraction]]) -> dict:
    m = len(pieces)
    return {
        "breakpoints": [frac_s(Fraction(i, m)) for i in range(m + 1)],
        "pieces": [{"coeffs": [frac_s(c) for c in p]} for p in pieces],
    }


def poly_limit(rng: random.Random, m: int, degree: int) -> dict:
    return poly_limit_obj(poly_pieces(rng, m, degree))


def _is_square(q: Fraction) -> bool:
    return math.isqrt(q.numerator) ** 2 == q.numerator and math.isqrt(q.denominator) ** 2 == q.denominator


def crossing_quadratic_pair(rng: random.Random, m: int) -> tuple[dict, dict]:
    """Two piecewise-quadratic limits whose difference changes sign at an
    irrational point, so distances between them take the inexact path."""
    while True:
        f, g = poly_pieces(rng, m, 2), poly_pieces(rng, m, 2)
        for i, (p, q) in enumerate(zip(f, g)):
            c0, c1, c2 = (a - b for a, b in zip(p, q))
            disc = c1 * c1 - 4 * c2 * c0
            if c2 == 0 or disc <= 0 or _is_square(disc):
                continue
            roots = [(-float(c1) + s * math.sqrt(float(disc))) / (2 * float(c2)) for s in (1, -1)]
            if any(i / m < r < (i + 1) / m for r in roots):
                return poly_limit_obj(f), poly_limit_obj(g)


def linear_limit(rng: random.Random) -> dict:
    a = rng.randint(0, 4)
    b = rng.randint(1, 8 - a)  # a + b <= 8 keeps a + b*x inside [0, 1]
    return {"breakpoints": ["0", "1"],
            "pieces": [{"coeffs": [frac_s(Fraction(a, 8)), frac_s(Fraction(b, 8))]}]}


CONST_LIMIT = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["2/5"]}]}
LINEAR_LIMIT = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": ["1/4", "1/2"]}]}


def ternary_limit(rng: random.Random, m: int, q: int = 12) -> dict:
    vals = []
    for _ in range(m):
        a = rng.randint(0, q)
        b = rng.randint(0, q - a)
        vals.append((a, b, q - a - b))
    bps = [frac_s(Fraction(i, m)) for i in range(m + 1)]
    return {
        "alphabet": ["a", "b", "c"],
        "components": {
            letter: {
                "breakpoints": bps,
                "pieces": [{"coeffs": [frac_s(Fraction(v[j], q))]} for v in vals],
            }
            for j, letter in enumerate("abc")
        },
    }


def permutation(rng: random.Random, n: int) -> str:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return ",".join(map(str, p))


def grid(rng: random.Random, m: int, blend: int = 3) -> dict:
    mass = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(blend):
        p = list(range(m))
        rng.shuffle(p)
        for i in range(m):
            mass[i][p[i]] += Fraction(1, m * blend)
    return {"m": m, "mass": [[frac_s(v) for v in row] for row in mass]}


def dump(obj) -> str:
    return json.dumps(obj) + "\n"


# -- workloads -------------------------------------------------------------
#
# Each template is (name, kind, size, group, build).  build(rng, v) returns
# (argv, files, out, ident); rng is seeded by (workload, group, variant), so
# templates of one group see the same inputs.  What sets a job's cost (sizes,
# patterns, families, branch counts) is fixed by its template; variants
# differ only in random content, so every seed costs about the same.
#
# The mix of each pass is chosen so that the median job and the 90th
# percentile job fall inside a group of jobs of similar cost, not on a gap
# between two groups; otherwise job_p50_ms and job_tail_ms would jump
# between runs.

WORD_PATTERNS = {3: "011", 4: "0110", 5: "01101", 6: "011010"}
LIMIT_PATTERNS = {4: "0110", 6: "010110"}
TERNARY_PATTERNS = {4: "abca", 6: "abcabc"}


def sfx(c: int) -> str:
    return f".{c}" if c else ""


def _word_diagnostics():
    t = []

    def word_file(rng, g, v, n, p):
        return {f"{g}-{v}.txt": bernoulli_word(rng, n, p) + "\n"}

    def density_const(rng):
        return frac_s(Fraction(rng.choice((1, 3, 5, 7)), 8))

    def analyze(g, n, p):
        def build(rng, v):
            files = word_file(rng, g, v, n, p)
            argv = ["analyze", f"@{g}-{v}.txt", "--density", density_const(rng)]
            return argv, files, None, ("disc", g)
        return build

    def dbox_const(g, n, p):
        def build(rng, v):
            files = word_file(rng, g, v, n, p)
            const = {"breakpoints": ["0", "1"], "pieces": [{"coeffs": [density_const(rng)]}]}
            files[f"{g}-const-{v}.json"] = dump(const)
            argv = ["distance", f"@{g}-{v}.txt", f"@{g}-const-{v}.json", "--metric", "box"]
            return argv, files, None, ("dbox", g)
        return build

    def density(g, n, p, length):
        def build(rng, v):
            files = word_file(rng, g, v, n, p)
            argv = ["density", "--word", f"@{g}-{v}.txt", "--pattern", WORD_PATTERNS[length]]
            return argv, files, None, None
        return build

    def distance(g, n, metric):
        def build(rng, v):
            files = {f"{g}-a-{v}.txt": bernoulli_word(rng, n) + "\n",
                     f"{g}-b-{v}.txt": bernoulli_word(rng, n) + "\n"}
            argv = ["distance", f"@{g}-a-{v}.txt", f"@{g}-b-{v}.txt", "--metric", metric]
            return argv, files, None, None
        return build

    def tester(g, n, p, family, trials):
        def build(rng, v):
            files = word_file(rng, g, v, n, p)
            argv = ["--seed", str(101 + v), "test", "--word", f"@{g}-{v}.txt",
                    "--forbid", family, "--query-size", "24", "--trials", str(trials)]
            return argv, files, None, None
        return build

    for n in (1000, 4000):
        t.append((f"analyze-n{n}", "analyze", n, f"w{n}", analyze(f"w{n}", n, 0.5)))
        t.append((f"distance-box-const-n{n}", "distance-box", n, f"w{n}",
                  dbox_const(f"w{n}", n, 0.5)))
    # densities on 16000-letter words are the median job; the many light
    # jobs put the 90th percentile inside the medium group (prefix, analyze
    # on 1000 letters, three 4000-letter box distances); it would sit on the
    # group's edge with one
    for n, ps in ((1000, (0.5, 0.3)), (4000, (0.5, 0.3)), (16000, (0.5, 0.3, 0.7, 0.4, 0.6))):
        for c, p in enumerate(ps):
            g = f"w{n}{sfx(c)}"
            for length in WORD_PATTERNS:
                t.append((f"density-n{n}-l{length}{sfx(c)}", "density-word", n, g,
                          density(g, n, p, length)))
    for n, copies in ((1000, 3), (4000, 3), (16000, 1)):
        for c in range(copies):
            g = f"ab{n}{sfx(c)}"
            t.append((f"distance-box-n{n}{sfx(c)}", "distance-box", n, g, distance(g, n, "box")))
    for metric in ("l1", "prefix"):
        t.append((f"distance-{metric}-n1000", f"distance-{metric}", 1000, "ab1000",
                  distance("ab1000", 1000, metric)))
    for n, family, trials in ((1000, "101,0110", 200), (4000, "110,0101", 200),
                              (16000, "0110,1001", 100)):
        t.append((f"test-n{n}", "test", n, f"w{n}", tester(f"w{n}", n, 0.5, family, trials)))
    return t


def _limit_calculus():
    t = []

    def one_file(g, make, argv_of):
        def build(rng, v):
            f = f"{g}-{v}.json"
            return argv_of(f"@{f}"), {f: dump(make(rng))}, None, None
        return build

    def density(g, make, pat):
        return one_file(g, make, lambda f: ["density", "--limit", f, "--pattern", pat])

    def forcibility(g, m):
        def build(rng, v):
            f, h = f"{g}-f-{v}.json", f"{g}-h-{v}.json"
            files = {f: dump(two_branch_step(rng, m)), h: dump(two_branch_step(rng, m))}
            return ["forcibility", "--limit", f"@{f}", "--candidate", f"@{h}"], files, None, ("forced", g)
        return build

    def distance(g, make_pair, metric):
        def build(rng, v):
            a, b = f"{g}-a-{v}.json", f"{g}-b-{v}.json"
            fa, fb = make_pair(rng)
            return ["distance", f"@{a}", f"@{b}", "--metric", metric], {a: dump(fa), b: dump(fb)}, None, None
        return build

    # 256-piece step densities and forcibility certificates are the 90th
    # percentile group
    for m, copies in ((8, 2), (64, 1), (256, 2)):
        for c in range(copies):
            g = f"s{m}{sfx(c)}"
            for length, pat in LIMIT_PATTERNS.items():
                t.append((f"density-step{m}-l{length}{sfx(c)}", "density-limit", m, g,
                          density(g, lambda rng, m=m: step_limit(rng, m), pat)))
    for m, degree in ((4, 2), (4, 3), (8, 3)):
        g = f"p{m}d{degree}"
        for length, pat in LIMIT_PATTERNS.items():
            t.append((f"density-poly{m}d{degree}-l{length}", "density-limit", m, g,
                      density(g, lambda rng, m=m, d=degree: poly_limit(rng, m, d), pat)))
    # ternary densities with 6-letter patterns are the median job: their
    # cost hardly depends on the variant, unlike the distances next to them
    for length, copies in ((4, 1), (6, 7)):
        for c in range(copies):
            g = f"t16{sfx(c)}"
            t.append((f"density-ternary16-l{length}{sfx(c)}", "density-limit", 16, g,
                      density(g, lambda rng: ternary_limit(rng, 16), TERNARY_PATTERNS[length])))
    for m, copies in ((2, 2), (3, 2)):
        for c in range(copies):
            g = f"fc{m}{sfx(c)}"
            t.append((f"forcibility-step{m}{sfx(c)}", "forcibility", m, g, forcibility(g, m)))
    for m in (16, 64):
        for eps in ("1/10", "1/20"):
            t.append((f"regularize-step{m}-eps{eps[2:]}", "regularize", m, f"r{m}",
                      one_file(f"r{m}", lambda rng, m=m: step_limit(rng, m, 8, irregular=True),
                               lambda f, eps=eps: ["regularize", "--limit", f, "--eps", eps])))
    pairs = {
        (4, 2): lambda rng: crossing_quadratic_pair(rng, 4),
        (4, 3): lambda rng: (poly_limit(rng, 4, 3), poly_limit(rng, 4, 3)),
        (8, 3): lambda rng: (poly_limit(rng, 8, 3), poly_limit(rng, 8, 3)),
    }
    for (m, degree), make_pair in pairs.items():
        g = f"pp{m}d{degree}"
        for metric in ("box", "l1", "prefix"):
            t.append((f"distance-{metric}-poly{m}d{degree}", f"distance-{metric}", m, g,
                      distance(g, make_pair, metric)))
    return t


def _monte_carlo():
    t = []

    def sample(g, which, n, count):
        def build(rng, v):
            f = f"{g}-{v}.json"
            lim = step_limit(rng, 6, 8) if which == "step" else linear_limit(rng)
            argv = ["--seed", str(301 + v), "sample", "--limit", f"@{f}",
                    "--length", str(n), "--count", str(count)]
            return argv, {f: dump(lim)}, None, None
        return build

    def experiment(g, spec):
        def build(rng, v):
            spec_v = dict(spec, name="e0")
            if spec_v["kind"] == "subsequence_tail":
                spec_v["word"] = bernoulli_word(rng, spec_v.pop("n"))  # inline literal
            bname = f"{g}-batch-{v}.json"
            argv = ["--seed", str(501 + v), "experiment", f"@{bname}", "--out", f"@out-{g}"]
            return argv, {bname: dump({"experiments": [spec_v]})}, f"out-{g}", None
        return build

    # sample jobs are the median, which falls in the middle of the five
    # linear samples of two words; the experiments are the 90th percentile
    for which, count, copies in (("step", 2, 3), ("step", 4, 3), ("linear", 2, 5), ("linear", 4, 3)):
        for c in range(copies):
            g = f"smp-{which}-c{count}.{c}"
            t.append((f"sample-{which}-n1000-c{count}.{c}", "sample", count, g,
                      sample(g, which, 1000, count)))
    specs = {
        "tail-const": {"kind": "tail_dbox", "limit": CONST_LIMIT, "n": 400, "a": 0.05, "trials": 26},
        "tail-linear": {"kind": "tail_dbox", "limit": LINEAR_LIMIT, "n": 400, "a": 0.05, "trials": 4},
        "subsequence-tail": {"kind": "subsequence_tail", "n": 2000, "length": 200, "eps": 0.2,
                             "trials": 5},
        "tester-curve": {"kind": "tester_curve", "forbid": ["110", "0101"], "n": 300,
                         "query_size": 20, "distances": ["0", "1/20", "1/10"], "trials": 100},
    }
    for name, spec in specs.items():
        t.append((f"experiment-{name}", "experiment", spec["n"], f"x-{name}",
                  experiment(f"x-{name}", spec)))
    return t


def _permutons():
    t = []

    def density_perm(g, n, k):
        def build(rng, v):
            return (["permuton", "density", "--perm", permutation(rng, n),
                     "--pattern", permutation(rng_for("tau", g, k, v), k)], {}, None, None)
        return build

    def pair(g, n, k, via):
        def build(rng, v):
            sigma = permutation(rng, n)
            tau = permutation(rng_for("tau", g, k, v), k)
            return (["permuton", "density", f"--{via}", sigma, "--pattern", tau], {}, None,
                    ("perm-grid", g, via, n, k))
        return build

    def density_grid(g, m, k, trials=None):
        def build(rng, v):
            f = f"{g}-{v}.json"
            argv = ["permuton", "density", "--grid", f"@{f}",
                    "--pattern", permutation(rng_for("tau", g, k, v), k)]
            if trials:
                argv = ["--seed", str(701 + v)] + argv + ["--trials", str(trials)]
            return argv, {f: dump(grid(rng, m))}, None, None
        return build

    def distance(g, ma, mb):
        def build(rng, v):
            a, b = f"{g}-a-{v}.json", f"{g}-b-{v}.json"
            files = {a: dump(grid(rng, ma)), b: dump(grid(rng, mb))}
            return ["permuton", "distance", f"@{a}", f"@{b}"], files, None, None
        return build

    def sample(g, m, size, count):
        def build(rng, v):
            f = f"{g}-{v}.json"
            argv = ["--seed", str(901 + v), "permuton", "sample", "--grid", f"@{f}",
                    "--size", str(size), "--count", str(count)]
            return argv, {f: dump(grid(rng, m))}, None, None
        return build

    # enumeration over all C(n, k) index sets: the three slowest jobs
    for k, n, copies in ((3, 50, 3), (3, 100, 1), (3, 150, 1), (4, 30, 5), (4, 60, 1)):
        for c in range(copies):
            g = f"pp{k}-{n}.{c}"
            t.append((f"density-perm-k{k}-n{n}.{c}", "density-perm", n, g, density_perm(g, n, k)))
    for n in (20, 30):
        g = f"pg{n}"
        t.append((f"identity-perm-n{n}", "density-perm", n, g, pair(g, n, 3, "perm")))
        t.append((f"identity-grid-m{n}", "density-grid", n, g, pair(g, n, 3, "grid")))
    for k, m, copies in ((2, 10, 1), (3, 10, 1), (2, 20, 1), (3, 20, 4), (2, 30, 2), (3, 30, 3),
                         (4, 4, 1), (4, 6, 1)):
        for c in range(copies):
            g = f"g{m}.{c}"
            t.append((f"density-grid-k{k}-m{m}.{c}", "density-grid", m, g, density_grid(g, m, k)))
    # Monte Carlo densities are the median job
    for k in (4, 5):
        for c in range(4):
            g = f"g30.{c}"
            t.append((f"density-mc-k{k}-m30.{c}", "density-mc", k, g, density_grid(g, 30, k, 20000)))
    # distances that refine m = 30 and m = 20 to a 60-grid are the 90th percentile
    for ma, mb, copies in ((10, 10, 1), (12, 8, 2), (20, 20, 2), (30, 20, 5)):
        for c in range(copies):
            g = f"d{ma}x{mb}.{c}"
            t.append((f"distance-m{ma}-m{mb}.{c}", "distance", ma * mb, g, distance(g, ma, mb)))
    for count, copies in ((10, 2), (40, 4)):
        for c in range(copies):
            g = f"g30.{c}"
            t.append((f"sample-m30-c{count}.{c}", "sample", count, g, sample(g, 30, 5, count)))
    return t


WORKLOADS = {
    "word-diagnostics": _word_diagnostics,
    "limit-calculus": _limit_calculus,
    "monte-carlo": _monte_carlo,
    "permutons": _permutons,
}


def build_job(workload: str, template, v: int) -> Job:
    name, kind, size, group, build = template
    argv, files, out, ident = build(rng_for(workload, group, v), v)
    return Job(name=name, kind=kind, size=size, argv=argv, files=files, out=out, ident=ident)


def jobs_for_seed(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for one seed, in the order they run."""
    templates = WORKLOADS[workload]()
    pick: dict[str, int] = {}
    jobs = []
    for tpl in templates:
        group = tpl[3]
        if group not in pick:
            pick[group] = rng_for("pick", workload, seed, group).randrange(VARIANTS)
        jobs.append(build_job(workload, tpl, pick[group]))
    rng_for("order", workload, seed).shuffle(jobs)
    return jobs


def all_variant_jobs(workload: str):
    """Every (template, variant) job, for recording the reference."""
    for tpl in WORKLOADS[workload]():
        for v in range(VARIANTS):
            yield build_job(workload, tpl, v)
