"""Seeded end-to-end benchmark of the seqlimit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/reference.json

Workloads are defined in workloads.py.  A run generates the workload's
jobs from the seed, writes their input files under .perfbench_work/ in
the checkout and replays them as seqlimit.cli.dispatch(argv) calls, one
after another in this process: one client, closed loop.  The job list
is replayed whole, pass after pass, until --seconds have passed, so
every run measures the same mix of jobs.

Every job's exit code and a digest of its stdout (and of the files an
`experiment` job writes) must equal the reference recorded from the
seed code; each workload also checks one exact dual-path identity.  A
mismatch is a failed job, never a fast one.

--trace 0 reports the end-to-end metrics: jobs_per_s (correct jobs per
second spent in dispatch), job_p50_ms, job_tail_ms, peak_rss_mb and
setup_s.  Every run makes at least enough passes for 100 jobs, and
job_tail_ms is the highest percentile of TAIL_LADDER with at least
TAIL_BEYOND of those jobs beyond it (p90).  setup_s is the median wall
time of SETUP_REPEATS fresh interpreters that import seqlimit.cli and
run each job kind once on its smallest input (probe.py).  error_rate,
failed / attempted, is printed; it is 0 on correct code.

Job times are reported at a fixed host speed.  A shared host's speed
drifts by 20% and more over tens of seconds, more than any run length
can average out, so each timed job is preceded by reference_ms(), a
fixed pure-Python loop of the benchmark's own, and its wall time is
scaled by REF_MS / that loop's time (the median over a few neighbouring
jobs): the time the job would take on a host where the loop takes
REF_MS.  Process start and imports do not follow that loop's speed, so
each set-up probe is preceded instead by start_reference_s(), a fresh
interpreter that imports seqlimit's dependencies but not seqlimit, and
is scaled by START_REF_S / its time.  No change to seqlimit changes
either gauge, so a change in the program's cost still shows in full.
The unscaled figures and the gauges' median times are printed on the
line before the result.

--trace 1 alternates untraced and traced passes over the same jobs and
reports per-layer metrics per traced pass, from spans recorded around
the public functions of every seqlimit module (tracer.py), plus
trace.overhead_ratio.  The spans are saved to .perfbench_work/traces/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the run's
environment and details.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from probe import execute  # noqa: E402
from workloads import WORKLOADS, Job, all_variant_jobs, jobs_for_seed  # noqa: E402

SETUP_REPEATS = 5
REF_MS = 1.0  # reported times are scaled to a host where reference_ms() is this
REF_WINDOW = 2
START_REF_S = 0.25  # set-up times are scaled to a host where start_reference_s() is this
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile


def reference_ms() -> float:
    """Wall time in ms of a fixed loop of interpreter work, small
    allocations and Fraction arithmetic, the kind of work seqlimit does:
    a gauge of the host's current speed."""
    t0 = time.perf_counter()
    acc, seen, frac = 0, {}, Fraction(0)
    for i in range(3000):
        acc += (i * 7) % 13
        seen[i & 63] = [i, acc]
        if i % 50 == 0:
            frac += Fraction(i + 1, 7 * i + 3)
    return (time.perf_counter() - t0) * 1e3


def start_reference_s() -> float:
    """Wall time in s of a fresh interpreter that imports what seqlimit.cli
    imports, but not seqlimit: a gauge of the host's current speed at
    starting processes and importing modules."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, json, numpy"], check=True)
    return time.perf_counter() - t0


def job_key(job: Job) -> str:
    files = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in job.files.items()}
    blob = json.dumps([job.argv, files, job.out], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def write_inputs(jobs: list[Job], work: Path) -> None:
    written: dict[str, str] = {}
    for job in jobs:
        for name, text in job.files.items():
            if written.setdefault(name, text) != text:
                raise ValueError(f"two jobs write different inputs to {name}")
            (work / name).write_text(text)


def resolve(work: Path, arg: str) -> str:
    """An "@name" argument names a file in the work directory."""
    return str(work.relative_to(ROOT) / arg[1:]) if arg.startswith("@") else arg


def tail_percentile(min_jobs: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of min_jobs beyond it."""
    ok = [p for p in TAIL_LADDER if min_jobs * (100 - Fraction(str(p))) >= 100 * TAIL_BEYOND]
    return max(ok) if ok else TAIL_LADDER[0]


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        import seqlimit.cli as cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.jobs = jobs_for_seed(workload, seed)
        self.reference = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
        self.keys = {job.name: job_key(job) for job in self.jobs}
        write_inputs(self.jobs, work)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # per timed job: seconds in dispatch, the reference loop run just
        # before it, and its kind
        self.wall_latencies: list[float] = []
        self.ref_ms: list[float] = []
        self.timed_kinds: list[str] = []
        self.ok_jobs = 0
        self.outputs: dict[str, str] = {}  # first stdout of each job, for the identities
        self.digests: dict[str, set[str]] = {}

    # -- running jobs -----------------------------------------------------

    def argv(self, job: Job) -> list[str]:
        return [resolve(self.work, a) for a in job.argv]

    def out_dir(self, job: Job) -> str | None:
        return resolve(self.work, "@" + job.out) if job.out else None

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(msg)

    def check(self, job: Job, code: int, digest: str) -> bool:
        """Count one attempted job; True when it matches the reference."""
        self.attempted += 1
        expected = self.reference.get(self.keys[job.name])
        if expected is None:
            self.fail(f"{job.name}: no reference output for these inputs")
            return False
        if [code, digest] != expected:
            self.fail(f"{job.name}: got exit {code} digest {digest}, expected {expected}")
            return False
        return True

    def run_job(self, job: Job, timed: bool) -> None:
        """Run and check one job; timed jobs add their latency to the
        end-to-end figures."""
        ref = reference_ms() if timed else None
        try:
            code, digest, text, seconds = execute(
                lambda a: self.cli.dispatch(a), self.argv(job), self.out_dir(job)
            )
        except Exception as exc:  # a crash is a failed job; keep measuring
            self.attempted += 1
            self.fail(f"{job.name}: {type(exc).__name__}: {exc}")
            return
        ok = self.check(job, code, digest)
        self.digests.setdefault(job.name, set()).add(digest)
        if ok and job.name not in self.outputs:
            self.outputs[job.name] = text
        if timed:
            self.wall_latencies.append(seconds)
            self.ref_ms.append(ref)
            self.timed_kinds.append(job.kind)
            self.ok_jobs += ok

    def run_pass(self, tracer=None, first_job_id: int = 0) -> float:
        """One pass over the job list; returns its wall time, less the
        reference loops.  Latencies of traced passes are not kept: they
        include the tracer's cost."""
        refs = len(self.ref_ms)
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job_id = first_job_id + i
            self.run_job(job, timed=tracer is None)
        return time.perf_counter() - t0 - sum(self.ref_ms[refs:]) / 1e3

    def latencies(self) -> list[float]:
        """Timed job latencies in seconds, scaled to the host speed REF_MS by
        the median reference loop of the job and its REF_WINDOW neighbours
        on each side: one loop's time alone varies by 10% from the next."""
        refs = self.ref_ms
        return [
            wall * REF_MS / statistics.median(refs[max(i - REF_WINDOW, 0) : i + REF_WINDOW + 1])
            for i, wall in enumerate(self.wall_latencies)
        ]

    def setup_jobs(self) -> list[Job]:
        """The smallest job of each kind."""
        smallest: dict[str, Job] = {}
        for job in sorted(self.jobs, key=lambda j: (j.size, j.name)):
            smallest.setdefault(job.kind, job)
        return list(smallest.values())

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Wall times of fresh interpreters that import seqlimit.cli and run
        each job kind once on its smallest input, and of the
        start_reference_s() gauge run just before each."""
        jobs = self.setup_jobs()
        spec = self.work / "setup-jobs.json"
        spec.write_text(json.dumps([[self.argv(j), self.out_dir(j)] for j in jobs]))
        times, gauges = [], []
        for _ in range(SETUP_REPEATS):
            gauges.append(start_reference_s())
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), str(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=150,
            )
            times.append(time.perf_counter() - t0)
            try:
                results = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                results = None
            if proc.returncode != 0 or results is None or len(results) != len(jobs):
                for job in jobs:
                    self.attempted += 1
                    self.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            for job, (code, digest) in zip(jobs, results):
                self.check(job, code, digest)
        # warm this process the same way, untimed: imports and lazy set-up
        for job in jobs:
            self.run_job(job, timed=False)
        return times, gauges

    # -- dual-path identities --------------------------------------------

    def identities(self) -> None:
        doc = {name: json.loads(text) for name, text in self.outputs.items()}
        by_ident = {job.ident: job.name for job in self.jobs if job.ident}
        checks: list[tuple[str, bool]] = []
        if self.workload == "word-diagnostics":
            # d_box(f_w, const d) == discrepancy(w, d) / n
            for ident, name in by_ident.items():
                if ident[0] != "disc":
                    continue
                other = by_ident[("dbox", ident[1])]
                ok = name in doc and other in doc and (
                    Fraction(doc[name]["discrepancy"]) == Fraction(doc[other]["value"])
                )
                checks.append((f"{name} vs {other}: d_box(f_w, d) == disc(w, d)/n", ok))
        elif self.workload == "limit-calculus":
            for ident, name in by_ident.items():
                ok = name in doc and Fraction(doc[name]["residual_self"]) == 0
                checks.append((f"{name}: forcibility residual_self == 0", ok))
        elif self.workload == "monte-carlo":
            for job in self.jobs:
                ok = len(self.digests.get(job.name, ())) == 1
                checks.append((f"{job.name}: replays give identical bytes", ok))
        elif self.workload == "permutons":
            for ident, name in by_ident.items():
                _, g, via, n, k = ident
                if via != "perm":
                    continue
                other = by_ident[("perm-grid", g, "grid", n, k)]
                ok = name in doc and other in doc and abs(
                    Fraction(doc[name]["value"]) - Fraction(doc[other]["value"])
                ) <= Fraction(math.comb(k, 2), n)
                checks.append((f"{name} vs {other}: |t_perm - t_grid| <= C(k,2)/n", ok))
        for desc, ok in checks:
            self.attempted += 1
            if not ok:
                self.fail(f"identity failed: {desc}")


def record(workloads: list[str]) -> None:
    """Write the reference exit codes and digests for every variant job."""
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import seqlimit.cli as cli

    ref = {"workloads": {}}
    if REFERENCE.exists():
        ref = json.loads(REFERENCE.read_text())
    work = WORK / f"record-{os.getpid()}"
    for workload in workloads:
        table = {}
        for job in all_variant_jobs(workload):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            write_inputs([job], work)
            argv = [resolve(work, a) for a in job.argv]
            out_dir = resolve(work, "@" + job.out) if job.out else None
            code, digest, _, _ = execute(cli.dispatch, argv, out_dir)
            if code != 0:
                raise SystemExit(f"{workload}/{job.name}: exit {code}; workloads must not fail")
            table[job_key(job)] = [code, digest]
        ref["workloads"][workload] = dict(sorted(table.items()))
        print(f"{workload}: {len(table)} reference outputs", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    lines = []
    for i, (workload, table) in enumerate(sorted(ref["workloads"].items())):
        entries = ",\n".join(f'    "{k}": {json.dumps(v)}' for k, v in table.items())
        lines.append(f'  "{workload}": {{\n{entries}\n  }}' + ("," if i < len(ref["workloads"]) - 1 else ""))
    REFERENCE.write_text('{"workloads": {\n' + "\n".join(lines) + "\n}}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    args = ap.parse_args()

    if not (ROOT / "src" / "seqlimit" / "cli.py").is_file():
        print("perfbench: src/seqlimit not found in this checkout", file=sys.stderr)
        return 2
    if args.record:
        record([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if not args.workload:
        ap.error("--workload is required")

    load_start = loadavg_1m()
    os.chdir(ROOT)
    # build: byte-compile the sources so no run pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_walls, setup_gauges = bench.measure_setup()
        # enough passes that TAIL_BEYOND jobs lie beyond a 90th percentile
        min_passes = math.ceil(100 / len(bench.jobs))
        walls, layers, trace_detail = [], None, {}
        t0 = time.perf_counter()
        if args.trace:
            layers, trace_detail = run_traced(bench, args, walls)
        else:
            while len(walls) < min_passes or time.perf_counter() - t0 < args.seconds:
                walls.append(bench.run_pass())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.identities()

    lat = bench.latencies()
    if not lat:
        print(f"perfbench: no job completed; first failures: {bench.failures[:3]}", file=sys.stderr)
        return 1
    p_tail = tail_percentile(min_passes * len(bench.jobs))
    e2e = {
        "jobs_per_s": (bench.ok_jobs / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (percentile(lat, p_tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (
            statistics.median(w * START_REF_S / g for w, g in zip(setup_walls, setup_gauges)), "s"
        ),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "loadavg_1m": {"start": load_start, "end": loadavg_1m()},
        "error_rate": bench.failed / max(bench.attempted, 1),
        "failures": bench.failures,
        "jobs_per_pass": len(bench.jobs),
        "passes": len(walls),
        "jobs_timed": len(lat),
        "tail_percentile": p_tail,
        "jobs_beyond_tail": sum(1 for x in lat if x > percentile(lat, p_tail)),
        "setup_s_samples": [round(t, 6) for t in setup_walls],
        "reference_ms_p50": statistics.median(bench.ref_ms),
        "start_reference_s_p50": statistics.median(setup_gauges),
        "wall": {
            "jobs_per_s": bench.ok_jobs / sum(bench.wall_latencies),
            "job_p50_ms": statistics.median(bench.wall_latencies) * 1e3,
            "job_tail_ms": percentile(bench.wall_latencies, p_tail) * 1e3,
            "setup_s": statistics.median(setup_walls),
        },
        "kinds_p50_ms": {
            k: round(statistics.median(x for x, kind in zip(lat, bench.timed_kinds) if kind == k) * 1e3, 3)
            for k in sorted(set(bench.timed_kinds))
        },
        **trace_detail,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  error_rate {detail['error_rate']:.6g} ratio ({bench.failed} of {bench.attempted} failed)")
    for msg in bench.failures:
        print(f"  FAIL {msg}")
    if args.trace:
        print(f"  end to end, from the {len(walls)} untraced passes of this run:")
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "job_tail_ms":
            extra = f"  (p{p_tail:g} of {len(lat)} jobs, {detail['jobs_beyond_tail']} beyond)"
        print(f"  {name:<14} {value:.6g} {unit}{extra}")
    if layers:
        print_layers(layers)
    print(json.dumps(detail))
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def run_traced(bench: Bench, args, walls: list[float]) -> tuple[dict, dict]:
    """Alternate untraced and traced passes over the same jobs.  Returns
    per-layer metrics per traced pass and details of the trace."""
    from tracer import Tracer

    tracer = Tracer()
    traced = []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        walls.append(bench.run_pass())
        tracer.install()
        try:
            traced.append(bench.run_pass(tracer, len(traced) * len(bench.jobs)))
        finally:
            tracer.uninstall()
    layers = tracer.summary(len(traced))
    layers["trace.overhead_ratio"] = (sum(traced) / sum(walls), "ratio")
    trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.npz"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)
    return layers, {
        "passes_traced": len(traced),
        "spans": tracer.span_count(),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def print_layers(layers: dict) -> None:
    from tracer import LAYERS

    print(f"  per layer, per traced pass, by self time:")
    print(f"  {'layer':<12} {'calls':>12} {'self_s':>12} {'share':>7}")
    total = sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
    for layer in sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"][0]):
        self_s = layers[f"{layer}.self_s"][0]
        print(f"  {layer:<12} {layers[f'{layer}.calls'][0]:>12.0f} {self_s:>12.4f} "
              f"{self_s / total if total else 0:>7.1%}")
    for name, (value, unit) in layers.items():
        if name.split(".", 1)[1] not in ("calls", "self_s"):
            print(f"  {name:<44} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
