"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check the seeded generator, the tail-percentile rule, the scaling
of job times to the reference host speed, the correctness gate, and
that tracing fires the named spans on each workload without changing
any job's output.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, jobs_for_seed  # noqa: E402

# Per-layer metrics that must be nonzero on each workload.
EXPECTED = {
    "word-diagnostics": (
        "cli.self_s", "serialize.self_s", "serialize.bytes_in", "serialize.bytes_out",
        "serialize.den_bits_max", "words.self_s", "words.letters_scanned", "words.words_built",
        "uniformity.self_s", "uniformity.discrepancy_per_best_uniformity", "piecewise.self_s",
        "piecewise.arith.calls", "piecewise.antiderivative.calls", "hereditary.self_s",
        "hereditary.state_bound", "hereditary.tester_trials", "streams.generators_created",
    ),
    "limit-calculus": (
        "poly.self_s", "poly.pmul.calls", "poly.real_roots.calls", "poly.approx_roots",
        "piecewise.self_s", "piecewise.arith.calls", "piecewise.arith.pieces_in",
        "piecewise.arith.pieces_out", "piecewise.antiderivative.calls", "piecewise.float_results",
        "moments.self_s", "moments.densities_computed", "moments.certificate_words",
        "regularity.self_s", "regularity.rounds", "regularity.extremal_interval.calls",
        "serialize.bytes_in", "serialize.den_bits_max",
    ),
    "monte-carlo": (
        "words.self_s", "words.words_built", "piecewise.self_s", "piecewise.arith.calls",
        "sampling.self_s", "sampling.letters_generated", "streams.generators_created",
        "hereditary.self_s", "hereditary.tester_trials", "hereditary.state_bound",
        "hereditary.accept_ratio",
    ),
    "permutons": (
        "permutons.self_s", "permutons.index_sets_enumerated", "permutons.grid_cells",
        "permutons.mc_trials", "serialize.bytes_in", "serialize.den_bits_max", "cli.self_s",
    ),
}


@pytest.fixture
def work():
    path = run.WORK / f"test-{id(object())}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_seed_fixes_the_inputs():
    for workload in WORKLOADS:
        a = jobs_for_seed(workload, 7)
        b = jobs_for_seed(workload, 7)
        c = jobs_for_seed(workload, 8)
        assert [(j.argv, j.files) for j in a] == [(j.argv, j.files) for j in b]
        assert [(j.argv, j.files) for j in a] != [(j.argv, j.files) for j in c]
        # every seed runs the same mix of job templates
        assert sorted(j.name for j in a) == sorted(j.name for j in c)


def test_jobs_of_a_seed_agree_on_shared_inputs(work):
    for workload in WORKLOADS:
        for seed in range(10):
            run.write_inputs(jobs_for_seed(workload, seed), work)


def test_every_variant_has_a_reference():
    ref = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in WORKLOADS:
        for seed in range(3):
            for job in jobs_for_seed(workload, seed):
                assert run.job_key(job) in ref[workload], (workload, job.name)


def test_tail_percentile_rule():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    xs = [float(x) for x in range(1, 38)]
    for p in (50, 75, 90):
        assert run.percentile(xs, p) == pytest.approx(
            statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
        )


def test_times_are_scaled_to_the_reference_speed(work):
    bench = run.Bench("limit-calculus", 0, work)
    for job in bench.jobs[:7]:
        bench.run_job(job, timed=True)
    assert bench.failed == 0, bench.failures
    assert len(bench.wall_latencies) == len(bench.ref_ms) == 7 and min(bench.ref_ms) > 0
    refs, walls = bench.ref_ms, bench.wall_latencies
    scaled = bench.latencies()
    # each job is scaled by the median loop time of itself and two neighbours on each side
    assert scaled[0] == pytest.approx(walls[0] * run.REF_MS / statistics.median(refs[:3]))
    assert scaled[3] == pytest.approx(walls[3] * run.REF_MS / statistics.median(refs[1:6]))
    assert scaled[6] == pytest.approx(walls[6] * run.REF_MS / statistics.median(refs[4:]))


def test_gate_counts_wrong_outputs(work):
    bench = run.Bench("limit-calculus", 0, work)
    job = bench.jobs[0]
    assert not bench.check(job, 0, "0" * 24)
    assert bench.failed == 1 and bench.attempted == 1
    forced = [j.name for j in bench.jobs if j.ident]
    bench.outputs = {name: json.dumps({"residual_self": "1/2"}) for name in forced}
    bench.identities()
    assert bench.failed == 1 + len(forced)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_fires_spans_and_keeps_output(workload, work):
    bench = run.Bench(workload, 0, work)
    bench.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failed == 0, bench.failures
    # stdout and written files are byte-identical with tracing on and off
    assert all(len(d) == 1 for d in bench.digests.values())
    bench.identities()
    assert bench.failed == 0, bench.failures
    layers = tracer.summary(1)
    missing = [name for name in EXPECTED[workload] if not layers[name][0] > 0]
    assert not missing
    # untraced again: the originals are back in place
    spans = tracer.span_count()
    bench.run_pass()
    assert tracer.span_count() == spans


def test_counts_repeat_exactly(work):
    bench = run.Bench("monte-carlo", 3, work)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            bench.run_pass(tracer)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in tracer.summary(1).items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
