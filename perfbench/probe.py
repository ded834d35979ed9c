"""Set-up probe: a fresh interpreter imports seqlimit.cli and runs a list
of jobs once each, as a user invoking the CLI would.

    python3 perfbench/probe.py JOBS.json

JOBS.json holds [[argv, output dir or null], ...] with paths relative to
the checkout root, which is the working directory.  Prints one JSON list
of [exit code, output digest] per job.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def execute(dispatch, argv: list[str], out_dir: str | None) -> tuple[int, str, str, float]:
    """Run one CLI job in this process.  Returns (exit code, digest of
    stdout and of every file the job wrote, stdout text, seconds spent
    in dispatch)."""
    if out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = dispatch(argv)
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    h = hashlib.sha256(text.encode())
    if out_dir and Path(out_dir).is_dir():
        for p in sorted(Path(out_dir).iterdir()):
            h.update(b"\0" + p.name.encode() + b"\0" + p.read_bytes())
    return code, h.hexdigest()[:24], text, seconds


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from seqlimit.cli import dispatch

    jobs = json.loads(Path(sys.argv[1]).read_text())
    results = []
    for argv, out_dir in jobs:
        code, digest, _, _ = execute(dispatch, argv, out_dir)
        results.append([code, digest])
    print(json.dumps(results))


if __name__ == "__main__":
    main()
