"""One workload in one fresh process: closed-loop rounds of qmemchan CLI commands.

    python3 perfbench/worker.py --workload mi_n10 --seed 1 --seconds 30 \
        --trace 0 --out-dir perfbench/_out

``qmemchan`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).  The
worker calls ``qmemchan.cli.main`` once per operation with stdout captured,
times each call, then checks its output outside the timed region.  It keeps
starting rounds while the next one should end within ``--seconds`` (at least
one round).  With ``--trace 1`` every round runs twice on the same inputs,
once untraced and once with spans at the layer bindings, alternating which
goes first.  The report is one JSON object on stdout; spans go to a
JSON-lines file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

import qmemchan.cli as cli
import spans
import workloads


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(op: workloads.Op, work_dir: Path, tracer: spans.Tracer | None) -> dict:
    """Run one CLI command, timed; then check it.  Never raises."""
    fig_dir = work_dir / "figures"
    argv = [str(fig_dir) if arg == "{out}" else arg for arg in op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        spans.install(tracer)
    root = tracer.span("cli") if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with root as span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        exit_code = exc.code
    except Exception:  # a crash is a failed operation, not a failed benchmark
        exit_code, error = None, traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
        tracer.op += 1
    text = stdout.getvalue()
    bytes_out = len(text.encode())
    if op.kind == "figures" and fig_dir.is_dir():
        bytes_out += sum(path.stat().st_size for path in fig_dir.iterdir())
    if tracer is not None:
        span.info["bytes_out"] = bytes_out
    if error is None:
        try:
            workloads.check(op, exit_code, text, fig_dir)
        except Exception as exc:  # output too malformed to check also fails the operation
            error = f"{type(exc).__name__}: {exc}"
    if fig_dir.is_dir():
        shutil.rmtree(fig_dir)
    return {"argv": ["qmemchan", *op.argv], "traced": tracer is not None, "exit": exit_code,
            "seconds": seconds, "failed": error is not None, "error": error,
            "stderr": stderr.getvalue()[-500:]}


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    tracer = spans.Tracer() if trace else None
    passes = (None, tracer) if trace else (None,)
    untraced_s: list[float] = []
    traced_s: list[float] = []
    ops: list[dict] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    start = time.perf_counter()
    last_round = 0.0
    try:
        for index, batch in enumerate(workloads.rounds(workload, seed)):
            round_start = time.perf_counter()
            # start no round that would likely end after the deadline
            if index and round_start - start + last_round > seconds:
                break
            for pass_tracer in (passes if index % 2 == 0 else passes[::-1]):
                records = [run_op(op, work_dir, pass_tracer) for op in batch]
                ops.extend(records)
                took = sum(record["seconds"] for record in records)
                (untraced_s if pass_tracer is None else traced_s).append(took)
            last_round = time.perf_counter() - round_start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report = {
        "workload": workload,
        "seed": seed,
        "round_s": untraced_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if trace:
        span_file = out_dir / f"spans-{workload}-s{seed}.jsonl"
        span_file.write_text("".join(json.dumps(asdict(s)) + "\n" for s in tracer.spans))
        report["traced_round_s"] = traced_s
        report["layers"] = spans.layer_metrics(tracer.spans, traced_s, untraced_s)
        report["span_file"] = str(span_file)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
