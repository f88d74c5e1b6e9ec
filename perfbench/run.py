"""qmemchan benchmark: three seeded closed-loop workloads of CLI commands.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ``src``.  Each
workload runs in a fresh child process (``worker.py``) with the BLAS and
OpenMP thread counts pinned.  With ``--trace 0`` the last stdout line is the
end-to-end result:

    setup_s      median wall time of fresh interpreters running
                 ``import qmemchan.cli`` (several per run)
    wall_s       median time of one round of the workload's operations
    peak_rss_mb  ru_maxrss of the child that ran the workload

With ``--trace 1`` it holds the per-layer metrics of ``spans.LAYER_UNITS``,
per traced round.  Lines before it list every operation (seed and generated
arguments), the failure ratio and the environment; the full record goes to
``perfbench/_out``.  Exits 1 if the workload could not be run and 2 if the
package sources are missing, printing no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WORKLOADS = ("paper_batch", "mi_n10", "rate_n22")
THREADS = 1
SETUP_SAMPLES = 10
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def setup_samples(env: dict, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import qmemchan.cli"], env=env, cwd=ROOT,
                       check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker still running after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def ops_failed_ratio(ops: list[dict]) -> float:
    """Operations that failed (wrong output, unexpected exit code, exception)
    over operations attempted."""
    return sum(op["failed"] for op in ops) / len(ops)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    env = child_env()
    # half the set-up samples before the workload and half after, so that
    # their median spans the run rather than one moment of machine load
    half = 0 if trace else SETUP_SAMPLES // 2
    setup = setup_samples(env, half)
    remaining = DEADLINE_S - (time.perf_counter() - started) - half * 2.0
    report = run_worker(workload, seed, seconds, trace, env, remaining)
    setup += setup_samples(env, half)
    ops = report["ops"]
    failed = sum(op["failed"] for op in ops)
    for index, op in enumerate(ops):
        status = "FAILED " + op["error"].splitlines()[-1] if op["failed"] else "ok"
        tag = " traced" if op["traced"] else ""
        print(f"op {index} exit={op['exit']} {op['seconds']:.4f}s{tag} {status}: "
              f"{shlex.join(op['argv'])}")
    rounds = report["round_s"]
    print(f"workload {workload} seed {seed} rounds {len(rounds)} ops {len(ops)} "
          f"env {json.dumps(report['env'])}")
    print(f"ops_failed_ratio {ops_failed_ratio(ops):.6g} ratio ({failed} of {len(ops)})")
    if trace:
        metrics = report["layers"]
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(rounds),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"setup_s median of {len(setup)}: {', '.join(f'{s:.4f}' for s in setup)}")
        print(f"wall_s median of {len(rounds)} rounds: {', '.join(f'{s:.4f}' for s in rounds)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    record = {"seed": seed, "seconds": seconds, "trace": trace, "setup_samples": setup,
              "metrics": metrics, "report": report}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-s{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "qmemchan" / "cli.py").is_file():
        print(f"run.py: no qmemchan sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
