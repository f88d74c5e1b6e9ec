"""Seeded workload inputs and the correctness check of every operation.

A workload is a closed loop of rounds; a round is a list of ``Op``, each one
``qmemchan`` CLI command.  Parameters are drawn like the test suite's
``random_params``: mu uniform, then x0, x1 uniform over the CP range
[-1/3, 1]; the CLI gets a = x0 + x1 and d = x0 - x1 as ``repr`` strings, so
the floats it parses are exactly the floats drawn.  They are passed as
``--a=<value>``: argparse reads a separate ``-8.25e-05`` as an option name.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmemchan import ChannelParams, FlipProcess, block_entropy

X_MIN = -1.0 / 3.0
FIGURE_HASHES = Path(__file__).with_name("figure_hashes.json")

SWEEPS_PER_ROUND = 4
SWEEP_STEPS = 19
SWEEP_N_MAX = 16
MI_N = 10
RATE_N_MAX = 22
VALUE_TOL = 1e-10


class CheckFailed(Exception):
    """An operation's output or exit code is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect_exit: int


def _draw(rng, mu_lo: float, mu_hi: float, min_gap: float = 0.0):
    """(mu, a, d) with x0, x1 in the CP range and |x0 - x1| >= min_gap."""
    mu = float(rng.uniform(mu_lo, mu_hi))
    while True:
        x0, x1 = (float(x) for x in rng.uniform(X_MIN, 1.0, size=2))
        if abs(x0 - x1) >= min_gap:
            return mu, x0 + x1, x0 - x1


def _point_flags(mu, a, d) -> tuple[str, ...]:
    return (f"--mu={mu!r}", f"--a={a!r}", f"--d={d!r}")


def _paper_batch(rng) -> list[Op]:
    ops = [Op("figures", ("figures", "--out", "{out}"), 0)]
    for _ in range(SWEEPS_PER_ROUND):
        _, a, d = _draw(rng, -0.95, 0.95)
        argv = ("sweep", "--axis", "mu", "--lo", "-0.95", "--hi", "0.95",
                "--steps", str(SWEEP_STEPS), f"--a={a!r}", f"--d={d!r}",
                "--quantity", "bound", "--n-max", str(SWEEP_N_MAX), "--tolerance", "1e-6")
        ops.append(Op("sweep", argv, 0))
    return ops


def _mi_n10(rng) -> list[Op]:
    argv = ("mutual-info", *_point_flags(*_draw(rng, -0.95, 0.95)),
            "--n", str(MI_N), "--families", "all", "--format", "json")
    return [Op("mutual_info", argv, 0)]


def _rate_n22(rng) -> list[Op]:
    argv = ("entropy-rate", *_point_flags(*_draw(rng, 0.97, 0.99, min_gap=0.5)),
            "--n-max", str(RATE_N_MAX), "--tolerance", "1e-9")
    return [Op("entropy_rate", argv, 3)]


ROUNDS = {"paper_batch": _paper_batch, "mi_n10": _mi_n10, "rate_n22": _rate_n22}


def rounds(workload: str, seed: int):
    """Endless stream of rounds; the same seed gives the same stream."""
    rng = np.random.default_rng(seed)
    make = ROUNDS[workload]
    while True:
        yield make(rng)


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------


def _flag(argv, name: str) -> str:
    """The value of ``name``, given as ``name value`` or ``name=value``."""
    for index, arg in enumerate(argv):
        if arg == name:
            return argv[index + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def figure_digests(out_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def check_figures(out_dir: Path) -> None:
    expected = json.loads(FIGURE_HASHES.read_text())
    got = figure_digests(out_dir)
    wrong = sorted(name for name in expected.keys() | got.keys()
                   if expected.get(name) != got.get(name))
    _require(not wrong, f"figure files differ from the reference: {wrong}")


def check_sweep(argv, stdout: str) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    steps = int(_flag(argv, "--steps"))
    grid = [row for row in rows if row["row_type"] == "grid"]
    _require(len(grid) == steps == len(rows), f"{len(rows)} rows, {len(grid)} grid, want {steps}")
    for row in grid:
        if row["valid"] == "1":
            _require(float(row["bound"]) >= float(row["c_prod_upper"]),
                     f"bound {row['bound']} < c_prod_upper {row['c_prod_upper']}")


def check_mutual_info(argv, stdout: str) -> None:
    record = json.loads(stdout)
    n = int(_flag(argv, "--n"))
    found = {row["family"]: row["i_n"] for row in record["rows"]}
    _require(sorted(found) == sorted(("product", "ghz", "w", "max_entangled")),
             f"families {sorted(found)}")
    for family, i_n in found.items():
        _require(-VALUE_TOL <= i_n <= n + VALUE_TOL, f"{family} I_n = {i_n!r} outside [0, {n}]")
    params = ChannelParams(mu=float(_flag(argv, "--mu")), a=float(_flag(argv, "--a")),
                           d=float(_flag(argv, "--d")))
    oracle = n - block_entropy(FlipProcess.from_params(params), n)
    _require(abs(found["product"] - oracle) <= VALUE_TOL,
             f"product I_n = {found['product']!r}, n - block_entropy = {oracle!r}")


def check_entropy_rate(argv, stdout: str) -> None:
    record = json.loads(stdout)
    _require(record["converged"] is False, "converged at n_max; expected not converged")
    _require(record["n_used"] == int(_flag(argv, "--n-max")), f"n_used = {record['n_used']}")
    _require(record["lower"] <= record["upper"], f"lower {record['lower']} > upper {record['upper']}")
    _require(record["bracket_monotone"] is True, "bracket not monotone")
    _require(record["capacity_upper_bound"] >= record["c_prod_bracket"][1],
             "capacity_upper_bound below the product-state upper bracket")


def check(op: Op, exit_code: int, stdout: str, out_dir: Path) -> None:
    """Raise CheckFailed unless the operation exited and printed as expected."""
    _require(exit_code == op.expect_exit, f"exit {exit_code}, expected {op.expect_exit}")
    if op.kind == "figures":
        check_figures(out_dir)
    elif op.kind == "sweep":
        check_sweep(op.argv, stdout)
    elif op.kind == "mutual_info":
        check_mutual_info(op.argv, stdout)
    else:
        check_entropy_rate(op.argv, stdout)
