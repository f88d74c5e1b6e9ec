"""Command-line driver: capacities, parameter sweeps, figure datasets.

Subcommands: two-qubit | sweep | entropy-rate | mutual-info | figures.
CSV output is byte-stable: fixed 12-significant-digit floats, LF endings,
deterministic row order.  Exit codes: 0 success, 2 invalid input or an
--out that cannot be written, 3 tolerance not reached (partial results
still printed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelParams
from .ensembles import (
    FAMILY_KINDS,
    InputFamily,
    basis_product,
    default_families,
    max_entangled_halves,
    orbit_mutual_information,
)
from .errors import InvalidParameterError, InvalidStateError
from .hmm_rate import (
    capacity_upper_bound,
    entropy_rate_bracket,  # noqa: F401 -- unused; perfbench's tracer wraps this binding
    markov_entropy_rate,
    product_state_capacity,
)
from .two_qubit import threshold_f, two_use_capacity

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TOLERANCE = 3

NAN = float("nan")
PREFIX = ["mu", "a", "d", "x0", "x1", "valid"]  # a point: its parameters and its CP flag


def _fmt(value) -> str:
    """Deterministic cell formatting: floats at 12 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")


def _write_csv(header, rows, out_path: str | None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write("\n".join(lines) + "\n", out_path)


def _write_json(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=2, allow_nan=False) + "\n", out_path)


def _resolve_params(args) -> ChannelParams:
    have_xs = args.x0 is not None or args.x1 is not None
    have_ad = args.a is not None or args.d is not None
    if have_xs and have_ad:
        raise InvalidParameterError("--x0/--x1 and --a/--d are mutually exclusive")
    if args.mu is None:
        raise InvalidParameterError("--mu is required")
    if have_xs:
        if args.x0 is None or args.x1 is None:
            raise InvalidParameterError("both --x0 and --x1 are required together")
        return ChannelParams.from_x(args.mu, args.x0, args.x1)
    if args.a is None or args.d is None:
        raise InvalidParameterError("both --a and --d are required (or use --x0/--x1)")
    return ChannelParams(mu=args.mu, a=args.a, d=args.d)


def _add_mu_a_d_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, help="Markov memory, in (-1, 1)")
    parser.add_argument("--a", type=float, help="x0 + x1")
    parser.add_argument("--d", type=float, help="x0 - x1")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    _add_mu_a_d_flags(parser)
    parser.add_argument("--x0", type=float, help="branch-0 retention (alternative to --a/--d)")
    parser.add_argument("--x1", type=float, help="branch-1 retention (alternative to --a/--d)")


def _parse_families(names: str, n: int) -> list[InputFamily]:
    """The named families on n qubits; building one refuses an unknown kind or
    an n above its cap, so this runs before any spectrum is computed.  A kind
    named twice is refused too."""
    if names == "all":
        return default_families(n)
    families = [InputFamily(kind=name.strip(), n=n) for name in names.split(",")]
    for family in families:
        if families.count(family) > 1:
            raise InvalidParameterError(f"family {family.kind!r} is named more than once")
    return families


def max_valid_d(a: float) -> float:
    """Largest-magnitude d keeping both x0 and x1 in [-1/3, 1] (positive sign);
    nan when a lies outside [-2/3, 2], where no valid d exists.

    The -d channel merely relabels the branches and has identical statistics
    under the symmetric chain.
    """
    d = min(2.0 - a, a + 2.0 / 3.0)
    return d if d >= 0.0 else NAN


def _prefix(mu: float, a: float, d: float, valid: bool) -> list:
    """The mu,a,d,x0,x1,valid cells of one point."""
    return [mu, a, d, (a + d) / 2.0, (a - d) / 2.0, valid]


def _record(params: ChannelParams) -> dict:
    """The prefix of a valid point as the head of a JSON record."""
    return dict(zip(PREFIX, _prefix(params.mu, params.a, params.d, True)))


def _point_row(lead: list, mu, a, d, columns: list[str], values_of, labels=(),
               allow_non_cp=False) -> list:
    """``lead``, the prefix of (mu, a, d), ``labels``, then ``columns`` picked by
    name from values_of(params).

    The columns are nan where (mu, a, d) is no valid channel or its output
    fails positivity (only possible with ``allow_non_cp``).  A point built
    with ``allow_non_cp`` is never flagged valid.
    """
    try:
        params = ChannelParams(mu=mu, a=a, d=d, allow_non_cp=allow_non_cp)
    except InvalidParameterError:
        params = None
    values = dict.fromkeys(columns, NAN)
    if params is not None:
        with contextlib.suppress(InvalidStateError):
            values = values_of(params)
    valid = params is not None and not allow_non_cp
    return [*lead, *_prefix(mu, a, d, valid), *labels, *(values[c] for c in columns)]


def _two_use_values(params: ChannelParams) -> dict:
    """Every two-use quantity of a point, keyed by its output column name."""
    r = two_use_capacity(params)
    return {
        "f": r.f,
        "lambda00": r.spectrum.lambda00,
        "lambda01": r.spectrum.lambda01,
        "lambda11": r.spectrum.lambda11,
        "c2_product": r.c2_product,
        "c2_entangled": r.c2_entangled,
        "capacity": r.capacity_bits_per_use,
        "optimal_family": r.optimal_family.value,
        "theta_star": r.theta_star,
        "i2_product": 2.0 * r.c2_product,
        "i2_entangled": 2.0 * r.c2_entangled,
        "per_use_product": r.c2_product,
        "per_use_entangled": r.c2_entangled,
    }


def _family_columns(families: list[InputFamily]) -> list[str]:
    return [f"{stat}_{family.kind}" for family in families for stat in ("i_n", "per_use")]


def _family_values(families: list[InputFamily], params: ChannelParams) -> dict:
    """i_n_<kind> and per_use_<kind> of each family at one point."""
    values = {}
    for family in families:
        mi = orbit_mutual_information(family, params)
        values.update({f"i_n_{family.kind}": mi.i_n, f"per_use_{family.kind}": mi.per_use})
    return values


def _crossovers(grid, point) -> list[tuple[int, float]]:
    """(index, axis value) of each sign change of f between grid[index] and
    grid[index + 1], bisected to 1e-13; point(value) gives (mu, a, d)."""

    def f_at(value: float) -> float:
        """f at one axis value, nan where it is no valid channel."""
        return _point_row([], *point(value), ["f"], lambda p: {"f": threshold_f(p)})[-1]

    f_values = [f_at(float(value)) for value in grid]
    found = []
    for index, (f_lo, f_hi) in enumerate(zip(f_values, f_values[1:])):
        if not f_lo * f_hi < 0.0:  # no sign change, or a point without a channel
            continue
        lo, hi = float(grid[index]), float(grid[index + 1])
        for _ in range(200):
            mid = (lo + hi) / 2.0
            f_mid = f_at(mid)
            if math.isnan(f_mid) or f_mid == 0.0:
                break
            if (f_mid < 0.0) == (f_lo < 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13:
                break
        found.append((index, (lo + hi) / 2.0))
    return found


# ----------------------------------------------------------------------------
# two-qubit
# ----------------------------------------------------------------------------

TWO_QUBIT_FIELDS = ["f", "lambda00", "lambda01", "lambda11", "c2_product", "c2_entangled",
                    "capacity", "optimal_family", "theta_star"]


def cmd_two_qubit(args) -> int:
    params = _resolve_params(args)
    values = _two_use_values(params)
    _write_json({**_record(params), **{key: values[key] for key in TWO_QUBIT_FIELDS}}, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

# quantity -> its columns; i_n adds i_n_<family>, per_use_<family> for each family
QUANTITY_COLUMNS = {
    "f": ["f"],
    "c2": ["f", "c2_product", "c2_entangled", "capacity", "optimal_family"],
    "i_n": ["f"],
    "c_prod": ["c_prod", "c_prod_lower", "c_prod_upper", "n_used", "converged"],
    "bound": ["bound", "c_prod_upper", "markov_rate"],
}


# options that only some quantities read: dest -> (flag, those quantities, default)
SWEEP_OPTIONS = {
    "n": ("--n", ("i_n",), 2),
    "families": ("--families", ("i_n",), "all"),
    "tolerance": ("--tolerance", ("c_prod", "bound"), 1e-4),
    "n_max": ("--n-max", ("c_prod", "bound"), 20),
}


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < math.inf:
        raise InvalidParameterError(f"--tolerance {tolerance} must be finite and >= 0")


def _sweep_values(args, families: list[InputFamily], params: ChannelParams) -> dict:
    """The quantity cells of one valid grid point, keyed by column name."""
    if args.quantity == "c2":
        return _two_use_values(params)
    if args.quantity in ("f", "i_n"):
        return {"f": threshold_f(params), **_family_values(families, params)}
    est = product_state_capacity(params, n_max=args.n_max, tolerance=args.tolerance)
    return {
        "c_prod": est.capacity,
        "c_prod_lower": est.lower,
        "c_prod_upper": est.upper,
        "n_used": est.n_used,
        "converged": est.converged,
        "bound": capacity_upper_bound(params, estimate=est),
        "markov_rate": markov_entropy_rate(params.memory),
    }


def cmd_sweep(args) -> int:
    for dest, (flag, quantities, default) in SWEEP_OPTIONS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.quantity not in quantities:
            raise InvalidParameterError(f"{flag} is read only by --quantity "
                                        f"{'/'.join(quantities)}, not {args.quantity}")
    if not -math.inf < args.lo < args.hi < math.inf:
        raise InvalidParameterError(f"--lo {args.lo} and --hi {args.hi} must be finite, lo < hi")
    if args.steps < 2:
        raise InvalidParameterError(f"--steps {args.steps} must be >= 2")
    _check_tolerance(args.tolerance)
    for name in ("mu", "a"):
        if name != args.axis and getattr(args, name) is None:
            raise InvalidParameterError(f"--{name} must be fixed when sweeping {args.axis}")
    if args.d_mode == "max_valid" and (args.axis == "d" or args.d is not None):
        raise InvalidParameterError("--d-mode max_valid sets d itself: it takes no --d "
                                    "and cannot sweep the d axis")
    if args.axis != "d" and args.d is None and args.d_mode != "max_valid":
        raise InvalidParameterError("--d must be fixed (or use --d-mode max_valid)")
    families = _parse_families(args.families, args.n) if args.quantity == "i_n" else []
    columns = QUANTITY_COLUMNS[args.quantity] + _family_columns(families)

    values_of = functools.partial(_sweep_values, args, families)

    def point(value: float):
        """(mu, a, d) at one axis value; d is nan where max_valid finds none."""
        fixed = {"mu": args.mu, "a": args.a, "d": args.d, args.axis: value}
        if args.d_mode == "max_valid":
            fixed["d"] = max_valid_d(fixed["a"])
        return fixed["mu"], fixed["a"], fixed["d"]

    def row(row_type: str, index: int, value: float) -> list:
        return _point_row([row_type, index], *point(value), columns, values_of)

    grid = np.linspace(args.lo, args.hi, args.steps)
    rows = [row("grid", index, float(value)) for index, value in enumerate(grid)]
    if args.quantity in ("f", "c2"):
        for inserted, (index, value) in enumerate(_crossovers(grid, point)):
            rows.insert(index + 1 + inserted, row("crossover", index, value))
    header = ["row_type", "index", *PREFIX, *columns]
    if args.format == "json":
        def jsonable(cell):
            if isinstance(cell, bool):
                return int(cell)
            if isinstance(cell, float) and math.isnan(cell):
                return None
            return cell

        obj = {"axis": args.axis, "quantity": args.quantity, "columns": header,
               "rows": [[jsonable(cell) for cell in row] for row in rows]}
        _write_json(obj, args.out)
    else:
        _write_csv(header, rows, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entropy-rate
# ----------------------------------------------------------------------------


def cmd_entropy_rate(args) -> int:
    _check_tolerance(args.tolerance)
    params = _resolve_params(args)
    est = product_state_capacity(params, n_max=args.n_max, tolerance=args.tolerance)
    # the conditional-entropy brackets, n = 2..n_used, must each nest in the last
    brackets = est.brackets[1:]
    monotone = all(b.upper <= a.upper + 1e-12 and b.lower >= a.lower - 1e-12
                   for a, b in zip(brackets, brackets[1:]))
    record = {
        **_record(params),
        "lower": est.rate_bracket.lower,
        "upper": est.rate_bracket.upper,
        "n_used": est.n_used,
        "converged": est.converged,
        "bracket_monotone": monotone,
        "c_prod": est.capacity,
        "c_prod_bracket": [est.lower, est.upper],
        "markov_rate": markov_entropy_rate(params.memory),
        "capacity_upper_bound": capacity_upper_bound(params, estimate=est),
    }
    _write_json(record, args.out)
    return EXIT_OK if est.converged else EXIT_TOLERANCE


# ----------------------------------------------------------------------------
# mutual-info
# ----------------------------------------------------------------------------


def cmd_mutual_info(args) -> int:
    params = _resolve_params(args)
    families = _parse_families(args.families, args.n)
    ranked = sorted(
        (orbit_mutual_information(f, params) for f in families), key=lambda r: -r.per_use
    )
    if args.format == "json":
        obj = {
            **_record(params),
            "n": args.n,
            "rows": [
                {"family": mi.family.kind, "i_n": mi.i_n, "per_use": mi.per_use}
                for mi in ranked
            ],
        }
        _write_json(obj, args.out)
    else:
        header = ["family", "n", *PREFIX, "i_n", "per_use"]
        prefix = _prefix(params.mu, params.a, params.d, True)
        rows = [[mi.family.kind, args.n, *prefix, mi.i_n, mi.per_use] for mi in ranked]
        _write_csv(header, rows, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------------

# Each figure's manifest entry; the builders read their fixed values and the
# manifest-listed grids, all np.linspace (start, stop, num), from here.
FIG1 = {"n": 2, "mu": [-0.95, 0.95, 39], "a": [-2 / 3, 2.0, 33], "d": "max_valid"}
FIG2_PANELS = {  # panel -> (swept axis, grid, fixed values)
    "mu_sweep": ("mu", (-0.95, 0.95, 77), {"a": 1 / 3, "d": -1.0}),
    "a_sweep": ("a", (-2 / 3, 2.0, 81), {"mu": 2 / 3, "d": -1.0}),
    "d_sweep": ("d", (-4 / 3, 4 / 3, 81), {"mu": 2 / 3, "a": 1 / 3}),
}
FIG2 = {"n": 2, "panels": list(FIG2_PANELS),
        "fixed": {panel: fixed for panel, (_, _, fixed) in FIG2_PANELS.items()}}
FIG3 = {"mu": 0.9, "a": 2 / 3, "d": -4 / 3, "n": [2, 4, 6, 8]}
FIG4 = {"n": 4, "grid_d": "max_valid", "mu_sweep": {"a": 1 / 3, "d": 4 / 3}}
FIG5 = {"n": 6, "grid_d": "max_valid"}


def _fig1_rows():
    columns = ["f", "i2_product", "i2_entangled", "per_use_product", "per_use_entangled"]
    rows = [
        _point_row([], float(mu), float(a), float(max_valid_d(a)), columns, _two_use_values)
        for mu in np.linspace(*FIG1["mu"])
        for a in np.linspace(*FIG1["a"])
    ]
    return [*PREFIX, *columns], rows


def _fig2_rows():
    columns = ["f", "i2_product", "i2_entangled", "capacity", "optimal_family"]
    rows = []
    for panel, (axis, span, fixed) in FIG2_PANELS.items():
        def point(value: float):
            at = {**fixed, axis: value}
            return at["mu"], at["a"], at["d"]

        def row(row_type: str, value: float) -> list:
            cells = _point_row([panel, row_type, value], *point(value), columns,
                               _two_use_values)
            if isinstance(cells[-1], float):  # invalid point: fig2 leaves the family empty
                cells[-1] = ""
            return cells

        grid = np.linspace(*span)
        rows += [row("grid", float(value)) for value in grid]
        # crossover rows follow the panel's grid, in axis order
        rows += [row("crossover", value) for _, value in _crossovers(grid, point)]
    return ["panel", "row_type", "axis_value", *PREFIX, *columns], rows


def _family_row(lead: list, point, labels: list, family: InputFamily,
                allow_non_cp=False) -> list:
    """A fig3 to fig5 row: ``lead``, the prefix, ``labels``, i_n and per_use."""
    return _point_row(lead, *point, _family_columns([family]),
                      functools.partial(_family_values, [family]), labels, allow_non_cp)


def _fig3_rows():
    point = FIG3["mu"], FIG3["a"], FIG3["d"]
    rows = [_family_row([], point, [n, family.kind], family)
            for n in FIG3["n"] for family in default_families(n)]
    return [*PREFIX, "n", "family", "i_n", "per_use"], rows


def _entangled_grid_rows(fig: dict, a_span, mu_span):
    n = fig["n"]
    rows = [_family_row(["grid"], (float(mu), float(a), float(max_valid_d(a))),
                        [family.kind, n], family)
            for mu in np.linspace(*mu_span) for a in np.linspace(*a_span)
            for family in (basis_product(n), max_entangled_halves(n))]
    if "mu_sweep" in fig:
        # fig4's caption sweep: a = 1/3, d = 4/3 puts x1 = -1/2 outside the CP
        # range; rows are kept with cp = 0 and nan wherever positivity fails.
        a, d = fig["mu_sweep"]["a"], fig["mu_sweep"]["d"]
        rows += [_family_row(["mu_sweep"], (float(mu), a, d), [family.kind, n], family,
                             allow_non_cp=True)
                 for mu in np.linspace(-0.95, 0.95, 39) for family in default_families(n)]
    return ["panel", "mu", "a", "d", "x0", "x1", "cp", "family", "n", "i_n", "per_use"], rows


# output file -> (row builder, manifest entry)
FIGURES = {
    "fig1.csv": (_fig1_rows, FIG1),
    "fig2.csv": (_fig2_rows, FIG2),
    "fig3.csv": (_fig3_rows, FIG3),
    "fig4.csv": (functools.partial(_entangled_grid_rows, FIG4, (-2 / 3, 2.0, 17),
                                   (-0.9, 0.9, 13)), FIG4),
    "fig5.csv": (functools.partial(_entangled_grid_rows, FIG5, (-2 / 3, 2.0, 13),
                                   (-0.9, 0.9, 9)), FIG5),
}


def cmd_figures(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (builder, _) in FIGURES.items():
        header, rows = builder()
        _write_csv(header, rows, str(out_dir / name))
    manifest = {
        "version": __version__,
        "log_base": 2,
        "units": {"capacity": "bits per channel use", "entropy": "bits"},
        "conventions": {
            "normalization": "per_use = i_n / n; raw i_n emitted alongside",
            "max_entangled_bipartition": "first n/2 qubits vs last n/2",
            "initial_memory": "stationary",
            "d_max_valid": "d = min(2 - a, a + 2/3); the sign flip relabels branches "
                           "and leaves every emitted quantity unchanged",
            "fig4_mu_sweep": "a = 1/3, d = 4/3 lies outside the CP range (x1 = -1/2); "
                             "rows carry cp = 0 and nan where output positivity fails",
        },
        "figures": {name: entry for name, (_, entry) in FIGURES.items()},
    }
    _write_json(manifest, str(out_dir / "manifest.json"))
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


FAMILIES_HELP = f"'all' or a comma-separated list of {', '.join(FAMILY_KINDS)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemchan",
        description="Capacities of the Markov-modulated qubit depolarizing channel",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("two-qubit", help="two-use capacity, threshold f, both branches")
    _add_param_flags(p2)
    p2.add_argument("--out", default=None, help="output file (default stdout)")
    p2.set_defaults(func=cmd_two_qubit)

    ps = sub.add_parser("sweep", help="sweep one parameter axis, emit CSV rows")
    _add_mu_a_d_flags(ps)
    ps.add_argument("--axis", required=True, choices=["mu", "a", "d"])
    ps.add_argument("--lo", type=float, required=True)
    ps.add_argument("--hi", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--d-mode", dest="d_mode", choices=["explicit", "max_valid"],
                    default="explicit")
    ps.add_argument("--quantity", required=True, choices=list(QUANTITY_COLUMNS))
    # defaults in SWEEP_OPTIONS, which also names the quantities that read each
    ps.add_argument("--n", type=int, help="qubit count (i_n only; default 2)")
    ps.add_argument("--families", help=f"{FAMILIES_HELP} (i_n only; default all)")
    ps.add_argument("--tolerance", type=float, help="c_prod/bound only (default 1e-4)")
    ps.add_argument("--n-max", dest="n_max", type=int, help="c_prod/bound only (default 20)")
    ps.add_argument("--format", choices=["csv", "json"], default="csv")
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_sweep)

    pe = sub.add_parser("entropy-rate", help="bracket the flip-process entropy rate")
    _add_param_flags(pe)
    pe.add_argument("--tolerance", type=float, default=1e-4)
    pe.add_argument("--n-max", dest="n_max", type=int, default=20)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_entropy_rate)

    pm = sub.add_parser("mutual-info", help="per-family orbit mutual information")
    _add_param_flags(pm)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--families", default="all", help=FAMILIES_HELP)
    pm.add_argument("--format", choices=["csv", "json"], default="csv")
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_mutual_info)

    pf = sub.add_parser("figures", help="regenerate the figure datasets")
    pf.add_argument("--out", dest="out_dir", required=True, help="output directory")
    pf.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
