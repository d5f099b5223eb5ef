"""Command-line driver for split-trap ground-state sweeps.

Subcommands
-----------
spectrum : single-particle levels over one or more barrier strengths
tonks    : analytic hard-core pair observables
dvr      : grid-solver pair observables at any coupling, hard core included
sweep    : ``sweep --mode M ...`` is ``M ...``: it takes exactly M's flags
units    : convert a physical trap setup to the scaled 1D coupling

The parser, built once per process, holds every flag's default, the
default meshes of ``tonks`` (161 points at dx = 0.08) and ``dvr`` (81 at
0.16) included.  A run checks the flags argparse parsed and builds,
once, the mesh and the k grid they name.  It then evaluates each
(kappa, g1d) point they name into one result, one kappa row at a time,
and hands the list of those results, in sweep order, to the writers:
the CSV or JSON table, the sidecar files and the failure manifest.  A
pair point's route is chosen once per row, as the row's g1d -> pair
state solver; every pair state is then read the same way, through its
``energy``, ``occupations`` (entropy and Schmidt number), ``density``
(rspd and momentum) and ``diagnostics``.  The Tonks route's occupations
need no mesh, so its mesh flags govern rspd and momentum alone.

Importing this module loads no numpy, and neither do ``--help``,
``spectrum``, ``units`` and a ``tonks`` run of the energy alone, which
are scalar closed forms; every other run loads it on its first array,
in the library or, for the sidecar files, in ``_write_outputs``, through
the package's one lazy seam, ``_numpy.np``.

Outputs are byte-deterministic for fixed flags: fixed 12-significant-
digit formatting, fixed point ordering, and a grid eigensolver start
vector set by the mesh and the barrier alone.  Exit codes: 0 on
success, 1 on validation errors, 2 when any solver fails (partial
results are still written, with a failure manifest alongside).
"""

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, dvr, tonks
from ._numpy import np
from .single_particle import check_coupling, spectrum
from .units import g1d_from_physical

_MODES = ("spectrum", "tonks", "dvr")
_OUTPUTS = ("energy", "rspd", "momentum", "entropy", "schmidt")
_SPECTRUM_COLUMNS = ("kappa", "level", "parity", "n", "energy")
_SWEEP_COLUMNS = ("kappa", "g1d", "energy", "entropy", "schmidt")
_UNITS_FIELDS = (("g1d", "in hbar omega d"), ("g1d_si", "J m"), ("a1d", "m"), ("length", "m"),
                 ("transverse_length", "m"))


def _fmt_value(value):
    return value if isinstance(value, str) else f"{value:.12g}"


def _round12(value):
    return float(f"{value:.12g}")


def _label(kappa, g1d):
    label = {"kappa": _fmt_value(kappa)}
    if g1d is not None:
        # An infinite coupling is written as the label "inf", never as a
        # float, so that JSON output holds no bare Infinity.
        label["g1d"] = "inf" if g1d == math.inf else g1d
    return label


def _failure(exc, label):
    return {"error": f"{type(exc).__name__}: {exc}", "records": [label]}


_SOLVER_ERRORS = (ValueError, ArithmeticError, RuntimeError)


def _evaluate_point(args, solve, kappa, g1d):
    label = _label(kappa, g1d)
    try:
        if args.command == "spectrum":
            states = spectrum(kappa, args.levels)
            return {"records": [
                {**label, "level": i, "parity": s.parity, "n": s.n, "energy": s.energy}
                for i, s in enumerate(states)
            ]}

        record = dict(label)
        out = {"records": [record]}
        state = solve(g1d)
        if "energy" in args.outputs:
            record["energy"] = state.energy
            if args.fmt == "json":
                # Only the JSON writer prints the diagnostics; the grid's
                # near_degenerate runs the gap's two extra Krylov iterations.
                record.update(state.diagnostics)
        if "entropy" in args.outputs:
            record["entropy"] = analysis.von_neumann_entropy(state.occupations)
        if "schmidt" in args.outputs:
            record["schmidt"] = analysis.schmidt_number(state.occupations)
        if "rspd" in args.outputs:
            out["rspd"] = state.density.values
        if "momentum" in args.outputs:
            dist = analysis.momentum_distribution(state.density, args.k_grid)
            out["momentum"] = (dist.k_values, dist.densities)
        return out
    except _SOLVER_ERRORS as exc:
        return _failure(exc, label)


def _couplings(args):
    # The g1d of each point in a kappa row: spectrum points have none,
    # and the Tonks pair sits at g1d = inf.
    return {"spectrum": (None,), "tonks": (math.inf,)}.get(args.command) or args.g1d


def _labels(args):
    # The (kappa, g1d) labels of each point, in sweep order, that name its
    # sidecar files and its failure entry; a spectrum point has g1d "".
    return [(_fmt_value(kappa), "" if g1d is None else _fmt_value(g1d))
            for kappa in args.kappa for g1d in _couplings(args)]


def _evaluate_row(args, kappa):
    # One task: the points at one kappa, in sweep order.  The route is
    # picked here alone, as the row's g1d -> pair state solver.  The grid
    # solver factors the one-body operator once for the whole row; if
    # that fails, every point of the row carries the failure.
    couplings = _couplings(args)
    solve = None
    if args.command == "tonks":
        def solve(g1d):
            return tonks.tonks_state(kappa, args.grid)
    elif args.command == "dvr":
        try:
            solve = dvr.ground_state_solver(args.grid, kappa)
        except _SOLVER_ERRORS as exc:
            return [_failure(exc, _label(kappa, g1d)) for g1d in couplings]
    return [_evaluate_point(args, solve, kappa, g1d) for g1d in couplings]


def run_sweep(args):
    """Evaluate every point that the flags ``args`` name, one kappa row
    per task, and return their results as a list in sweep order.

    ``args`` has been through ``_check_flags``, which keeps the mesh and
    the k grid on it, built once for the whole sweep.  Each result is a
    dict with the point's ``records`` and, when it has them, its
    ``rspd`` matrix, its ``momentum`` curve ``(k, n)`` or its solver
    ``error``: solver failures are collected, not raised, so partial
    results survive."""
    evaluate = functools.partial(_evaluate_row, args)
    # Never more workers than rows: the fork start method forks every
    # worker on the first submit.
    workers = min(args.workers, len(args.kappa))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, args.kappa))
    else:
        rows = list(map(evaluate, args.kappa))
    return [point for row in rows for point in row]


def _write_csv(args, points, stream):
    writer = csv.writer(stream, lineterminator="\n")
    columns = _SPECTRUM_COLUMNS if args.command == "spectrum" else _SWEEP_COLUMNS
    writer.writerow(columns)
    writer.writerows([_fmt_value(record[c]) if c in record else "" for c in columns]
                     for point in points for record in point["records"])


def _json_record(record, momentum, k_column):
    out = {key: _round12(v) if isinstance(v, float) else v for key, v in record.items()}
    if momentum is not None:
        out["momentum"] = {"k": k_column, "n": [_round12(v) for v in momentum[1]]}
    return out


def _write_json(args, points, stream):
    # Every momentum curve of a sweep is on its one k grid, rounded once here.
    k_column = next(([_round12(v) for v in point["momentum"][0]]
                     for point in points if "momentum" in point), None)
    records = [_json_record(record, point.get("momentum"), k_column)
               for point in points for record in point["records"]]
    payload = {"mode": args.command, "points": records}
    if args.command != "spectrum":
        payload["grid"] = {"n_points": args.n_points, "spacing": _round12(args.dx)}
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _sidecar_path(args, kappa, g1d, kind, suffix):
    stem = Path(args.out)
    return stem.with_name(f"{stem.stem}-{kind}-kappa{kappa}-g{g1d}{suffix}")


def _write_outputs(args, points):
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as stream:
        (_write_csv if args.fmt == "csv" else _write_json)(args, points, stream)
    for (kappa, g1d), point in zip(_labels(args), points):
        if "rspd" in point:
            rho = point["rspd"]
            np.savetxt(_sidecar_path(args, kappa, g1d, "rspd", ".txt"), rho, fmt="%.12g",
                       header=f"{len(rho)} {args.dx:.12g}", comments="")
        if "momentum" in point and args.fmt == "csv":
            np.savetxt(_sidecar_path(args, kappa, g1d, "momentum", ".csv"),
                       np.column_stack(point["momentum"]), fmt="%.12g", delimiter=",",
                       header="k,n", comments="")


def _failures(args, points):
    # The failure manifest's entries: the labels and the error of each failed point.
    return [{"kappa": kappa, "g1d": g1d, "error": point["error"]}
            for (kappa, g1d), point in zip(_labels(args), points) if "error" in point]


def _write_failures(args, failures):
    manifest = json.dumps({"failures": failures}, indent=2) + "\n"
    if args.out:
        Path(args.out).with_suffix(".failures.json").write_text(manifest)
    sys.stderr.write(manifest)


class _Parser(argparse.ArgumentParser):
    # Spec exit contract: 1 for validation problems (argparse default is 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# argparse names a converter that raises ValueError: "invalid count value: '0'".
def coupling(text):
    """A --kappa or --g1d token: a number >= 0, or 'inf' for the limit."""
    return check_coupling(text, "coupling")


class _Couplings(argparse.Action):
    # argparse strips the '--' from '--kappa=--' and passes no values at all.
    def __call__(self, parser, namespace, values, option_string=None):
        if not values:
            parser.error(f"argument {option_string}: invalid coupling value: no number given")
        setattr(namespace, self.dest, values)


def count(text):
    """A --levels or --workers value: an integer >= 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _output_list(text):
    outputs = tuple(text.lower().replace(",", " ").split())
    if not outputs or set(outputs) - set(_OUTPUTS):
        raise argparse.ArgumentTypeError(f"outputs come from {_OUTPUTS}, got {text!r}")
    return outputs


def _add_common_flags(parser, mesh=None):
    parser.add_argument("--kappa", nargs="+", type=coupling, action=_Couplings, required=True,
                        help="barrier strengths; numbers or 'inf'")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", default=None,
                        help="flat key = value file; each entry is read as the flag it names")
    parser.add_argument("--workers", type=count, default=1,
                        help="parallel worker processes (default 1)")
    if mesh:
        parser.add_argument("--n-points", type=int, default=mesh[0],
                            help="mesh points (odd; default %(default)s)")
        parser.add_argument("--dx", type=float, default=mesh[1],
                            help="mesh spacing (default %(default)s)")
        parser.add_argument("--k-span", type=float, default=8.0,
                            help="momentum grid half-width (default 8)")
        parser.add_argument("--k-points", type=int, default=401,
                            help="momentum grid points (default 401)")
        parser.add_argument("--outputs", type=_output_list, default="energy",
                            help="comma list from energy,rspd,momentum,entropy,schmidt")


@functools.cache
def build_parser():
    parser = _Parser(prog="splittrap",
                     description="Two bosons in a delta-split harmonic trap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="single-particle levels")
    _add_common_flags(p_spectrum)
    p_spectrum.add_argument("--levels", type=count, default=6,
                            help="number of levels (default 6)")

    # The library takes its mesh from the caller; the default meshes live here alone.
    p_tonks = sub.add_parser(
        "tonks", help="analytic hard-core pair",
        description="The mesh flags --n-points and --dx govern only the rspd and momentum "
                    "outputs; energy, entropy and Schmidt number need no mesh.")
    _add_common_flags(p_tonks, (161, 0.08))

    p_dvr = sub.add_parser("dvr", help="grid solver at any coupling")
    _add_common_flags(p_dvr, (81, 0.16))
    p_dvr.add_argument("--g1d", nargs="+", type=coupling, action=_Couplings, required=True,
                       help="contact couplings; numbers or 'inf' (hard core)")

    p_sweep = sub.add_parser(
        "sweep", help="run one of the three modes",
        description="'sweep --mode M ...' runs 'M ...' and takes exactly the flags of M; "
                    "see 'splittrap M --help'.")
    p_sweep.add_argument("--mode", choices=_MODES, required=True)

    p_units = sub.add_parser("units", help="physical to scaled coupling")
    p_units.add_argument("--omega-perp", type=float, required=True,
                         help="transverse angular frequency, rad/s")
    p_units.add_argument("--omega", type=float, required=True,
                         help="longitudinal angular frequency, rad/s")
    p_units.add_argument("--mass", type=float, required=True, help="atom mass, kg")
    p_units.add_argument("--a3d", type=float, required=True,
                         help="3D scattering length, m")
    p_units.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def load_config(path):
    """Flat 'key = value' file; '#' starts a comment; each key names a flag."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            options[key] = value.strip()
    return options


def _parse_args(argv):
    # Each --config entry becomes the flag it names ('n_points = 61' is
    # --n-points=61; kappa and g1d split on commas and blanks), put right
    # after the subcommand, so that the command-line flags after it win.
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    try:
        entries = load_config(path).items() if path else ()
    except (OSError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    tokens = []
    for key, value in entries:
        flag = "--" + key.replace("_", "-")
        split = key in ("kappa", "g1d")
        tokens += [flag, *value.replace(",", " ").split()] if split else [f"{flag}={value}"]
    tokens = argv[:1] + tokens + argv[1:]
    # 'sweep --mode M ...' is handed to M's own parser.
    args, rest = parser.parse_known_args(tokens)
    if args.command == "sweep":
        tokens = [args.mode, *rest]
    return parser.parse_args(tokens)


def _check_flags(args):
    # argparse has checked every flag on its own; left here are the rules
    # that span several flags.  The mesh and the k grid are built here,
    # once, and kept on args for every point.
    # Every file a run writes lands next to --out, so a bad --out stops
    # the run here, before any point is solved.
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ValueError(f"--out {args.out} is not a file in an existing directory")
    if args.command == "spectrum":
        return
    wants_momentum = "momentum" in args.outputs
    # rspd matrices always go to sidecar files; csv momentum curves do too,
    # and a sidecar file is named by its point's labels.
    if "rspd" in args.outputs or (wants_momentum and args.fmt == "csv"):
        if not args.out:
            raise ValueError("rspd and csv momentum outputs need --out to name their files")
        labels = _labels(args)
        repeated = [label for label in labels if labels.count(label) > 1]
        if repeated:
            raise ValueError("two points are labelled kappa = {}, g1d = {}: their sidecar "
                             "files would share a name".format(*repeated[0]))

    args.grid = analysis.build_grid(args.n_points, args.dx)
    args.k_grid = analysis.uniform_k_grid(args.k_points, args.k_span) if wants_momentum else None
    # k x at the mesh edge must be finite, or every point's phases are NaN.
    if wants_momentum and not math.isfinite(args.k_span * args.grid.span):
        raise ValueError(f"k span times the mesh half-width must be finite, got {args.k_span!r}")
    # Whether the mesh covers the Tonks pair density depends on the flags
    # alone; its trace check depends on kappa and stays with each point.
    # Only rspd and momentum read that density.
    if args.command == "tonks" and {"rspd", "momentum"} & set(args.outputs):
        tonks.check_rspd_span(args.grid)


def _cmd_units(args):
    try:
        result = g1d_from_physical(args.omega_perp, args.omega, args.mass, args.a3d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        payload = {name: _round12(getattr(result, name)) for name, _ in _UNITS_FIELDS}
        json.dump({**payload, "notes": list(result.notes)}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for name, unit in _UNITS_FIELDS:
            print(f"{name} = {getattr(result, name):.12g}  # {unit}")
        for note in result.notes:
            print(f"note: {note}")
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.command == "units":
        return _cmd_units(args)
    try:
        _check_flags(args)
        points = run_sweep(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_outputs(args, points)
    failures = _failures(args, points)
    if failures:
        _write_failures(args, failures)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
