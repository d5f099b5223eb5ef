"""Command-line driver for split-trap ground-state sweeps.

Subcommands
-----------
spectrum : single-particle levels over one or more barrier strengths
tonks    : analytic hard-core pair observables
dvr      : grid-solver pair observables at any coupling, hard core included
sweep    : cartesian (kappa, g1d) sweeps in any of the three modes
units    : convert a physical trap setup to the scaled 1D coupling

Outputs are byte-deterministic for a fixed spec: fixed 12-significant-
digit formatting, fixed point ordering, and a deterministic start
vector inside the grid eigensolver.  Exit codes: 0 on success, 1 on
validation errors, 2 when any solver fails (partial results are still
written, with a failure manifest alongside).
"""

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import analysis, dvr, tonks
from .single_particle import BarrierStrength, BracketError, spectrum
from .units import (  # noqa: F401  (also re-exported from here)
    CONFINEMENT_CONSTANT, HBAR, ConfinementResonanceError, CouplingResult, TrapUnits,
    g1d_from_physical,
)

_MODES = ("spectrum", "tonks", "dvr")
_OUTPUTS = ("energy", "rspd", "momentum", "entropy", "schmidt")


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep run."""

    mode: str
    barriers: tuple
    couplings: tuple
    outputs: tuple
    n_points: int
    spacing: float
    k_points: int
    k_span: float
    levels: int
    out: str
    fmt: str
    workers: int


@dataclass
class SweepResult:
    records: list
    curves: dict
    matrices: dict
    failures: list


def _fmt_value(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _round12(value):
    return float(f"{value:.12g}")


def _g1d_field(mode, g1d):
    # An infinite coupling is written as the label "inf", never as a
    # float, so that JSON output holds no bare Infinity.
    return "inf" if mode == "tonks" or g1d == math.inf else g1d


def _point_tasks(spec):
    tasks = []
    if spec.mode == "spectrum":
        for barrier in spec.barriers:
            tasks.append(("spectrum", barrier, None, spec))
    elif spec.mode == "tonks":
        for barrier in spec.barriers:
            tasks.append(("tonks", barrier, None, spec))
    else:
        for barrier in spec.barriers:
            for g in spec.couplings:
                tasks.append(("dvr", barrier, g, spec))
    return tasks


def _evaluate_point(task):
    mode, barrier, g1d, spec = task
    try:
        if mode == "spectrum":
            states = spectrum(barrier, spec.levels)
            records = [
                {
                    "kappa": barrier.label(),
                    "level": i,
                    "parity": s.parity,
                    "n": s.n,
                    "energy": s.energy,
                }
                for i, s in enumerate(states)
            ]
            return {"records": records}

        wants_density = any(
            name in spec.outputs for name in ("rspd", "momentum", "entropy", "schmidt")
        )
        grid = dvr.build_grid(spec.n_points, spec.spacing)
        record = {"kappa": barrier.label(), "g1d": _g1d_field(mode, g1d)}
        rho = None
        if mode == "tonks":
            state = tonks.tonks_state(barrier)
            if "energy" in spec.outputs:
                record["energy"] = state.pair_energy
            if wants_density:
                rho = tonks.tonks_rspd(barrier, grid)
        else:
            state = dvr.ground_state(grid, barrier, g1d)
            if "energy" in spec.outputs:
                record["energy"] = state.energy
                record["near_degenerate"] = state.near_degenerate
            if wants_density:
                rho = analysis.rspd_from_state(state)

        out = {"records": [record]}
        if rho is not None:
            decomposition = analysis.natural_orbitals(rho)
            if "entropy" in spec.outputs:
                record["entropy"] = analysis.von_neumann_entropy(decomposition)
            if "schmidt" in spec.outputs:
                record["schmidt"] = analysis.schmidt_number(decomposition)
            if "rspd" in spec.outputs:
                out["rspd"] = rho.values
            if "momentum" in spec.outputs:
                k = analysis.uniform_k_grid(spec.k_points, spec.k_span)
                dist = analysis.momentum_distribution(decomposition, k)
                out["momentum"] = (dist.k_values, dist.densities)
        return out
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "records": [
                {
                    "kappa": barrier.label(),
                    "g1d": _g1d_field(mode, g1d),
                }
            ],
        }


def run_sweep(spec):
    """Evaluate every point of a sweep; solver failures are collected,
    not raised, so partial results survive."""
    tasks = _point_tasks(spec)
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_evaluate_point, tasks))
    else:
        results = [_evaluate_point(task) for task in tasks]

    out = SweepResult(records=[], curves={}, matrices={}, failures=[])
    for task, result in zip(tasks, results):
        mode, barrier, g1d, _ = task
        field = _g1d_field(mode, g1d)
        key = (barrier.label(), "" if field is None else _fmt_value(field))
        if "error" in result:
            out.failures.append(
                {"kappa": key[0], "g1d": key[1], "error": result["error"]}
            )
        out.records.extend(result["records"])
        if "rspd" in result:
            out.matrices[key] = result["rspd"]
        if "momentum" in result:
            out.curves[key] = result["momentum"]
    return out


def _spectrum_columns():
    return ("kappa", "level", "parity", "n", "energy")


def _sweep_columns():
    return ("kappa", "g1d", "energy", "entropy", "schmidt")


def _write_csv(spec, result, stream):
    writer = csv.writer(stream, lineterminator="\n")
    columns = _spectrum_columns() if spec.mode == "spectrum" else _sweep_columns()
    writer.writerow(columns)
    for record in result.records:
        writer.writerow([_fmt_value(record[c]) if c in record else "" for c in columns])


def _json_record(record):
    out = {}
    for key, value in record.items():
        out[key] = _round12(value) if isinstance(value, float) else value
    return out


def _write_json(spec, result, stream):
    payload = {
        "mode": spec.mode,
        "points": [_json_record(r) for r in result.records],
    }
    if spec.mode != "spectrum":
        payload["grid"] = {"n_points": spec.n_points, "spacing": _round12(spec.spacing)}
    for (kappa, g1d), (k, dens) in result.curves.items():
        for point in payload["points"]:
            g_point = point.get("g1d")
            if g_point is None:
                continue
            if point["kappa"] == kappa and _fmt_value(g_point) == g1d:
                point["momentum"] = {
                    "k": [_round12(v) for v in k],
                    "n": [_round12(v) for v in dens],
                }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _matrix_path(spec, kappa_label, g_label):
    stem = Path(spec.out)
    return stem.with_name(f"{stem.stem}-rspd-kappa{kappa_label}-g{g_label}.txt")


def _curve_path(spec, kappa_label, g_label):
    stem = Path(spec.out)
    return stem.with_name(f"{stem.stem}-momentum-kappa{kappa_label}-g{g_label}.csv")


def _write_matrix(path, spec, values):
    n = values.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n} {_fmt_value(spec.spacing)}\n")
        for row in values:
            fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")


def _write_curve(path, k, densities):
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("k", "n"))
        for kv, nv in zip(k, densities):
            writer.writerow((f"{kv:.12g}", f"{nv:.12g}"))


def _write_outputs(spec, result):
    written = []
    if spec.out:
        path = Path(spec.out)
        with open(path, "w") as fh:
            if spec.fmt == "csv":
                _write_csv(spec, result, fh)
            else:
                _write_json(spec, result, fh)
        written.append(str(path))
    else:
        if spec.fmt == "csv":
            _write_csv(spec, result, sys.stdout)
        else:
            _write_json(spec, result, sys.stdout)
    for (kappa, g1d), values in result.matrices.items():
        path = _matrix_path(spec, kappa, g1d)
        _write_matrix(path, spec, values)
        written.append(str(path))
    if spec.fmt == "csv":
        for (kappa, g1d), (k, dens) in result.curves.items():
            path = _curve_path(spec, kappa, g1d)
            _write_curve(path, k, dens)
            written.append(str(path))
    return written


def _write_failures(spec, result):
    manifest = {"failures": result.failures}
    if spec.out:
        path = Path(spec.out).with_suffix("").as_posix() + ".failures.json"
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    json.dump(manifest, sys.stderr, indent=2)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    # Spec exit contract: 1 for validation problems (argparse default is 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser, *, with_grid=True):
    parser.add_argument("--kappa", nargs="+", default=None,
                        help="barrier strengths; numbers or 'inf'")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    parser.add_argument("--config", default=None,
                        help="flat key = value file supplying defaults for any flag")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default 1)")
    if with_grid:
        parser.add_argument("--n-points", type=int, default=None,
                            help="mesh points (odd)")
        parser.add_argument("--dx", type=float, default=None, help="mesh spacing")
        parser.add_argument("--k-span", type=float, default=None,
                            help="momentum grid half-width (default 8)")
        parser.add_argument("--k-points", type=int, default=None,
                            help="momentum grid points (default 401)")
        parser.add_argument("--outputs", default=None,
                            help="comma list from energy,rspd,momentum,entropy,schmidt")


def build_parser():
    parser = _Parser(prog="splittrap",
                     description="Two bosons in a delta-split harmonic trap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spectrum = sub.add_parser("spectrum", help="single-particle levels")
    _add_common_flags(p_spectrum, with_grid=False)
    p_spectrum.add_argument("--levels", type=int, default=None,
                            help="number of levels (default 6)")

    p_tonks = sub.add_parser("tonks", help="analytic hard-core pair")
    _add_common_flags(p_tonks)

    p_dvr = sub.add_parser("dvr", help="grid solver at any coupling")
    _add_common_flags(p_dvr)
    p_dvr.add_argument("--g1d", nargs="+", default=None,
                       help="contact couplings; numbers or 'inf' (hard core)")

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--mode", choices=_MODES, default=None)
    p_sweep.add_argument("--g1d", nargs="+", default=None)
    p_sweep.add_argument("--levels", type=int, default=None)

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
    """Flat 'key = value' file; '#' starts a comment; keys match flag names."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            options[key.strip().lower().replace("-", "_")] = value.strip()
    return options


def _pick(args_value, config, key, fallback, convert=None):
    if args_value is not None:
        return args_value
    raw = config.get(key)
    if raw is None:
        return fallback
    return convert(raw) if convert else raw


def _split_tokens(value):
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok for tok in str(value).replace(",", " ").split() if tok]


def _parse_couplings(tokens):
    out = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError as exc:
            raise ValueError(f"invalid coupling {tok!r}") from exc
        if not value >= 0.0:
            raise ValueError(f"coupling must be >= 0, got {tok!r}")
        out.append(value)
    return out


def _spec_from_args(args):
    config = load_config(args.config) if getattr(args, "config", None) else {}
    mode = args.command
    if mode == "sweep":
        mode = _pick(getattr(args, "mode", None), config, "mode", None)
        if mode not in _MODES:
            raise ValueError(f"sweep needs --mode from {_MODES}, got {mode!r}")

    kappa_tokens = _pick(args.kappa, config, "kappa", None, _split_tokens)
    if not kappa_tokens:
        raise ValueError("at least one --kappa value is required")
    barriers = tuple(BarrierStrength.parse(tok) for tok in _split_tokens(kappa_tokens))

    couplings = ()
    if mode == "dvr":
        g_tokens = _pick(getattr(args, "g1d", None), config, "g1d", None, _split_tokens)
        if not g_tokens:
            raise ValueError("dvr mode needs at least one --g1d value")
        couplings = tuple(_parse_couplings(_split_tokens(g_tokens)))

    outputs_raw = _pick(getattr(args, "outputs", None), config, "outputs", "energy")
    outputs = tuple(
        tok.strip().lower() for tok in str(outputs_raw).replace(",", " ").split()
    )
    for name in outputs:
        if name not in _OUTPUTS:
            raise ValueError(f"unknown output {name!r}; choose from {_OUTPUTS}")
    if mode == "spectrum" and set(outputs) - {"energy"}:
        raise ValueError("spectrum mode only supports the energy output")

    wants_momentum = "momentum" in outputs
    if mode == "tonks":
        default_n, default_dx = tonks.DEFAULT_ANALYTIC_POINTS, tonks.DEFAULT_ANALYTIC_SPACING
    else:
        default_n, default_dx = (61 if wants_momentum else 81), 0.16
    n_points = _pick(getattr(args, "n_points", None), config, "n_points", default_n, int)
    spacing = _pick(getattr(args, "dx", None), config, "dx", default_dx, float)
    k_span = _pick(getattr(args, "k_span", None), config, "k_span", 8.0, float)
    k_points = _pick(getattr(args, "k_points", None), config, "k_points", 401, int)
    levels = _pick(getattr(args, "levels", None), config, "levels", 6, int)
    if levels < 1:
        raise ValueError(f"--levels must be >= 1, got {levels}")
    out = _pick(getattr(args, "out", None), config, "out", None)
    fmt = _pick(getattr(args, "fmt", None), config, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    workers = _pick(getattr(args, "workers", None), config, "workers", 1, int)
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if ("rspd" in outputs or wants_momentum) and not out and fmt == "csv":
        raise ValueError("rspd/momentum csv outputs need --out to name their files")

    if mode != "spectrum":
        dvr.build_grid(n_points, spacing)
    return SweepSpec(
        mode=mode,
        barriers=barriers,
        couplings=couplings,
        outputs=outputs,
        n_points=n_points,
        spacing=spacing,
        k_points=k_points,
        k_span=k_span,
        levels=levels,
        out=out,
        fmt=fmt,
        workers=workers,
    )


def _cmd_units(args):
    try:
        result = g1d_from_physical(args.omega_perp, args.omega, args.mass, args.a3d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        payload = {
            "g1d": _round12(result.g1d),
            "g1d_si": _round12(result.g1d_si),
            "a1d": _round12(result.a1d),
            "length": _round12(result.length),
            "transverse_length": _round12(result.transverse_length),
            "notes": list(result.notes),
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"g1d = {result.g1d:.12g}  # in hbar omega d")
        print(f"g1d_si = {result.g1d_si:.12g}  # J m")
        print(f"a1d = {result.a1d:.12g}  # m")
        print(f"length = {result.length:.12g}  # m")
        print(f"transverse_length = {result.transverse_length:.12g}  # m")
        for note in result.notes:
            print(f"note: {note}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "units":
        return _cmd_units(args)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_sweep(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BracketError, dvr.ConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    _write_outputs(spec, result)
    if result.failures:
        _write_failures(spec, result)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
