"""Command-line front end for the discretization pipeline.

Subcommands: ``eval-sd`` (tabulate J and the quantum noise), ``discretize``
(compress a kernel into a bath model JSON), ``reconstruct`` (model vs
reference correlation series), ``validate`` (convergence study across a
tolerance sweep) and ``build-model`` (assemble a system-bath model JSON).

Data goes to stdout or --out; diagnostics go to stderr.  Every artifact
embeds a metadata block (tool version, every parsed flag with its default,
input hashes) and contains no timestamps, so repeated runs are byte-identical.

Exit codes: 0 success, 2 config/parse error (also non-finite flags and
unreadable or undecodable files), 3 solver non-convergence, 4 resource
cap, 5 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from ._schema import read_json, write_json, write_text
from .discretize import (
    DEFAULT_MEMORY_CAP_BYTES,
    FdrGrid,
    check_memory,
    discretize_bath,
    load_bath_model,
    reconstruct_bcf,
    reference_bcf,
    save_bath_model,
)
from .dynamics import convergence_study
from .errors import (
    BathkitError,
    ConvergenceError,
    ResourceLimitError,
    ValidationError,
)
from .hamiltonian import build_model, export_model, system_from_dict
from .specdens import NoiseKernel, Temperature, load_tabulated, sd_from_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_RESOURCE = 4
EXIT_VALIDATION_FAILED = 5


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _metadata(args, input_paths) -> dict:
    """The artifact's metadata block: its config is every parsed flag of the
    subcommand under its argparse name, defaults included, as given."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "tool": f"bathkit {__version__}",
        "command": args.command,
        "config": config,
        "inputs": {p: _sha256(p) for p in input_paths},
    }


def _write_csv(sink, meta: dict, names, columns):
    """A CSV artifact: ``#`` metadata lines, a header row of ``names``, then one
    row per index of the equal-length ``columns``, every cell ``repr(float(x))``."""
    lines = [f"# {meta['tool']}", f"# command: {meta['command']}"]
    lines.append("# config: " + json.dumps(meta["config"], sort_keys=True))
    lines.append("# inputs: " + json.dumps(meta["inputs"], sort_keys=True))
    lines.append(",".join(names))
    lines += (",".join(repr(float(x)) for x in row) for row in zip(*columns))
    write_text(sink, "\n".join(lines) + "\n")


def _check_rows(flag: str, n_rows: int, n_columns: int):
    """Require a row count >= 2 whose CSV table fits the cap; each value counts
    twice as a double (intermediates and table) and twice as 25 characters."""
    if n_rows < 2:
        raise ValidationError(f"{flag} must be >= 2, got {n_rows}")
    nbytes = n_rows * n_columns * 2 * (8 + 25)
    check_memory(nbytes, DEFAULT_MEMORY_CAP_BYTES, f"a table of {n_rows} rows; ask for fewer")


def _load_sd(path: str):
    if path.endswith(".csv"):
        return load_tabulated(path)
    return sd_from_config(read_json(path))


def _load_system(path: str):
    return system_from_dict(read_json(path), pointer="")


def _temperature_from_args(args, required: bool = True) -> Temperature:
    """--temp-k or --zero-temp; zero when neither is given and not ``required``."""
    if args.temp_k is not None:
        return Temperature.finite(args.temp_k)
    if required and not args.zero_temp:
        raise ValidationError("provide --temp-k or --zero-temp")
    return Temperature.zero()


def _grid_from_args(args) -> tuple:
    """The grid flags: the FdrGrid and the --memory-cap-gib cap in bytes."""
    if not args.memory_cap_gib > 0:
        raise ValidationError(f"--memory-cap-gib must be positive, got {args.memory_cap_gib}")
    num, den = args.memory_cap_gib.as_integer_ratio()  # exact; gib * 2**30 may overflow
    grid = FdrGrid(args.t_max_fs, args.omega_max_cm1, args.n_time, args.n_freq)
    return grid, num * 2**30 // den


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# --- subcommands -----------------------------------------------------------


def _cmd_eval_sd(args) -> int:
    kernel = NoiseKernel(_load_sd(args.sd), _temperature_from_args(args, required=False))
    _check_rows("--n", args.n, 3)
    if not math.isfinite(args.omega_max - args.omega_min):
        raise ValidationError("the span from --omega-min to --omega-max overflows")
    omegas = np.linspace(args.omega_min, args.omega_max, args.n)
    # far out on the axis an intermediate may overflow; the table is checked
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.column_stack((omegas, kernel.sd.evaluate(omegas), kernel.evaluate(omegas)))
    if not np.all(np.isfinite(table)):
        raise ValidationError("non-finite values on the requested frequency range")

    meta = _metadata(args, [args.sd])
    sink = sys.stdout if args.out is None else args.out
    _write_csv(sink, meta, ["omega_cm1", "J_cm1", "S_beta_cm1"], table.T)
    return EXIT_OK


def _cmd_discretize(args) -> int:
    kernel = NoiseKernel(_load_sd(args.sd), _temperature_from_args(args))
    grid, cap = _grid_from_args(args)
    meta = _metadata(args, [args.sd])
    model = discretize_bath(kernel, grid, args.tol, cap)
    save_bath_model(model, args.out, metadata=meta)
    d = model.diagnostics
    print(
        f"modes M={d.mode_count} (id rank r={d.id_rank}); "
        f"bcf errors: max_abs={d.max_abs_error:.6e} "
        f"mean_abs={d.mean_abs_error:.6e} rel={d.rel_error:.6e}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    model = load_bath_model(args.model)
    _check_rows("--n-time", args.n_time, 5)
    times = np.linspace(0.0, model.t_max_fs, args.n_time)
    c_model = reconstruct_bcf(model, times)
    c_ref = reference_bcf(model.kernel, times, model.omega_max_cm1)

    meta = _metadata(args, [args.model])
    columns = [times, c_model.real, c_model.imag, c_ref.real, c_ref.imag]
    _write_csv(args.out, meta, ["t_fs", "re_C", "im_C", "re_C_ref", "im_C_ref"], columns)
    return EXIT_OK


def _cmd_validate(args) -> int:
    kernel = NoiseKernel(_load_sd(args.sd), _temperature_from_args(args))
    system = _load_system(args.system)
    try:
        tols = [_finite_float(t) for t in args.tol_sweep.split(",") if t.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"--tol-sweep: {exc}") from None
    grid, cap = _grid_from_args(args)
    report = convergence_study(kernel, system, tols, grid, cap)
    meta = _metadata(args, [args.sd, args.system])
    doc = {
        "metadata": meta,
        "observable": report.observable,
        "tols": list(report.tols),
        "mode_counts": list(report.mode_counts),
        "distances": list(report.distances),
        "slack": report.slack,
        "monotone_within_slack": report.monotone_within_slack,
    }
    write_json(args.out, doc)

    if args.series_out is not None:
        if report.observable == "dephasing_coherence":
            names = [f"coherence_tol{i}" for i in range(len(report.tols))]
            columns = list(report.series)
        else:
            dim = report.series[0].shape[1]
            names = [f"pop{j + 1}_tol{i}" for i in range(len(report.tols)) for j in range(dim)]
            columns = [pop for s in report.series for pop in s.T]
        _write_csv(args.series_out, meta, ["t_fs", *names], [report.times, *columns])

    print(
        f"observable={report.observable} tols={list(report.tols)} "
        f"mode_counts={list(report.mode_counts)} distances={list(report.distances)}",
        file=sys.stderr,
    )
    return EXIT_OK if report.monotone_within_slack else EXIT_VALIDATION_FAILED


def _cmd_build_model(args) -> int:
    system = _load_system(args.system)
    pairs = []
    for item in args.bath:
        label, sep, path = item.partition("=")
        if not sep:
            raise ValidationError(f"--bath expects LABEL=path.json, got {item!r}")
        pairs.append((label, path))
    model = build_model(system, [(label, load_bath_model(path)) for label, path in pairs])
    meta = _metadata(args, [args.system] + [path for _, path in pairs])
    export_model(model, args.out, metadata=meta)
    print(
        f"model with {model.system.dim} system levels, "
        f"{len(model.baths)} bath(s), {model.total_mode_count} total modes",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bathkit",
        description="Compress structured harmonic environments into discrete mode sets.",
    )
    parser.add_argument("--version", action="version", version=f"bathkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by the subcommands that build a noise kernel
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--sd", required=True, help="spectral density JSON config or CSV table")
    temp = kernel.add_mutually_exclusive_group()
    temp.add_argument("--temp-k", type=_finite_float, default=None, help="temperature in K")
    temp.add_argument("--zero-temp", action="store_true", help="force zero temperature")
    # flags shared by the subcommands that sample the kernel on a grid
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--t-max-fs", type=_finite_float, default=1000.0)
    grid.add_argument("--omega-max-cm1", type=_finite_float, required=True)
    grid.add_argument("--n-time", type=int, default=FdrGrid.n_time)
    grid.add_argument("--n-freq", type=int, default=FdrGrid.n_freq)
    grid.add_argument(
        "--memory-cap-gib", type=_finite_float, default=DEFAULT_MEMORY_CAP_BYTES / 2**30
    )

    p = sub.add_parser(
        "eval-sd",
        parents=[kernel],
        help="tabulate J(omega) and the quantum noise",
        description="Without a temperature flag the temperature is zero.",
    )
    p.add_argument("--omega-min", type=_finite_float, required=True, help="first frequency (cm^-1)")
    p.add_argument("--omega-max", type=_finite_float, required=True, help="last frequency (cm^-1)")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_eval_sd)

    p = sub.add_parser(
        "discretize", parents=[kernel, grid], help="compress a kernel into a bath model JSON"
    )
    p.add_argument("--tol", type=_finite_float, default=1e-2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("reconstruct", help="model vs reference correlation series CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n-time", type=int, default=FdrGrid.n_time)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "validate", parents=[kernel, grid], help="convergence study across a tolerance sweep"
    )
    p.add_argument("--system", required=True, help="system spec JSON")
    p.add_argument("--tol-sweep", required=True, help="comma-separated tolerances")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--series-out", default=None, help="optional observable series CSV")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build-model", help="assemble a system-bath model JSON")
    p.add_argument("--system", required=True)
    p.add_argument(
        "--bath",
        action="append",
        required=True,
        metavar="LABEL=PATH",
        help="bath model JSON for a label; repeatable",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            partial = json.dumps(exc.diagnostics, sort_keys=True)
            print(f"partial diagnostics: {partial}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (BathkitError, OSError) as exc:  # config, parse and file-system errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
