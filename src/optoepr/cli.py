"""Command-line front end.

Subcommands: ``criterion`` (single-point evaluation), ``scan`` (dense
(p_cal, t_cal) grid to CSV, optional boundary contour), ``spectrum``
(output spectra vs sideband frequency), ``simulate`` (Monte Carlo
validation against the analytic values) and ``steady-state`` (roots of the
radiation-pressure cubic).

Config files are flat ``key = value`` text with ``#`` comments; units are
encoded in the key names.  Exactly one of the physical or dimensionless key
blocks must be present:

    physical      mass_kg, cavity_length_m, omega_m_rad_s, gamma_m_hz,
                  omega_c_rad_s, omega_0_rad_s (or detuning0), gamma_c_hz,
                  temperature_k, input_power_w
    dimensionless p_cal, t_cal, delta
    sim           dt, tau, segments, trajectories, seed, burn_in

Exit codes: 0 ok, 1 config error, 2 numerical failure, 3 I/O error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import criterion, model, sde, spectra
from .errors import NumericalError, ParameterError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

PHYSICAL_KEYS = {
    "mass_kg", "cavity_length_m", "omega_m_rad_s", "gamma_m_hz",
    "omega_c_rad_s", "omega_0_rad_s", "detuning0", "gamma_c_hz",
    "temperature_k", "input_power_w",
}
DIMENSIONLESS_KEYS = {"p_cal", "t_cal", "delta"}
SIM_KEYS = {"dt", "tau", "segments", "trajectories", "seed", "burn_in"}

# Frequencies per stacked spectral solve in `spectrum`.  The solve and its
# formatting hold about 0.5 KB per frequency at their peak (2.0 MB a
# block), so blocks keep that bounded whatever --points is.
SPECTRUM_BLOCK = 4096


# The one float format of every report and CSV; the CSV row templates are
# built from it, so a block of rows is formatted by one `%` call.
FLOAT_FORMAT = "%.12g"

# `scan` and `spectrum` build their whole CSV in memory.  A grid whose CSV
# could pass this many bytes, at 20 per field (the widest FLOAT_FORMAT text,
# -1.23456789012e-308, and its separator), is refused before anything is
# allocated.
CSV_BUDGET_BYTES = 2**30


def _check_csv_budget(rows: int, fields: int) -> None:
    if rows * fields * 20 > CSV_BUDGET_BYTES:
        raise ParameterError(
            f"{rows} rows of {fields} fields could need more than the "
            f"{CSV_BUDGET_BYTES / 2**30:.0f} GiB CSV budget")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return FLOAT_FORMAT % value


def _csv_rows(values: np.ndarray) -> str:
    """Rows of a 2-D float array as ``FLOAT_FORMAT`` CSV lines, one string."""
    row = ",".join([FLOAT_FORMAT] * values.shape[1])
    return "\n".join([row] * len(values)) % tuple(values.ravel().tolist())


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (flag errors -> 1)."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def parse_config(path: str) -> dict[str, float]:
    """Read a flat key = value config file."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            known = PHYSICAL_KEYS | DIMENSIONLESS_KEYS | SIM_KEYS
            if key not in known:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError as exc:
                raise ParameterError(
                    f"{path}:{lineno}: invalid number for {key!r}") from exc
    phys = values.keys() & PHYSICAL_KEYS
    dimless = values.keys() & DIMENSIONLESS_KEYS
    if phys and dimless:
        raise ParameterError(
            f"{path}: physical and dimensionless blocks are mutually exclusive")
    return values


def physical_from_config(values: dict[str, float]) -> model.PhysicalParams:
    required = PHYSICAL_KEYS - {"omega_0_rad_s", "detuning0"}
    missing = sorted(required - values.keys())
    if missing:
        raise ParameterError(f"physical block incomplete, missing {missing}")
    has_w0 = "omega_0_rad_s" in values
    has_d0 = "detuning0" in values
    if has_w0 == has_d0:
        raise ParameterError(
            "physical block needs exactly one of omega_0_rad_s or detuning0")
    omega_c = values["omega_c_rad_s"]
    gamma_c = values["gamma_c_hz"]
    omega_0 = (values["omega_0_rad_s"] if has_w0
               else omega_c + gamma_c * values["detuning0"])
    return model.PhysicalParams(
        mass=values["mass_kg"], cavity_length=values["cavity_length_m"],
        omega_m=values["omega_m_rad_s"], gamma_m=values["gamma_m_hz"],
        omega_c=omega_c, omega_0=omega_0, gamma_c=gamma_c,
        temperature=values["temperature_k"], input_power=values["input_power_w"])


def _read_config(args, physical: bool = False):
    """(values, block) of ``--config``: its key values and its parameter
    block, a `PhysicalParams`, a `DimensionlessParams` or None when it holds
    neither.  With ``physical``, any block but a physical one is refused."""
    values = parse_config(args.config) if args.config else {}
    if values.keys() & PHYSICAL_KEYS:
        return values, physical_from_config(values)
    if physical:
        raise ParameterError(f"{args.command} requires a physical config block")
    if not values.keys() & DIMENSIONLESS_KEYS:
        return values, None
    missing = sorted(DIMENSIONLESS_KEYS - values.keys())
    if missing:
        raise ParameterError(f"dimensionless block incomplete, missing {missing}")
    return values, model.DimensionlessParams(values["p_cal"], values["t_cal"],
                                             values["delta"])


def _resolve_dimensionless(args, block) -> model.DimensionlessParams:
    """Reduced parameters from flags or the config's block."""
    flags = [args.p is not None, args.t is not None]
    if any(flags):
        if not all(flags) or args.delta is None:
            raise ParameterError("--p, --t and --delta must be given together")
        return model.DimensionlessParams(args.p, args.t, args.delta)
    if block is None:
        raise ParameterError("no parameters given (use --config or --p/--t/--delta)")
    if isinstance(block, model.PhysicalParams):
        if args.delta is None:
            raise ParameterError("physical config requires --delta")
        return model.to_dimensionless(block, args.delta)
    if args.delta is not None:
        return model.DimensionlessParams(block.p_cal, block.t_cal, args.delta)
    return block


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_criterion(args) -> int:
    _, block = _read_config(args)
    dp = _resolve_dimensionless(args, block)
    result = criterion.epr_lhs(dp)
    fields = [
        ("p_cal", dp.p_cal), ("t_cal", dp.t_cal), ("delta", dp.delta),
        ("eps0", result.eps0), ("eps_half_pi", result.eps_half_pi),
        ("var_x", result.var_x), ("var_y", result.var_y),
        ("lhs", result.lhs), ("paradox", result.paradox),
        ("gain_x", result.gain_x), ("gain_y", result.gain_y),
    ]
    if args.csv:
        lines = [",".join(name for name, _ in fields),
                 ",".join(_fmt(val) for _, val in fields)]
    else:
        lines = [f"{name}={_fmt(val)}" for name, val in fields]
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_scan(args) -> int:
    _check_csv_budget(max(args.p_res, 0) * max(args.t_res, 0), 4)
    grid = criterion.scan((args.p_min, args.p_max), (args.t_min, args.t_max),
                          args.delta, (args.p_res, args.t_res))
    values = grid.lhs_values
    paradox = np.isfinite(values) & (values < 1.0)
    p_text = [_fmt(p) for p in grid.p_axis.tolist()]
    # Each cell has a template per paradox flag, ending in the flag's text
    # and the next cell's p text; a row joins its cells' picks with its t
    # text, and one `%` fills in the row's lhs values.
    ends = [f"\n{p}" for p in p_text[1:]] + [""]
    cells = [tuple(f",{FLOAT_FORMAT},{_fmt(flag)}{end}" for flag in (False, True))
             for end in ends]
    lines = ["p_cal,t_cal,lhs,paradox"]
    for t, row, flags in zip(grid.t_axis.tolist(), values, paradox):
        picks = [cell[flag] for cell, flag in zip(cells, flags.tolist())]
        lines.append(f",{_fmt(t)}".join([p_text[0]] + picks) % tuple(row.tolist()))
    _write_lines(args.output, lines)
    if args.contour is not None:
        pts = criterion.paradox_boundary(grid)
        clines = ["p_cal,t_cal"]
        if len(pts):
            clines.append(_csv_rows(pts))
        _write_lines(args.contour, clines)
    return EXIT_OK


def _load_model(block, branch: int):
    """(state space, noise) of a config's parameter block.

    A physical block runs on root ``branch`` of its cubic; a dimensionless
    block is realized on the root at its own detuning, so only branch 0.
    """
    if isinstance(block, model.PhysicalParams):
        roots = model.steady_state(block)
        if not 0 <= branch < len(roots):
            raise ParameterError(
                f"--branch {branch} out of range; cubic has {len(roots)} root(s)")
        params, ss = block, roots[branch]
    elif block is not None:
        if branch != 0:
            raise ParameterError(
                f"--branch {branch} needs a physical block; a dimensionless "
                "block is realized on one root, branch 0")
        params, ss = spectra.realize_dimensionless(block)
    else:
        raise ParameterError("no parameter block in the config")
    return spectra.build_state_space(params, ss), spectra.noise_psd(params)


def _spectrum_block(sm, noise, omegas: np.ndarray, phi: float) -> str:
    """`spectrum` CSV rows at ``omegas`` as one string, from one stacked solve."""
    spec = spectra.output_spectral_matrix(sm, noise, omegas, phi)
    var, gain = spec.inference()
    s = spec.s
    return _csv_rows(np.column_stack((omegas, s[:, 0, 0], s[:, 0, 1], s[:, 1, 1],
                                      var / sm.gamma_c, gain)))


def cmd_spectrum(args) -> int:
    lo, hi, n = args.omega_min, args.omega_max, args.points
    # hi - lo is finite only for finite ends less than the double range
    # apart; a wider span would turn the axis into nan.
    if not (math.isfinite(hi - lo)
            and ((lo < hi and n >= 2) or (lo == hi and n == 1))):
        raise ParameterError(
            f"frequency axis ({lo!r}, {hi!r}) at {n!r} points: need finite ends "
            "less than the double range apart, with omega-min < omega-max at "
            ">= 2 points, or equal ends at 1 point")
    _check_csv_budget(n, 6)
    _, block = _read_config(args, physical=True)
    sm, noise = _load_model(block, args.branch)
    omegas = np.linspace(lo, hi, n)
    lines = ["omega,s11,s12,s22,inferred_variance,gain"]
    for start in range(0, n, SPECTRUM_BLOCK):
        lines.append(_spectrum_block(sm, noise, omegas[start:start + SPECTRUM_BLOCK],
                                     args.phi))
    _write_lines(args.output, lines)
    return EXIT_OK


def _sim_config_from(values, sm) -> sde.SimConfig:
    kwargs = {}
    for key, name in (("trajectories", "n_trajectories"), ("segments", "n_segments"),
                      ("seed", "seed")):
        if key in values:
            if not values[key].is_integer():
                raise ParameterError(f"{key} must be a whole number, got {values[key]!r}")
            kwargs[name] = int(values[key])
    for key in ("dt", "tau", "burn_in"):
        if key in values:
            kwargs[key] = values[key]
    return sde.default_sim_config(sm, **kwargs)


def cmd_simulate(args) -> int:
    values, block = _read_config(args)
    sm, noise = _load_model(block, args.branch)
    cfg = _sim_config_from(values, sm)

    est_x, est_y, prod, analytic = sde.epr_product_estimate(sm, noise, cfg)
    z_scores = [(est.mean - ref) / est.std_err
                for est, ref in zip((est_x, est_y), analytic)]
    lines = []
    for label, ref, est, z in zip(("phi_0", "phi_half_pi"), analytic,
                                  (est_x, est_y), z_scores):
        lines += [f"{label}_analytic={_fmt(ref)}",
                  f"{label}_estimate={_fmt(est.mean)}",
                  f"{label}_std_err={_fmt(est.std_err)}",
                  f"{label}_z={_fmt(z)}"]
    lines += [f"product_estimate={_fmt(prod.mean)}",
              f"product_std_err={_fmt(prod.std_err)}",
              f"product_analytic={_fmt(analytic[0] * analytic[1])}",
              f"windows={prod.n_samples}"]
    ok = all(abs(z) < 3.0 for z in z_scores)
    lines.append(f"validation={'pass' if ok else 'fail'}")
    _write_lines(args.output, lines)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_steady_state(args) -> int:
    values, params = _read_config(args, physical=True)
    if "detuning0" not in values:
        raise ParameterError("steady-state requires the bare detuning key detuning0")
    lines = []
    for ss in model.steady_state(params):
        residual = model.steady_state_residual(params, ss)
        lines.append(
            f"delta={_fmt(ss.delta)} x_m={_fmt(ss.x)} "
            f"photon_number={_fmt(abs(ss.alpha) ** 2)} "
            f"stable={_fmt(ss.stable)} residual={_fmt(residual)}")
    _write_lines(args.output, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optoepr",
                     description="Radiation-pressure EPR criterion engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--output", help="write the report to this file")

    p = sub.add_parser("criterion", help="evaluate the criterion at one point")
    add_common(p)
    p.add_argument("--p", type=float, help="dimensionless power p_cal")
    p.add_argument("--t", type=float, help="dimensionless temperature t_cal")
    p.add_argument("--delta", type=float, help="working detuning")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("scan", help="criterion grid over (p_cal, t_cal)")
    p.add_argument("--output", help="write the grid CSV to this file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--p-res", type=int, default=200)
    p.add_argument("--t-res", type=int, default=200)
    p.add_argument("--contour", help="also write the lhs = 1 boundary here")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spectrum", help="output spectra vs sideband frequency")
    add_common(p)
    p.add_argument("--omega-min", type=float, required=True, help="rad/s")
    p.add_argument("--omega-max", type=float, required=True, help="rad/s")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--phi", type=float, default=0.0, help="quadrature angle [rad]")
    p.add_argument("--branch", type=int, default=0,
                   help="steady-state root index (ascending detuning)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="Monte Carlo validation run")
    add_common(p)
    p.add_argument("--branch", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("steady-state", help="roots of the steady-state cubic")
    add_common(p)
    p.set_defaults(func=cmd_steady_state)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"optoepr: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"optoepr: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"optoepr: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
