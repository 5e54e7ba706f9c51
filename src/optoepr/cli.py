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
from .errors import NumericalError, OptoEprError, ParameterError

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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


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


def dimensionless_from_config(values: dict[str, float]) -> model.DimensionlessParams:
    missing = sorted(DIMENSIONLESS_KEYS - values.keys())
    if missing:
        raise ParameterError(f"dimensionless block incomplete, missing {missing}")
    return model.DimensionlessParams(p_cal=values["p_cal"], t_cal=values["t_cal"],
                                     delta=values["delta"])


def _load_config(args) -> dict[str, float]:
    if getattr(args, "config", None):
        return parse_config(args.config)
    return {}


def _resolve_dimensionless(args, values) -> model.DimensionlessParams:
    """Reduced parameters from flags or config."""
    flags = [args.p is not None, args.t is not None]
    if any(flags):
        if not all(flags) or args.delta is None:
            raise ParameterError("--p, --t and --delta must be given together")
        return model.DimensionlessParams(args.p, args.t, args.delta)
    if values.keys() & DIMENSIONLESS_KEYS:
        dp = dimensionless_from_config(values)
        if args.delta is not None:
            dp = model.DimensionlessParams(dp.p_cal, dp.t_cal, args.delta)
        return dp
    if values.keys() & PHYSICAL_KEYS:
        if args.delta is None:
            raise ParameterError("physical config requires --delta")
        params = physical_from_config(values)
        return model.to_dimensionless(params, args.delta)
    raise ParameterError("no parameters given (use --config or --p/--t/--delta)")


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_criterion(args) -> int:
    values = _load_config(args)
    dp = _resolve_dimensionless(args, values)
    result = criterion.epr_lhs(dp)
    gains = criterion.optimal_gains(dp)
    fields = [
        ("p_cal", dp.p_cal), ("t_cal", dp.t_cal), ("delta", dp.delta),
        ("eps0", result.eps0), ("eps_half_pi", result.eps_half_pi),
        ("var_x", result.var_x), ("var_y", result.var_y),
        ("lhs", result.lhs), ("paradox", result.paradox),
        ("gain_x", gains.g_x), ("gain_y", gains.g_y),
    ]
    if args.csv:
        lines = [",".join(name for name, _ in fields),
                 ",".join(_fmt(val) for _, val in fields)]
    else:
        lines = [f"{name}={_fmt(val)}" for name, val in fields]
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_scan(args) -> int:
    grid = criterion.scan((args.p_min, args.p_max), (args.t_min, args.t_max),
                          args.delta, (args.p_res, args.t_res))
    lines = ["p_cal,t_cal,lhs,paradox"]
    for i, t in enumerate(grid.t_axis):
        for j, p in enumerate(grid.p_axis):
            v = grid.lhs_values[i, j]
            paradox = bool(np.isfinite(v) and v < 1.0)
            lines.append(f"{_fmt(p)},{_fmt(t)},{_fmt(float(v))},{_fmt(paradox)}")
    _write_lines(args.output, lines)
    if args.contour is not None:
        pts = criterion.paradox_boundary(grid)
        clines = ["p_cal,t_cal"]
        clines += [f"{_fmt(p)},{_fmt(t)}" for p, t in pts]
        _write_lines(args.contour, clines)
    return EXIT_OK


def _model_from_physical(values, branch: int):
    params = physical_from_config(values)
    roots = model.steady_state(params)
    if not 0 <= branch < len(roots):
        raise ParameterError(
            f"--branch {branch} out of range; cubic has {len(roots)} root(s)")
    ss = roots[branch]
    return params, ss, spectra.build_state_space(params, ss)


def cmd_spectrum(args) -> int:
    lo, hi, n = args.omega_min, args.omega_max, args.points
    if not (math.isfinite(lo) and math.isfinite(hi)
            and ((lo < hi and n >= 2) or (lo == hi and n == 1))):
        raise ParameterError(
            f"frequency axis ({lo!r}, {hi!r}) at {n!r} points: need finite ends "
            "with omega-min < omega-max at >= 2 points, or equal ends at 1 point")
    values = _load_config(args)
    if not values.keys() & PHYSICAL_KEYS:
        raise ParameterError("spectrum requires a physical config block")
    params, ss, sm = _model_from_physical(values, args.branch)
    noise = spectra.noise_psd(params)
    omegas = np.linspace(lo, hi, n)
    lines = ["omega,s11,s12,s22,inferred_variance,gain"]
    for w in omegas:
        spec = spectra.output_spectral_matrix(sm, noise, float(w), args.phi)
        var, gain = spec.inference()
        row = (w, spec.s[0, 0], spec.s[0, 1], spec.s[1, 1], var / sm.gamma_c, gain)
        lines.append(",".join(_fmt(v) for v in row))
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
    values = _load_config(args)
    if values.keys() & PHYSICAL_KEYS:
        params, ss, sm = _model_from_physical(values, args.branch)
    elif values.keys() & DIMENSIONLESS_KEYS:
        dp = dimensionless_from_config(values)
        params, ss = spectra.realize_dimensionless(dp)
        sm = spectra.build_state_space(params, ss)
    else:
        raise ParameterError("simulate requires a config with parameters")
    noise = spectra.noise_psd(params)
    cfg = _sim_config_from(values, sm)

    analytic = [spectra.inferred_variance_at(sm, noise, 0.0, phi)[0]
                for phi in (0.0, math.pi / 2)]
    est_x, est_y, prod = sde.epr_product_estimate(sm, noise, cfg)
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
    values = _load_config(args)
    if not values.keys() & PHYSICAL_KEYS:
        raise ParameterError("steady-state requires a physical config block")
    if "detuning0" not in values:
        raise ParameterError("steady-state requires the bare detuning key detuning0")
    params = physical_from_config(values)
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
    add_common(p)
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
    except OptoEprError as exc:
        print(f"optoepr: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"optoepr: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
