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
import contextlib
import functools
import itertools
import math
import sys
from collections.abc import Iterable

import numpy as np

from . import criterion, model, sde, spectra
from .errors import NumericalError, ParameterError, check_budget

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

# Frequencies per stacked spectral solve in `spectrum`.  A solve holds
# about 0.5 KB per frequency at its peak (2.0 MB a block), and the
# formatting of a block's rows about 0.4 KB (1.7 MB), so blocks keep both
# bounded whatever --points is; only each block's (rows, 6) result, 48 bytes
# a frequency, is kept until the CSV is written.
SPECTRUM_BLOCK = 4096


# The one float format of every report and CSV; `scan` builds its row
# templates from it, so a row is formatted by one `%` call, and `_csv_rows`
# writes its bytes.
FLOAT_FORMAT = "%.12g"


def _check_csv_budget(rows: int, fields: int) -> None:
    """Refuse a CSV that could pass the budget at 20 bytes a field, the
    widest FLOAT_FORMAT text (-1.23456789012e-308) and its separator.
    `scan` and `spectrum` write their CSV as they format it, so the budget
    bounds the file, and for `spectrum` also the arrays held until the
    write."""
    check_budget("a CSV of {} rows x {} fields", rows * fields * 20,
                 "use fewer rows", rows, fields)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return FLOAT_FORMAT % value


# `_csv_rows` writes a float through numpy when it can prove the text
# `FLOAT_FORMAT % v` gives, and through `%` itself otherwise.  The numpy
# path takes finite 1e-290 < |v| < 1e290, whose 10 ** (11 - e) scales are
# normal doubles.  It is written for FLOAT_FORMAT = "%.12g": a 12-digit
# mantissa, three groups of four digits, and fields of at most 19 bytes.
_CSV_CHUNK = 4096
_CSV_WIDTH = 20
# A value's 32-byte source row: its 12 mantissa digits, the four digits of
# its |decimal exponent|, its separator, a NUL (padding, dropped after the
# gather), then these constant bytes.
_CSV_CONST = b"0-.e+%12g"
_CSV_EXP, _CSV_SEP, _CSV_PAD, _CSV_CONST_AT = 12, 16, 17, 18


def _const(char: str) -> int:
    return _CSV_CONST_AT + _CSV_CONST.index(char.encode())


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(powers, digits, zeros, layouts) of the `_csv_rows` numpy path, built
    on first use.

    ``powers[k + 300]`` is the double nearest 10**k, for k in -300 .. 308.
    For g < 10**4, ``digits[g]`` holds the four ASCII digits of g as one
    uint32 and ``zeros[g]`` counts their trailing zeros.  Row
    ``(c * 12 + s - 1) * 2 + neg`` of ``layouts`` lays out the field of a
    value of notation class c with s significant digits and sign ``neg``:
    the source-row index of each byte, its separator, then padding.  Class
    x + 4 is the fixed-point notation of decimal exponent x in -4 .. 11;
    classes 16 to 19 are the exponent notation of e+XX, e+XXX, e-XX and
    e-XXX.  The last row spells FLOAT_FORMAT, for the values `%` writes.
    """
    powers = np.array([float(f"1e{k}") for k in range(-300, 309)])
    g = np.arange(10**4, dtype=np.uint16)[:, None] // np.array(
        [1000, 100, 10, 1], dtype=np.uint16) % 10
    digits = (g + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = np.argmax(g[:, ::-1] != 0, axis=1)
    zeros[0] = 4

    c, s, neg = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(20), np.arange(1, 13), np.arange(2), indexing="ij"))
    # Fixed point writes "0.000" and the mantissa below x = 0, else its
    # first x + 1 digits, a point and the rest; exponent notation writes one
    # digit, a point, the rest, "e", the exponent's sign and digits.
    x = c - 4
    fixed = c < 16
    lead = np.where(fixed & (x < 0), 1 - x, 0)
    whole = np.where(fixed, np.where(x < 0, s, x + 1), 1)
    frac = np.maximum(s - whole, 0)
    exp_digits = 2 + c % 2
    suffix = np.where(fixed, 0, 2 + exp_digits)
    k = np.arange(_CSV_WIDTH)[None, :]
    ends = np.cumsum([neg, lead, whole, frac > 0, frac, suffix], axis=0)
    at = k - np.concatenate([np.zeros_like(neg)[None], ends[:-1]])   # offset in each part
    layouts = np.select(
        [*(k < ends), k == ends[5]],
        [_const("-"), np.where(at[1] == 1, _const("."), _const("0")), at[2],
         _const("."), whole + at[4],
         np.select([at[5] == 0, at[5] == 1],
                   [_const("e"), np.where(c >= 18, _const("-"), _const("+"))],
                   _CSV_EXP + 2 - exp_digits + at[5]),
         _CSV_SEP],
        _CSV_PAD)
    fallback = np.full((1, _CSV_WIDTH), _CSV_PAD)
    fallback[0, :len(FLOAT_FORMAT) + 1] = [*map(_const, FLOAT_FORMAT), _CSV_SEP]
    tables = (powers, digits, zeros.astype(np.uint8),
              np.concatenate([layouts, fallback]).astype(np.uint8))
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_chunk(v: np.ndarray, source: np.ndarray, base: np.ndarray) -> str:
    """``FLOAT_FORMAT % v`` of each value of ``v``, each followed by the
    separator in its row of ``source``; ``base`` holds each row's offset."""
    powers, digits, zeros, layouts = _csv_tables()
    n = len(v)
    a = np.abs(v)
    with np.errstate(all="ignore"):
        fast = (a > 1e-290) & (a < 1e290)
        a = np.where(fast, a, 1.0)
        # y = a 10^(11 - e) is a's 12-digit mantissa.  It carries the error
        # of two roundings, under 2.5e-4 at y < 1e12, so rint(y) is a's
        # correctly rounded mantissa unless y lies within 1e-3 of a tie.
        # Within a few ulps of a power of ten floor(log10) may miss e by
        # one, and y then leaves [1e11, 1e12): `%` writes those values.
        e = np.floor(np.log10(a)).astype(np.intp)
        y = a * powers.take(300 + 11 - e)
        m = np.rint(y)
        fast &= (y >= 1e11) & (y < 1e12) & (np.abs(y - m) < 0.499)
    top = m == 1e12   # rounded up into the next decade
    e += top
    m = np.where(top, 1e11, m).astype(np.intp)
    high = m // 10**8
    rest = m - high * 10**8
    mid = rest // 10**4
    groups = np.stack([high, mid, rest - mid * 10**4], axis=1)
    words = source[:n].view(np.uint32)
    words[:, :3] = digits.take(groups)
    words[:, 3] = digits.take(np.abs(e))
    # m's trailing zeros: a group of 0000 has 4 and carries on to the next.
    z = zeros.take(groups)
    tail = z[:, 2] + (z[:, 2] == 4) * (z[:, 1] + (z[:, 1] == 4) * z[:, 0])
    notation = np.where((e >= -4) & (e < 12), e + 4,
                        16 + 2 * (e < 0) + (np.abs(e) >= 100))
    key = (notation * 12 + 11 - tail) * 2 + np.signbit(v)
    key[~fast] = len(layouts) - 1
    out = source[:n].ravel().take(layouts.take(key, axis=0) + base[:n])
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    if not fast.all():
        text %= tuple(v[~fast].tolist())
    return text


def _csv_rows(values: np.ndarray) -> str:
    """Rows of a 2-D float array as ``FLOAT_FORMAT`` CSV lines, one string.

    The text is the bytes `%` writes value by value; it is built in chunks
    of at most _CSV_CHUNK values.
    """
    rows, cols = values.shape
    if rows == 0:
        return ""
    step = min(rows, max(1, _CSV_CHUNK // cols))
    # One source row per value of a chunk; only the digits change between
    # chunks.
    source = np.zeros((step * cols, 32), dtype=np.uint8)
    source[:, _CSV_SEP] = ord(",")
    source[cols - 1::cols, _CSV_SEP] = ord("\n")
    source[:, _CSV_CONST_AT:_CSV_CONST_AT + len(_CSV_CONST)] = np.frombuffer(
        _CSV_CONST, dtype=np.uint8)
    base = np.arange(0, source.size, 32)[:, None]
    return "".join(_csv_chunk(values[start:start + step].ravel(), source, base)
                   for start in range(0, rows, step))[:-1]


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (flag errors -> 1)."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def parse_config(path: str) -> dict[str, float]:
    """Read a flat key = value config file."""
    values: dict[str, float] = {}
    known = PHYSICAL_KEYS | DIMENSIONLESS_KEYS | SIM_KEYS
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
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


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to the file ``path``, or to
    stdout, as the iterable yields it.  The file takes its text through a
    64 KiB buffer, so a large CSV leaves in few writes."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", buffering=2**16, encoding="utf-8", newline="\n")) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


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
    # text, and one `%` fills in the row's lhs values.  The templates are
    # object arrays, so `np.where` picks a whole row's at once.
    ends = [f"\n{p}" for p in p_text[1:]] + [""]
    false_cells, true_cells = (
        np.array([f",{FLOAT_FORMAT},{_fmt(flag)}{end}" for end in ends], dtype=object)
        for flag in (False, True))

    def lines():
        yield "p_cal,t_cal,lhs,paradox"
        for t, row, flags in zip(grid.t_axis.tolist(), values, paradox):
            picks = np.where(flags, true_cells, false_cells).tolist()
            yield f",{_fmt(t)}".join([p_text[0]] + picks) % tuple(row.tolist())

    # Nothing from here on can fail but the writing, so each row is written
    # as it is formatted.
    _write_lines(args.output, lines())
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


def _spectrum_block(sm, noise, omegas: np.ndarray, phi: float) -> np.ndarray:
    """`spectrum` CSV columns at ``omegas``, a (rows, 6) array, from one
    stacked solve."""
    spec = spectra.output_spectral_matrix(sm, noise, omegas, phi)
    var, gain = spec.inference()
    s = spec.s
    return np.column_stack((omegas, s[:, 0, 0], s[:, 0, 1], s[:, 1, 1],
                            var / sm.gamma_c, gain))


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
    # Every block is solved, and so checked, before the file is opened; the
    # blocks are then formatted one at a time as the file takes them.
    blocks = [_spectrum_block(sm, noise, omegas[start:start + SPECTRUM_BLOCK], args.phi)
              for start in range(0, n, SPECTRUM_BLOCK)]
    _write_lines(args.output, itertools.chain(
        ["omega,s11,s12,s22,inferred_variance,gain"], map(_csv_rows, blocks)))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Parsing leaves it unchanged, so every
    `main` call shares it; callers must not add to it."""
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
