"""Output checks of the benchmark.

Each check takes a program output (a file, or arrays for library calls) and
the reference values the benchmark computed itself, and returns a list of
problems; an empty list passes.
They import nothing from optoepr, so the self-tests can feed them
deliberately corrupted outputs.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

SCAN_HEADER = "p_cal,t_cal,lhs,paradox"
CONTOUR_HEADER = "p_cal,t_cal"
SPECTRUM_HEADER = "omega,s11,s12,s22,inferred_variance,gain"

SIM_PRODUCT_TOL = 1e-8       # product_analytic vs criterion.epr_lhs, absolute
SCAN_CELL_RTOL = 1e-11       # scan cells vs scalar epr_lhs, relative
SPECTRUM_CARRIER_RTOL = 1e-8  # omega = 0 row vs closed form, relative
SPECTRUM_PSD_RTOL = 1e-9     # s11*s22 >= s12^2, relative
CARRIER_SIGMAS = 4.0         # Monte Carlo carrier estimate, standard errors


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _framing(path: Path, header: str) -> list[str]:
    """The file starts with ``header`` and ends with a newline."""
    with open(path, "rb") as fh:
        first = fh.readline()
        fh.seek(0, 2)
        if fh.tell() == 0:
            return ["output is empty"]
        fh.seek(-1, 2)
        last = fh.read(1)
    problems = []
    if first != (header + "\n").encode():
        problems.append(f"header is not {header!r}")
    if last != b"\n":
        problems.append("output is not newline-terminated")
    return problems


def _table(path: Path, columns, dtype=float) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns,
                      dtype=dtype, ndmin=2 if isinstance(columns, tuple) else 1)


def check_simulate(text: str, *, lhs_ref: float, windows: int) -> list[str]:
    """``optoepr simulate`` report: validation passed, analytic product and
    window count as expected."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    problems = []
    if fields.get("validation") != "pass":
        problems.append(f"validation={fields.get('validation')}")
    try:
        product = float(fields["product_analytic"])
        if not abs(product - lhs_ref) <= SIM_PRODUCT_TOL:
            problems.append(f"product_analytic={product!r} vs epr_lhs {lhs_ref!r}")
        if int(fields["windows"]) != windows:
            problems.append(f"windows={fields['windows']} vs expected {windows}")
    except (KeyError, ValueError) as exc:
        problems.append(f"malformed simulate report: {exc!r}")
    return problems


def eps_zero_grid(p: np.ndarray, t: np.ndarray, delta: float) -> np.ndarray:
    """eps(0) = ((t - 1)/2) p / (delta^2 + p + 1/4)^2 on broadcast arrays."""
    return 0.5 * (t - 1.0) * p / (delta * delta + p + 0.25) ** 2


def contour_crossings(lhs: np.ndarray) -> int:
    """Crossings of lhs = 1 along grid edges whose two cells are finite.

    Horizontal edges (along p_cal) count a strict sign change of lhs - 1 or
    a left cell exactly on the bound; vertical edges (along t_cal) count a
    strict sign change only.  That is the convention of
    ``criterion.paradox_boundary``, whose point count must match.
    """
    f = lhs - 1.0
    a, b = f[:, :-1], f[:, 1:]
    finite = np.isfinite(a) & np.isfinite(b)
    horizontal = np.count_nonzero(finite & ((a == 0.0) | (a * b < 0.0)))
    a, b = f[:-1, :], f[1:, :]
    finite = np.isfinite(a) & np.isfinite(b)
    vertical = np.count_nonzero(finite & (a * b < 0.0))
    return int(horizontal + vertical)


def check_scan(scan: Path, contour: Path, *, delta: float,
               p_axis: np.ndarray, t_axis: np.ndarray,
               cells: list[tuple[int, int]], scalar_lhs) -> list[str]:
    """``optoepr scan`` grid and contour files.

    ``cells`` are (t index, p index) pairs compared with ``scalar_lhs(p, t)``
    (NaN for an invalid regime).  Every cell is checked for NaN placement and
    the paradox flag, and the contour's point count against the crossings of
    the parsed grid.
    """
    problems = _framing(scan, SCAN_HEADER)
    if problems:
        return problems
    nt, n_p = len(t_axis), len(p_axis)
    try:
        values = _table(scan, (0, 1, 2))
        flags = _table(scan, 3, dtype=str)
    except ValueError as exc:
        return [f"unparsable scan: {exc}"]
    if values.shape != (nt * n_p, 3) or flags.shape != (nt * n_p,):
        return [f"scan has {len(values)} rows, expected {nt * n_p}"]
    p, t, lhs = (values[:, k].reshape(nt, n_p) for k in range(3))
    flags = flags.reshape(nt, n_p)

    want_p = np.broadcast_to(p_axis[np.newaxis, :], p.shape)
    want_t = np.broadcast_to(t_axis[:, np.newaxis], t.shape)
    if (np.any(np.abs(p - want_p) > SCAN_CELL_RTOL * np.abs(want_p))
            or np.any(np.abs(t - want_t) > SCAN_CELL_RTOL * np.abs(want_t))):
        problems.append("scan axes do not match the requested grid")
    want_nan = eps_zero_grid(want_p, want_t, delta) <= -0.5
    bad_nan = np.count_nonzero(np.isnan(lhs) != want_nan)
    if bad_nan:
        problems.append(f"{bad_nan} cells are NaN where eps0 > -1/2 or not "
                        "NaN where eps0 <= -1/2")
    want_flags = np.where(np.isfinite(lhs) & (lhs < 1.0), "true", "false")
    bad_flags = np.count_nonzero(flags != want_flags)
    if bad_flags:
        problems.append(f"{bad_flags} paradox flags disagree with lhs < 1")
    for i, j in cells:
        ref = scalar_lhs(float(p_axis[j]), float(t_axis[i]))
        got = lhs[i, j]
        same = (math.isnan(ref) and math.isnan(got)) or (
            abs(got - ref) <= SCAN_CELL_RTOL * abs(ref))
        if not same:
            problems.append(f"cell ({i}, {j}) lhs={got!r} vs scalar {ref!r}")

    framing = _framing(contour, CONTOUR_HEADER)
    if framing:
        return problems + [f"contour: {p}" for p in framing]
    points = len(_table(contour, (0, 1)))
    if points != contour_crossings(lhs):
        problems.append(f"contour has {points} points, grid has "
                        f"{contour_crossings(lhs)} crossings")
    return problems


def check_spectrum(path: Path, *, points: int, zero_row: int,
                   closed_form: float) -> list[str]:
    """``optoepr spectrum`` table: the omega = 0 row reproduces the closed-form
    inference variance and every row is a positive semidefinite 2x2 matrix."""
    problems = _framing(path, SPECTRUM_HEADER)
    if problems:
        return problems
    try:
        table = _table(path, (0, 1, 2, 3, 4, 5))
    except ValueError as exc:
        return [f"unparsable spectrum: {exc}"]
    if len(table) != points:
        return [f"spectrum has {len(table)} rows, expected {points}"]
    omega, s11, s12, s22, var = table[:, :5].T
    if omega[zero_row] != 0.0:
        problems.append(f"row {zero_row} has omega={omega[zero_row]!r}, not 0")
    elif not abs(var[zero_row] - closed_form) <= SPECTRUM_CARRIER_RTOL * closed_form:
        problems.append(f"carrier variance {var[zero_row]!r} vs closed form "
                        f"{closed_form!r}")
    violation = s12 * s12 - s11 * s22
    scale = np.maximum(np.abs(s11 * s22), s12 * s12)
    bad = np.count_nonzero(~(violation <= SPECTRUM_PSD_RTOL * scale))
    if bad:
        problems.append(f"{bad} rows violate s11*s22 >= s12^2")
    return problems


def window_power(samples: np.ndarray, gamma_c: float) -> tuple[float, float]:
    """Mean |sample|^2 / gamma_c over windows, and its relative standard error.

    The samples are independent Gaussian windows of one quadrature
    combination, real at the carrier and circular complex off it, so the
    relative standard error of the mean power is sqrt(2/n) or sqrt(1/n).
    The sample standard deviation of the skewed |sample|^2 is not used: with
    a few dozen windows it makes a 4-sigma test fail about 1 % of the time.
    """
    power = np.abs(samples) ** 2 / gamma_c
    dof = 1.0 if np.isrealobj(samples) else 2.0
    return float(power.mean()), math.sqrt(2.0 / (dof * power.size))


def check_carrier(samples: np.ndarray, gamma_c: float, reference: float) -> list[str]:
    """The carrier estimate lies within CARRIER_SIGMAS window-level standard
    errors of the frequency-domain inference variance ``reference``."""
    mean, rel_se = window_power(samples, gamma_c)
    se = reference * rel_se
    if not abs(mean - reference) <= CARRIER_SIGMAS * se:
        return [f"carrier estimate {mean:.6g} vs reference {reference:.6g} "
                f"(standard error {se:.3g})"]
    return []
