"""Closed-form EPR inference-variance machinery on the reduced parameters.

For each quadrature angle the minimized error of inferring mode 1 from mode 2
is ``gamma_c * (1 + eps/(1 + eps))`` with

    eps(0)    = ((t_cal - 1)/2) * p_cal / (delta^2 + p_cal + 1/4)^2
    eps(pi/2) = ((delta^2 + p_cal + t_cal/4) / (2 delta^2))
                 * p_cal / (delta^2 + p_cal + 1/4)^2

and optimal inference gain g = eps/(1 + eps).  Both inferred variances are
reported in units of gamma_c, so the Heisenberg bound on their product is
exactly 1 and a paradox is ``lhs < 1``.

`epr_lhs` evaluates one point; `scan` runs the same arithmetic on a dense
(p_cal, t_cal) grid, so each cell holds the bits of `epr_lhs` there, and
`paradox_boundary` extracts its ``lhs = 1`` contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegimeError, ParameterError
from .model import DimensionlessParams

# Below this value of eps the closed form would give a non-positive variance;
# such a point is flagged as an invalid regime rather than clamped.
EPS_FLOOR = -0.5

# `scan` refuses a grid whose work arrays could pass this many bytes, at the
# ~40 per cell its traced peak reaches at 1000 x 1000, before allocating.
SCAN_BUDGET_BYTES = 2**30
_SCAN_CELL_BYTES = 40


@dataclass(frozen=True)
class EprResult:
    """Criterion evaluation at one reduced parameter point.

    ``eps0``/``eps_half_pi`` are eps at phi = 0 and phi = pi/2,
    ``gain_x``/``gain_y`` the optimal gains g = eps/(1 + eps) there, and
    ``var_x``/``var_y`` = 1 + g the minimized inference variances in units
    of gamma_c; ``lhs`` is their product and ``paradox`` is true when it
    beats the Heisenberg bound of 1.
    """

    eps0: float
    eps_half_pi: float
    var_x: float
    var_y: float
    lhs: float
    paradox: bool
    gain_x: float
    gain_y: float


@dataclass(frozen=True)
class ScanGrid:
    """Dense criterion evaluation over a (p_cal, t_cal) rectangle.

    ``lhs_values`` has shape (len(t_axis), len(p_axis)); invalid-regime cells
    hold NaN.
    """

    p_axis: np.ndarray
    t_axis: np.ndarray
    delta: float
    lhs_values: np.ndarray


def _closed_form(p, t, delta):
    """(eps(0), eps(pi/2), g_x, g_y) at float or broadcasting-array
    (p_cal, t_cal), with the optimal inference gains g = eps/(1 + eps) whose
    inference variances are 1 + g.  Floats and arrays run the same numpy
    operations in the same order, so a `scan` cell holds the bits of
    `epr_lhs` at its point; what overflows is left non-finite, silently."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d2 = delta * delta
        s = d2 + p + 0.25
        denom = s * s   # not ** 2, which on a float rounds through libm's pow
        # An overflowing denom would divide finite numerators down to 0; as
        # NaN it leaves both eps non-finite, so the point or grid is refused.
        denom = np.where(np.isfinite(denom), denom, np.nan)
        e0 = 0.5 * (t - 1.0) * p / denom
        eh = (d2 + p + 0.25 * t) / (2.0 * d2) * p / denom
        # The first quotient overflows at t_cal far above delta^2 even where
        # eps(pi/2) is a finite double; only there the product is reordered,
        # so every finite value keeps its bits.
        eh = np.where(np.isfinite(eh), eh, p / denom * (d2 + p + 0.25 * t) / (2.0 * d2))
        return e0, eh, e0 / (1.0 + e0), eh / (1.0 + eh)


def epr_lhs(dp: DimensionlessParams) -> EprResult:
    """Evaluate the full criterion at one reduced parameter point; an
    overflowing eps raises ParameterError, eps(0) <= EPS_FLOOR (a
    non-positive variance) InvalidRegimeError."""
    e0, eh, gx, gy = map(float, _closed_form(dp.p_cal, dp.t_cal, dp.delta))
    if not (math.isfinite(e0) and math.isfinite(eh)):
        raise ParameterError(f"closed form overflows at {dp}")
    if e0 <= EPS_FLOOR:
        raise InvalidRegimeError(
            f"eps = {e0!r} <= -1/2: inference variance would be non-positive")
    vx, vy = 1.0 + gx, 1.0 + gy
    lhs = vx * vy
    return EprResult(eps0=e0, eps_half_pi=eh, var_x=vx, var_y=vy,
                     lhs=lhs, paradox=lhs < 1.0, gain_x=gx, gain_y=gy)


def _axis(lo: float, hi: float, res: int) -> np.ndarray:
    if not (0.0 <= lo < math.inf and math.isfinite(hi)):
        raise ParameterError(f"scan range ({lo!r}, {hi!r}) must be finite, lo >= 0")
    if not ((lo < hi and res >= 2) or (lo == hi and res == 1)):
        raise ParameterError(f"scan axis ({lo!r}, {hi!r}) at resolution {res!r}: need "
                             "lo < hi at resolution >= 2, or lo == hi at resolution 1")
    return np.linspace(lo, hi, res)


def scan(p_range: tuple[float, float], t_range: tuple[float, float],
         delta: float, resolution: int | tuple[int, int]) -> ScanGrid:
    """Evaluate the criterion on a dense rectangular (p_cal, t_cal) grid.

    ``resolution`` is the number of points per axis (a single int applies to
    both axes).  Each axis is either a range lo < hi with resolution >= 2, or
    a single value lo == hi with resolution 1.  Range ends must be finite
    with non-negative lower ends, and delta must pass the detuning rule of
    `DimensionlessParams`.  A grid on which eps(0) or eps(pi/2) overflows
    anywhere, or whose work arrays could pass SCAN_BUDGET_BYTES, is refused.
    """
    res_p, res_t = (resolution, resolution) if np.ndim(resolution) == 0 else resolution
    if max(res_p, 0) * max(res_t, 0) * _SCAN_CELL_BYTES > SCAN_BUDGET_BYTES:
        raise ParameterError(
            f"a {res_p} x {res_t} scan grid could need more than the "
            f"{SCAN_BUDGET_BYTES / 2**30:.0f} GiB scan budget")
    DimensionlessParams(0.0, 0.0, delta)   # the detuning rule
    p_axis = _axis(*map(float, p_range), res_p)
    t_axis = _axis(*map(float, t_range), res_t)
    e0, eh, gx, gy = _closed_form(p_axis[np.newaxis, :], t_axis[:, np.newaxis], delta)
    if not (np.isfinite(e0).all() and np.isfinite(eh).all()):
        raise ParameterError(
            f"closed form overflows on the scan grid at delta = {delta!r}")
    # (1 + g_x) * (1 + g_y) as in `epr_lhs`, in the gains' own buffers so
    # that the traced peak stays within _SCAN_CELL_BYTES a cell.
    lhs = np.add(gx, 1.0, out=gx)
    lhs *= np.add(gy, 1.0, out=gy)
    lhs[e0 <= EPS_FLOOR] = np.nan
    return ScanGrid(p_axis=p_axis, t_axis=t_axis, delta=delta, lhs_values=lhs)


def _row_crossings(f: np.ndarray, x: np.ndarray, touch: bool):
    """(row, position on ``x``) of each sign change of f along its rows, in
    row-major order; edges with a non-finite end are skipped.  With ``touch``
    an edge whose left end is exactly zero also counts, at that end.  The
    ends' signs are compared rather than multiplied and a zero left end is
    not divided, so no product overflows and no 0/0 arises.  The ends are
    halved before they are subtracted, so their difference cannot overflow;
    halving a normal double is exact, so the fraction keeps every bit."""
    a, b = f[:, :-1], f[:, 1:]
    opposite = ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))
    hit = np.isfinite(a) & np.isfinite(b) & (opposite | (touch & (a == 0.0)))
    rows, cols = np.nonzero(hit)
    a, b = a[rows, cols], b[rows, cols]
    half_a = a / 2
    frac = np.divide(half_a, half_a - b / 2, out=np.zeros_like(a), where=a != 0.0)
    return rows, np.where(a == 0.0, x[cols], x[cols] + frac * (x[cols + 1] - x[cols]))


def paradox_boundary(grid: ScanGrid) -> np.ndarray:
    """Linear-interpolation contour of lhs = 1 along grid edges.

    Returns an (n, 2) array of (p_cal, t_cal) crossing points, horizontal
    edges row-major then vertical edges column-major; empty when the grid
    never crosses the bound.  Edges touching NaN cells are skipped; a cell
    exactly on the bound counts on its horizontal edge only.
    """
    f = grid.lhs_values - 1.0
    rows, p = _row_crossings(f, grid.p_axis, touch=True)
    cols, t = _row_crossings(f.T, grid.t_axis, touch=False)
    return np.concatenate([np.column_stack([p, grid.t_axis[rows]]),
                           np.column_stack([grid.p_axis[cols], t])])
