"""Closed-form EPR inference-variance machinery on the reduced parameters.

For each quadrature angle the minimized error of inferring mode 1 from mode 2
is ``gamma_c * (1 + eps/(1 + eps))`` with

    eps(0)    = ((t_cal - 1)/2) * p_cal / (delta^2 + p_cal + 1/4)^2
    eps(pi/2) = ((delta^2 + p_cal + t_cal/4) / (2 delta^2))
                 * p_cal / (delta^2 + p_cal + 1/4)^2

Both inferred variances are reported in units of gamma_c, so the Heisenberg
bound on their product is exactly 1 and a paradox is ``lhs < 1``.

The module also carries the generic quadratic-gain minimizer used by the
frequency-domain solver, dense (p_cal, t_cal) grid scans, extraction of the
``lhs = 1`` boundary contour, and a 1-D power optimizer.
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

# Relative tolerance on positive semidefiniteness of a spectral triple.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class EprResult:
    """Criterion evaluation at one reduced parameter point.

    ``var_x`` and ``var_y`` are the minimized inference variances at phi = 0
    and phi = pi/2 in units of gamma_c; ``lhs`` is their product and
    ``paradox`` is true when it beats the Heisenberg bound of 1.
    """

    eps0: float
    eps_half_pi: float
    var_x: float
    var_y: float
    lhs: float
    paradox: bool


@dataclass(frozen=True)
class GainPair:
    """Optimal inference gains at phi = 0 (g_x) and phi = pi/2 (g_y)."""

    g_x: float
    g_y: float


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


def _epsilons(p, t, delta):
    """(eps(0), eps(pi/2)) at float or broadcasting-array (p_cal, t_cal)."""
    d2 = delta * delta
    denom = (d2 + p + 0.25) ** 2
    e0 = 0.5 * (t - 1.0) * p / denom
    eh = (d2 + p + 0.25 * t) / (2.0 * d2) * p / denom
    return e0, eh


def _point_epsilons(dp: DimensionlessParams) -> tuple[float, float]:
    """(eps(0), eps(pi/2)) at one point, refused unless both are finite."""
    try:
        e0, eh = _epsilons(dp.p_cal, dp.t_cal, dp.delta)
        if math.isfinite(e0) and math.isfinite(eh):
            return e0, eh
    except OverflowError:   # float (d2 + p + 1/4) ** 2 past the double range
        pass
    raise ParameterError(f"closed form overflows at {dp}")


def epsilon_zero(dp: DimensionlessParams) -> float:
    """Amplitude-quadrature correlation parameter eps(0).

    Negative exactly when t_cal < 1 and p_cal > 0, which is the resource
    that pulls the phi = 0 inference variance below the vacuum level.
    """
    return _point_epsilons(dp)[0]


def epsilon_half_pi(dp: DimensionlessParams) -> float:
    """Phase-quadrature correlation parameter eps(pi/2); always >= 0.

    Diverges as delta -> 0 at fixed p_cal: with vanishing detuning only the
    amplitude quadratures correlate and no paradox can form.
    """
    return _point_epsilons(dp)[1]


def inferred_variance(eps: float) -> float:
    """Minimized inference variance 1 + eps/(1 + eps), in gamma_c units.

    Raises
    ------
    InvalidRegimeError
        For eps <= -1/2, where the closed form would violate variance
        positivity.
    """
    if eps <= EPS_FLOOR:
        raise InvalidRegimeError(
            f"eps = {eps!r} <= -1/2: inference variance would be non-positive")
    return 1.0 + eps / (1.0 + eps)


def epr_lhs(dp: DimensionlessParams) -> EprResult:
    """Evaluate the full criterion at one reduced parameter point."""
    e0, eh = _point_epsilons(dp)
    vx = inferred_variance(e0)
    vy = inferred_variance(eh)
    lhs = vx * vy
    return EprResult(eps0=e0, eps_half_pi=eh, var_x=vx, var_y=vy,
                     lhs=lhs, paradox=lhs < 1.0)


def optimal_gains(dp: DimensionlessParams) -> GainPair:
    """Closed-form optimal inference gains, g = eps/(1 + eps) per angle."""
    e0, eh = _point_epsilons(dp)
    if e0 <= EPS_FLOOR:
        raise InvalidRegimeError(f"eps0 = {e0!r} <= -1/2")
    return GainPair(g_x=e0 / (1.0 + e0), g_y=eh / (1.0 + eh))


def optimal_gain(s11: float, s12: float, s22: float) -> float:
    """Minimizer g* = s12/s22 of the inference quadratic s11 - 2 g s12 + g^2 s22.

    The minimized value is s11 - s12^2/s22.  The triple must be a valid
    symmetrized spectral matrix: s22 > 0 and s11*s22 >= s12^2 within a
    relative tolerance of 1e-9.
    """
    if not (s22 > 0.0):
        raise ParameterError(f"s22 must be positive, got {s22!r}")
    violation = s12 * s12 - s11 * s22
    scale = max(abs(s11 * s22), s12 * s12)
    if violation > PSD_TOL * scale:
        raise ParameterError(
            f"spectral matrix not positive semidefinite: s12^2 - s11*s22 = {violation!r}")
    return s12 / s22


def _lhs_arrays(p: np.ndarray, t: np.ndarray,
                delta: float) -> tuple[np.ndarray, bool]:
    """Vectorized criterion with NaN sentinels for invalid-regime cells and
    cells whose eps overflows, and whether every eps is finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e0, eh = _epsilons(p, t, delta)
        lhs = (1.0 + e0 / (1.0 + e0)) * (1.0 + eh / (1.0 + eh))
    finite = bool(np.isfinite(e0).all() and np.isfinite(eh).all())
    return np.where(e0 <= EPS_FLOOR, np.nan, lhs), finite


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
    anywhere is refused.
    """
    if isinstance(resolution, int):
        res_p = res_t = resolution
    else:
        res_p, res_t = resolution
    DimensionlessParams(0.0, 0.0, delta)   # the detuning rule
    p_axis = _axis(*map(float, p_range), res_p)
    t_axis = _axis(*map(float, t_range), res_t)
    lhs, finite = _lhs_arrays(p_axis[np.newaxis, :], t_axis[:, np.newaxis], delta)
    if not finite:
        raise ParameterError(
            f"closed form overflows on the scan grid at delta = {delta!r}")
    return ScanGrid(p_axis=p_axis, t_axis=t_axis, delta=delta, lhs_values=lhs)


def _row_crossings(f: np.ndarray, x: np.ndarray, touch: bool):
    """(row, position on ``x``) of each sign change of f along its rows, in
    row-major order; edges with a non-finite end are skipped.  With ``touch``
    an edge whose left end is exactly zero also counts, at that end."""
    a, b = f[:, :-1], f[:, 1:]
    with np.errstate(all="ignore"):
        hit = np.isfinite(a) & np.isfinite(b) & ((a * b < 0.0) | (touch & (a == 0.0)))
        rows, cols = np.nonzero(hit)
        a, b = a[rows, cols], b[rows, cols]
        pos = x[cols] + a / (a - b) * (x[cols + 1] - x[cols])
    return rows, np.where(a == 0.0, x[cols], pos)


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


def best_power(t_cal: float, delta: float) -> tuple[float, float]:
    """Minimize lhs over p_cal in (0, 10] at fixed (t_cal, delta).

    A coarse grid brackets the global minimum, then golden-section search
    refines it to absolute tolerance 1e-6 in p_cal.  Returns
    (p_star, lhs_star).  Bracket points where the closed form overflows
    count as invalid, and a bracket with no valid point is refused.
    """
    DimensionlessParams(0.0, t_cal, delta)   # validates t_cal and delta
    p_max, tol = 10.0, 1e-6

    def lhs_at(p: float) -> float:
        return float(_lhs_arrays(np.array(p), np.array(t_cal), delta)[0])

    # Bracket the global minimum on a linear grid plus a geometric tail: with
    # no paradox window the infimum sits at the p -> 0 edge, where the
    # landscape varies on scales far below p_max.
    n = 512
    lin = np.linspace(p_max / n, p_max, n)
    geo = np.geomspace(p_max * 1e-10, p_max / n, 65)[:-1]
    ps = np.concatenate([geo, lin])
    vals, _ = _lhs_arrays(ps, np.full_like(ps, t_cal), delta)
    if np.isnan(vals).all():
        raise ParameterError(f"no valid p_cal at t_cal = {t_cal!r}, delta = {delta!r}")
    k = int(np.nanargmin(vals))
    lo = ps[k - 1] if k > 0 else 0.5 * ps[0]
    hi = ps[k + 1] if k < len(ps) - 1 else p_max

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = lhs_at(c), lhs_at(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = lhs_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = lhs_at(d)
    p_star = 0.5 * (a + b)
    return p_star, lhs_at(p_star)
