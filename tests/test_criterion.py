"""Tests for the closed-form criterion, its gains, scans, and boundary."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from optoepr import (DimensionlessParams, InvalidRegimeError, ParameterError,
                     epr_lhs, paradox_boundary, scan)
from optoepr.criterion import _SCAN_CELL_BYTES
from optoepr.errors import BUDGET_BYTES as SCAN_BUDGET_BYTES

from conftest import HEADLINE, random_dimensionless


class TestEpsilon:
    def test_headline_values(self):
        # Direct evaluation of the closed forms at (0.17, 0.1, 0.18).
        res = epr_lhs(HEADLINE)
        assert res.eps0 == pytest.approx(-0.37378, abs=1e-5)
        assert res.eps_half_pi == pytest.approx(2.91487, abs=1e-4)

    def test_trivial_zeros(self):
        assert epr_lhs(DimensionlessParams(0.0, 0.5, 0.18)).eps0 == 0.0
        assert epr_lhs(DimensionlessParams(0.3, 1.0, 0.18)).eps0 == 0.0
        assert epr_lhs(DimensionlessParams(0.0, 0.5, 0.18)).eps_half_pi == 0.0

    def test_half_pi_grows_toward_zero_detuning(self):
        # 1/delta^2 dominance: the phase-quadrature penalty diverges as the
        # detuning closes.
        lo = epr_lhs(DimensionlessParams(0.1, 0.0, 0.01)).eps_half_pi
        hi = epr_lhs(DimensionlessParams(0.1, 0.0, 0.18)).eps_half_pi
        assert lo > hi

    def test_sign_structure(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            dp = random_dimensionless(rng)
            res = epr_lhs(dp)
            assert res.eps_half_pi >= 0.0
            negative_expected = dp.t_cal < 1.0 and dp.p_cal > 0.0
            assert (res.eps0 < 0.0) == negative_expected


class TestInferredVariance:
    def test_vacuum_limit(self):
        res = epr_lhs(DimensionlessParams(0.0, 0.5, 0.18))
        assert (res.var_x, res.var_y, res.gain_x, res.gain_y) == (1.0, 1.0, 0.0, 0.0)

    def test_frozen_substitutions(self):
        res = epr_lhs(HEADLINE)
        assert res.var_x == pytest.approx(0.40312, abs=1e-4)
        assert res.var_y == pytest.approx(1.74456, abs=1e-4)
        assert (res.var_x, res.var_y) == (1.0 + res.gain_x, 1.0 + res.gain_y)

    def test_invalid_regime(self):
        # eps(0) = -p/(2 (delta^2 + p + 1/4)^2) at t_cal = 0 reaches the
        # floor -1/2 at p_cal = 1/4 once delta^2 vanishes beside 1/4.
        for delta in (1e-9, 1e-12):
            with pytest.raises(InvalidRegimeError, match="eps = -0.5 <= -1/2"):
                epr_lhs(DimensionlessParams(0.25, 0.0, delta))
            assert np.isnan(scan((0.25, 0.25), (0.0, 0.0), delta, 1).lhs_values[0, 0])


class TestEprLhs:
    def test_headline_point(self):
        res = epr_lhs(HEADLINE)
        assert 0.695 <= res.lhs <= 0.710        # quoted value 0.7
        assert res.lhs == pytest.approx(0.70327, abs=2e-4)
        assert res.paradox
        assert res.lhs == pytest.approx(res.var_x * res.var_y, rel=1e-15)

    def test_hot_mirror_kills_paradox(self):
        res = epr_lhs(DimensionlessParams(0.17, 1.5, 0.18))
        assert res.lhs == pytest.approx(2.2043, abs=1e-3)
        assert not res.paradox

    def test_no_drive_saturates_bound(self):
        res = epr_lhs(DimensionlessParams(0.0, 0.5, 0.18))
        assert res.lhs == 1.0
        assert not res.paradox

    def test_lhs_at_least_one_for_hot_bath(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dp = random_dimensionless(rng)
            dp = DimensionlessParams(dp.p_cal, 1.0 + dp.t_cal, dp.delta)
            assert epr_lhs(dp).lhs >= 1.0

    def test_monotone_in_temperature(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            dp = random_dimensionless(rng)
            t2 = dp.t_cal + float(rng.uniform(0.01, 2.0))
            lhs1 = epr_lhs(dp).lhs
            lhs2 = epr_lhs(DimensionlessParams(dp.p_cal, t2, dp.delta)).lhs
            assert lhs2 >= lhs1 - 1e-14

    def test_deterministic(self):
        a = epr_lhs(HEADLINE)
        b = epr_lhs(HEADLINE)
        assert a.lhs == b.lhs


class TestOptimalGain:
    def test_closed_form_gains(self):
        rng = np.random.default_rng(19)
        for dp in [HEADLINE] + [random_dimensionless(rng) for _ in range(200)]:
            res = epr_lhs(dp)
            assert res.gain_x == res.eps0 / (1.0 + res.eps0)
            assert res.gain_y == res.eps_half_pi / (1.0 + res.eps_half_pi)


class TestScan:
    def test_grid_contains_headline_point(self):
        grid = scan((0.0, 1.0), (0.0, 1.0), 0.18, 101)
        j = int(np.argmin(np.abs(grid.p_axis - 0.17)))
        i = int(np.argmin(np.abs(grid.t_axis - 0.10)))
        assert grid.p_axis[j] == pytest.approx(0.17, abs=1e-12)
        assert grid.t_axis[i] == pytest.approx(0.10, abs=1e-12)
        assert grid.lhs_values[i, j] == pytest.approx(0.703, abs=1e-3)
        assert grid.lhs_values.shape == (101, 101)

    def test_unit_temperature_row_at_least_one(self):
        grid = scan((0.0, 1.0), (0.5, 1.0), 0.18, (64, 3))
        row = grid.lhs_values[-1]
        assert grid.t_axis[-1] == 1.0
        assert np.all(row >= 1.0)

    def test_zero_power_column_is_one(self):
        grid = scan((0.0, 1.0), (0.0, 1.0), 0.18, 11)
        assert np.all(grid.lhs_values[:, 0] == 1.0)

    def test_matches_pointwise_evaluation(self):
        grid = scan((0.05, 0.9), (0.0, 0.8), 0.3, 7)
        for i, t in enumerate(grid.t_axis):
            for j, p in enumerate(grid.p_axis):
                ref = epr_lhs(DimensionlessParams(p, t, 0.3)).lhs
                assert grid.lhs_values[i, j] == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("args", [
        ((0.0, 1.0), (0.0, 1.0), 0.18, 64),
        ((0.0, 2.0), (0.0, 2.0), 0.05, (60, 30)),
        ((0.0, 3.0), (0.0, 2.0), 0.8, (97, 13)),
        ((0.0, 1.0), (0.0, 1.0), 1e-9, (201, 50)),
    ], ids=["square", "low_delta", "wide", "tiny_delta"])
    def test_cells_are_epr_lhs_bits(self, args):
        # Point and grid share one arithmetic: every cell is `epr_lhs` at its
        # point to the bit, and NaN exactly where `epr_lhs` hits the floor.
        grid = scan(*args)
        want = np.empty_like(grid.lhs_values)
        for i, t in enumerate(grid.t_axis.tolist()):
            for j, p in enumerate(grid.p_axis.tolist()):
                try:
                    want[i, j] = epr_lhs(DimensionlessParams(p, t, grid.delta)).lhs
                except InvalidRegimeError:
                    want[i, j] = math.nan
        assert grid.lhs_values.tobytes() == want.tobytes()
        assert np.isnan(want).any() == (grid.delta == 1e-9)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ParameterError):
            scan((0.0, 0.0), (0.0, 1.0), 0.18, 10)
        with pytest.raises(ParameterError):
            scan((0.0, 1.0), (0.0, 1.0), 0.18, 1)
        with pytest.raises(ParameterError):
            scan((-0.1, 1.0), (0.0, 1.0), 0.18, 10)

    def test_single_value_axis(self):
        # An axis is lo < hi with resolution >= 2, or lo == hi with resolution 1.
        grid = scan((0.17, 0.17), (0.0, 1.0), 0.18, (1, 5))
        assert grid.p_axis.tolist() == [0.17]
        assert grid.lhs_values.shape == (5, 1)
        cell = scan((0.17, 0.17), (0.1, 0.1), 0.18, 1)
        assert cell.lhs_values[0, 0] == epr_lhs(HEADLINE).lhs

    def test_rejects_reversed_range_and_zero_resolution(self):
        with pytest.raises(ParameterError):
            scan((1.0, 0.0), (0.0, 1.0), 0.18, 5)
        with pytest.raises(ParameterError):
            scan((0.0, 1.0), (0.0, 1.0), 0.18, (5, 0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ParameterError):
            scan((0.0, bad), (0.0, 1.0), 0.18, 10)
        with pytest.raises(ParameterError):
            scan((0.0, 1.0), (bad, 1.0), 0.18, 10)
        with pytest.raises(ParameterError):
            scan((0.0, 1.0), (0.0, 1.0), bad, 10)

    def test_rejects_subnormal_detuning_square(self):
        with pytest.raises(ParameterError):
            scan((0.0, 1.0), (0.0, 1.0), 1e-170, 10)

    def test_refuses_grid_above_budget_before_allocating(self):
        # 10**14 cells at ~40 traced bytes each; the guard must fire before
        # np.linspace builds even one axis.  One cell past the budget on a
        # single row is refused too.
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="budget"):
                scan((0.0, 1.0), (0.0, 1.0), 0.18, 10**7)
            with pytest.raises(ParameterError, match="budget"):
                scan((0.0, 1.0), (0.1, 0.1), 0.18,
                     (SCAN_BUDGET_BYTES // _SCAN_CELL_BYTES + 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_huge_grid_budget_message_is_readable(self):
        # The counts and GiB print as %.6g numbers, not 41-digit integers.
        with pytest.raises(ParameterError, match="budget") as info:
            scan((0.0, 1.0), (0.0, 1.0), 0.18, (10**40, 2))
        assert not re.search(r"\d{20}", str(info.value))

    def test_numpy_resolution_counted_exactly(self):
        # 3e9 x 3e9 cells: an int64 product of the counts would wrap
        # negative and pass the budget; the counts are Python ints.
        res = np.int64(3 * 10**9)
        with pytest.raises(ParameterError, match="budget"):
            scan((0.0, 1.0), (0.0, 1.0), 0.18, (res, res))


OVERFLOWING = [DimensionlessParams(0.1, 1e308, 0.18),
               DimensionlessParams(0.1, 0.1, 1e160),
               DimensionlessParams(1e155, 0.1, 0.18),
               # denom = (d2 + p + 1/4)^2 overflows while both numerators
               # stay finite: refused, not eps divided down to 0.
               DimensionlessParams(2e154, 0.1, 1.5)]


@pytest.mark.parametrize("dp", OVERFLOWING)
@pytest.mark.parametrize("fn", [epr_lhs])
def test_point_refuses_overflowing_closed_form(fn, dp):
    with pytest.raises(ParameterError, match="overflows"):
        fn(dp)


def test_scan_refuses_overflowing_closed_form():
    with pytest.raises(ParameterError, match="overflows"):
        scan((0.0, 1.0), (0.0, 1.0), 1e200, 10)
    with pytest.raises(ParameterError, match="overflows"):
        scan((0.0, 1e200), (0.0, 1.0), 0.18, 10)
    with pytest.raises(ParameterError, match="overflows"):
        scan((0.0, 2e154), (0.0, 1.0), 1.5, 10)


def test_eps_half_pi_reordered_only_where_first_quotient_overflows():
    # (d2 + p + t/4) / (2 d2) overflows at t = 1e306, delta = 1e-3 while
    # eps(pi/2) ~ 2e303 is a finite double: the product is taken in the
    # order p/denom * (...) / (2 d2) there, and a float stays a float.
    dp = DimensionlessParams(1e-9, 1e306, 1e-3)
    d2 = dp.delta * dp.delta
    denom = (d2 + dp.p_cal + 0.25) * (d2 + dp.p_cal + 0.25)
    want = dp.p_cal / denom * (d2 + dp.p_cal + 0.25 * dp.t_cal) / (2.0 * d2)
    assert math.isfinite(want)
    eh = epr_lhs(dp).eps_half_pi
    assert type(eh) is float and eh == want
    # In range, the original order and its bits are kept.
    dp = DimensionlessParams(0.17, 0.1, 0.18)
    d2 = dp.delta * dp.delta
    denom = (d2 + dp.p_cal + 0.25) * (d2 + dp.p_cal + 0.25)
    eh = epr_lhs(dp).eps_half_pi
    assert type(eh) is float
    assert eh == (d2 + dp.p_cal + 0.25 * dp.t_cal) / (2.0 * d2) * dp.p_cal / denom


def reference_boundary(grid):
    """The edge-by-edge double loop that `paradox_boundary` vectorizes, kept
    as a test oracle."""
    f = grid.lhs_values - 1.0
    points = []
    nt, npnts = f.shape
    for i in range(nt):
        for j in range(npnts - 1):
            a, b = f[i, j], f[i, j + 1]
            if not (np.isfinite(a) and np.isfinite(b)):
                continue
            if a == 0.0:
                points.append((grid.p_axis[j], grid.t_axis[i]))
            elif a * b < 0.0:
                frac = a / (a - b)
                p = grid.p_axis[j] + frac * (grid.p_axis[j + 1] - grid.p_axis[j])
                points.append((p, grid.t_axis[i]))
    for j in range(npnts):
        for i in range(nt - 1):
            a, b = f[i, j], f[i + 1, j]
            if not (np.isfinite(a) and np.isfinite(b)):
                continue
            if a * b < 0.0:
                frac = a / (a - b)
                t = grid.t_axis[i] + frac * (grid.t_axis[i + 1] - grid.t_axis[i])
                points.append((grid.p_axis[j], t))
    if not points:
        return np.empty((0, 2))
    return np.array(points)


def _with_cells(grid, cells, value):
    lhs = grid.lhs_values.copy()
    for i, j in cells:
        lhs[i, j] = value
    return replace(grid, lhs_values=lhs)


_BASE = scan((0.0, 1.0), (0.0, 0.9), 0.18, (23, 17))
_ON_BOUND = [(2, 0), (3, 4), (3, 5), (9, 22), (16, 11)]   # (3, 4), (3, 5) adjacent
# Cells next to paradox cells (lhs < 1), where an edge not checked for
# finiteness would report a crossing: inf right of (2, 15), left of (1, 2)
# and below (5, 5), and a cell on the bound with NaN to its right.
_NON_FINITE = _with_cells(_with_cells(_with_cells(
    _BASE, [(2, 16), (1, 1), (6, 5)], math.inf), [(3, 9)], math.nan), [(3, 8)], 1.0)

BOUNDARY_GRIDS = {
    "square": scan((0.0, 1.0), (0.0, 1.0), 0.18, 60),
    "wide": scan((0.0, 1.0), (0.0, 0.9), 0.3, (97, 13)),
    "2xN": scan((0.1, 0.6), (0.0, 0.9), 0.18, (2, 41)),
    "Nx2": scan((0.0, 1.0), (0.05, 0.4), 0.18, (41, 2)),
    "offset": scan((0.05, 1.7), (0.02, 0.85), 0.18, 50),
    "tiny_delta": scan((0.0, 1.0), (0.0, 1.0), 1e-9, (201, 50)),
    "nan_cells": _with_cells(_BASE, [(0, 3), (4, 7), (4, 8), (10, 0), (16, 22)],
                             math.nan),
    "non_finite": _NON_FINITE,
    "on_bound": _with_cells(_BASE, _ON_BOUND, 1.0),
    "no_crossing": scan((0.01, 1.0), (1.0, 2.0), 0.18, 32),
    "single_cell": scan((0.17, 0.17), (0.1, 0.1), 0.18, 1),
}


class TestParadoxBoundary:
    @pytest.mark.parametrize("name", sorted(BOUNDARY_GRIDS))
    def test_matches_double_loop(self, name):
        grid = BOUNDARY_GRIDS[name]
        got = paradox_boundary(grid)
        want = reference_boundary(grid)
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_reference_grids_exercise_every_case(self):
        assert np.isnan(BOUNDARY_GRIDS["tiny_delta"].lhs_values).any()
        assert len(reference_boundary(BOUNDARY_GRIDS["no_crossing"])) == 0
        for name in ("2xN", "Nx2", "nan_cells", "on_bound", "non_finite"):
            assert len(reference_boundary(BOUNDARY_GRIDS[name])) > 0
        # Each cell exactly on the bound counts once, at its own position, on
        # its horizontal edge only (a pair of adjacent ones included).
        on_bound = paradox_boundary(BOUNDARY_GRIDS["on_bound"])
        for i, j in _ON_BOUND:
            if j < _BASE.p_axis.size - 1:
                hit = (on_bound == [_BASE.p_axis[j], _BASE.t_axis[i]]).all(axis=1)
                assert hit.sum() == 1

    def test_crossing_between_extreme_ends(self):
        # lhs - 1 = +-1.7e308 across an edge: the difference of the ends
        # overflows a double, the crossing is still mid-edge, with no warning.
        big = 1.7e308
        grid = replace(scan((0.0, 1.0), (0.0, 1.0), 0.18, 2),
                       lhs_values=np.array([[big, -big], [-big, -big]]))
        assert grid.lhs_values[0, 0] - 1.0 == big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = paradox_boundary(grid)
        assert pts.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_hot_grid_has_no_contour(self):
        grid = scan((0.01, 1.0), (1.0, 2.0), 0.18, 32)
        assert paradox_boundary(grid).shape == (0, 2)

    def test_contour_reevaluates_to_unity(self):
        grid = scan((0.0, 1.0), (0.0, 0.9), 0.18, 80)
        pts = paradox_boundary(grid)
        assert len(pts) > 0
        for p, t in pts:
            if p == 0.0:
                continue   # the lhs = 1 axis itself
            lhs = epr_lhs(DimensionlessParams(p, t, 0.18)).lhs
            assert abs(lhs - 1.0) < 0.01

    def test_contour_stable_under_refinement(self):
        coarse = scan((0.0, 1.0), (0.0, 0.9), 0.18, 40)
        fine = scan((0.0, 1.0), (0.0, 0.9), 0.18, 79)
        pts_c = paradox_boundary(coarse)
        pts_f = paradox_boundary(fine)
        cell = max(coarse.p_axis[1] - coarse.p_axis[0],
                   coarse.t_axis[1] - coarse.t_axis[0])
        for p, t in pts_c:
            d = np.sqrt(((pts_f - [p, t]) ** 2).sum(axis=1)).min()
            assert d < cell
