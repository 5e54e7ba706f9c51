"""End-to-end tests of the command-line surface and its exit-code contract."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from optoepr import cli, criterion, epr_lhs, errors, model, sde, spectra
from optoepr.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main,
                         parse_config)

from conftest import HEADLINE

TEXTBOOK_PHYSICAL = """\
# often-quoted laboratory values; frequencies angular, rates 1/s
mass_kg        = 3e-5
cavity_length_m = 1e-3
omega_m_rad_s  = 2e6
gamma_m_hz     = 1
omega_c_rad_s  = 2e15
omega_0_rad_s  = 2e15
gamma_c_hz     = 2e6
temperature_k  = 4
input_power_w  = 0.03
"""

DIMLESS = """\
p_cal = 0.17
t_cal = 0.1
delta = 0.18
"""


@pytest.fixture
def realized_headline_config(tmp_path, headline_realization):
    """Physical config file of the stable realization of the headline point."""
    params, _ = headline_realization
    cfg = tmp_path / "real.cfg"
    cfg.write_text(
        f"mass_kg = {params.mass!r}\n"
        f"cavity_length_m = {params.cavity_length!r}\n"
        f"omega_m_rad_s = {params.omega_m!r}\n"
        f"gamma_m_hz = {params.gamma_m!r}\n"
        f"omega_c_rad_s = {params.omega_c!r}\n"
        f"omega_0_rad_s = {params.omega_0!r}\n"
        f"gamma_c_hz = {params.gamma_c!r}\n"
        f"temperature_k = {params.temperature!r}\n"
        f"input_power_w = {params.input_power!r}\n")
    return cfg


def set_key(cfg: Path, key: str, value: str) -> Path:
    """Rewrite the ``key`` line of config file ``cfg`` to ``value``."""
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", cfg.read_text(),
                          flags=re.M))
    return cfg


def readme_physical_block() -> str:
    """The physical config block README prints."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    return re.search(r"^(# physical block.*?)^```$", readme, re.S | re.M).group(1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition("=")
        pairs[key] = val
    return pairs


class TestCriterion:
    def test_headline_flags(self, capsys):
        code, out = run(capsys, "criterion", "--p", "0.17", "--t", "0.1",
                        "--delta", "0.18")
        assert code == EXIT_OK
        vals = kv(out)
        assert float(vals["lhs"]) == pytest.approx(0.703, abs=1e-3)
        assert vals["paradox"] == "true"

    def test_zero_power_saturates_bound(self, capsys):
        code, out = run(capsys, "criterion", "--p", "0", "--t", "0.5",
                        "--delta", "0.18")
        assert code == EXIT_OK
        vals = kv(out)
        assert float(vals["lhs"]) == 1.0
        assert vals["paradox"] == "false"

    def test_physical_config_reports_reduction(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL)
        code, out = run(capsys, "criterion", "--config", str(cfg),
                        "--delta", "0.18")
        assert code == EXIT_OK
        vals = kv(out)
        assert float(vals["p_cal"]) == pytest.approx(0.159348, abs=1e-5)
        assert float(vals["t_cal"]) == pytest.approx(0.188525, abs=1e-5)

    def test_dimensionless_config(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(DIMLESS)
        code, out = run(capsys, "criterion", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(kv(out)["lhs"]) == pytest.approx(0.7032628, abs=1e-6)

    def test_delta_flag_overrides_dimensionless_config(self, capsys, tmp_path):
        # --delta replaces the block's delta: the same report as all three flags.
        cfg = tmp_path / "point.cfg"
        cfg.write_text(DIMLESS)
        code_c, out_c = run(capsys, "criterion", "--config", str(cfg), "--delta", "0.3")
        code_f, out_f = run(capsys, "criterion", "--p", "0.17", "--t", "0.1",
                            "--delta", "0.3")
        assert code_c == code_f == EXIT_OK
        assert out_c == out_f
        assert kv(out_c)["delta"] == "0.3"

    def test_csv_mode(self, capsys):
        code, out = run(capsys, "criterion", "--p", "0.17", "--t", "0.1",
                        "--delta", "0.18", "--csv")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["lhs"]) == pytest.approx(0.7032628, abs=1e-6)

    def test_incomplete_flags_exit_config(self, capsys):
        code, _ = run(capsys, "criterion", "--p", "0.17")
        assert code == EXIT_CONFIG

    def test_unknown_flag_exits_config(self, capsys):
        assert main(["criterion", "--frobnicate"]) == EXIT_CONFIG

    def test_missing_config_file_exits_io(self, capsys):
        code, _ = run(capsys, "criterion", "--config", "/nonexistent/x.cfg",
                      "--delta", "0.18")
        assert code == EXIT_IO

    @pytest.mark.parametrize("text, flags, message", [
        (TEXTBOOK_PHYSICAL.replace("mass_kg        = 3e-5\n", ""), ["--delta", "0.18"],
         "physical block incomplete, missing ['mass_kg']"),
        (TEXTBOOK_PHYSICAL + "detuning0 = 0.1\n", ["--delta", "0.18"],
         "exactly one of omega_0_rad_s or detuning0"),
        (TEXTBOOK_PHYSICAL.replace("omega_0_rad_s  = 2e15\n", ""), ["--delta", "0.18"],
         "exactly one of omega_0_rad_s or detuning0"),
        ("p_cal = 0.17\nt_cal = 0.1\n", [],
         "dimensionless block incomplete, missing ['delta']"),
        (TEXTBOOK_PHYSICAL, [], "physical config requires --delta"),
        (None, [], "no parameters given"),
    ])
    def test_refused_parameters_exit_config(self, capsys, tmp_path, text, flags,
                                            message):
        out_path = tmp_path / "c.out"
        argv = ["criterion", *flags, "--output", str(out_path)]
        if text is not None:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(text)
            argv += ["--config", str(cfg)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err and len(err.splitlines()) == 1
        assert not out_path.exists()

    def test_overflowing_reduction_names_the_infinite_value(self, capsys, tmp_path):
        # At 1e300 W on README's physical block p_cal and kappa overflow to
        # inf: every command that reduces the block exits 2, names the
        # infinite value and writes nothing.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(readme_physical_block().replace("input_power_w = 0.03",
                                                       "input_power_w = 1e300"))
        for argv, name in [
            (["criterion", "--delta", "0.18"], "p_cal"),
            (["steady-state"], "drive strength kappa"),
            (["spectrum", "--omega-min=-8e6", "--omega-max=8e6", "--points", "3"],
             "drive strength kappa"),
        ]:
            code = main([*argv, "--config", str(cfg)])
            captured = capsys.readouterr()
            assert code == EXIT_NUMERICAL, argv
            assert captured.out == ""
            assert captured.err.startswith(
                f"optoepr: numerical failure: {name} is inf, outside the double range, ")
            assert len(captured.err.splitlines()) == 1

    def test_underflowing_t_cal_denominator_exits_numerical(self, capsys,
                                                            realized_headline_config):
        # hbar omega_m^2 underflows to 0 where p_cal's denominator does not:
        # a numerical failure, not a ZeroDivisionError.
        cfg = set_key(realized_headline_config, "omega_m_rad_s", "1.1e-154")
        code = main(["criterion", "--config", str(cfg), "--delta", "0.18"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert "t_cal is outside the double range" in captured.err
        assert len(captured.err.splitlines()) == 1


@st.composite
def scan_axes(draw):
    """(lo, hi, resolution) of a valid scan axis: 1 to 9 points, one point
    only where lo == hi."""
    res = draw(st.integers(1, 9))
    lo = draw(st.floats(0.0, 2.0))
    hi = lo if res == 1 else lo + draw(st.floats(1e-3, 2.0))
    return lo, hi, res


def per_cell_scan_csv(grid) -> str:
    """Reference `scan` CSV of ``grid``, formatted one cell at a time."""
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return f"{value:.12g}"

    lines = ["p_cal,t_cal,lhs,paradox"]
    for i, t in enumerate(grid.t_axis):
        for j, p in enumerate(grid.p_axis):
            v = grid.lhs_values[i, j]
            paradox = bool(np.isfinite(v) and v < 1.0)
            lines.append(f"{fmt(p)},{fmt(t)},{fmt(float(v))},{fmt(paradox)}")
    return "\n".join(lines) + "\n"


def per_point_contour_csv(grid) -> str:
    """Reference `scan --contour` CSV of ``grid``, formatted one value at a time."""
    lines = ["p_cal,t_cal"]
    for p, t in criterion.paradox_boundary(grid).tolist():
        lines.append(f"{p:.12g},{t:.12g}")
    return "\n".join(lines) + "\n"


class TestScan:
    def test_grid_file_shape_and_rows(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18",
                      "--p-min", "0", "--p-max", "1",
                      "--t-min", "0", "--t-max", "1",
                      "--p-res", "21", "--t-res", "11",
                      "--output", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p_cal,t_cal,lhs,paradox"
        assert len(lines) == 1 + 21 * 11
        # t_cal = 1 rows never show a paradox; p_cal = 0 rows sit on the bound
        rows = [line.split(",") for line in lines[1:]]
        for p, t, lhs, paradox in rows:
            if float(t) >= 1.0:
                assert paradox == "false"
            if float(p) == 0.0:
                assert float(lhs) == 1.0
        assert any(par == "true" for _, _, _, par in rows)

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--delta", "0.18", "--p-res", "31", "--t-res", "17"]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_single_cell_matches_criterion(self, capsys, tmp_path):
        out_path = tmp_path / "cell.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18",
                      "--p-min", "0.17", "--p-max", "0.17", "--p-res", "1",
                      "--t-min", "0.1", "--t-max", "0.1", "--t-res", "1",
                      "--output", str(out_path))
        assert code == EXIT_OK
        _, row = out_path.read_text().splitlines()
        p, t, lhs, paradox = row.split(",")
        assert float(lhs) == pytest.approx(epr_lhs(HEADLINE).lhs, rel=1e-12)
        assert paradox == "true"

    @pytest.mark.parametrize("flags, feature", [
        (["--delta", "1e-9", "--p-res", "201", "--t-res", "50"], ",nan,false"),
        (["--delta", "0.18", "--p-res", "1", "--p-min", "0.17", "--p-max", "0.17",
          "--t-res", "1", "--t-min", "0.1", "--t-max", "0.1"], ",true"),
        (["--delta", "0.3", "--p-res", "1", "--p-min", "0.4", "--p-max", "0.4",
          "--t-res", "23"], ",true"),
        (["--delta", "0.05", "--p-res", "97", "--t-res", "1", "--t-min", "0.2",
          "--t-max", "0.2"], ",1,false"),
        (["--delta", "0.18", "--p-max", "3", "--t-max", "2", "--p-res", "41",
          "--t-res", "37"], ",1,false"),
    ])
    def test_matches_per_cell_formatter(self, capsys, tmp_path, flags, feature):
        # The CSV bytes equal a per-cell reference formatter: NaN
        # (invalid-regime) cells, 1-point axes, and the p_cal = 0 column
        # whose lhs is exactly 1 and not a paradox.
        out_path = tmp_path / "grid.csv"
        code, _ = run(capsys, "scan", *flags, "--output", str(out_path))
        assert code == EXIT_OK
        args = cli.build_parser().parse_args(["scan", *flags])
        grid = criterion.scan((args.p_min, args.p_max), (args.t_min, args.t_max),
                              args.delta, (args.p_res, args.t_res))
        want = per_cell_scan_csv(grid)
        assert feature + "\n" in want
        assert out_path.read_bytes() == want.encode()

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(p_axis=scan_axes(), t_axis=scan_axes(),
           delta=st.one_of(st.sampled_from([1e-9, 0.18]),
                           st.floats(-9.0, 0.5).map(lambda e: 10.0 ** e)))
    # Rows that are all paradox, rows with none, and invalid-regime cells.
    @example(p_axis=(0.1, 0.3, 9), t_axis=(0.0, 0.1, 3), delta=0.18)
    @example(p_axis=(0.0, 2.0, 9), t_axis=(1.0, 2.0, 4), delta=0.18)
    @example(p_axis=(0.0, 1.0, 9), t_axis=(0.0, 1.0, 9), delta=1e-9)
    def test_drawn_grid_matches_per_cell_formatter(self, p_axis, t_axis, delta):
        (p_min, p_max, p_res), (t_min, t_max, t_res) = p_axis, t_axis
        flags = [f"--delta={delta!r}", f"--p-min={p_min!r}", f"--p-max={p_max!r}",
                 f"--t-min={t_min!r}", f"--t-max={t_max!r}",
                 "--p-res", str(p_res), "--t-res", str(t_res)]
        grid = criterion.scan((p_min, p_max), (t_min, t_max), delta, (p_res, t_res))
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "grid.csv"
            assert main(["scan", *flags, "--output", str(out_path)]) == EXIT_OK
            assert out_path.read_bytes() == per_cell_scan_csv(grid).encode()

    def test_default_grid_digest(self, capsys, tmp_path):
        # The grid and its contour take only + - * / and linspace, so their
        # bytes are the same on every platform.
        grid, contour = tmp_path / "g.csv", tmp_path / "c.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18", "--output", str(grid),
                      "--contour", str(contour))
        assert code == EXIT_OK
        assert hashlib.sha256(grid.read_bytes()).hexdigest() == (
            "3fbf364293e55511d5fe616e01ff495804983a7c179cb4269f329cd944df0005")
        assert hashlib.sha256(contour.read_bytes()).hexdigest() == (
            "c2ad38e678409109431ce8bebaad673fcf90a70328d6c1f7ba96f302ce632296")

    def test_contour_output(self, capsys, tmp_path):
        grid, contour = tmp_path / "g.csv", tmp_path / "c.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18",
                      "--t-max", "0.9", "--p-res", "60", "--t-res", "40",
                      "--output", str(grid), "--contour", str(contour))
        assert code == EXIT_OK
        lines = contour.read_text().splitlines()
        assert lines[0] == "p_cal,t_cal"
        assert len(lines) > 2

    @pytest.mark.parametrize("flags, rows", [
        (["--delta", "0.18", "--t-max", "0.9", "--p-res", "60", "--t-res", "40"], "many"),
        (["--delta", "1e-9", "--p-res", "201", "--t-res", "50"], "many"),
        (["--delta", "0.3", "--p-res", "1", "--p-min", "0.4", "--p-max", "0.4",
          "--t-res", "23"], "one"),
        (["--delta", "0.18", "--p-min", "0.1", "--t-min", "2", "--t-max", "3",
          "--p-res", "20", "--t-res", "20"], "none"),
    ])
    def test_contour_matches_per_point_formatter(self, capsys, tmp_path, flags, rows):
        # The contour bytes equal a per-point reference formatter, including
        # a 1-point p axis and a grid that never crosses the bound (header only).
        grid_path, contour = tmp_path / "g.csv", tmp_path / "c.csv"
        code, _ = run(capsys, "scan", *flags, "--output", str(grid_path),
                      "--contour", str(contour))
        assert code == EXIT_OK
        args = cli.build_parser().parse_args(["scan", *flags])
        grid = criterion.scan((args.p_min, args.p_max), (args.t_min, args.t_max),
                              args.delta, (args.p_res, args.t_res))
        want = per_point_contour_csv(grid)
        n_points = want.count("\n") - 1
        assert {"none": n_points == 0, "one": n_points == 1, "many": n_points > 1}[rows]
        assert contour.read_bytes() == want.encode()

    def test_unwritable_output_exits_io(self, capsys, tmp_path):
        code, _ = run(capsys, "scan", "--delta", "0.18",
                      "--output", str(tmp_path / "no/such/dir/x.csv"))
        assert code == EXIT_IO

    @pytest.mark.parametrize("flags", [
        ["--p-min", "0", "--p-max", "1", "--p-res", "1"],
        ["--p-min", "0.3", "--p-max", "0.3", "--p-res", "5"],
        ["--t-res", "0"],
        ["--p-max", "inf"],
        ["--t-min", "nan"],
        ["--p-min", "-inf"],
    ])
    def test_refused_axes_exit_config(self, capsys, tmp_path, flags):
        grid, contour = tmp_path / "g.csv", tmp_path / "c.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18", *flags,
                      "--output", str(grid), "--contour", str(contour))
        assert code == EXIT_CONFIG
        assert not grid.exists() and not contour.exists()

    def test_config_flag_is_unrecognized(self, capsys, tmp_path):
        # scan reads no config; the flag is refused, not silently ignored.
        grid = tmp_path / "g.csv"
        code = main(["scan", "--config", str(tmp_path / "none.cfg"),
                     "--delta", "0.18", "--output", str(grid)])
        assert code == EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not grid.exists()

    @pytest.mark.parametrize("delta", ["inf", "nan", "0", "-0.1"])
    def test_bad_delta_exits_config(self, capsys, tmp_path, delta):
        grid = tmp_path / "g.csv"
        code, _ = run(capsys, "scan", f"--delta={delta}", "--output", str(grid))
        assert code == EXIT_CONFIG
        assert not grid.exists()

    def test_large_grid_memory_within_scan_cost(self, tmp_path):
        # The grid CSV is written row by row as it is formatted, so the
        # traced peak is the scan's own arrays and a fixed MiB; built as one
        # text it peaked at about 160 bytes a cell.
        n = 400
        tracemalloc.start()
        try:
            code = main(["scan", "--delta", "0.18", "--p-res", str(n), "--t-res", str(n),
                         "--output", str(tmp_path / "g.csv"),
                         "--contour", str(tmp_path / "c.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= criterion._SCAN_CELL_BYTES * n * n + 2**20


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega-min", "0", "--omega-max", "4e6", "--points", "100000000000000"],
    ["scan", "--delta", "0.18", "--p-res", "10000000", "--t-res", "10000000"],
    ["scan", "--delta", "0.18", "--p-res", str(10**30), "--t-res", "2"],
    ["spectrum", "--omega-min", "0", "--omega-max", "4e6", "--points", str(10**35)],
])
def test_oversized_grid_refused_before_allocating(capsys, tmp_path, argv):
    # A grid far past the CSV budget exits 1 with one readable line, its
    # counts as %.6g numbers, writes no file and allocates nothing of its size.
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                          "input_power_w  = 0"))
    out_path = tmp_path / "out.csv"
    config = ["--config", str(cfg)] if argv[0] == "spectrum" else []   # scan takes none
    tracemalloc.start()
    try:
        code = main([*argv, *config, "--output", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "budget" in err
    assert not re.search(r"\d{20}", err)
    assert not out_path.exists()
    assert peak < 2**20


@pytest.mark.parametrize("command", ["scan", "spectrum"])
def test_stdout_matches_output_file(capsys, tmp_path, monkeypatch,
                                    realized_headline_config, command):
    # stdout and --output are one writer: the same bytes either way, for a
    # scan beside its contour file and for a spectrum of three blocks.
    if command == "scan":
        argv = ["scan", "--delta", "0.18", "--t-max", "0.9", "--p-res", "37",
                "--t-res", "23"]
    else:
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", 4)   # 4 + 4 + 3 rows
        argv = ["spectrum", "--config", str(realized_headline_config),
                "--omega-min=-1.6e7", "--omega-max=1.6e7", "--points", "11"]

    def contour(name):
        return ["--contour", str(tmp_path / name)] if command == "scan" else []

    code, out = run(capsys, *argv, *contour("c_stdout.csv"))
    assert code == EXIT_OK
    out_path = tmp_path / "out.csv"
    code, printed = run(capsys, *argv, *contour("c_file.csv"), "--output", str(out_path))
    assert code == EXIT_OK and printed == ""
    assert out.count("\n") > 10
    assert out_path.read_bytes() == out.encode()
    if command == "scan":
        boundary = (tmp_path / "c_file.csv").read_bytes()
        assert boundary.count(b"\n") > 2
        assert (tmp_path / "c_stdout.csv").read_bytes() == boundary


@pytest.mark.parametrize("argv", [["criterion", "--p", "0.1", "--t", "0.1"], ["scan"]])
def test_subnormal_detuning_square_exits_config(capsys, tmp_path, argv):
    out_path = tmp_path / "out.csv"
    code, _ = run(capsys, *argv, "--delta", "1e-170", "--output", str(out_path))
    assert code == EXIT_CONFIG
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["criterion", "--p", "0.1", "--t", "1e308", "--delta", "0.18"],
    ["criterion", "--p", "0.1", "--t", "0.1", "--delta", "1e160"],
    ["criterion", "--p", "1e155", "--t", "0.1", "--delta", "0.18"],
    ["scan", "--delta", "1e200"],
    ["scan", "--delta", "0.18", "--p-max", "1e200"],
    ["criterion", "--p", "2e154", "--t", "0.1", "--delta", "1.5"],
    ["scan", "--delta", "1.5", "--p-max", "2e154"],
])
def test_closed_form_overflow_exits_config(capsys, tmp_path, argv):
    # eps(0) or eps(pi/2) past the double range: refused, never printed as nan.
    out_path = tmp_path / "out.csv"
    code, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == EXIT_CONFIG
    assert not out_path.exists()


def test_eps_half_pi_past_first_quotient_range_exits_ok(capsys):
    # (d2 + p + t/4) / (2 d2) overflows here, eps(pi/2) ~ 2e303 does not.
    code, out = run(capsys, "criterion", "--p", "1e-9", "--t", "1e306",
                    "--delta", "1e-3")
    assert code == EXIT_OK
    vals = kv(out)
    for key in ("eps0", "eps_half_pi", "var_x", "var_y", "lhs"):
        assert math.isfinite(float(vals[key])), (key, vals[key])


def per_value_csv(values: np.ndarray) -> str:
    """Reference `_csv_rows` text: every value through FLOAT_FORMAT on its own."""
    return "\n".join(",".join(cli.FLOAT_FORMAT % v for v in row)
                     for row in values.tolist())


def csv_edge_values() -> np.ndarray:
    """Values at the edges of the `_csv_rows` numpy path, and either sign."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    twelve = np.random.default_rng(5).integers(10**11, 10**12, 40).tolist()
    # (d + 0.5) 10^k is a tie of the last written digit: exact at k = 0,
    # a near-tie wherever 10^k is inexact.
    ties = [(d + 0.5) * 10.0 ** k for d in [*range(1, 1000, 7), *twelve]
            for k in range(-24, 25, 4)]
    switches = [1e-5, 9.99999999999e-5, 9.999999999995e-5, 1e-4, 999999999999.5,
                999999999999.4, 99999999999.95, 1e12, 1e11]
    three_digit = [1.5e-123, 7.25e200, 9.99999999999e99, 9.999999999995e99,
                   1e-290, 1e290, 1.7976931348623157e308]
    subnormal = [5e-324, 1e-310, 2.2250738585072014e-308,
                 np.nextafter(2.2250738585072014e-308, 0.0)]
    special = [0.0, np.inf, np.nan]
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), ties, switches,
                             three_digit, subnormal, special])
    return np.concatenate([values, -values])


class TestCsvRows:
    """`_csv_rows` writes the bytes of FLOAT_FORMAT % v for every value."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60),
           cols=st.integers(1, 6))
    def test_raw_bit_patterns_match_per_value_format(self, bits, cols):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = np.resize(values, -(-len(values) // cols) * cols).reshape(-1, cols)
        assert cli._csv_rows(values) == per_value_csv(values)

    def test_million_bit_patterns_match_per_value_format(self):
        # Many chunks, the last one partial: 200000 rows of 5 at 819 a chunk.
        bits = np.random.default_rng(11).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                  endpoint=False)
        values = bits.view(np.float64).reshape(-1, 5)
        assert cli._csv_rows(values) == per_value_csv(values)

    @pytest.mark.parametrize("cols", [1, 6])
    def test_edge_values_match_per_value_format(self, cols):
        values = csv_edge_values()
        values = np.resize(values, -(-len(values) // cols) * cols).reshape(-1, cols)
        assert cli._csv_rows(values) == per_value_csv(values)

    def test_block_mixing_percent_and_numpy_values(self):
        values = np.array([[0.0, 1.25, -0.0, 3e-300],
                           [np.nan, 0.0001, -np.inf, 123456789012.5],
                           [-2.5e-7, 5e-324, 1e290, -999999999999.5]])
        assert cli._csv_rows(values) == (
            "0,1.25,-0,3e-300\n"
            "nan,0.0001,-inf,123456789012\n"
            "-2.5e-07,4.94065645841e-324,1e+290,-1e+12")
        assert cli._csv_rows(values) == per_value_csv(values)
        assert cli._csv_rows(values[:0]) == ""

    def test_import_builds_no_table(self):
        code = ("import optoepr.cli as cli\n"
                "assert cli._csv_tables.cache_info().currsize == 0")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def per_value_spectrum_csv(config, omegas, phi) -> str:
    """Reference `spectrum` CSV (branch 0), from one stacked solve formatted one
    value at a time."""
    params = cli.physical_from_config(parse_config(str(config)))
    sm = spectra.build_state_space(params, model.steady_state(params)[0])
    spec = spectra.output_spectral_matrix(sm, spectra.noise_psd(params), omegas, phi)
    var, gain = spec.inference()
    lines = ["omega,s11,s12,s22,inferred_variance,gain"]
    for i, omega in enumerate(omegas.tolist()):
        s = spec.s[i]
        row = (omega, s[0, 0], s[0, 1], s[1, 1], var[i] / sm.gamma_c, gain[i])
        lines.append(",".join(f"{float(v):.12g}" for v in row))
    return "\n".join(lines) + "\n"


class TestSpectrum:
    def test_empty_cavity_flat_s11(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                              "input_power_w  = 0"))
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
                      "--omega-min=-6e6", "--omega-max=6e6",
                      "--points", "41", "--output", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "omega,s11,s12,s22,inferred_variance,gain"
        s11 = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.allclose(s11, 2e6, rtol=1e-9)

    def test_omega_symmetry(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                              "input_power_w  = 0"))
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
                      "--omega-min=-4e6", "--omega-max=4e6",
                      "--points", "21", "--phi", "0.7",
                      "--output", str(out_path))
        assert code == EXIT_OK
        rows = [list(map(float, l.split(","))) for l in
                out_path.read_text().splitlines()[1:]]
        for row, mirrored in zip(rows, reversed(rows)):
            assert row[1] == pytest.approx(mirrored[1], rel=1e-9)

    def test_one_solve_per_frequency(self, capsys, tmp_path, monkeypatch):
        # Every omega of the axis is solved exactly once: the frequencies
        # passed to the solver, over all its stacked calls, are the axis.
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                              "input_power_w  = 0"))
        solved = []
        solve = spectra.output_response
        monkeypatch.setattr(spectra, "output_response",
                            lambda model, omega: solved.append(np.atleast_1d(omega))
                            or solve(model, omega))
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", 4)
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
                      "--omega-min", "0", "--omega-max", "4e6",
                      "--points", "9", "--output", str(tmp_path / "s.csv"))
        assert code == EXIT_OK
        assert len(solved) == 3
        assert np.array_equal(np.concatenate(solved), np.linspace(0.0, 4e6, 9))

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocked_output_matches_one_block(self, capsys, tmp_path, monkeypatch,
                                              realized_headline_config, block):
        args = ["spectrum", "--config", str(realized_headline_config),
                "--omega-min=-1.6e7", "--omega-max=1.6e7", "--points", "501",
                "--phi", "0.7"]
        whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", 501)
        assert main(args + ["--output", str(whole)]) == EXIT_OK
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", block)
        assert main(args + ["--output", str(blocked)]) == EXIT_OK
        assert blocked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("lo, hi, points, block", [
        (-1.6e7, 1.6e7, 41, 4096),   # negative and positive omega, one block
        (-1.6e7, -2e6, 9, 4096),     # negative omega only
        (-3e6, -3e6, 1, 4096),       # a 1-point axis
        (-1.6e7, 1.6e7, 11, 4),      # three blocks: 4 + 4 + 3 rows
    ])
    def test_matches_per_value_formatter(self, capsys, tmp_path, monkeypatch,
                                         realized_headline_config, lo, hi, points, block):
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", block)
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", "--config", str(realized_headline_config),
                      f"--omega-min={lo!r}", f"--omega-max={hi!r}",
                      "--points", str(points), "--phi", "0.7", "--output", str(out_path))
        assert code == EXIT_OK
        want = per_value_spectrum_csv(realized_headline_config,
                                      np.linspace(lo, hi, points), 0.7)
        assert want.count("\n") == points + 1
        assert out_path.read_bytes() == want.encode()

    @pytest.mark.parametrize("block", ["realized-headline", "readme"])
    def test_s22_column_is_s11(self, tmp_path, realized_headline_config, block):
        # The sum and difference modes share no input, so the cross PSD is 0
        # and s11 = S_m + S_h + 0 and s22 = S_m + S_h - 0 are the same double.
        if block == "readme":
            cfg = tmp_path / "readme.cfg"
            cfg.write_text(readme_physical_block())
        else:
            cfg = realized_headline_config
        out_path = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", str(cfg), "--omega-min=-1.6e7",
                     "--omega-max=1.6e7", "--points", "201", "--phi", "0.7",
                     "--output", str(out_path)]) == EXIT_OK
        rows = [line.split(",") for line in out_path.read_text().splitlines()]
        assert rows[0][1::2] == ["s11", "s22", "gain"]
        assert len(rows) == 202
        assert all(row[1] == row[3] for row in rows[1:])

    def test_large_axis_memory_within_per_line_cost(self, tmp_path,
                                                    realized_headline_config):
        # Only each block's (rows, 6) result is held until the write, and
        # the blocks are formatted one at a time as the file takes them:
        # about 77 bytes of traced memory per output line at 1e5 points,
        # where one whole CSV text took 262 and a per-omega loop 310.
        points = 100_001
        out_path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            code = main(["spectrum", "--config", str(realized_headline_config),
                         "--omega-min=-1.6e7", "--omega-max=1.6e7",
                         "--points", str(points), "--output", str(out_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= 100 * points

    @pytest.mark.parametrize("existing", [None, b"an earlier report\n"],
                             ids=["no-file", "existing-file"])
    def test_later_block_failure_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                realized_headline_config, existing):
        # Every block is solved, and so checked, before the output is
        # opened: a failure in the second of three blocks creates no file
        # and leaves an existing one's bytes as they were.
        solve = spectra.output_spectral_matrix
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise errors.NumericalError("second block failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectra, "output_spectral_matrix", fail_second)
        monkeypatch.setattr(cli, "SPECTRUM_BLOCK", 4)
        out_path = tmp_path / "s.csv"
        if existing is not None:
            out_path.write_bytes(existing)
        code = main(["spectrum", "--config", str(realized_headline_config),
                     "--omega-min=-1.6e7", "--omega-max=1.6e7", "--points", "9",
                     "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert len(calls) == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "second block failed" in captured.err
        if existing is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == existing

    @pytest.mark.parametrize("axis", [
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "-1"],
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "0"],
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "1"],
        ["--omega-min", "4e6", "--omega-max", "4e6", "--points", "3"],
        ["--omega-min", "4e6", "--omega-max", "0", "--points", "3"],
        ["--omega-min", "0", "--omega-max", "inf", "--points", "3"],
        ["--omega-min", "nan", "--omega-max", "4e6", "--points", "3"],
        ["--omega-min=-inf", "--omega-max", "0", "--points", "3"],
        ["--omega-min=-1e308", "--omega-max=1e308", "--points", "3"],
        ["--omega-min=-1.7e308", "--omega-max=1.7e308", "--points", "2"],
    ])
    def test_refused_frequency_axis_exits_config(self, capsys, tmp_path, axis):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                              "input_power_w  = 0"))
        out_path = tmp_path / "s.csv"
        code = main(["spectrum", "--config", str(cfg), *axis, "--output", str(out_path)])
        assert code == EXIT_CONFIG
        assert "frequency axis" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("text, flags, message", [
        (TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03", "input_power_w  = 0"),
         ["--branch", "5"], "--branch 5 out of range; cubic has 1 root(s)"),
        (DIMLESS, [], "spectrum requires a physical config block"),
    ])
    def test_refused_block_exits_config(self, capsys, tmp_path, text, flags, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out_path = tmp_path / "s.csv"
        code = main(["spectrum", "--config", str(cfg), "--omega-min", "0",
                     "--omega-max", "4e6", "--points", "3", *flags,
                     "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err and len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("phi", ["inf", "-inf", "nan"])
    def test_non_finite_angle_exits_config(self, capsys, tmp_path,
                                           realized_headline_config, phi):
        out_path = tmp_path / "s.csv"
        code = main(["spectrum", "--config", str(realized_headline_config),
                     "--omega-min", "0", "--omega-max", "4e6", "--points", "3",
                     f"--phi={phi}", "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"phi must be finite, got {phi}" in err
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("temperature, expected", [
        ("1e160", EXIT_OK), ("1e300", EXIT_NUMERICAL)])
    def test_bath_near_the_double_range(self, capsys, tmp_path,
                                        realized_headline_config, temperature,
                                        expected):
        # Spectra near 1e171 are checked without a square overflowing; past
        # the double range they are a numerical failure in one line, not a
        # config error after overflow warnings.
        cfg = set_key(realized_headline_config, "temperature_k", temperature)
        out_path = tmp_path / "s.csv"
        code = main(["spectrum", "--config", str(cfg), "--omega-min", "0",
                     "--omega-max", "1e6", "--points", "3", "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == expected
        if expected == EXIT_OK:
            assert err == ""
            assert len(out_path.read_text().splitlines()) == 4
        else:
            assert "at omega=0.0" in err
            assert len(err.splitlines()) == 1
            assert not out_path.exists()

    @pytest.mark.parametrize("temperature", ["1e8", "1e15", "1e40"])
    def test_hot_bath_variance_matches_closed_form(self, tmp_path,
                                                   realized_headline_config,
                                                   temperature):
        # Common-mode force noise dominates every entry of the matrix, so
        # s11 - 2 g s12 + g^2 s22 would cancel (to -68719.48 at 1e15 K); the
        # variance must come out of a sum of non-negative noise terms.
        cfg = set_key(realized_headline_config, "temperature_k", temperature)
        params = cli.physical_from_config(parse_config(str(cfg)))
        ref = epr_lhs(model.to_dimensionless(params, model.steady_state(params)[0].delta))
        out_path = tmp_path / "s.csv"
        for phi, want in ((0.0, ref.var_x), (math.pi / 2, ref.var_y)):
            assert main(["spectrum", "--config", str(cfg), "--omega-min", "0",
                         "--omega-max", "0", "--points", "1", f"--phi={phi!r}",
                         "--output", str(out_path)]) == EXIT_OK
            var = float(out_path.read_text().splitlines()[1].split(",")[4])
            assert var == pytest.approx(want, rel=1e-8)

    def test_literal_textbook_set_exits_numerical(self, capsys, tmp_path):
        # The quoted laboratory point is anti-damped; building its state
        # space must fail with the numerical exit code.
        cfg = tmp_path / "lab.cfg"
        kappa_d0 = 0.18 - 0.13335555563349447 / (0.25 + 0.18 ** 2)
        text = TEXTBOOK_PHYSICAL.replace("omega_0_rad_s  = 2e15",
                                      f"detuning0      = {kappa_d0!r}")
        cfg.write_text(text)
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
                      "--omega-min", "0", "--omega-max", "1e6",
                      "--points", "3", "--output", str(tmp_path / "s.csv"))
        assert code == EXIT_NUMERICAL


# A stable laboratory set given by its bare detuning; the test below pushes
# one key of it past what the steady-state cubic can hold in doubles.
DETUNED_PHYSICAL = """\
mass_kg = 3e-5
cavity_length_m = 1e-3
omega_m_rad_s = 1.1e6
gamma_m_hz = 1e6
omega_c_rad_s = 2e15
detuning0 = 0.1
gamma_c_hz = 2e6
temperature_k = 6.4e-7
input_power_w = 1e-3
"""


@pytest.mark.parametrize("argv", [
    ["steady-state"],
    ["spectrum", "--omega-min", "0", "--omega-max", "1e6", "--points", "3"],
    ["simulate"],
], ids=["steady-state", "spectrum", "simulate"])
@pytest.mark.parametrize("old, new, message", [
    ("input_power_w = 1e-3", "input_power_w = 1e308", "drive strength kappa is inf"),
    ("detuning0 = 0.1", "detuning0 = 1e300", "steady-state detuning is nan"),
], ids=["power-1e308", "detuning0-1e300"])
def test_overflowing_steady_state_exits_numerical(capsys, tmp_path, argv, old, new,
                                                  message):
    # kappa overflows, or the cubic's bracket does and its root is nan:
    # every command that solves it fails cleanly and prints no nan.
    cfg = tmp_path / "over.cfg"
    cfg.write_text(DETUNED_PHYSICAL.replace(old, new))
    code = main([*argv, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["steady-state"],
    ["criterion", "--delta", "0.18"],
    ["spectrum", "--omega-min", "0", "--omega-max", "1e6", "--points", "3"],
    ["simulate"],
], ids=["steady-state", "criterion", "spectrum", "simulate"])
@pytest.mark.parametrize("gamma_c", ["1e-200", "1e200"])
def test_gamma_c_square_out_of_range_exits_numerical(capsys, tmp_path, argv, gamma_c):
    # gamma_c ** 2 underflows to 0 (a float division by zero in kappa and
    # p_cal) or overflows (OverflowError from the square): a clean exit 2.
    cfg = tmp_path / "gamma_c.cfg"
    cfg.write_text(DETUNED_PHYSICAL.replace("gamma_c_hz = 2e6",
                                            f"gamma_c_hz = {gamma_c}"))
    code = main([*argv, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert "outside the double range" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--omega-min", "0", "--omega-max", "1e6", "--points", "3"],
    ["simulate"],
], ids=["spectrum", "simulate"])
def test_non_finite_drift_exits_numerical(capsys, tmp_path, argv):
    # m omega_m^2 overflows to inf in the drift matrix: refused before the
    # eigensolver, which would raise LinAlgError.
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(DETUNED_PHYSICAL.replace("mass_kg = 3e-5", "mass_kg = 1e300"))
    code = main([*argv, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert "drift matrix has a non-finite entry" in captured.err
    assert len(captured.err.splitlines()) == 1


class TestSteadyState:
    def test_zero_power_single_root(self, capsys, tmp_path):
        cfg = tmp_path / "ss.cfg"
        text = TEXTBOOK_PHYSICAL.replace("omega_0_rad_s  = 2e15",
                                      "detuning0      = 0.37")
        text = text.replace("input_power_w  = 0.03", "input_power_w  = 0")
        cfg.write_text(text)
        code, out = run(capsys, "steady-state", "--config", str(cfg))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert "delta=0.37" in lines[0]
        assert "stable=true" in lines[0]

    def test_bistable_three_lines_middle_unstable(self, capsys, tmp_path):
        # kappa = 2 at delta0 = -3 (three real roots; see the cubic oracle).
        from optoepr.constants import HBAR
        ain2 = 2.0 * (3e-5 * (2e6) ** 2 * (1e-3) ** 2 * (2e6) ** 2) / (
            2 * HBAR * (2e15) ** 2)
        p_in = ain2 * 2 * HBAR * (2e15 - 3 * 2e6)
        cfg = tmp_path / "bi.cfg"
        text = TEXTBOOK_PHYSICAL.replace("omega_0_rad_s  = 2e15",
                                      "detuning0      = -3")
        text = text.replace("input_power_w  = 0.03", f"input_power_w  = {p_in!r}")
        cfg.write_text(text)
        code, out = run(capsys, "steady-state", "--config", str(cfg))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 3
        stables = ["stable=true" in l for l in lines]
        assert stables == [True, False, True]
        for line in lines:
            residual = float(line.split("residual=")[1])
            assert residual < 1e-12

    def test_requires_detuning_key(self, capsys, tmp_path):
        cfg = tmp_path / "ss.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL)
        code, _ = run(capsys, "steady-state", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_dimensionless_block_exits_config(self, capsys, tmp_path):
        cfg = tmp_path / "ss.cfg"
        cfg.write_text(DIMLESS)
        out_path = tmp_path / "ss.out"
        code = main(["steady-state", "--config", str(cfg), "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "steady-state requires a physical config block" in err
        assert not out_path.exists()


class TestSimulate:
    def test_small_dimensionless_run(self, capsys, tmp_path):
        # Seed pinned; statistical calibration of the estimator is covered by
        # the sde suite and the acceptance run.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "trajectories = 32\nsegments = 16\nseed = 12\n"
                       + "tau = 4e-4\n")
        code, out = run(capsys, "simulate", "--config", str(cfg))
        vals = kv(out)
        assert code == EXIT_OK, out
        assert vals["validation"] == "pass"
        assert abs(float(vals["phi_0_z"])) < 3
        assert abs(float(vals["phi_half_pi_z"])) < 3
        assert float(vals["product_std_err"]) > 0

    def test_requires_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("trajectories = 4\n")
        code, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_branch_refused_for_dimensionless_block(self, capsys, tmp_path):
        # A dimensionless block is realized on one root; a --branch that
        # cannot apply is a config error, not ignored.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS)
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--branch", "7",
                     "--output", str(out_path)])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and "--branch 7" in err[0]
        assert not out_path.exists()

    def test_tiny_trajectory_count_still_passes(self, capsys, tmp_path):
        # Two trajectories give a wide jackknife error; the |z| < 3 gate is a
        # contract on the reported z, not on the precision.  Seed pinned.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "trajectories = 2\nsegments = 8\nseed = 3\n"
                       + "tau = 4e-4\n")
        code, out = run(capsys, "simulate", "--config", str(cfg))
        vals = kv(out)
        assert code == EXIT_OK, out
        assert float(vals["phi_0_std_err"]) > 0

    def test_physical_block_matches_dimensionless(self, capsys, tmp_path,
                                                  realized_headline_config):
        # The realized headline as a physical block, on branch 0, runs the
        # same model and noise stream as the dimensionless block.
        sim = "trajectories = 2\nsegments = 8\ntau = 4e-4\nseed = 3\n"
        phys, dimless = realized_headline_config, tmp_path / "dimless.cfg"
        phys.write_text(phys.read_text() + sim)
        dimless.write_text(DIMLESS + sim)
        code_p, out_p = run(capsys, "simulate", "--config", str(phys), "--branch", "0")
        code_d, out_d = run(capsys, "simulate", "--config", str(dimless))
        assert code_p == code_d == EXIT_OK
        assert out_p == out_d

    def test_segment_budget_refused_before_work(self, capsys, tmp_path):
        # 180 trajectories x 1e12 windows of draws: refused by the draw
        # budget before any stream is spawned, so the run ends at once.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "segments = 1e12\n")
        out_path = tmp_path / "sim.out"
        start = time.perf_counter()
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        elapsed = time.perf_counter() - start
        assert code == EXIT_CONFIG
        assert "budget" in capsys.readouterr().err
        assert not out_path.exists()
        assert elapsed < 1.0

    def test_stream_budget_refused_before_streams(self, capsys, tmp_path, monkeypatch):
        # 1e7 trajectories of one window: the draws fit the budget, the
        # trajectories' generators (~8 GB) do not; refused before any stream
        # is spawned.
        def no_streams(*args):
            raise AssertionError("streams spawned before the budget check")

        monkeypatch.setattr(sde, "_streams", no_streams)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "trajectories = 10000000\nsegments = 1\n")
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1 and "budget" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("keys", [
        "tau = 1e300\n",
        "dt = 1e-300\ntau = 1e10\n",
        "dt = 1e-10\nburn_in = 1e300\n",
        "dt = 1e-30\n",
    ], ids=["tau", "tau-over-tiny-dt", "burn_in", "tiny-dt"])
    def test_plan_past_max_steps_exits_config(self, capsys, tmp_path, keys):
        # A tau or burn_in of more than MAX_STEPS steps, the ratio finite or
        # overflowing (with the default tau at dt = 1e-30): refused as a
        # config error, not an OverflowError or nan estimates.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "trajectories = 2\nsegments = 1\n" + keys)
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "MAX_STEPS" in err
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("keys", [
        "segments = 1e300\n", "trajectories = 1e300\n",
        "segments = 1e300\ntrajectories = 1e300\n",
        "segments = 1e308\ntrajectories = 1e300\n",
    ], ids=["segments", "trajectories", "both", "doubles-past-double-range"])
    def test_huge_plan_budget_message_is_readable(self, capsys, tmp_path, keys):
        # The counts and GiB print as %.6g numbers, not 300-digit integers,
        # also where they overflow a double (the byte count with both keys,
        # the doubles per trajectory at 1e308 segments).
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + keys)
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "budget" in err and "e+300" in err
        assert not re.search(r"\d{20}", err)
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("p_cal, delta, message", [
        ("0.003", "2e-8", "landed at"), ("100", "1e-5", "steady state landed"),
        ("1", "1e-10", "omega_0"),
        ("0.17", "1e200", "double range"), ("0", "1e200", "double range"),
        ("1e300", "0.18", "double range"),
    ])
    def test_unrealizable_triple_exits_numerical(self, capsys, tmp_path, p_cal, delta,
                                                 message):
        # A detuning below the ULP of omega_0, a root that misses its
        # detuning before any damping is tried, one whose realization needs a
        # drive frequency <= 0, and recipes whose input power overflows: all
        # are numerical failures, not errors in a config that set no power.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"p_cal = {p_cal}\nt_cal = 0.1\ndelta = {delta}\n"
                       "trajectories = 2\nsegments = 1\n")
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        assert code == EXIT_NUMERICAL
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("temperature", ["1e15", "1e25", "1e40"])
    def test_negative_window_variance_exits_numerical(self, capsys, tmp_path,
                                                       realized_headline_config,
                                                       temperature):
        # At phi = pi/2 the gain is 1 + 2^-52, and force noise 1e20 or more
        # above vacuum cancels in X1 - g X2 until the window-sum variance
        # comes out negative: refused before its square root is taken.
        cfg = set_key(realized_headline_config, "temperature_k", temperature)
        cfg.write_text(cfg.read_text() + "trajectories = 4\nsegments = 1\n")
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert "negative variance" in err
        assert len(err.splitlines()) == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("key, value", [
        ("trajectories", "nan"), ("trajectories", "inf"), ("trajectories", "2.9"),
        ("segments", "nan"), ("seed", "-1"), ("seed", "nan"),
        ("dt", "nan"), ("dt", "inf"), ("dt", "0"), ("tau", "nan"), ("tau", "inf"),
        ("burn_in", "nan"), ("burn_in", "inf"), ("duration", "nan"),
        ("duration", "inf"), ("duration", "0.12"), ("trajectories", "1"),
    ])
    def test_refused_sim_key_exits_config(self, capsys, tmp_path, key, value):
        keys = {"trajectories": "2", "segments": "1", key: value}
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(DIMLESS + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        out_path = tmp_path / "sim.out"
        code, _ = run(capsys, "simulate", "--config", str(cfg), "--output", str(out_path))
        assert code == EXIT_CONFIG
        assert not out_path.exists()


@pytest.mark.parametrize("key, value", [
    *(("temperature_k", t) for t in ("1e15", "1e25", "1e40", "1e160", "1e200", "1e300")),
    ("omega_m_rad_s", "1.1e-154"),
])
def test_extreme_value_exits_cleanly(capsys, realized_headline_config,
                                     headline_realization, key, value):
    # Every physical-config command on the realized headline with one key
    # pushed to an extreme: an exit code of the contract, at most one line
    # on stderr, and no exception or warning escaping `main`.
    params, _ = headline_realization
    base = set_key(realized_headline_config, key, value).read_text()
    detuning0 = (params.omega_0 - params.omega_c) / params.gamma_c
    runs = [
        (base, ["spectrum", "--omega-min", "0", "--omega-max", "1e6", "--points", "3"]),
        (base + "trajectories = 4\nsegments = 1\n", ["simulate"]),
        (base, ["criterion", "--delta", "0.18"]),
        (re.sub(r"^omega_0_rad_s = .*$", f"detuning0 = {detuning0!r}", base, flags=re.M),
         ["steady-state"]),
    ]
    for text, argv in runs:
        realized_headline_config.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(realized_headline_config)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 4), (argv, err)
        assert len(err.splitlines()) <= 1, (argv, err)


class TestSpectrumCriterionConsistency:
    def test_zero_sideband_row_matches_criterion(self, capsys, tmp_path,
                                                 realized_headline_config):
        # A stable laboratory realization of the headline point: the omega = 0
        # spectrum row must reproduce the criterion's inference variance.
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", "--config", str(realized_headline_config),
                      "--omega-min=-1e6", "--omega-max=1e6", "--points", "3",
                      "--output", str(out_path))
        assert code == EXIT_OK
        rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
        center = [r for r in rows if float(r[0]) == 0.0][0]
        ref = epr_lhs(HEADLINE)
        assert float(center[4]) == pytest.approx(ref.var_x, abs=1e-3)


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# criterion point\np_cal = 0.17   # power\n\n"
                       "t_cal = 0.1\ndelta = 0.18\n")
        values = parse_config(str(cfg))
        assert values == {"p_cal": 0.17, "t_cal": 0.1, "delta": 0.18}

    def test_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p_kal = 0.17\n")
        with pytest.raises(Exception):
            parse_config(str(cfg))

    def test_rejects_mixed_blocks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(DIMLESS + "mass_kg = 1e-5\n")
        with pytest.raises(Exception):
            parse_config(str(cfg))

    def test_rejects_duplicate_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p_cal = 0.1\np_cal = 0.2\n")
        with pytest.raises(Exception):
            parse_config(str(cfg))

    @pytest.mark.parametrize("line, message", [
        ("p_cal 0.17", "expected 'key = value'"),
        ("p_cal = 0.1x", "invalid number for 'p_cal'"),
    ])
    def test_rejects_malformed_line(self, tmp_path, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# point\n{line}\n")
        with pytest.raises(errors.ParameterError, match=re.escape(f"{cfg}:2: {message}")):
            parse_config(str(cfg))

    def test_readme_config_blocks_run(self, tmp_path, capsys):
        # Every config block the README prints runs as printed: the physical
        # block through `spectrum` at 3 points, the dimensionless block
        # through `criterion`, and that block with the simulation block
        # through `simulate`.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        blocks = {}
        for info, text in re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.S | re.M):
            if info:   # a shell example
                continue
            cfg = tmp_path / f"block{len(blocks)}.cfg"
            cfg.write_text(text)
            keys = parse_config(str(cfg)).keys()
            kinds = [kind for kind, known in (("physical", cli.PHYSICAL_KEYS),
                                              ("dimensionless", cli.DIMENSIONLESS_KEYS),
                                              ("sim", cli.SIM_KEYS)) if keys and keys <= known]
            assert len(kinds) == 1, text
            blocks[kinds[0]] = cfg
        assert sorted(blocks) == ["dimensionless", "physical", "sim"]
        assert main(["spectrum", "--config", str(blocks["physical"]), "--omega-min=-8e6",
                     "--omega-max=8e6", "--points", "3"]) == EXIT_OK
        assert main(["criterion", "--config", str(blocks["dimensionless"])]) == EXIT_OK
        both = tmp_path / "simulate.cfg"
        both.write_text(blocks["dimensionless"].read_text() + blocks["sim"].read_text())
        assert main(["simulate", "--config", str(both)]) == EXIT_OK
        assert "validation=pass" in capsys.readouterr().out


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("criterion", "scan", "spectrum", "simulate", "steady-state"):
        assert name in out


def test_subcommand_help_enumerates_flags(capsys):
    assert main(["scan", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for flag in ("--delta", "--p-min", "--p-max", "--t-min", "--t-max",
                 "--p-res", "--t-res", "--contour", "--output"):
        assert flag in out
    assert "--config" not in out   # the grid comes from flags alone


def source_tree_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_python_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "optoepr", "scan", "--help"],
                          env=source_tree_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--delta" in proc.stdout


def test_reused_parser_matches_fresh_process(capsys, tmp_path, monkeypatch):
    # One process builds one parser.  A flag error, a refused parameter and
    # a help page run on it first, and every command then writes the bytes
    # (stdout, stderr, exit code and files) of a fresh `python -m optoepr`.
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")   # help text wraps at the same width
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    physical = tmp_path / "physical.cfg"
    physical.write_text(re.search(r"^(# physical block.*?)^```$", readme,
                                  re.S | re.M).group(1))
    commands = [
        (["scan", "--p-res", "x", "--delta", "0.18"], []),
        (["scan", "--delta", "-1"], []),
        (["scan", "--help"], []),
        (["scan", "--delta", "0.18", "--output", "{}grid.csv",
          "--contour", "{}contour.csv"], ["grid.csv", "contour.csv"]),
        (["spectrum", "--config", str(physical), "--omega-min=-8e6",
          "--omega-max=8e6", "--points", "201"], []),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    for argv, files in commands:
        code = main([arg.format(f"{here}/") for arg in argv])
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "optoepr", *[arg.format(f"{fresh}/") for arg in argv]],
            env=source_tree_env(), capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    assert code == EXIT_OK


def test_closed_stdout_pipe_exits_io():
    # A reader that closes the pipe after the header, as `| head -1` does,
    # is an I/O error: exit 3 with one line, not success on a cut CSV.
    proc = subprocess.Popen([sys.executable, "-m", "optoepr", "scan", "--delta", "0.18",
                             "--p-res", "400", "--t-res", "400"], env=source_tree_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"p_cal,t_cal,lhs,paradox\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_IO
    finally:
        proc.kill()
        proc.wait()
    assert err.count("\n") == 1 and "i/o error" in err, err


def test_every_package_error_has_an_exit_code():
    # `main` maps ParameterError to exit 1 and NumericalError to exit 2 and
    # has no branch for the base class, so every other package error must
    # derive from one of the two.
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.OptoEprError)}
    assert {errors.ConvergenceError, errors.InstabilityError} <= classes
    for cls in classes - {errors.OptoEprError}:
        assert issubclass(cls, (errors.ParameterError, errors.NumericalError)), cls
