"""End-to-end tests of the command-line surface and its exit-code contract."""

import math
import time

import numpy as np
import pytest

from optoepr import epr_lhs, spectra
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

    def test_contour_output(self, capsys, tmp_path):
        grid, contour = tmp_path / "g.csv", tmp_path / "c.csv"
        code, _ = run(capsys, "scan", "--delta", "0.18",
                      "--t-max", "0.9", "--p-res", "60", "--t-res", "40",
                      "--output", str(grid), "--contour", str(contour))
        assert code == EXIT_OK
        lines = contour.read_text().splitlines()
        assert lines[0] == "p_cal,t_cal"
        assert len(lines) > 2

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

    @pytest.mark.parametrize("delta", ["inf", "nan", "0", "-0.1"])
    def test_bad_delta_exits_config(self, capsys, tmp_path, delta):
        grid = tmp_path / "g.csv"
        code, _ = run(capsys, "scan", f"--delta={delta}", "--output", str(grid))
        assert code == EXIT_CONFIG
        assert not grid.exists()


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
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(TEXTBOOK_PHYSICAL.replace("input_power_w  = 0.03",
                                              "input_power_w  = 0"))
        solves = []
        solve = spectra.output_response
        monkeypatch.setattr(spectra, "output_response",
                            lambda *a: solves.append(a) or solve(*a))
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
                      "--omega-min", "0", "--omega-max", "4e6",
                      "--points", "9", "--output", str(tmp_path / "s.csv"))
        assert code == EXIT_OK
        assert len(solves) == 9

    @pytest.mark.parametrize("axis", [
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "-1"],
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "0"],
        ["--omega-min", "0", "--omega-max", "4e6", "--points", "1"],
        ["--omega-min", "4e6", "--omega-max", "4e6", "--points", "3"],
        ["--omega-min", "4e6", "--omega-max", "0", "--points", "3"],
        ["--omega-min", "0", "--omega-max", "inf", "--points", "3"],
        ["--omega-min", "nan", "--omega-max", "4e6", "--points", "3"],
        ["--omega-min=-inf", "--omega-max", "0", "--points", "3"],
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

    def test_physical_block_matches_dimensionless(self, capsys, tmp_path):
        # The realized headline as a physical block, on branch 0, runs the
        # same model and noise stream as the dimensionless block.
        from optoepr import realize_dimensionless
        params, _ = realize_dimensionless(HEADLINE)
        sim = "trajectories = 2\nsegments = 8\ntau = 4e-4\nseed = 3\n"
        phys, dimless = tmp_path / "phys.cfg", tmp_path / "dimless.cfg"
        phys.write_text(
            f"mass_kg = {params.mass!r}\n"
            f"cavity_length_m = {params.cavity_length!r}\n"
            f"omega_m_rad_s = {params.omega_m!r}\n"
            f"gamma_m_hz = {params.gamma_m!r}\n"
            f"omega_c_rad_s = {params.omega_c!r}\n"
            f"omega_0_rad_s = {params.omega_0!r}\n"
            f"gamma_c_hz = {params.gamma_c!r}\n"
            f"temperature_k = {params.temperature!r}\n"
            f"input_power_w = {params.input_power!r}\n" + sim)
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

    @pytest.mark.parametrize("p_cal, delta, message", [
        ("0.003", "2e-8", "landed at"), ("1", "1e-10", "omega_0"),
    ])
    def test_unrealizable_triple_exits_numerical(self, capsys, tmp_path, p_cal, delta,
                                                 message):
        # A detuning below the ULP of omega_0, and one whose realization
        # needs a drive frequency <= 0: both are numerical failures.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"p_cal = {p_cal}\nt_cal = 0.1\ndelta = {delta}\n"
                       "trajectories = 2\nsegments = 1\n")
        out_path = tmp_path / "sim.out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out_path)])
        assert code == EXIT_NUMERICAL
        assert message in capsys.readouterr().err
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


class TestSpectrumCriterionConsistency:
    def test_zero_sideband_row_matches_criterion(self, capsys, tmp_path):
        # A stable laboratory realization of the headline point: the omega = 0
        # spectrum row must reproduce the criterion's inference variance.
        from optoepr import realize_dimensionless
        params, _ = realize_dimensionless(HEADLINE)
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
        out_path = tmp_path / "spec.csv"
        code, _ = run(capsys, "spectrum", "--config", str(cfg),
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


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("criterion", "scan", "spectrum", "simulate", "steady-state"):
        assert name in out


def test_subcommand_help_enumerates_flags(capsys):
    assert main(["scan", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for flag in ("--delta", "--p-min", "--p-max", "--t-min", "--t-max",
                 "--p-res", "--t-res", "--contour", "--output", "--config"):
        assert flag in out
