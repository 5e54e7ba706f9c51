"""Tests for parameter validation, unit reduction, and the steady-state cubic."""

import math

import numpy as np
import pytest

from optoepr import (Couplings, DimensionlessParams, NumericalError,
                     ParameterError, PhysicalParams, couplings, drive_kappa,
                     locality_check, steady_state, steady_state_residual,
                     to_dimensionless)
from optoepr.constants import C_LIGHT, HBAR, K_B

from conftest import TEXTBOOK_LAB


def replace_params(base: PhysicalParams, **kw) -> PhysicalParams:
    fields = dict(mass=base.mass, cavity_length=base.cavity_length,
                  omega_m=base.omega_m, gamma_m=base.gamma_m,
                  omega_c=base.omega_c, omega_0=base.omega_0,
                  gamma_c=base.gamma_c, temperature=base.temperature,
                  input_power=base.input_power)
    fields.update(kw)
    return PhysicalParams(**fields)


class TestParamValidation:
    def test_accepts_textbook_lab_set(self, textbook_lab_params):
        assert textbook_lab_params.detuning0 == 0.0

    @pytest.mark.parametrize("field", ["mass", "cavity_length", "omega_m",
                                       "gamma_m", "omega_c", "omega_0",
                                       "gamma_c"])
    def test_rejects_non_positive(self, textbook_lab_params, field):
        with pytest.raises(ParameterError):
            replace_params(textbook_lab_params, **{field: 0.0})
        with pytest.raises(ParameterError):
            replace_params(textbook_lab_params, **{field: -1.0})

    def test_temperature_and_power_may_be_zero(self, textbook_lab_params):
        p = replace_params(textbook_lab_params, temperature=0.0, input_power=0.0)
        assert p.temperature == 0.0

    def test_rejects_fast_mechanics(self, textbook_lab_params):
        with pytest.raises(ParameterError):
            replace_params(textbook_lab_params, omega_m=textbook_lab_params.omega_c / 10)

    def test_dimensionless_rejects_negative_delta(self):
        with pytest.raises(ParameterError):
            DimensionlessParams(0.1, 0.1, 0.0)
        with pytest.raises(ParameterError):
            DimensionlessParams(0.1, 0.1, -0.18)
        with pytest.raises(ParameterError):
            DimensionlessParams(-0.1, 0.1, 0.18)

    def test_detuning_square_must_be_normal(self, textbook_lab_params):
        # The criterion divides by 2 delta^2: a delta whose square is zero or
        # subnormal is refused, the smallest delta with a normal square is not.
        for bad in (1e-170, 1e-155):
            with pytest.raises(ParameterError):
                DimensionlessParams(0.1, 0.1, bad)
            with pytest.raises(ParameterError):
                to_dimensionless(textbook_lab_params, bad)
        assert DimensionlessParams(0.1, 0.1, 1.5e-154).delta == 1.5e-154


class TestToDimensionless:
    def test_textbook_lab_values(self, textbook_lab_params):
        # Direct substitution of the quoted laboratory set at delta = 0.18.
        dp = to_dimensionless(textbook_lab_params, 0.18)
        assert dp.p_cal == pytest.approx(0.15934844192634562, rel=1e-12)
        assert dp.t_cal == pytest.approx(0.18852528845837724, rel=1e-12)

    def test_zero_power_and_temperature(self, textbook_lab_params):
        dp = to_dimensionless(replace_params(textbook_lab_params, input_power=0.0), 0.18)
        assert dp.p_cal == 0.0
        assert dp.t_cal == pytest.approx(0.18852528845837724, rel=1e-12)
        dp = to_dimensionless(replace_params(textbook_lab_params, temperature=0.0), 0.18)
        assert dp.t_cal == 0.0

    def test_rejects_non_positive_delta(self, textbook_lab_params):
        for bad in (0.0, -0.18):
            with pytest.raises(ParameterError):
                to_dimensionless(textbook_lab_params, bad)

    def test_homogeneous_in_power_and_temperature(self, textbook_lab_params):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = float(rng.uniform(0.1, 10.0))
            delta = float(rng.uniform(0.05, 1.0))
            base = to_dimensionless(textbook_lab_params, delta)
            scaled_p = to_dimensionless(
                replace_params(textbook_lab_params,
                               input_power=s * textbook_lab_params.input_power), delta)
            scaled_t = to_dimensionless(
                replace_params(textbook_lab_params,
                               temperature=s * textbook_lab_params.temperature), delta)
            assert scaled_p.p_cal == pytest.approx(s * base.p_cal, rel=1e-13)
            assert scaled_p.t_cal == base.t_cal
            assert scaled_t.t_cal == pytest.approx(s * base.t_cal, rel=1e-13)
            assert scaled_t.p_cal == base.p_cal


class TestSteadyState:
    def test_zero_power_single_root_at_bare_detuning(self, textbook_lab_params):
        params = replace_params(textbook_lab_params, input_power=0.0,
                                omega_0=textbook_lab_params.omega_c
                                + 0.37 * textbook_lab_params.gamma_c)
        roots = steady_state(params)
        assert len(roots) == 1
        ss = roots[0]
        assert ss.delta == pytest.approx(0.37, abs=1e-15)
        assert ss.x == 0.0
        assert ss.alpha == 0.0
        assert ss.y == 0.0
        assert ss.stable

    def test_root_at_requested_detuning(self, textbook_lab_params):
        # Choose the bare detuning so a root lands at delta = 0.18, then check
        # the reconstruction x = (2 hbar omega_c / m omega_m^2 L)|alpha|^2
        # with |alpha|^2 = |alpha_in|^2 / (gamma_c (1/4 + 0.18^2)).
        kappa = drive_kappa(textbook_lab_params)
        delta0 = 0.18 - kappa / (0.25 + 0.18 ** 2)
        params = replace_params(textbook_lab_params,
                                omega_0=textbook_lab_params.omega_c
                                + delta0 * textbook_lab_params.gamma_c)
        roots = steady_state(params)
        target = min(roots, key=lambda r: abs(r.delta - 0.18))
        assert target.delta == pytest.approx(0.18, abs=2e-7)
        ain2 = params.input_power / (2 * HBAR * params.omega_0)
        alpha2 = ain2 / (params.gamma_c * (0.25 + target.delta ** 2))
        assert abs(target.alpha) ** 2 == pytest.approx(alpha2, rel=1e-12)
        x_expect = 2 * HBAR * params.omega_c * alpha2 / (
            params.mass * params.omega_m ** 2 * params.cavity_length)
        assert target.x == pytest.approx(x_expect, rel=1e-12)

    def test_bistable_three_roots_middle_unstable(self, textbook_lab_params):
        # delta0 = -3 with kappa = 2 has three real roots; frozen from a
        # 4e6-point sign-change scan of the cubic.
        ain2 = 2.0 * (textbook_lab_params.mass * textbook_lab_params.omega_m ** 2
                      * textbook_lab_params.cavity_length ** 2
                      * textbook_lab_params.gamma_c ** 2) / (
                          2 * HBAR * textbook_lab_params.omega_c ** 2)
        omega_0 = textbook_lab_params.omega_c - 3.0 * textbook_lab_params.gamma_c
        params = replace_params(textbook_lab_params, omega_0=omega_0,
                                input_power=ain2 * 2 * HBAR * omega_0)
        assert drive_kappa(params) == pytest.approx(2.0, rel=1e-12)
        roots = steady_state(params)
        assert len(roots) == 3
        expected = [-2.742674746648663, -0.8159133418770176, 0.5585880885256799]
        for ss, ref in zip(roots, expected):
            assert ss.delta == pytest.approx(ref, rel=1e-10)
        assert [ss.stable for ss in roots] == [True, False, True]

    def test_residuals_below_contract(self, textbook_lab_params):
        rng = np.random.default_rng(21)
        for _ in range(100):
            params = replace_params(
                textbook_lab_params,
                mass=float(rng.uniform(1e-6, 1e-3)),
                cavity_length=float(rng.uniform(1e-4, 1e-2)),
                omega_m=float(rng.uniform(1e5, 1e7)),
                gamma_m=float(rng.uniform(1.0, 1e6)),
                gamma_c=float(rng.uniform(1e5, 1e7)),
                omega_0=textbook_lab_params.omega_c
                + float(rng.uniform(-4.0, 4.0)) * textbook_lab_params.gamma_c,
                temperature=float(rng.uniform(0.0, 300.0)),
                input_power=float(rng.uniform(0.0, 1.0)),
            )
            roots = steady_state(params)
            assert len(roots) in (1, 3)
            for ss in roots:
                assert steady_state_residual(params, ss) < 1e-12

    def test_power_identity_from_kappa(self, textbook_lab_params):
        # p_cal = 2 kappa delta / (1/4 + delta^2) when omega_0 = omega_c.
        rng = np.random.default_rng(33)
        for _ in range(100):
            params = replace_params(
                textbook_lab_params,
                mass=float(rng.uniform(1e-6, 1e-3)),
                omega_m=float(rng.uniform(1e5, 1e7)),
                gamma_c=float(rng.uniform(1e5, 1e7)),
                input_power=float(rng.uniform(1e-4, 1.0)),
                omega_0=textbook_lab_params.omega_c,
            )
            roots = steady_state(params)
            assert len(roots) == 1
            delta = roots[0].delta
            assert delta > 0
            kappa = drive_kappa(params)
            p_from_kappa = 2.0 * kappa * delta / (0.25 + delta * delta)
            dp = to_dimensionless(params, delta)
            assert dp.p_cal == pytest.approx(p_from_kappa, rel=1e-12)

    def test_degenerate_double_root_rejected(self, textbook_lab_params):
        # Tune kappa onto the fold: g(local max) = 0 at delta0 = -3.
        d0 = -3.0
        d_crit = (d0 - math.sqrt(d0 * d0 - 0.75)) / 3.0
        kappa_fold = (d_crit - d0) * (0.25 + d_crit * d_crit)
        base = textbook_lab_params
        ain2 = kappa_fold * (base.mass * base.omega_m ** 2
                             * base.cavity_length ** 2 * base.gamma_c ** 2) / (
                                 2 * HBAR * base.omega_c ** 2)
        omega_0 = base.omega_c + d0 * base.gamma_c
        params = replace_params(base, omega_0=omega_0,
                                input_power=ain2 * 2 * HBAR * omega_0)
        with pytest.raises(NumericalError):
            steady_state(params)


class TestCouplings:
    def test_zero_amplitude_zero_couplings(self, textbook_lab_params):
        params = replace_params(textbook_lab_params, input_power=0.0)
        ss = steady_state(params)[0]
        g = couplings(params, ss)
        assert g.g_force == 0.0
        assert g.g_phase == 0.0

    def test_linearity_in_amplitude(self, textbook_lab_params):
        ss = steady_state(textbook_lab_params)[0]
        g1 = couplings(textbook_lab_params, ss)
        doubled = type(ss)(x=ss.x, y=ss.y, alpha=2 * ss.alpha,
                           alpha_in=ss.alpha_in, delta=ss.delta)
        g2 = couplings(textbook_lab_params, doubled)
        assert g2.g_force == pytest.approx(2 * g1.g_force, rel=1e-15)
        assert g2.g_phase == pytest.approx(2 * g1.g_phase, rel=1e-15)

    def test_power_reconstruction_at_headline_detuning(self, textbook_lab_params):
        kappa = drive_kappa(textbook_lab_params)
        delta0 = 0.18 - kappa / (0.25 + 0.18 ** 2)
        params = replace_params(textbook_lab_params,
                                omega_0=textbook_lab_params.omega_c
                                + delta0 * textbook_lab_params.gamma_c)
        ss = min(steady_state(params), key=lambda r: abs(r.delta - 0.18))
        p_from_kappa = 2.0 * drive_kappa(params) * ss.delta / (0.25 + ss.delta ** 2)
        dp = to_dimensionless(params, ss.delta)
        assert dp.p_cal == pytest.approx(p_from_kappa, rel=1e-6)


class TestLocality:
    def test_sub_light_crossing(self):
        assert locality_check(1e-9, 1.0)          # c tau / d = 0.30
        assert not locality_check(1e-8, 1.0)      # c tau / d = 3.0
        assert not locality_check(2.0 / C_LIGHT, 2.0)   # boundary is strict

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            locality_check(0.0, 1.0)
        with pytest.raises(ParameterError):
            locality_check(1e-9, 0.0)


def test_boltzmann_level_sanity():
    # 4 m gamma_m k_B T at the quoted lab numbers.
    assert 4 * 3e-5 * 1.0 * K_B * 4.0 == pytest.approx(6.627e-27, rel=1e-3)
