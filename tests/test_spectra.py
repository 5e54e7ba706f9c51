"""Tests for the frequency-domain solver against independent oracles.

The central check is the omega = 0 equivalence: the minimized inference
variance computed from the full 6-state spectral solve must coincide with
the closed-form reduced-parameter expression for both quadrature angles.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from optoepr import (DimensionlessParams, InstabilityError, K_B, NoisePsd,
                     NumericalError, ParameterError, SpectralMatrix, StateSpace,
                     build_state_space, commutator_norm_check, epr_lhs,
                     inferred_variance_at, noise_psd, output_response,
                     output_spectral_matrix,
                     realize_dimensionless, require_stable,
                     state_space_matrices, steady_state,
                     spectra, to_dimensionless)
from optoepr.constants import HBAR

from conftest import HEADLINE, bare_spectral_matrix, random_dimensionless


def closed_form_check(params, ss, phi):
    """(state-space variance, closed-form variance) at omega = 0, gamma_c
    units, at phi = 0 or pi/2: the full spectral solve and the
    reduced-parameter formula, the two independent routes side by side."""
    model = build_state_space(params, ss)
    var_ss, _ = inferred_variance_at(model, noise_psd(params), 0.0, phi)
    res = epr_lhs(to_dimensionless(params, ss.delta))
    return var_ss, {0.0: res.var_x, math.pi / 2: res.var_y}[phi]


# 0, or 10^U(-12, 6): the reduced power and temperature of the property test.
ZERO_OR_LOG = st.one_of(st.just(0.0), st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e))


@pytest.fixture(scope="module")
def headline_model(headline_realization):
    params, ss = headline_realization
    return params, ss, build_state_space(params, ss), noise_psd(params)


@pytest.fixture(scope="module")
def empty_cavity_model():
    params, ss = realize_dimensionless(DimensionlessParams(0.0, 0.3, 0.18))
    return params, ss, build_state_space(params, ss), noise_psd(params)


class TestBrownianPsd:
    def test_zero_frequency_limit(self, textbook_lab_params):
        from optoepr import brownian_psd
        level = brownian_psd(0.0, textbook_lab_params)
        assert level == pytest.approx(4 * 3e-5 * 1.0 * K_B * 4.0, rel=1e-12)
        assert level == pytest.approx(6.63e-27, rel=1e-2)
        # continuity of the limit
        assert brownian_psd(1e-6, textbook_lab_params) == pytest.approx(level, rel=1e-9)

    def test_zero_temperature(self, textbook_lab_params):
        from optoepr import brownian_psd
        from test_model import replace_params
        cold = replace_params(textbook_lab_params, temperature=0.0)
        for w in (1e3, 1e6, 1e9):
            assert brownian_psd(w, cold) == pytest.approx(
                2 * cold.mass * cold.gamma_m * HBAR * w, rel=1e-12)
        assert brownian_psd(0.0, cold) == 0.0

    def test_even_in_omega(self, textbook_lab_params):
        from optoepr import brownian_psd
        rng = np.random.default_rng(3)
        for w in rng.uniform(1e2, 1e9, size=50):
            assert brownian_psd(w, textbook_lab_params) == pytest.approx(
                brownian_psd(-w, textbook_lab_params), rel=1e-12)
            assert brownian_psd(w, textbook_lab_params) >= 0.0


def scalar_brownian(omega, params):
    """The force PSD at one float omega, written out with math.tanh: the
    per-float formula that the array form replaced."""
    pref = 2.0 * params.mass * params.gamma_m
    if params.temperature == 0.0:
        return pref * HBAR * abs(omega)
    kt2 = 2.0 * K_B * params.temperature
    x = HBAR * omega / kt2
    if abs(x) < 1e-8:
        return pref * kt2 * (1.0 + x * x / 3.0)
    return pref * HBAR * omega / math.tanh(x)


class TestBrownianArray:
    # 12 002 frequencies: zero, the smallest subnormal, the double range's
    # ends and 2 x 5999 log-spaced ones from 1e-3 to 1e16 rad/s, where
    # x = hbar omega / 2 k_B T runs from the series into coth = 1 at 4 K.
    OMEGAS = np.concatenate([[0.0, 5e-324, -1.7e308, 1.7e308],
                             np.geomspace(1e-3, 1e16, 5999), -np.geomspace(1e-3, 1e16, 5999)])

    @pytest.mark.parametrize("temperature", [4.0, 0.0, 1e-290])
    def test_array_matches_per_float_calls(self, textbook_lab_params, temperature):
        # One call on the array, without a warning at omega = 0 or at the
        # ends of the double range, is within 1 ulp of the per-float formula
        # (np.tanh and math.tanh may differ in the last bit) and of the
        # function's own per-float calls; exactly equal on the series and at
        # T = 0.  At 1e-290 K, x leaves the double range.
        from optoepr import brownian_psd
        from test_model import replace_params
        params = replace_params(textbook_lab_params, temperature=temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = brownian_psd(self.OMEGAS, params)
            one = np.array([brownian_psd(w, params) for w in self.OMEGAS.tolist()])
        want = np.array([scalar_brownian(w, params) for w in self.OMEGAS.tolist()])
        assert got.shape == self.OMEGAS.shape
        for other in (want, one):
            assert np.all(np.abs(got - other) <= np.spacing(other))
        kt2 = 2.0 * K_B * temperature
        exact = np.array([not temperature or abs(HBAR * w / kt2) < 1e-8
                          for w in self.OMEGAS.tolist()])
        assert exact.any()
        assert got[exact].tobytes() == want[exact].tobytes()


class TestStateSpace:
    def test_empty_cavity_block_diagonal(self, empty_cavity_model):
        _, _, model, _ = empty_cavity_model
        a = model.drift
        # mechanical block decoupled from two identical cavity blocks
        assert np.all(a[0:2, 2:] == 0.0)
        assert np.all(a[2:, 0:2] == 0.0)
        assert np.all(a[2:4, 4:6] == 0.0)
        assert np.all(a[4:6, 2:4] == 0.0)
        assert np.array_equal(a[2:4, 2:4], a[4:6, 4:6])

    def test_drift_rows_follow_equations_of_motion(self, headline_model):
        params, ss, model, _ = headline_model
        a = model.drift
        assert np.array_equal(a, state_space_matrices(params, ss)[0])
        m, om, gm, gc, d = (params.mass, params.omega_m, params.gamma_m,
                            params.gamma_c, ss.delta)
        # The couplings, from the steady-state amplitude.
        g_force = HBAR * params.omega_c * abs(ss.alpha) / params.cavity_length
        g_phase = 2.0 * params.omega_c * abs(ss.alpha) / params.cavity_length
        assert a[0, 1] == pytest.approx(1.0 / m)
        assert a[1, 0] == pytest.approx(-m * om ** 2)
        assert a[1, 1] == pytest.approx(-2.0 * gm)
        assert a[1, 2] == a[1, 4] == pytest.approx(g_force)
        for ix, iy in ((2, 3), (4, 5)):
            assert a[ix, ix] == a[iy, iy] == pytest.approx(-gc / 2)
            assert a[ix, iy] == pytest.approx(-d * gc)
            assert a[iy, ix] == pytest.approx(d * gc)
            assert a[iy, 0] == pytest.approx(g_phase)
        # output rows: out = gamma_c * state - input
        assert np.all(model.output_map[:, 2:] == gc * np.eye(4))
        assert np.all(model.feedthrough[:, 1:] == -np.eye(4))

    def test_headline_realization_is_stable(self, headline_model):
        _, _, model, _ = headline_model
        eigs = require_stable(model.drift)
        assert np.all(eigs.real < 0.0)

    def test_marginal_undamped_oscillator_rejected(self):
        # gamma_m = 0 with no drive: mechanical eigenvalues +-i omega_m.
        # PhysicalParams refuses gamma_m = 0, so the drift is built by hand:
        # unit mass, omega_m and gamma_c, no coupling, delta = 0.3.
        a = np.zeros((6, 6))
        a[0, 1], a[1, 0] = 1.0, -1.0
        for ix, iy in ((2, 3), (4, 5)):
            a[ix, ix] = a[iy, iy] = -0.5
            a[ix, iy], a[iy, ix] = -0.3, 0.3
        with pytest.raises(InstabilityError):
            require_stable(a)

    def test_literal_textbook_point_is_antidamped(self, textbook_lab_params):
        # The quoted laboratory set at delta = 0.18 anti-damps the mirror:
        # building its state space must fail the stability gate.
        from optoepr import drive_kappa
        from test_model import replace_params
        kappa = drive_kappa(textbook_lab_params)
        delta0 = 0.18 - kappa / (0.25 + 0.18 ** 2)
        params = replace_params(textbook_lab_params,
                                omega_0=textbook_lab_params.omega_c
                                + delta0 * textbook_lab_params.gamma_c)
        ss = min(steady_state(params), key=lambda r: abs(r.delta - 0.18))
        with pytest.raises(InstabilityError):
            build_state_space(params, ss)


def test_array_dataclasses_compare_by_identity(headline_model):
    # A generated __eq__ would compare the arrays as tuples and raise on
    # their truth value; equal values are two objects, each equal to itself.
    _, _, model, _ = headline_model
    pairs = [(SpectralMatrix(np.ones(2), np.ones(2), np.zeros(2)),
              SpectralMatrix(np.ones(2), np.ones(2), np.zeros(2))),
             (model, replace(model))]
    for a, b in pairs:
        assert (a == b) is False
        assert a == a and a != b
        assert len({a, b}) == 2


class TestRealizationDomain:
    def test_log_grid_realized_or_unstable(self):
        # Every triple of a log grid reaching far into small detuning and high
        # power is realized with a stable drift matrix at the wanted detuning,
        # or refused as unstable.  Near delta = 1e-3 the bare detuning is
        # strongly negative and the cubic has two well-separated extrema; their
        # fold tests must each use their own scale.
        for p in np.geomspace(1e-4, 50.0, 25):
            for t in (0.0, 0.1, 1.0, 5.0):
                for delta in np.geomspace(1e-3, 10.0, 25):
                    dp = DimensionlessParams(float(p), t, float(delta))
                    try:
                        params, ss = realize_dimensionless(dp)
                    except InstabilityError:
                        continue
                    assert np.all(require_stable(
                        build_state_space(params, ss).drift).real < 0.0)
                    assert abs(ss.delta - dp.delta) <= 1e-7 * max(1.0, dp.delta)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(p_cal=ZERO_OR_LOG, t_cal=ZERO_OR_LOG,
           delta=st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e))
    def test_valid_triple_realized_or_refused(self, p_cal, t_cal, delta):
        # Any valid triple is realized at its own detuning with a strictly
        # stable drift, or refused as a numerical failure; never a wrong
        # detuning and never a config error about a value it did not set.
        dp = DimensionlessParams(p_cal, t_cal, delta)
        try:
            params, ss = realize_dimensionless(dp)
        except NumericalError:   # InstabilityError included
            return
        assert abs(ss.delta - delta) <= 1e-3 * delta
        assert np.max(np.linalg.eigvals(
            build_state_space(params, ss).drift).real) < 0.0

    @pytest.mark.parametrize("delta", [1e-8, 8.376776400682925e-09])
    def test_unresolvable_detuning_refused(self, delta):
        # Below the ULP of omega_0 the root lands elsewhere: at 7.0e-8 and
        # at -4.6e-8 for these two detunings.
        with pytest.raises(NumericalError, match="landed at"):
            realize_dimensionless(DimensionlessParams(0.003, 0.1, delta))

    def test_missed_detuning_diagnosed_before_damping(self):
        # The root lands at 3.746e-5, not 1e-5.  That is the diagnosis, not
        # a drift that no damping could stabilize (InstabilityError).
        with pytest.raises(NumericalError, match="steady state landed"):
            realize_dimensionless(DimensionlessParams(100.0, 0.1, 1e-5))

    def test_non_positive_drive_frequency_refused(self):
        # The bare detuning -5e9 linewidths puts omega_0 below zero.
        with pytest.raises(NumericalError, match="omega_0"):
            realize_dimensionless(DimensionlessParams(1.0, 0.1, 1e-10))

    def test_small_detuning_high_power_matches_closed_form(self):
        params, ss = realize_dimensionless(DimensionlessParams(3.2485, 0.0, 1e-3))
        for phi in (0.0, math.pi / 2):
            got, want = closed_form_check(params, ss, phi)
            assert got == pytest.approx(want, rel=1e-5)


class TestOutputSpectra:
    def test_empty_cavity_reflection_is_vacuum(self, empty_cavity_model):
        params, _, model, noise = empty_cavity_model
        gc = params.gamma_c
        sm = output_spectral_matrix(model, noise, 0.0, 0.0)
        assert sm.s[0, 0] == pytest.approx(gc, rel=1e-12)
        assert sm.s[1, 1] == pytest.approx(gc, rel=1e-12)
        assert sm.s[0, 1] == pytest.approx(0.0, abs=1e-12 * gc)

    def test_empty_cavity_all_frequencies(self, empty_cavity_model):
        params, _, model, noise = empty_cavity_model
        gc = params.gamma_c
        rng = np.random.default_rng(9)
        for w in rng.uniform(-30 * gc, 30 * gc, size=50):
            for phi in (0.0, math.pi / 2):
                sm = output_spectral_matrix(model, noise, float(w), phi)
                assert sm.s[0, 0] == pytest.approx(gc, rel=1e-10)

    def test_headline_minimized_variances(self, headline_model):
        # The central cross-module oracle: spectral solve vs the
        # reduced-parameter closed form at the realized triple.
        params, ss, model, noise = headline_model
        ref = epr_lhs(HEADLINE)
        var_x, _ = inferred_variance_at(model, noise, 0.0, 0.0)
        var_y, _ = inferred_variance_at(model, noise, 0.0, math.pi / 2)
        assert var_x == pytest.approx(ref.var_x, abs=1e-3)
        assert var_y == pytest.approx(ref.var_y, abs=1e-3)
        assert var_x == pytest.approx(0.40312, abs=1e-3)
        assert var_y == pytest.approx(1.74456, abs=1e-3)

    def test_symmetric_and_psd(self, headline_model):
        _, _, model, noise = headline_model
        rng = np.random.default_rng(23)
        for w in rng.uniform(-2e7, 2e7, size=25):
            sm = output_spectral_matrix(model, noise, float(w), 0.37)
            assert sm.s[0, 1] == sm.s[1, 0]
            assert np.min(np.linalg.eigvalsh(sm.s)) >= -1e-9 * np.trace(sm.s)
            mirrored = output_spectral_matrix(model, noise, float(-w), 0.37)
            assert np.allclose(sm.s, mirrored.s, rtol=1e-12)

    def test_high_frequency_rolloff(self, headline_model):
        params, _, model, noise = headline_model
        var, _ = inferred_variance_at(model, noise, 10 * params.gamma_c, 0.0)
        assert var == pytest.approx(1.0, abs=0.05)

    def test_inference_from_the_computed_matrix(self, headline_model):
        # The minimized variance and gain read off one computed spectrum are
        # exactly those of inferred_variance_at.
        params, _, model, noise = headline_model
        for w in np.linspace(-3.0, 3.0, 13) * params.gamma_c:
            for phi in (0.0, 0.7, math.pi / 2):
                var, gain = output_spectral_matrix(model, noise, w, phi).inference()
                assert (var / model.gamma_c, gain) == inferred_variance_at(
                    model, noise, w, phi)

    @pytest.mark.parametrize("draw", [None, 0, 1])
    def test_stack_equals_scalar_calls(self, headline_model, draw):
        # A stacked solve returns, bit for bit, the matrices and inference of
        # one call per omega: at the headline and at two drawn realizations.
        if draw is None:
            _, _, model, noise = headline_model
        else:
            rng = np.random.default_rng(4100 + draw)
            dp = DimensionlessParams(p_cal=float(rng.uniform(0.05, 1.5)),
                                     t_cal=float(rng.uniform(0.0, 0.8)),
                                     delta=float(rng.uniform(0.1, 1.0)))
            params, ss = realize_dimensionless(dp)
            model, noise = build_state_space(params, ss), noise_psd(params)
        omegas = np.linspace(-8.0, 8.0, 33) * model.gamma_c
        for phi in (0.0, math.pi / 2, 0.7):
            stack = output_spectral_matrix(model, noise, omegas, phi)
            var, gain = stack.inference()
            assert stack.s.shape == (33, 2, 2)
            for k, w in enumerate(omegas.tolist()):
                one = output_spectral_matrix(model, noise, w, phi)
                one_var, one_gain = one.inference()
                assert stack.s[k].tobytes() == one.s.tobytes()
                assert var[k].tobytes() == np.float64(one_var).tobytes()
                assert gain[k].tobytes() == np.float64(one_gain).tobytes()

    @pytest.mark.parametrize("draw", [None, 0, 1])
    def test_hot_bath_variance_is_the_difference_vacuum(self, headline_model, draw):
        # Where common-mode mirror noise swamps both modes, the inference
        # variance is the vacuum level of the difference mode, 2 in gamma_c
        # units, at every omega and phi.  It is read off the exact sum and
        # difference of the two modes, so no rounded gain enters it: at the
        # headline and at the two realizations drawn above.
        if draw is None:
            params, _, model, _ = headline_model
        else:
            rng = np.random.default_rng(4100 + draw)
            dp = DimensionlessParams(p_cal=float(rng.uniform(0.05, 1.5)),
                                     t_cal=float(rng.uniform(0.0, 0.8)),
                                     delta=float(rng.uniform(0.1, 1.0)))
            params, ss = realize_dimensionless(dp)
            model = build_state_space(params, ss)
        for temperature in (1e25, 1e40):
            hot = noise_psd(replace(params, temperature=temperature))
            for phi in (0.0, math.pi / 2):
                for w in (0.0, 0.3, 2.0):
                    var, _ = inferred_variance_at(model, hot, w * model.gamma_c, phi)
                    assert var == pytest.approx(2.0, rel=1e-12), (temperature, phi, w)

    def test_difference_mode_is_the_vacuum(self, headline_model):
        # The identity that `output_spectral_matrix` passes instead of a
        # solve: the difference mode is an empty cavity on its own vacuum,
        # so the half-difference of the two quadratures has the PSD
        # gamma_c / 2 at every omega and phi whatever the mirror does, and
        # it shares no input with the half-sum.  Checked on the 6-state
        # solve, which still computes both: at the headline, on a twin that
        # no builder makes, at 30 drawn realizations, out to the double
        # range and in a 1e25 K bath.
        params, _, model, noise = headline_model
        rng = np.random.default_rng(30)
        cases = [(model, noise), (model, noise_psd(replace(params, temperature=1e25))),
                 (unbuilt_twin(model), noise)]
        for _ in range(30):
            drawn, ss = realize_dimensionless(random_dimensionless(rng))
            cases.append((build_state_space(drawn, ss), noise_psd(drawn)))
        extremes = [0.0, -1e154, 1e154, -1.7e308, 1.7e308]
        for model, noise in cases:
            omegas = np.append(np.linspace(-40.0, 40.0, 801) * model.gamma_c, extremes)
            for phi in (0.0, 0.7, math.pi / 2):
                spec = six_state_spectral_matrix(model, noise, omegas, phi)
                assert np.all(spec.cross == 0.0)
                vacuum = 0.5 * model.gamma_c
                assert np.abs(spec.difference_power - vacuum).max() <= 4e-15 * vacuum

    def test_stack_names_the_first_non_psd_omega(self, headline_model):
        # A mirror noise PSD that is negative at two frequencies of the
        # stack: the refusal names the first of them.
        params, _, model, noise = headline_model
        omegas = np.linspace(-2.0, 2.0, 9) * params.gamma_c
        bad = {omegas[5], omegas[7]}
        broken = NoisePsd(vacuum_level=noise.vacuum_level,
                          brownian=lambda w: np.where(np.isin(w, list(bad)), -1e6, 1.0)
                          * noise.brownian(w))
        with pytest.raises(NumericalError,
                           match=re.escape(f"omega={float(omegas[5])!r}")):
            output_spectral_matrix(model, broken, omegas, 0.0)
        output_spectral_matrix(model, broken, omegas[:5], 0.0)

    def test_nan_force_psd_refused_naming_the_omega(self, headline_model):
        # A nan mirror noise PSD is refused by the level check, naming the
        # first such omega, before any inference.
        params, _, model, noise = headline_model
        omegas = np.linspace(-2.0, 2.0, 9) * params.gamma_c
        broken = NoisePsd(vacuum_level=noise.vacuum_level,
                          brownian=lambda w: np.where(w > 0.0, math.nan, noise.brownian(w)))
        with pytest.raises(NumericalError,
                           match=re.escape(f"omega={float(omegas[5])!r}")):
            output_spectral_matrix(model, broken, omegas, 0.0)
        with pytest.raises(NumericalError, match=re.escape(f"omega={1e6!r}")):
            inferred_variance_at(model, broken, 1e6, math.pi / 2)

    def test_inf_force_psd_refused_before_the_solve(self, headline_model, monkeypatch):
        # The level check names the first inf omega, and runs before the
        # response is solved.
        params, _, model, noise = headline_model
        omegas = np.linspace(-2.0, 2.0, 9) * params.gamma_c
        broken = NoisePsd(vacuum_level=noise.vacuum_level,
                          brownian=lambda w: np.where(w > 0.0, math.inf, noise.brownian(w)))

        def no_solve(*args):
            raise AssertionError("solved before the levels were checked")

        monkeypatch.setattr(spectra, "output_response", no_solve)
        with pytest.raises(NumericalError, match=re.escape(
                f"noise level is not finite and non-negative at omega={float(omegas[5])!r}")):
            output_spectral_matrix(model, broken, omegas, 0.0)

    def test_entries_near_1e170_pass_without_warning(self, headline_model):
        # A bath at 1e160 K puts the entries between 1e170 and 1e173, where
        # s11 s22 would overflow; no check forms that product.
        params, _, model, _ = headline_model
        hot = noise_psd(replace(params, temperature=1e160))
        omegas = np.linspace(0.0, 0.5, 5) * params.gamma_c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in (0.0, math.pi / 2):
                s = output_spectral_matrix(model, hot, omegas, phi).s
                assert np.all(s > 1e170) and np.all(s < 1e173)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused(self, headline_model, phi):
        # cos(inf) would raise a bare ValueError, and a nan angle would only
        # be refused later, as a non-finite spectral matrix: a numerical
        # failure rather than the config error it is.
        _, _, model, noise = headline_model
        for omega in (0.0, np.array([0.0, 1e6])):
            with pytest.raises(ParameterError, match=f"phi must be finite, got {phi!r}"):
                output_spectral_matrix(model, noise, omega, phi)
        with pytest.raises(ParameterError, match="phi must be finite"):
            inferred_variance_at(model, noise, 0.0, phi)

    def test_empty_cavity_inference_is_trivial(self, empty_cavity_model):
        _, _, model, noise = empty_cavity_model
        var, gain = inferred_variance_at(model, noise, 0.0, 0.0)
        assert var == pytest.approx(1.0, rel=1e-12)
        assert gain == pytest.approx(0.0, abs=1e-12)


def reference_response(model, omega):
    """R = C (-i omega I - A)^{-1} B + D by the direct solve: one right-hand
    side per input, every output of the model."""
    w = np.asarray(omega, dtype=float)
    h = np.linalg.solve(-1j * w[..., None, None] * np.eye(6) - model.drift,
                        model.input_map)
    return model.output_map @ h + model.feedthrough


def reference_spectral_matrix(model, noise, omega, phi):
    """The 4x4 output matrix Re[R diag(N) R^dag] of the direct solve at each
    omega, projected afterwards onto the phi-quadratures of the two modes."""
    w = np.asarray(omega, dtype=float)
    r = reference_response(model, w)
    s4 = ((r * noise.levels(w)[..., None, :]) @ r.conj().swapaxes(-1, -2)).real
    c, s = math.cos(phi), math.sin(phi)
    p = np.array([[c, s, 0.0, 0.0], [0.0, 0.0, c, s]])
    s2 = p @ s4 @ p.T
    return 0.5 * (s2 + s2.swapaxes(-1, -2))


def assert_matches_reference(model, noise, omega, phi):
    """Response, matrix and inference variance against the references, each
    within 1e-12 of the reference's largest entry at every omega."""
    want = reference_response(model, omega)
    err = np.abs(output_response(model, omega) - want).max(axis=(-2, -1))
    assert np.all(err <= 1e-12 * np.abs(want).max(axis=(-2, -1)))
    spec = output_spectral_matrix(model, noise, omega, phi)
    ref = reference_spectral_matrix(model, noise, omega, phi)
    scale = np.abs(ref).max(axis=(-2, -1))
    assert np.all(np.abs(spec.s - ref).max(axis=(-2, -1)) <= 1e-12 * scale)
    var, gain = spec.inference()
    ref_var = ref[..., 0, 0] - ref[..., 0, 1] ** 2 / ref[..., 1, 1]
    assert np.all(np.abs(var - ref_var) <= 1e-12 * scale)
    assert np.all(np.abs(gain - ref[..., 0, 1] / ref[..., 1, 1])
                  <= 1e-12 * scale / ref[..., 1, 1])


class TestAgainstDirectSolve:
    """The adjoint solve on the projected model against the direct solve of
    every input column and the 4x4 matrix projected after the fact."""

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, 0.7])
    def test_realized_headline(self, headline_model, phi):
        _, _, model, noise = headline_model
        assert_matches_reference(model, noise, np.linspace(-8.0, 8.0, 2001) * model.gamma_c,
                                 phi)
        assert_matches_reference(model, noise, 0.0, phi)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(p_cal=ZERO_OR_LOG, t_cal=ZERO_OR_LOG,
           delta=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
    def test_drawn_triples(self, p_cal, t_cal, delta):
        try:
            params, ss = realize_dimensionless(DimensionlessParams(p_cal, t_cal, delta))
        except NumericalError:   # InstabilityError included
            return
        model, noise = build_state_space(params, ss), noise_psd(params)
        for phi in (0.0, math.pi / 2, 0.7):
            assert_matches_reference(model, noise,
                                     np.linspace(-8.0, 8.0, 65) * model.gamma_c, phi)
            assert_matches_reference(model, noise, 0.0, phi)


# (x1, y1, x2, y2) -> (x1 + x2, y1 + y2, x1 - x2, y1 - y2) on the modes of
# the states, and back.
PAIR = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2))
TO_SUM_DIFFERENCE, FROM_SUM_DIFFERENCE = np.eye(6), np.eye(6)
TO_SUM_DIFFERENCE[2:, 2:], FROM_SUM_DIFFERENCE[2:, 2:] = PAIR, 0.5 * PAIR


def sum_difference(model, phi):
    """The whole 6-state ``model`` rotated onto the sums and differences of
    the two modes, states (q, p, x1 + x2, y1 + y2, x1 - x2, y1 - y2) and
    inputs (xi, x1_in + x2_in, y1_in + y2_in, x1_in - x2_in, y1_in - y2_in),
    its outputs projected onto the phi-quadratures X1(phi), X2(phi)."""
    c, s = math.cos(phi), math.sin(phi)
    p = np.array([[c, s, 0.0, 0.0], [0.0, 0.0, c, s]])
    to_states, from_states = TO_SUM_DIFFERENCE, FROM_SUM_DIFFERENCE
    # The inputs (xi, fields) change basis as the states (p, fields) do.
    return replace(model, drift=to_states @ model.drift @ from_states,
                   input_map=to_states @ model.input_map @ from_states[1:, 1:],
                   output_map=p @ model.output_map @ from_states,
                   feedthrough=p @ model.feedthrough @ from_states[1:, 1:])


def six_state_spectral_matrix(model, noise, omega, phi):
    """The spectral matrix of one 6-state solve on the whole rotated model,
    two right-hand sides per omega, with nothing split off: the powers and
    the cross PSD of the half-sum m and the half-difference h of its two
    rows, each summed over all five inputs."""
    w = np.asarray(omega, dtype=float)
    r = output_response(sum_difference(model, phi), w)
    levels = noise.levels(w) * [1.0, 2.0, 2.0, 2.0, 2.0]
    m, h = 0.5 * (r[..., 0, :] + r[..., 1, :]), 0.5 * (r[..., 0, :] - r[..., 1, :])
    return SpectralMatrix(*((levels * (u * v.conj()).real).sum(axis=-1)
                            for u, v in ((m, m), (h, h), (m, h))))


def assert_matches_six_state(model, noise, omega, phi):
    """s, variance and gain against the 6-state solve, each within 1e-12
    of the largest entry of the reference matrix at every omega."""
    spec = output_spectral_matrix(model, noise, omega, phi)
    ref = six_state_spectral_matrix(model, noise, omega, phi)
    scale = np.abs(ref.s).max(axis=(-2, -1))
    assert np.all(np.abs(spec.s - ref.s).max(axis=(-2, -1)) <= 1e-12 * scale)
    (var, gain), (ref_var, ref_gain) = spec.inference(), ref.inference()
    assert np.all(np.abs(var - ref_var) <= 1e-12 * scale)
    assert np.all(np.abs(gain - ref_gain) <= 1e-12 * scale / ref.s[..., 1, 1])


def unbuilt_twin(model):
    """A twin of ``model`` that `build_state_space` never makes.  Its modes
    couple to each other, x1 to y2 and x2 to y1, antisymmetrically, so they
    stay lossless; every output reads the mirror and carries xi, and both x
    inputs push the mirror.  The xi feedthrough is small enough that the
    spectra stay inside the double range at omega = 1.7e308."""
    a, b, c, d = (m.copy() for m in (model.drift, model.input_map,
                                      model.output_map, model.feedthrough))
    a[2, 5] = a[4, 3] = 0.3 * model.gamma_c
    a[5, 2] = a[3, 4] = -0.3 * model.gamma_c
    b[1, [1, 3]] = 0.5 * a[1, 2]
    c[[0, 2], 0], c[[1, 3], 0] = 0.5 * a[3, 0], -0.3 * a[3, 0]
    d[[0, 2], 0], d[[1, 3], 0] = 2e12, -1e12
    require_stable(a)
    return replace(model, drift=a, input_map=b, output_map=c, feedthrough=d)


class TestAgainstSixStateSolve:
    """The 4-state solve of the sum mode read off the model, and the
    difference mode's vacuum, against one 6-state solve of the whole model
    rotated onto the sums and differences of its modes."""

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, 0.7])
    def test_realized_headline(self, headline_model, phi):
        _, _, model, noise = headline_model
        assert_matches_six_state(model, noise,
                                 np.linspace(-8.0, 8.0, 2001) * model.gamma_c, phi)
        assert_matches_six_state(model, noise, 0.0, phi)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(p_cal=ZERO_OR_LOG, t_cal=ZERO_OR_LOG,
           delta=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
    def test_drawn_triples(self, p_cal, t_cal, delta):
        try:
            params, ss = realize_dimensionless(DimensionlessParams(p_cal, t_cal, delta))
        except NumericalError:   # InstabilityError included
            return
        model, noise = build_state_space(params, ss), noise_psd(params)
        for phi in (0.0, math.pi / 2, 0.7):
            assert_matches_six_state(model, noise,
                                     np.linspace(-8.0, 8.0, 65) * model.gamma_c, phi)
            assert_matches_six_state(model, noise, 0.0, phi)

    def test_frequencies_near_the_double_range(self, headline_model):
        # The sum block's solve stays finite and warning-free out to the
        # ends of the double range.
        _, _, model, noise = headline_model
        omegas = np.array([-1.7e308, -8e307, -1e200, 1e155, 1e200, 8e307, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in (0.0, math.pi / 2, 0.7):
                assert_matches_six_state(model, noise, omegas, phi)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, 0.7])
    def test_twin_model_no_builder_makes(self, headline_model, phi):
        # A built model multiplies the sum block's mode-to-mode drift and
        # its mirror read-out by exact zeros; this twin has both, and xi
        # and the x inputs reach outputs and mirror by routes of their own.
        _, _, model, noise = headline_model
        twin = unbuilt_twin(model)
        omegas = np.linspace(-8.0, 8.0, 2001) * model.gamma_c
        assert_matches_six_state(twin, noise, np.append(omegas, [-1e154, 1e154]), phi)
        assert_matches_six_state(twin, noise, 0.0, phi)
        assert np.abs(output_spectral_matrix(twin, noise, omegas, phi).s
                      / output_spectral_matrix(model, noise, omegas, phi).s - 1.0).max() > 0.1

    @pytest.mark.parametrize("matrix, entry", [
        ("drift", (4, 4)), ("input_map", (5, 4)), ("output_map", (3, 5)),
        ("feedthrough", (2, 3))])
    def test_modes_not_twins_refused(self, headline_model, matrix, entry):
        # Twins are the models that the exchange of the modes leaves
        # unchanged.  Perturbing one entry of the second mode, here its
        # damping, input, detection or reflection, breaks that.  The same
        # entry perturbed on both modes leaves twins, but cavities that are
        # not lossless and empty, whose difference mode is not the vacuum.
        _, _, model, noise = headline_model
        output_spectral_matrix(model, noise, 0.0, 0.7)
        perturbed = getattr(model, matrix).copy()
        perturbed[entry] *= 1.001
        lopsided = replace(model, **{matrix: perturbed})
        with pytest.raises(ParameterError, match="the two modes are not twins"):
            output_spectral_matrix(lopsided, noise, np.array([0.0, 1e6]), 0.7)
        with pytest.raises(ParameterError, match="the two modes are not twins"):
            inferred_variance_at(lopsided, noise, 0.0, 0.7)
        perturbed[entry[0] - 2, entry[1] - 2] *= 1.001   # the same entry of the first mode
        lossy = replace(model, **{matrix: perturbed})
        with pytest.raises(ParameterError, match="not lossless empty cavities"):
            output_spectral_matrix(lossy, noise, np.array([0.0, 1e6]), 0.7)
        with pytest.raises(ParameterError, match="not lossless empty cavities"):
            inferred_variance_at(lossy, noise, 0.0, 0.7)

    @pytest.mark.parametrize("matrix, entry, size", [
        ("drift", (1, 4), (1, 4)), ("drift", (5, 0), (5, 0)),
        ("output_map", (0, 0), (3, 0))],
        ids=["force-of-x2", "phase-on-y2", "q-read-by-mode-1"])
    def test_mirror_side_not_twins_refused(self, headline_model, matrix, entry, size):
        # The mirror's side of the exchange is checked too, at every angle:
        # x2 pressing on the mirror alone harder, the mirror writing more
        # phase on y2 alone, or the first mode's x output alone reading q,
        # each by 1e-3 of the drift entry ``size``.
        _, _, model, noise = headline_model
        perturbed = getattr(model, matrix).copy()
        perturbed[entry] += 1e-3 * model.drift[size]
        lopsided = replace(model, **{matrix: perturbed})
        for phi in (0.0, math.pi / 2, 0.7):
            with pytest.raises(ParameterError, match="the two modes are not twins"):
                output_spectral_matrix(lopsided, noise, np.array([0.0, 1e6]), phi)
            with pytest.raises(ParameterError, match="the two modes are not twins"):
                inferred_variance_at(lopsided, noise, 0.0, phi)

    def test_coupled_twin_modes_refused(self, headline_model):
        # A damping shared between x1 and x2 leaves the modes twins, but
        # makes the difference mode lossy: the whole field block is checked.
        _, _, model, noise = headline_model
        drift = model.drift.copy()
        drift[2, 4] = drift[4, 2] = -0.01 * model.gamma_c
        with pytest.raises(ParameterError, match="not lossless empty cavities"):
            output_spectral_matrix(replace(model, drift=drift), noise, 0.0, 0.7)


def common_mode(n0):
    """Spectra at omega = 0, 1, ... of two empty resonant cavities
    (delta = 0, gamma_c = 1) beside an uncoupled mirror: outputs x1 and x2
    each reflect their own vacuum input and carry the mirror noise, which
    is ``n0[k]`` at omega = k.  The reflection is exactly 1 at omega = 0,
    where at phi = 0 the matrix is exactly n0[0] [[1, 1], [1, 1]] + I,
    through the checks of `NoisePsd.levels` and `output_spectral_matrix`."""
    a, b, c, d = -0.5 * np.eye(6), np.eye(6, 5, -1), np.eye(4, 6, 2), -np.eye(4, 5, 1)
    d[[0, 2], 0] = 1.0
    model = StateSpace(drift=a, input_map=b, output_map=c, feedthrough=d, gamma_c=1.0)
    noise = NoisePsd(vacuum_level=1.0, brownian=lambda w: np.asarray(n0)[w.astype(int)])
    return output_spectral_matrix(model, noise, np.arange(len(n0), dtype=float), 0.0)


class TestOptimalGain:
    def test_uncorrelated_gain_zero(self):
        assert bare_spectral_matrix(np.eye(2)).inference() == (1.0, 0.0)
        assert common_mode([0.0]).inference() == (1.0, 0.0)

    def test_perfect_correlation(self):
        var, g = bare_spectral_matrix(np.ones((2, 2))).inference()
        assert g == 1.0
        assert var == 0.0

    def test_rejects_bad_matrices(self):
        # Force levels that would give s22 = 0, s22 = -1, and s12^2 > s11 s22
        # at s22 = 1/4: each negative level is refused, naming its omega.
        for n0 in (-1.0, -2.0, -0.75):
            with pytest.raises(NumericalError, match=re.escape("omega=0.0")):
                common_mode([n0])

    def test_arrays_match_scalar_calls_and_refuse_any_bad_triple(self):
        rng = np.random.default_rng(29)
        s11 = rng.uniform(0.05, 5.0, 50)
        s22 = rng.uniform(0.05, 5.0, 50)
        s12 = rng.uniform(-1.0, 1.0, 50) * np.sqrt(s11 * s22)
        stack = np.stack([np.stack([s11, s12], -1), np.stack([s12, s22], -1)], -2)
        var, gains = bare_spectral_matrix(stack).inference()
        one = [bare_spectral_matrix(s).inference() for s in stack]
        assert var.tobytes() == np.array([v for v, _ in one]).tobytes()
        assert gains.tobytes() == np.array([g for _, g in one]).tobytes()
        n0 = rng.uniform(0.0, 5.0, 50)
        assert common_mode(n0.tolist()).s.shape == (50, 2, 2)
        for k, value in ((17, -1.0), (17, -2.0), (31, -0.75)):
            bad = n0.copy()
            bad[k] = value
            with pytest.raises(NumericalError, match=re.escape(f"omega={float(k)!r}")):
                common_mode(bad.tolist())

    def test_beats_brute_force_grid(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(-10.0, 10.0, 201)
        for _ in range(1000):
            s22 = float(rng.uniform(0.05, 5.0))
            s11 = float(rng.uniform(0.05, 5.0))
            s12 = float(rng.uniform(-1.0, 1.0)) * np.sqrt(s11 * s22)
            best, g = bare_spectral_matrix([[s11, s12], [s12, s22]]).inference()
            brute = s11 - 2 * grid * s12 + grid * grid * s22
            assert best <= brute.min() + 1e-12
            assert best == pytest.approx(s11 - s12 * s12 / s22, rel=1e-10, abs=1e-12)


class TestOmegaZeroEquivalence:
    def test_random_stable_realizations(self):
        # 200 random reduced points; each realized as a stable laboratory
        # set, then the spectral solve is compared with the closed form at
        # the realized triple.
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 200:
            dp = random_dimensionless(rng)
            params, ss = realize_dimensionless(dp)
            model = build_state_space(params, ss)
            noise = noise_psd(params)
            dp_real = to_dimensionless(params, ss.delta)
            ref = epr_lhs(dp_real)
            var_x, _ = inferred_variance_at(model, noise, 0.0, 0.0)
            var_y, _ = inferred_variance_at(model, noise, 0.0, math.pi / 2)
            assert abs(var_x - ref.var_x) < 1e-3 * abs(ref.var_x)
            assert abs(var_y - ref.var_y) < 1e-3 * abs(ref.var_y)
            checked += 1

    def test_closed_form_check_helper(self, headline_realization):
        params, ss = headline_realization
        got, want = closed_form_check(params, ss, 0.0)
        assert got == pytest.approx(want, rel=1e-6)


class TestCommutatorNorm:
    def test_empty_cavity(self, empty_cavity_model):
        _, _, model, _ = empty_cavity_model
        assert commutator_norm_check(model) == pytest.approx(2.0, abs=1e-12)

    def test_headline_point_preserves_canonical_structure(self, headline_model):
        _, _, model, _ = headline_model
        assert commutator_norm_check(model) == pytest.approx(2.0, abs=1e-9)
        assert commutator_norm_check(model, (2, 2)) == pytest.approx(2.0, abs=1e-9)

    def test_cross_mode_vanishes(self, headline_model):
        _, _, model, _ = headline_model
        assert commutator_norm_check(model, (1, 2)) == pytest.approx(0.0, abs=1e-12)
        assert commutator_norm_check(model, (2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_mode_index_outside_one_and_two_refused(self, headline_model):
        _, _, model, _ = headline_model
        with pytest.raises(ParameterError, match=re.escape("got (0, 1)")):
            commutator_norm_check(model, modes=(0, 1))


class TestParseval:
    def test_state_variance_matches_lyapunov(self, headline_model):
        # Integral of the state PSD over a wide band vs the stationary
        # covariance from the Lyapunov equation (independent oracle).  The
        # mechanical states are rescaled to zero-point units first; in raw SI
        # the state covariance spans ~50 decades and the Bartels-Stewart
        # solve loses its conditioning.
        params, _, model, noise = headline_model
        q_zpf = math.sqrt(HBAR / (2 * params.mass * params.omega_m))
        scale = np.diag([1 / q_zpf, 2 * q_zpf / HBAR, 1.0, 1.0, 1.0, 1.0])
        a_bal = scale @ model.drift @ np.linalg.inv(scale)
        b_bal = scale @ model.input_map
        levels = noise.levels(0.0)   # white-noise approximation on both sides
        q = b_bal @ np.diag(levels) @ b_bal.T
        cov = solve_continuous_lyapunov(a_bal, -q)
        gc = params.gamma_c
        omegas = np.linspace(0.0, 400 * gc, 100_001)
        flat = spectral_rows(model, levels, omegas)
        var_grid = np.trapezoid(flat, omegas, axis=0) / math.pi   # even integrand
        for idx in (2, 3, 4, 5):
            assert var_grid[idx] == pytest.approx(cov[idx, idx], rel=0.01)


def spectral_rows(model, levels, omegas):
    """State PSD diagonals on a frequency grid, one stacked solve per block of
    a few thousand omega (written out here, independent of `spectra`)."""
    rows = np.empty((len(omegas), 6))
    eye = np.eye(6)
    block = 4096
    for start in range(0, len(omegas), block):
        w = omegas[start:start + block, None, None]
        h = np.linalg.solve(-1j * w * eye - model.drift, model.input_map)
        rows[start:start + block] = np.einsum("nij,j,nij->ni", h, levels, h.conj()).real
    return rows

