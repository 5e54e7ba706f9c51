"""Tests for the frequency-domain solver against independent oracles.

The central check is the omega = 0 equivalence: the minimized inference
variance computed from the full 6-state spectral solve must coincide with
the closed-form reduced-parameter expression for both quadrature angles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from optoepr import (DimensionlessParams, InstabilityError, K_B, NumericalError,
                     build_state_space, commutator_norm_check, epr_lhs,
                     inferred_variance_at, noise_psd, output_spectral_matrix,
                     realize_dimensionless, require_stable,
                     state_space_matrices, steady_state,
                     to_dimensionless)
from optoepr.constants import HBAR
from optoepr.spectra import closed_form_check

from conftest import HEADLINE, random_dimensionless

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
        from optoepr import couplings
        g = couplings(params, ss)
        a = model.drift
        m, om, gm, gc, d = (params.mass, params.omega_m, params.gamma_m,
                            params.gamma_c, ss.delta)
        assert a[0, 1] == pytest.approx(1.0 / m)
        assert a[1, 0] == pytest.approx(-m * om ** 2)
        assert a[1, 1] == pytest.approx(-2.0 * gm)
        assert a[1, 2] == a[1, 4] == pytest.approx(g.g_force)
        for ix, iy in ((2, 3), (4, 5)):
            assert a[ix, ix] == a[iy, iy] == pytest.approx(-gc / 2)
            assert a[ix, iy] == pytest.approx(-d * gc)
            assert a[iy, ix] == pytest.approx(d * gc)
            assert a[iy, 0] == pytest.approx(g.g_phase)
        # output rows: out = gamma_c * state - input
        assert np.all(model.output_map[:, 2:] == gc * np.eye(4))
        assert np.all(model.feedthrough[:, 1:] == -np.eye(4))

    def test_headline_realization_is_stable(self, headline_model):
        _, _, model, _ = headline_model
        eigs = require_stable(model.drift)
        assert np.all(eigs.real < 0.0)

    def test_marginal_undamped_oscillator_rejected(self):
        # gamma_m = 0 with no drive: mechanical eigenvalues +-i omega_m.
        a, _, _, _ = state_space_matrices(mass=1.0, omega_m=1.0, gamma_m=0.0,
                                          gamma_c=1.0, delta=0.3,
                                          g_force=0.0, g_phase=0.0)
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

    def test_empty_cavity_inference_is_trivial(self, empty_cavity_model):
        _, _, model, noise = empty_cavity_model
        var, gain = inferred_variance_at(model, noise, 0.0, 0.0)
        assert var == pytest.approx(1.0, rel=1e-12)
        assert gain == pytest.approx(0.0, abs=1e-12)


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
    """State PSD diagonals on a frequency grid (vectorized over omega)."""
    rows = np.empty((len(omegas), 6))
    eye = np.eye(6)
    for i, w in enumerate(omegas):
        h = np.linalg.solve(-1j * w * eye - model.drift, model.input_map)
        rows[i] = np.einsum("ij,j,ij->i", h, levels, h.conj()).real
    return rows

