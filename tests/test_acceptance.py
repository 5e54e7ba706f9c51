"""Acceptance suite: the binding exit criteria of the package.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  A1/A2 pin the headline reproduction, A3 the cross-oracle
equivalence between the spectral solve and the closed forms, A4 the Monte
Carlo validation, A5/A6 the property suites, and A7 the (non-blocking)
laboratory parameter-mapping audit.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from optoepr import (DimensionlessParams, PhysicalParams,
                     build_state_space, default_sim_config, drive_kappa, epr_lhs,
                     epr_product_estimate, inferred_variance_at,
                     noise_psd, output_spectral_matrix,
                     realize_dimensionless, steady_state,
                     steady_state_residual, to_dimensionless)

from conftest import (HEADLINE, TEXTBOOK_LAB, bare_spectral_matrix,
                      random_dimensionless)


@contextmanager
def criterion_report(name: str):
    messages = []
    try:
        yield messages
    except BaseException:
        print(f"{name} FAIL")
        raise
    print(f"{name} PASS — " + "; ".join(messages))


def test_a1_headline_number():
    with criterion_report("A1") as msg:
        res = epr_lhs(HEADLINE)
        assert 0.695 <= res.lhs <= 0.710
        assert abs(res.lhs - 0.7033) <= 5e-4
        assert res.paradox
        msg.append(f"lhs(0.17, 0.1, 0.18) = {res.lhs:.5f} in [0.695, 0.710]")


def test_a2_paradox_region_structure():
    with criterion_report("A2") as msg:
        p_grid = np.arange(1, 401) * (10.0 / 400)   # 400 points on (0, 10]
        cell = 10.0 / 400

        def paradox_measure(t):
            lhs = np.array([epr_lhs(DimensionlessParams(p, t, 0.18)).lhs
                            for p in p_grid])
            return np.count_nonzero(lhs < 1.0) * cell

        # (a) nonempty power window at t = 0.1
        assert paradox_measure(0.1) > 0.0
        # (b) no paradox anywhere on (0, 10] at unit temperature and above
        for t_hot in (1.0, 1.3):
            assert paradox_measure(t_hot) == 0.0
        # (c) the window shrinks monotonically with temperature
        measures = [paradox_measure(t) for t in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b for a, b in zip(measures, measures[1:]))
        msg.append(f"window measures at t=0,0.2,...,0.8: "
                   + ", ".join(f"{m:.3f}" for m in measures))
        msg.append("empty at t >= 1")


def test_a3_cross_oracle_equivalence():
    with criterion_report("A3") as msg:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            dp = random_dimensionless(rng)
            params, ss = realize_dimensionless(dp)
            model = build_state_space(params, ss)
            noise = noise_psd(params)
            ref = epr_lhs(to_dimensionless(params, ss.delta))
            for phi, want in ((0.0, ref.var_x), (math.pi / 2, ref.var_y)):
                got, _ = inferred_variance_at(model, noise, 0.0, phi)
                rel = abs(got - want) / abs(want)
                worst = max(worst, rel)
                assert rel < 1e-3
        msg.append(f"200 random stable sets, worst relative deviation {worst:.2e}")


def test_a5_property_suites():
    with criterion_report("A5") as msg:
        rng = np.random.default_rng(515)
        # no drive saturates the bound exactly
        for _ in range(200):
            t = float(rng.uniform(0.0, 3.0))
            d = float(rng.uniform(0.02, 1.5))
            assert epr_lhs(DimensionlessParams(0.0, t, d)).lhs == 1.0
        # hot bath never beats the bound
        for _ in range(1000):
            dp = random_dimensionless(rng)
            hot = DimensionlessParams(dp.p_cal, 1.0 + dp.t_cal, dp.delta)
            assert epr_lhs(hot).lhs >= 1.0
        # monotone non-decreasing in temperature
        for _ in range(1000):
            dp = random_dimensionless(rng)
            t2 = dp.t_cal + float(rng.uniform(1e-3, 2.0))
            assert (epr_lhs(DimensionlessParams(dp.p_cal, t2, dp.delta)).lhs
                    >= epr_lhs(dp).lhs - 1e-14)
        # gain minimizer beats a brute-force grid
        grid = np.linspace(-10.0, 10.0, 201)
        for _ in range(1000):
            s11 = float(rng.uniform(0.05, 5.0))
            s22 = float(rng.uniform(0.05, 5.0))
            s12 = float(rng.uniform(-1.0, 1.0)) * math.sqrt(s11 * s22)
            _, g = bare_spectral_matrix([[s11, s12], [s12, s22]]).inference()
            best = s11 - 2 * g * s12 + g * g * s22
            assert best <= (s11 - 2 * grid * s12 + grid ** 2 * s22).min() + 1e-12
        # empty cavity reflects vacuum at every sideband frequency
        params, ss = realize_dimensionless(DimensionlessParams(0.0, 0.4, 0.3))
        model = build_state_space(params, ss)
        noise = noise_psd(params)
        for w in rng.uniform(-40 * params.gamma_c, 40 * params.gamma_c, size=50):
            s = output_spectral_matrix(model, noise, float(w), 0.0).s
            assert s[0, 0] == pytest.approx(params.gamma_c, rel=1e-9)
        msg.append("zero-drive identity, hot-bath bound, temperature "
                   "monotonicity, gain optimality, empty-cavity unitarity")


def test_a6_steady_state_solver():
    with criterion_report("A6") as msg:
        rng = np.random.default_rng(66)
        worst_residual = 0.0
        worst_identity = 0.0
        for _ in range(100):
            omega_c = float(rng.uniform(5e14, 5e15))
            params = PhysicalParams(
                mass=float(rng.uniform(1e-6, 1e-3)),
                cavity_length=float(rng.uniform(1e-4, 1e-2)),
                omega_m=float(rng.uniform(1e5, 1e7)),
                gamma_m=float(rng.uniform(1.0, 1e6)),
                omega_c=omega_c,
                omega_0=omega_c,            # kappa identity holds exactly here
                gamma_c=float(rng.uniform(1e5, 1e7)),
                temperature=float(rng.uniform(0.0, 300.0)),
                input_power=float(rng.uniform(1e-4, 1.0)))
            roots = steady_state(params)
            assert len(roots) in (1, 3)
            for ss in roots:
                r = steady_state_residual(params, ss)
                worst_residual = max(worst_residual, r)
                assert r < 1e-12
            ss = roots[0]
            kappa = drive_kappa(params)
            p_kappa = 2.0 * kappa * ss.delta / (0.25 + ss.delta ** 2)
            p_def = to_dimensionless(params, ss.delta).p_cal
            rel = abs(p_def - p_kappa) / p_kappa
            worst_identity = max(worst_identity, rel)
            assert rel < 1e-12
        msg.append(f"100 random sets: worst residual {worst_residual:.2e}, "
                   f"worst power-identity deviation {worst_identity:.2e}")


def test_a7_parameter_mapping_audit():
    with criterion_report("A7") as msg:
        params = PhysicalParams(**TEXTBOOK_LAB)
        dp = to_dimensionless(params, 0.18)
        assert 0.14 <= dp.p_cal <= 0.18
        ratio = dp.t_cal / 0.1
        assert 1.5 <= ratio <= 2.5
        msg.append(f"computed p_cal = {dp.p_cal:.4f} (quoted 0.17), "
                   f"computed t_cal = {dp.t_cal:.4f} vs quoted 0.1 "
                   f"(x{ratio:.2f} discrepancy, reported not reconciled)")


def test_a4_monte_carlo_validation():
    with criterion_report("A4") as msg:
        params, ss = realize_dimensionless(HEADLINE)
        model = build_state_space(params, ss)
        noise = noise_psd(params)
        analytic = [inferred_variance_at(model, noise, 0.0, phi)[0]
                    for phi in (0.0, math.pi / 2)]
        cfg = default_sim_config(model, seed=2026)
        est_x, est_y, prod, _ = epr_product_estimate(model, noise, cfg)
        for est, want in zip((est_x, est_y), analytic):
            assert est.std_err <= 0.02
            assert abs(est.mean - want) < 3.0 * est.std_err
        # paradox with >= 99% one-sided confidence (2.33 sigma)
        assert prod.mean + 2.33 * prod.std_err < 1.0
        msg.append(
            f"phi=0: {est_x.mean:.4f}±{est_x.std_err:.4f} (ref {analytic[0]:.4f}); "
            f"phi=pi/2: {est_y.mean:.4f}±{est_y.std_err:.4f} (ref {analytic[1]:.4f}); "
            f"product {prod.mean:.4f}±{prod.std_err:.4f} < 1 at "
            f"{(1 - prod.mean) / prod.std_err:.0f} sigma")
