import numpy as np
import pytest

from optoepr import (DimensionlessParams, PhysicalParams, SpectralMatrix,
                     realize_dimensionless)

# The headline reduced point of the whole artifact.
HEADLINE = DimensionlessParams(p_cal=0.17, t_cal=0.1, delta=0.18)

# Often-quoted laboratory parameter set (frequencies angular, rates 1/s).
TEXTBOOK_LAB = dict(mass=3e-5, cavity_length=1e-3, omega_m=2e6, gamma_m=1.0,
                 omega_c=2e15, omega_0=2e15, gamma_c=2e6, temperature=4.0,
                 input_power=0.03)


@pytest.fixture(scope="session")
def textbook_lab_params():
    return PhysicalParams(**TEXTBOOK_LAB)


@pytest.fixture(scope="session")
def headline_realization():
    """Stable physical realization of the headline point, shared by suites."""
    return realize_dimensionless(HEADLINE)


def random_dimensionless(rng: np.random.Generator, *, t_max: float = 2.0):
    """Random valid reduced triple, biased toward the interesting region."""
    return DimensionlessParams(
        p_cal=float(rng.uniform(0.0, 2.0)),
        t_cal=float(rng.uniform(0.0, t_max)),
        delta=float(rng.uniform(0.02, 1.5)),
    )


def bare_spectral_matrix(s):
    """`SpectralMatrix` whose ``s`` is the given 2x2 matrix or stack, to
    rounding: its powers are S_m, S_h = (s11 + s22 +- 2 s12) / 4 and its
    cross PSD X = (s11 - s22) / 4."""
    s = np.asarray(s, dtype=float)
    s11, s12, s22 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
    return SpectralMatrix(sum_power=(s11 + s22 + 2.0 * s12) / 4.0,
                          difference_power=(s11 + s22 - 2.0 * s12) / 4.0,
                          cross=(s11 - s22) / 4.0)
