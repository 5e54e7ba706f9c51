"""Frequency-domain solution of the linearized fluctuation dynamics.

State order is (q, p, x1, y1, x2, y2) with x_j = a_j + a_j^dag and
y_j = -i(a_j - a_j^dag); noise order is (xi, x1_in, y1_in, x2_in, y2_in).
The linearized equations of motion are

    dq/dt  = p/m
    dp/dt  = -m omega_m^2 q - 2 gamma_m p + g_force (x1 + x2) - xi
    dx_j/dt = -(gamma_c/2) x_j - delta gamma_c y_j + x_j_in
    dy_j/dt =  delta gamma_c x_j - (gamma_c/2) y_j + g_phase q + y_j_in

and the reflected fields obey x_j_out = gamma_c x_j - x_j_in (same for y).
Input vacuum correlators are normalized so each input quadrature has flat
symmetrized spectral density gamma_c; the mirror force noise has the
symmetrized quantum Brownian kernel

    S_xi(omega) = 2 m gamma_m hbar omega coth(hbar omega / 2 k_B T),

which tends to 4 m gamma_m k_B T at omega -> 0 and to 2 m gamma_m hbar |omega|
at T = 0.  With these normalizations the output spectral matrix is

    S(omega) = Re[ R(omega) diag(N(omega)) R(omega)^dag ],
    R(omega) = C (-i omega I - A)^{-1} B + D,

projected onto the phi-quadratures X(phi) = x cos(phi) + y sin(phi).  No
further calibration constant is needed: the empty cavity returns exactly
S_11 = gamma_c at every frequency and the omega = 0 commutator norm between
conjugate output quadratures is exactly 2 gamma_c, so the minimized omega = 0
inference variances coincide with the closed forms in `criterion` (the
calibration constant between conventions is identically 1; verified to
~1e-9, limited only by omega_0/omega_c in the reduced-power definition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import criterion
from .constants import HBAR, K_B
from .errors import InstabilityError, NumericalError, ParameterError
from .model import (DimensionlessParams, PhysicalParams, SteadyState,
                    couplings, drive_kappa, steady_state, to_dimensionless)

N_STATES = 6
N_NOISES = 5
N_OUTPUTS = 4

# Relative PSD tolerance of a returned spectral matrix.
SPECTRAL_PSD_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """Real state-space model (A, B, C, D) of the fluctuation dynamics.

    ``drift`` is 6x6, ``input_map`` 6x5, ``output_map`` 4x6 and
    ``feedthrough`` 4x5; ``gamma_c`` is carried along so spectra can be
    normalized without re-threading the physical parameters.  Treat
    instances (and their arrays) as immutable.
    """

    drift: np.ndarray
    input_map: np.ndarray
    output_map: np.ndarray
    feedthrough: np.ndarray
    gamma_c: float


@dataclass(frozen=True)
class NoisePsd:
    """Symmetrized input noise spectral densities.

    ``vacuum_level`` is the flat PSD of every input field quadrature
    (= gamma_c in the adopted normalization); ``brownian`` maps omega to the
    symmetrized PSD of the mirror force noise.
    """

    vacuum_level: float
    brownian: Callable[[float], float]

    def __post_init__(self) -> None:
        if not (self.vacuum_level > 0.0):
            raise ParameterError(
                f"vacuum_level must be positive, got {self.vacuum_level!r}")

    def levels(self, omega: float) -> np.ndarray:
        """Diagonal of the 5x5 noise spectral matrix at ``omega``."""
        v = self.vacuum_level
        return np.array([self.brownian(omega), v, v, v, v])


@dataclass(frozen=True)
class SpectralMatrix:
    """Symmetrized 2x2 mode-indexed output spectrum at one (omega, phi)."""

    s: np.ndarray

    def inference(self) -> tuple[float, float]:
        """(s11 - 2 g s12 + g^2 s22, g) at the optimal gain g, in units of ``s``."""
        s = self.s
        gain = criterion.optimal_gain(s[0, 0], s[0, 1], s[1, 1])
        return s[0, 0] - 2.0 * gain * s[0, 1] + gain * gain * s[1, 1], gain


def brownian_psd(omega: float, params: PhysicalParams) -> float:
    """Symmetrized quantum Brownian force PSD, 2 m gamma_m hbar omega coth(...).

    Even in omega.  Returns the analytic limit 4 m gamma_m k_B T at
    omega = 0 and 2 m gamma_m hbar |omega| at T = 0.
    """
    pref = 2.0 * params.mass * params.gamma_m
    if params.temperature == 0.0:
        return pref * HBAR * abs(omega)
    kt2 = 2.0 * K_B * params.temperature
    x = HBAR * omega / kt2
    if abs(x) < 1e-8:
        # hbar omega coth(x) = kt2 * x coth(x) = kt2 (1 + x^2/3 + ...)
        return pref * kt2 * (1.0 + x * x / 3.0)
    return pref * HBAR * omega / math.tanh(x)


def noise_psd(params: PhysicalParams) -> NoisePsd:
    """Input noise PSDs of the model at the given physical parameters."""
    return NoisePsd(vacuum_level=params.gamma_c,
                    brownian=lambda omega: brownian_psd(omega, params))


def state_space_matrices(mass: float, omega_m: float, gamma_m: float,
                         gamma_c: float, delta: float, g_force: float,
                         g_phase: float):
    """Raw (A, B, C, D) matrices from the linearized equations of motion."""
    a = np.zeros((N_STATES, N_STATES))
    a[0, 1] = 1.0 / mass
    a[1, 0] = -mass * omega_m ** 2
    a[1, 1] = -2.0 * gamma_m
    a[1, 2] = g_force
    a[1, 4] = g_force
    for ix, iy in ((2, 3), (4, 5)):
        a[ix, ix] = -0.5 * gamma_c
        a[ix, iy] = -delta * gamma_c
        a[iy, ix] = delta * gamma_c
        a[iy, iy] = -0.5 * gamma_c
        a[iy, 0] = g_phase
    b = np.zeros((N_STATES, N_NOISES))
    b[1, 0] = -1.0
    b[2, 1] = b[3, 2] = b[4, 3] = b[5, 4] = 1.0
    c = np.zeros((N_OUTPUTS, N_STATES))
    d = np.zeros((N_OUTPUTS, N_NOISES))
    for k, ix in enumerate((2, 3, 4, 5)):
        c[k, ix] = gamma_c         # out = gamma_c * intracavity - input
        d[k, k + 1] = -1.0
    return a, b, c, d


def require_stable(drift: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``drift``; raises if any real part is non-negative."""
    eigs = np.linalg.eigvals(drift)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0.0:
        raise InstabilityError(
            f"drift matrix is not strictly stable: eigenvalue {worst!r} "
            "has non-negative real part")
    return eigs


def build_state_space(params: PhysicalParams, ss: SteadyState) -> StateSpace:
    """Assemble and stability-check the fluctuation model at a steady state.

    Raises
    ------
    InstabilityError
        If any drift eigenvalue has a non-negative real part (stationary
        spectra would not exist).
    """
    g = couplings(params, ss)
    a, b, c, d = state_space_matrices(
        params.mass, params.omega_m, params.gamma_m, params.gamma_c,
        ss.delta, g.g_force, g.g_phase)
    require_stable(a)
    return StateSpace(drift=a, input_map=b, output_map=c, feedthrough=d,
                      gamma_c=params.gamma_c)


def output_response(model: StateSpace, omega: float) -> np.ndarray:
    """Complex 4x5 response R(omega) = C (-i omega I - A)^{-1} B + D."""
    m = -1j * omega * np.eye(N_STATES) - model.drift
    try:
        h = np.linalg.solve(m, model.input_map)
    except np.linalg.LinAlgError as exc:   # cannot occur for stable A, real omega
        raise NumericalError(f"singular response matrix at omega={omega!r}") from exc
    return model.output_map @ h + model.feedthrough


def _projector(phi: float) -> np.ndarray:
    p = np.zeros((2, N_OUTPUTS))
    p[0, 0] = p[1, 2] = math.cos(phi)
    p[0, 1] = p[1, 3] = math.sin(phi)
    return p


def output_spectral_matrix(model: StateSpace, noise: NoisePsd, omega: float,
                           phi: float) -> SpectralMatrix:
    """Symmetrized 2x2 output spectrum of the phi-quadratures at ``omega``."""
    r = output_response(model, omega)
    s4 = ((r * noise.levels(omega)) @ r.conj().T).real
    p = _projector(phi)
    s = p @ s4 @ p.T
    s = 0.5 * (s + s.T)
    trace = s[0, 0] + s[1, 1]
    if np.min(np.linalg.eigvalsh(s)) < -SPECTRAL_PSD_TOL * abs(trace):
        raise NumericalError(
            f"output spectral matrix not positive semidefinite at omega={omega!r}")
    return SpectralMatrix(s=s)


def inferred_variance_at(model: StateSpace, noise: NoisePsd, omega: float,
                         phi: float) -> tuple[float, float]:
    """Minimized inference variance (gamma_c units) and optimal gain.

    At omega = 0 this reproduces the closed form in `criterion` exactly; at
    other sideband frequencies it generalizes the criterion off the carrier.
    """
    variance, gain = output_spectral_matrix(model, noise, omega, phi).inference()
    return variance / model.gamma_c, gain


def commutator_norm_check(model: StateSpace, modes: tuple[int, int] = (1, 1)) -> float:
    """Magnitude of the omega = 0 output commutator between conjugate quadratures.

    Propagates the antisymmetric (commutator) part of the input correlators
    through the response algebra at omega = 0 and returns
    |[X_j_out(0), X_k_out(pi/2)]| in units of gamma_c.  The contract value is
    2 for j = k (the canonical structure survives the radiation-pressure
    interaction) and 0 across modes.  The mirror noise commutator spectrum is
    odd in omega and vanishes exactly at omega = 0, so only the field inputs
    contribute.
    """
    j, k = modes
    if j not in (1, 2) or k not in (1, 2):
        raise ParameterError(f"mode indices must be 1 or 2, got {modes!r}")
    r = output_response(model, 0.0).real
    comm = np.zeros((N_NOISES, N_NOISES))
    for base in (1, 3):   # [x_in, y_in] = 2 i gamma_c; the i is carried implicitly
        comm[base, base + 1] = 2.0 * model.gamma_c
        comm[base + 1, base] = -2.0 * model.gamma_c
    cout = r @ comm @ r.T
    return abs(cout[2 * (j - 1), 2 * (k - 1) + 1]) / model.gamma_c


# ---------------------------------------------------------------------------
# Stable laboratory realization of a reduced parameter point
# ---------------------------------------------------------------------------

def realize_dimensionless(dp: DimensionlessParams) -> tuple[PhysicalParams, SteadyState]:
    """Construct a stable physical parameter set realizing ``dp`` exactly.

    The reduced triple fixes every omega = 0 observable but leaves the
    dynamical timescales free, and dynamical stability is not automatic: a
    positive-detuning drive anti-damps the mirror, and for a slow, weakly
    damped oscillator the anti-damping can exceed gamma_m (the textbook
    experimental parameter set is of that kind).  This constructor therefore
    places the mechanical frequency inside the cavity bandwidth and picks a
    mechanical damping of the same order, doubling gamma_m until the drift
    matrix is comfortably stable; the bath temperature is rescaled alongside
    so t_cal is preserved.

    Returns the parameter set together with its self-consistent steady state
    (whose detuning equals ``dp.delta`` by construction of the bare
    detuning).
    """
    mass, cavity_length, omega_c, gamma_c = 3e-5, 1e-3, 2e15, 2e6
    omega_m, gamma_m = 0.55 * gamma_c, 0.5 * gamma_c
    delta = dp.delta
    u4 = 1.0 + 4.0 * delta * delta

    for _ in range(8):
        temperature = (dp.t_cal * HBAR * omega_m ** 2
                       / (8.0 * K_B * gamma_m * delta))
        # Input power from the reduced-power definition, iterating the tiny
        # omega_0 shift from the self-consistent bare detuning.
        omega_0 = omega_c
        for _ in range(4):
            p_in = (dp.p_cal * mass * cavity_length ** 2 * omega_m ** 2
                    * gamma_c ** 2 * u4 / (8.0 * omega_0 * delta))
            params = PhysicalParams(
                mass=mass, cavity_length=cavity_length, omega_m=omega_m,
                gamma_m=gamma_m, omega_c=omega_c, omega_0=omega_0,
                gamma_c=gamma_c, temperature=temperature, input_power=p_in)
            delta0 = delta - drive_kappa(params) / (0.25 + delta * delta)
            omega_0 = omega_c + gamma_c * delta0
            if not omega_0 > 0.0:
                raise NumericalError(
                    f"realizing {dp!r} needs a drive frequency omega_0 = "
                    f"{omega_0!r} rad/s <= 0 (bare detuning {delta0!r})")
        params = replace(params, omega_0=omega_0)
        roots = steady_state(params)
        ss = min(roots, key=lambda r: abs(r.delta - delta))
        g = couplings(params, ss)
        a, _, _, _ = state_space_matrices(mass, omega_m, gamma_m, gamma_c,
                                          ss.delta, g.g_force, g.g_phase)
        eigs = np.linalg.eigvals(a)
        if eigs.real.max() < -0.02 * gamma_c:
            # omega_0 is stored as an SI float near omega_c, whose ULP bounds
            # how precisely the bare detuning (and hence the root) can be hit.
            # The bound is relative, so a root at delta <= 0 fails it too.
            if not abs(ss.delta - delta) <= 1e-3 * delta:
                raise NumericalError(
                    f"steady state landed at delta={ss.delta!r}, wanted {delta!r}; "
                    "the bare detuning is resolved only to the ULP of omega_0")
            return params, ss
        gamma_m *= 2.0
    raise InstabilityError(
        f"could not stabilize a realization of {dp!r} by raising gamma_m")


def closed_form_check(params: PhysicalParams, ss: SteadyState,
                      phi: float) -> tuple[float, float]:
    """(state-space variance, closed-form variance) at omega = 0, gamma_c units.

    Convenience pairing of the two independent routes used throughout the
    test-suite: the full spectral solve and the reduced-parameter formula.
    """
    model = build_state_space(params, ss)
    noise = noise_psd(params)
    var_ss, _ = inferred_variance_at(model, noise, 0.0, phi)
    dp = to_dimensionless(params, ss.delta)
    eps = (criterion.epsilon_zero(dp) if phi == 0.0
           else criterion.epsilon_half_pi(dp) if phi == math.pi / 2
           else None)
    if eps is None:
        raise ParameterError("closed form is only available at phi = 0 or pi/2")
    return var_ss, criterion.inferred_variance(eps)
