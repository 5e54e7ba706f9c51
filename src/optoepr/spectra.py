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

for the phi-quadratures X(phi) = x cos(phi) + y sin(phi).  The mirror feels
only x1 + x2 and writes the same phase on y1 and y2, so the model is
unchanged by the exchange of its two modes: they are twins.  For twins the
sum mode, states (q, p, x1 + x2, y1 + y2) on inputs (xi, x1_in + x2_in,
y1_in + y2_in) at twice the vacuum level, evolves with the mirror on its
own, and the half-sum of the two reported quadratures reads it alone; its
matrices are read off the model's first mode with the exact coefficients
2, 1 and 1/2.  The difference mode, x1 - x2 and y1 - y2, is an empty
lossless cavity on its own vacuum, which their half-difference reads.  The
sum mode's response comes from the adjoint system (-i omega I - A)^T Y =
C^T, one right-hand side per omega, and gives the half-sum's power; the
difference mode's reflection is all-pass, so the half-difference has half
the vacuum level by identity.  S is built from the two powers, and the
inference variance det(S)/S_22 is their product over S_22, with no cross
term left to cancel and no gain in it.

No further calibration constant is needed: the empty cavity returns exactly
S_11 = gamma_c at every frequency and the omega = 0 commutator norm between
conjugate output quadratures is exactly 2 gamma_c, so the minimized omega = 0
inference variances coincide with the closed forms in `criterion` (the
calibration constant between conventions is identically 1; verified to
~1e-9, limited only by omega_0/omega_c in the reduced-power definition).

Every noise level is checked once, in `NoisePsd.levels`, for this route
and the stochastic one: finite and non-negative, zero being a noiseless
input.  With such levels ``s`` is positive semidefinite by construction, so
`output_spectral_matrix` checks only what the gain needs, finite entries
and s22 > 0; nothing comes from `criterion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .constants import HBAR, K_B
from .errors import InstabilityError, NumericalError, ParameterError
from .model import (DimensionlessParams, PhysicalParams, SteadyState,
                    drive_kappa, steady_state)

N_STATES = 6
N_NOISES = 5
N_OUTPUTS = 4


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Real state-space model (A, B, C, D) of the fluctuation dynamics.

    As built, ``drift`` is 6x6, ``input_map`` 6x5, ``output_map`` 4x6 and
    ``feedthrough`` 4x5, on the 4 output field quadratures; the sum mode
    that `output_spectral_matrix` solves has 4 states, 3 inputs and one
    output, the half-sum of the two phi-quadratures.
    ``gamma_c`` is carried along so spectra can be normalized without
    re-threading the physical parameters.  Treat instances (and their
    arrays) as immutable.  Instances compare by identity, as their arrays
    have no single truth value.
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
    (= gamma_c in the adopted normalization); ``brownian`` maps an array of
    omega to the symmetrized PSD of the mirror force noise at each, or to
    one level for all of them.  Both are checked where they are read, by
    `levels`; a noiseless run is ``NoisePsd(0.0, lambda w: 0.0)``.
    """

    vacuum_level: float
    brownian: Callable[[np.ndarray], np.ndarray]

    def levels(self, omega) -> np.ndarray:
        """Diagonal of the 5x5 noise spectral matrix at each ``omega``.

        ``omega`` is a float or an array; the result has shape
        ``(*np.shape(omega), 5)``.  ``brownian`` is called once, on the
        whole array (0-d for a float).  Every level must be finite and
        non-negative (zero is a noiseless input); otherwise NumericalError
        names the first omega that fails.
        """
        w = np.asarray(omega, dtype=float)
        out = np.full(w.shape + (N_NOISES,), self.vacuum_level)
        out[..., 0] = self.brownian(w)
        bad = ~(np.isfinite(out) & (out >= 0.0)).all(axis=-1)
        if bad.any():
            raise NumericalError("noise level is not finite and non-negative "
                                 f"at omega={float(w[bad].flat[0])!r}")
        return out


@dataclass(frozen=True, eq=False)
class SpectralMatrix:
    """Symmetrized 2x2 mode-indexed output spectra at one phi, from three powers.

    ``sum_power`` S_m and ``difference_power`` S_h are the PSDs of the
    half-sum m and the half-difference h of the two phi-quadratures, and
    ``cross`` X is their cross PSD Re S_mh; the three are real and broadcast
    together.  ``s`` has shape ``(..., 2, 2)``, one matrix per omega of the
    solve, or ``(2, 2)`` for a scalar omega: s11 = S_m + S_h + 2X,
    s22 = S_m + S_h - 2X and s12 = S_m - S_h.  Instances compare by identity.
    """

    sum_power: np.ndarray
    difference_power: np.ndarray
    cross: np.ndarray
    s: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        s_m, s_h, cross = self.sum_power, self.difference_power, self.cross
        with np.errstate(over="ignore", invalid="ignore"):   # refused by the caller's check
            s = np.empty(np.broadcast(s_m, s_h, cross).shape + (2, 2))
            s[..., 0, 0] = s_m + s_h + 2.0 * cross
            s[..., 1, 1] = s_m + s_h - 2.0 * cross
            s[..., 0, 1] = s[..., 1, 0] = s_m - s_h
        object.__setattr__(self, "s", s)

    def inference(self):
        """(det s / s22, s12 / s22): the minimized inference variance and its gain.

        det s = 4 (S_m S_h - X^2).  `output_spectral_matrix` passes X = 0,
        as the sum and difference modes share no input, so the variance is
        a product of sums of non-negative terms: nothing cancels however
        strongly common-mode noise dominates ``s``.  Elementwise over the
        leading axes of ``s``; scalars for one matrix.
        """
        s22 = self.s[..., 1, 1]
        # Each product is divided by s22 first, so none leaves the double range.
        variance = 4.0 * (self.sum_power / s22 * self.difference_power
                          - self.cross / s22 * self.cross)
        gain = self.s[..., 0, 1] / s22
        # [()] makes the values of a single matrix numpy scalars, not 0-d arrays.
        return variance[()], gain[()]


def brownian_psd(omega, params: PhysicalParams):
    """Symmetrized quantum Brownian force PSD, 2 m gamma_m hbar omega coth(...).

    Elementwise on a float or an array of omega; a float gives a numpy
    float.  Even in omega.  Returns the analytic limit 4 m gamma_m k_B T at
    omega = 0, by a series where |hbar omega / 2 k_B T| < 1e-8, and
    2 m gamma_m hbar |omega| at T = 0.
    """
    w = np.asarray(omega, dtype=float)
    pref = 2.0 * params.mass * params.gamma_m
    if params.temperature == 0.0:
        return pref * HBAR * np.abs(w)
    kt2 = 2.0 * K_B * params.temperature
    with np.errstate(over="ignore"):   # x = inf past the double range: coth(x) = 1
        x = HBAR * w / kt2
    small = np.abs(x) < 1e-8
    # hbar omega coth(x) = kt2 * x coth(x) = kt2 (1 + x^2/3 + ...); each branch
    # sees a harmless stand-in where the other is taken.
    xs = np.where(small, x, 0.0)
    series = pref * kt2 * (1.0 + xs * xs / 3.0)
    return np.where(small, series, pref * HBAR * w / np.tanh(np.where(small, 1.0, x)))[()]


def noise_psd(params: PhysicalParams) -> NoisePsd:
    """Input noise PSDs of the model at the given physical parameters."""
    return NoisePsd(vacuum_level=params.gamma_c,
                    brownian=lambda omega: brownian_psd(omega, params))


def state_space_matrices(params: PhysicalParams, ss: SteadyState):
    """Raw (A, B, C, D) matrices from the linearized equations of motion at ``ss``.

    The couplings come from the steady-state amplitude: the radiation-pressure
    force per amplitude quadrature, g_force = hbar omega_c |alpha| / L [N],
    and the displacement-to-phase rate, g_phase = 2 omega_c |alpha| / L
    [rad/(s m)].
    """
    amp = abs(ss.alpha)
    g_force = HBAR * params.omega_c * amp / params.cavity_length
    g_phase = 2.0 * params.omega_c * amp / params.cavity_length
    mass, gamma_c, delta = params.mass, params.gamma_c, ss.delta
    a = np.zeros((N_STATES, N_STATES))
    a[0, 1] = 1.0 / mass
    a[1, 0] = -mass * params.omega_m ** 2
    a[1, 1] = -2.0 * params.gamma_m
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
    """Eigenvalues of ``drift``; raises if any real part is non-negative.

    A drift with an inf or nan entry, from a parameter product outside the
    double range, is refused with `NumericalError` before the eigensolver.
    """
    if not np.isfinite(drift).all():
        raise NumericalError(
            "drift matrix has a non-finite entry: a parameter product is "
            "outside the double range")
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
    a, b, c, d = state_space_matrices(params, ss)
    require_stable(a)
    return StateSpace(drift=a, input_map=b, output_map=c, feedthrough=d,
                      gamma_c=params.gamma_c)


def output_response(model: StateSpace, omega) -> np.ndarray:
    """Complex response R(omega) = C (-i omega I - A)^{-1} B + D.

    Solved as the adjoint system (-i omega I - A)^T Y = C^T, with
    R = Y^T B + D: one right-hand side per output, not one per input.
    ``omega`` is a float or an array of sideband frequencies; for a model
    with k outputs and l inputs, on any number of states, the result has
    shape ``(*np.shape(omega), k, l)``, from one stacked solve.
    """
    w = np.asarray(omega, dtype=float)
    n = len(model.drift)
    m = np.empty(w.shape + (n, n), dtype=complex)
    m[...] = -model.drift.T
    m.reshape(w.shape + (n * n,))[..., ::n + 1] -= 1j * w[..., None]
    try:
        y = np.linalg.solve(m, model.output_map.T)   # C^T broadcasts over the stack
    except np.linalg.LinAlgError as exc:   # cannot occur for stable A, real omega
        raise NumericalError(f"singular response matrix at omega={omega!r}") from exc
    # B is real, so Y^T B is one real product over the interleaved real and
    # imaginary parts of Y, with the values of the complex product.
    yb = (model.input_map.T @ y.view(float)).view(complex)
    return yb.swapaxes(-1, -2) + model.feedthrough


# The exchange of the two modes as index permutations of the states (q, p,
# x1, y1, x2, y2), the inputs (xi, x1_in, y1_in, x2_in, y2_in) and the
# outputs (x1_out, y1_out, x2_out, y2_out), on A, B, C and D in turn:
# twins are the models that it leaves unchanged.
_EXCHANGE = (np.ix_([0, 1, 4, 5, 2, 3], [0, 1, 4, 5, 2, 3]),
             np.ix_([0, 1, 4, 5, 2, 3], [0, 3, 4, 1, 2]),
             np.ix_([2, 3, 0, 1], [0, 1, 4, 5, 2, 3]),
             np.ix_([2, 3, 0, 1], [0, 3, 4, 1, 2]))
_FIELDS = np.eye(4)   # (x1, y1, x2, y2) on their inputs, for `_sum_block`


def _sum_block(model: StateSpace) -> StateSpace:
    """The sum mode of twin modes with the mirror, read off ``model``.

    Its states are (q, p, x1 + x2, y1 + y2), its inputs (xi, x1_in + x2_in,
    y1_in + y2_in) and its outputs the half-sums of the x and of the y
    outputs.  For twins the sum mode evolves on its own, and its entries
    are those of the first mode with the coefficients 2, 1 and 1/2 only,
    so every one is exact.  Any other model is refused with
    ParameterError, as is one whose modes are not lossless empty cavities:
    A + A^T = -gamma_c I, B = I, C = gamma_c I and D = -I on the field
    block, entries with no rounded product, without which the difference
    mode is not the vacuum.
    """
    a, b, c, d = model.drift, model.input_map, model.output_map, model.feedthrough
    if not all((m[swap] == m).all() for m, swap in zip((a, b, c, d), _EXCHANGE)):
        raise ParameterError(
            "the two modes are not twins: the model couples the sum and the "
            "difference of the modes, so its spectra do not split")
    fields = a[2:, 2:]
    if not (np.array_equal(fields + fields.T, -model.gamma_c * _FIELDS)
            and np.array_equal(b[2:, 1:], _FIELDS)
            and np.array_equal(c[:, 2:], model.gamma_c * _FIELDS)
            and np.array_equal(d[:, 1:], -_FIELDS)):
        raise ParameterError(
            "the modes are not lossless empty cavities, so the difference "
            "mode is not the vacuum")
    # Mode 2's entries are mode 1's: the mirror feels x1 + x2 through mode
    # 1's columns, a field sum feels the mirror once per mode and both
    # modes' fields, and the half-sum outputs read half of each field sum.
    sum_a, sum_b = a[:4, :4].copy(), b[:4, :3].copy()
    sum_a[2:, :2] *= 2.0
    sum_a[2:, 2:] += a[2:4, 4:]
    sum_b[2:, :1] *= 2.0
    sum_b[2:, 1:] += b[2:4, 3:]
    sum_c, sum_d = c[:2, :4].copy(), d[:2, :3].copy()
    sum_c[:, 2:] = 0.5 * (sum_c[:, 2:] + c[:2, 4:])
    sum_d[:, 1:] = 0.5 * (sum_d[:, 1:] + d[:2, 3:])
    return replace(model, drift=sum_a, input_map=sum_b, output_map=sum_c,
                   feedthrough=sum_d)


def output_spectral_matrix(model: StateSpace, noise: NoisePsd, omega,
                           phi: float) -> SpectralMatrix:
    """Symmetrized 2x2 output spectra of the phi-quadratures at each ``omega``.

    `_sum_block` reads the sum mode of the two twin modes off the model, and
    `output_response` solves it for the half-sum of the two quadratures,
    its outputs projected onto (cos phi, sin phi), one right-hand side per
    omega.  A model that the exchange of its modes changes, or whose modes
    are not lossless empty cavities, is refused with ParameterError.  The
    half-sum's power is summed over xi and the sums of the field inputs,
    the latter at twice the vacuum level; the half-difference's is the
    difference mode's vacuum, half the vacuum level, and the two share no
    input, so their cross PSD is 0.  ``omega`` is a float or an array; the
    returned ``s`` has shape ``(*np.shape(omega), 2, 2)``.  The levels are
    checked by `NoisePsd.levels`, so ``s`` is positive semidefinite; a
    matrix is accepted only if every entry is finite and s22 > 0, so that
    `SpectralMatrix.inference` is defined on it.  Otherwise NumericalError
    names the first omega that fails.
    """
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi!r}")
    w = np.asarray(omega, dtype=float)
    block = _sum_block(model)
    u = np.array([[math.cos(phi), math.sin(phi)]])
    block = replace(block, output_map=u @ block.output_map,
                    feedthrough=u @ block.feedthrough)
    # Checked before the solve; a sum or difference of two vacua has twice the level.
    levels = noise.levels(w) * [1.0, 2.0, 2.0, 2.0, 2.0]
    m = output_response(block, w)[..., 0, :]
    with np.errstate(over="ignore", invalid="ignore"):   # refused by the check below
        sum_power = (levels[..., :3] * (m * m.conj()).real).sum(axis=-1)
    # The half-difference of the difference vacuum: twice the level over 4.
    spec = SpectralMatrix(sum_power, levels[..., 3] / 4.0, cross=0.0)
    ok = np.isfinite(spec.s).all(axis=(-2, -1)) & (spec.s[..., 1, 1] > 0.0)
    if not ok.all():
        raise NumericalError("output spectral matrix has a non-finite entry or "
                             f"s22 <= 0 at omega={float(w[~ok].flat[0])!r}")
    return spec


def inferred_variance_at(model: StateSpace, noise: NoisePsd, omega: float,
                         phi: float) -> tuple[float, float]:
    """Minimized inference variance (gamma_c units) and optimal gain.

    At omega = 0 this reproduces the closed form in `criterion` up to the
    omega_0/omega_c of the reduced-power definition: to 3.4e-10 relative at
    the realized headline, and 1e-11 to 4e-11 at the realized (0.9, 0.4,
    0.6) and (0.5, 0.3, 0.4).  At other sideband frequencies it generalizes
    the criterion off the carrier.
    In a bath hot enough that common-mode noise dominates, it tends to the
    difference mode's vacuum level 2 at every omega and phi, and returns 2
    to rounding.
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
    so t_cal is preserved.  The drive frequency, input power and steady
    state depend on neither gamma_m nor T, so they are solved once, and a
    root that misses ``dp.delta`` is refused before any damping is tried;
    each attempt then only reads the eigenvalues of the drift.

    Returns the parameter set together with its self-consistent steady state
    (whose detuning equals ``dp.delta`` by construction of the bare
    detuning).
    """
    mass, cavity_length, omega_c, gamma_c = 3e-5, 1e-3, 2e15, 2e6
    omega_m, gamma_m = 0.55 * gamma_c, 0.5 * gamma_c
    delta = dp.delta
    u4 = 1.0 + 4.0 * delta * delta

    def temperature(gamma_m: float) -> float:
        # The bath temperature that keeps t_cal at this damping.
        return dp.t_cal * HBAR * omega_m ** 2 / (8.0 * K_B * gamma_m * delta)

    # Input power from the reduced-power definition, iterating the tiny
    # omega_0 shift from the self-consistent bare detuning.
    omega_0 = omega_c
    for _ in range(4):
        p_in = (dp.p_cal * mass * cavity_length ** 2 * omega_m ** 2
                * gamma_c ** 2 * u4 / (8.0 * omega_0 * delta))
        try:
            params = PhysicalParams(
                mass=mass, cavity_length=cavity_length, omega_m=omega_m,
                gamma_m=gamma_m, omega_c=omega_c, omega_0=omega_0,
                gamma_c=gamma_c, temperature=temperature(gamma_m), input_power=p_in)
        except ParameterError as exc:   # dp is valid: the recipe overflowed
            raise NumericalError(
                f"realizing {dp!r} leaves the double range: {exc}") from exc
        delta0 = delta - drive_kappa(params) / (0.25 + delta * delta)
        omega_0 = omega_c + gamma_c * delta0
        if not omega_0 > 0.0:
            raise NumericalError(
                f"realizing {dp!r} needs a drive frequency omega_0 = "
                f"{omega_0!r} rad/s <= 0 (bare detuning {delta0!r})")
    params = replace(params, omega_0=omega_0)
    ss = min(steady_state(params), key=lambda r: abs(r.delta - delta))
    # omega_0 is stored as an SI float near omega_c, whose ULP bounds how
    # precisely the bare detuning (and hence the root) can be hit.  The
    # bound is relative, so a root at delta <= 0 fails it too.
    if not abs(ss.delta - delta) <= 1e-3 * delta:
        raise NumericalError(
            f"steady state landed at delta={ss.delta!r}, wanted {delta!r}; "
            "the bare detuning is resolved only to the ULP of omega_0")

    for _ in range(8):
        a, _, _, _ = state_space_matrices(params, ss)
        if np.linalg.eigvals(a).real.max() < -0.02 * gamma_c:
            return params, ss
        gamma_m *= 2.0
        params = replace(params, gamma_m=gamma_m, temperature=temperature(gamma_m))
    raise InstabilityError(
        f"could not stabilize a realization of {dp!r} by raising gamma_m")
