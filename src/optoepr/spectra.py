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

for the phi-quadratures X(phi) = x cos(phi) + y sin(phi).  Before the solve
the model is written on the sums and differences of the two modes, states
(q, p, x1 + x2, y1 + y2, x1 - x2, y1 - y2) and inputs (xi, x1_in +- x2_in,
y1_in +- y2_in) at twice the vacuum level, and C and D are projected onto
the two reported quadratures.  The mirror feels only x1 + x2 and writes the
same phase on y1 and y2, so for identical modes the model splits exactly
into two uncoupled blocks: the sum mode with the mirror, states (q, p,
x1 + x2, y1 + y2) on inputs (xi, x1_in + x2_in, y1_in + y2_in), which the
half-sum of the two reported quadratures reads, and the difference mode,
an empty cavity on its own vacuum, which their half-difference reads.  The
sum block's response comes from the adjoint system (-i omega I - A)^T Y =
C^T, one right-hand side per omega; the difference block's is the
adjugate of its 2x2 drift block over its determinant.  Each response
gives the power of its half, over its own block's inputs; S is built from
the two powers, and the inference variance det(S)/S_22 is their product
over S_22, with no cross term left to cancel and no gain in it.

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

    ``drift`` is 6x6 and ``input_map`` 6x5; ``output_map`` is kx6 and
    ``feedthrough`` kx5 for k outputs: the 4 output field quadratures as
    built, or the phi-quadratures of the two modes once
    `output_spectral_matrix` has projected it.
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
        as the sum and difference blocks share no input, so the variance is
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


# The fixed maps of `_sum_difference`: (x1, y1, x2, y2) -> (x1 + x2, y1 + y2,
# x1 - x2, y1 - y2) on the modes of the states, and back.
_PAIR = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2))
_TO_SUM_DIFFERENCE, _FROM_SUM_DIFFERENCE = np.eye(N_STATES), np.eye(N_STATES)
_TO_SUM_DIFFERENCE[2:, 2:], _FROM_SUM_DIFFERENCE[2:, 2:] = _PAIR, 0.5 * _PAIR
# The two blocks of a model from `_sum_difference`: the sum mode with the
# mirror, states (q, p, x1 + x2, y1 + y2) on inputs (xi, x1_in + x2_in,
# y1_in + y2_in), and the difference mode, states (x1 - x2, y1 - y2) on
# inputs (x1_in - x2_in, y1_in - y2_in); and the map from its two outputs
# to their half-sum and half-difference, which read one block each.
_SUM, _SUM_IN, _DIFF, _DIFF_IN = slice(0, 4), slice(0, 3), slice(4, 6), slice(3, 5)
_HALVES = np.array([[0.5, 0.5], [0.5, -0.5]])


def _sum_difference(model: StateSpace, phi: float) -> StateSpace:
    """``model`` on the sums and differences of the two modes, projected onto
    the phi-quadratures X1(phi), X2(phi).

    The states become (q, p, x1 + x2, y1 + y2, x1 - x2, y1 - y2) and the
    inputs (xi, x1_in + x2_in, y1_in + y2_in, x1_in - x2_in, y1_in - y2_in).
    The basis changes carry only the coefficients 0, +-1 and 1/2, so every
    product is exact, with or without fused multiply-add: for identical
    modes the blocks coupling sums to differences are exact zeros.
    """
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi!r}")
    c, s = math.cos(phi), math.sin(phi)
    p = np.array([[c, s, 0.0, 0.0], [0.0, 0.0, c, s]])
    to_states, from_states = _TO_SUM_DIFFERENCE, _FROM_SUM_DIFFERENCE
    # The inputs (xi, fields) change basis as the states (p, fields) do.
    return replace(model, drift=to_states @ model.drift @ from_states,
                   input_map=to_states @ model.input_map @ from_states[1:, 1:],
                   output_map=p @ model.output_map @ from_states,
                   feedthrough=p @ model.feedthrough @ from_states[1:, 1:])


def _twin_blocks(rotated: StateSpace) -> tuple[StateSpace, StateSpace]:
    """The sum and the difference block of a model from `_sum_difference`,
    with one output each: the half-sum and the half-difference of the
    model's two outputs.

    The split is exact because every entry coupling the two blocks is an
    exact zero for identical modes; a model with any such entry non-zero is
    refused with ParameterError.
    """
    a, b = rotated.drift, rotated.input_map
    c, d = _HALVES @ rotated.output_map, _HALVES @ rotated.feedthrough
    cross = (a[_SUM, _DIFF], a[_DIFF, _SUM], b[_SUM, _DIFF_IN], b[_DIFF, _SUM_IN],
             c[0, _DIFF], c[1, _SUM], d[0, _DIFF_IN], d[1, _SUM_IN])
    if any(block.any() for block in cross):
        raise ParameterError(
            "the two modes are not twins: the model couples the sum and the "
            "difference of the modes, so its spectra do not split")
    return (replace(rotated, drift=a[_SUM, _SUM], input_map=b[_SUM, _SUM_IN],
                    output_map=c[:1, _SUM], feedthrough=d[:1, _SUM_IN]),
            replace(rotated, drift=a[_DIFF, _DIFF], input_map=b[_DIFF, _DIFF_IN],
                    output_map=c[1:, _DIFF], feedthrough=d[1:, _DIFF_IN]))


def _difference_response(block: StateSpace, w: np.ndarray) -> np.ndarray:
    """Response C adj(M) B / det(M) + D of a 2-state, 1-output block at each
    ``w``, with M = -i omega I - A: its one row, shape ``(*w.shape, 2)``.

    M is first scaled by t = 1 / (|omega| + sum |A|), which bounds its
    entries by 1, so its determinant stays in the double range at every
    finite omega; the scale cancels in adj(M) / det(M).
    """
    a, (c0, c1) = block.drift, block.output_map[0]
    t = 1.0 / (np.abs(w) + np.abs(a).sum())
    a01, a10 = t * a[0, 1], t * a[1, 0]
    m00, m11 = -t * a[0, 0] - 1j * (t * w), -t * a[1, 1] - 1j * (t * w)
    row = np.stack([c0 * m11 + c1 * a10, c0 * a01 + c1 * m00], axis=-1)   # C adj(t M)
    scaled = row * (t / (m00 * m11 - a01 * a10))[..., None]
    return scaled @ block.input_map + block.feedthrough[0]


def output_spectral_matrix(model: StateSpace, noise: NoisePsd, omega,
                           phi: float) -> SpectralMatrix:
    """Symmetrized 2x2 output spectra of the phi-quadratures at each ``omega``.

    The model is written on the sums and differences of the two modes and
    projected onto the two phi-quadratures, then split into its sum and
    difference blocks: `output_response` solves the 4-state sum block for
    the half-sum of the two quadratures, one right-hand side per omega, and
    the 2-state difference block gives the half-difference in closed form.
    A model whose blocks are coupled, by modes that are not identical, is
    refused with ParameterError.  The half-sum's power is summed over xi and
    the sums of the field inputs, the half-difference's over the differences
    of the field inputs, each at twice the vacuum level; the two share no
    input, so their cross PSD is 0.  ``omega`` is a float or an array; the
    returned ``s`` has shape ``(*np.shape(omega), 2, 2)``.  The levels are
    checked by `NoisePsd.levels`, so ``s`` is positive semidefinite; a
    matrix is accepted only if every entry is finite and s22 > 0, so that
    `SpectralMatrix.inference` is defined on it.  Otherwise NumericalError
    names the first omega that fails.
    """
    w = np.asarray(omega, dtype=float)
    sum_block, difference_block = _twin_blocks(_sum_difference(model, phi))
    # Checked before the solve; a sum or difference of two vacua has twice the level.
    levels = noise.levels(w) * [1.0, 2.0, 2.0, 2.0, 2.0]
    m = output_response(sum_block, w)[..., 0, :]
    h = _difference_response(difference_block, w)
    with np.errstate(over="ignore", invalid="ignore"):   # refused by the check below
        sum_power = (levels[..., _SUM_IN] * (m * m.conj()).real).sum(axis=-1)
        difference_power = (levels[..., _DIFF_IN] * (h * h.conj()).real).sum(axis=-1)
    spec = SpectralMatrix(sum_power, difference_power, cross=0.0)
    ok = np.isfinite(spec.s).all(axis=(-2, -1)) & (spec.s[..., 1, 1] > 0.0)
    if not ok.all():
        raise NumericalError("output spectral matrix has a non-finite entry or "
                             f"s22 <= 0 at omega={float(w[~ok].flat[0])!r}")
    return spec


def inferred_variance_at(model: StateSpace, noise: NoisePsd, omega: float,
                         phi: float) -> tuple[float, float]:
    """Minimized inference variance (gamma_c units) and optimal gain.

    At omega = 0 this reproduces the closed form in `criterion` exactly; at
    other sideband frequencies it generalizes the criterion off the carrier.
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
