"""Time-domain Monte Carlo verification of the spectral solution.

The linearized dynamics are a linear Ito system, discretized with the
Euler-Maruyama scheme, all noises white: the field quadratures at their flat
level gamma_c and the mirror force noise at its omega -> 0 Brownian level
4 m gamma_m k_B T.  That approximation is exact in spectral density at the
carrier, which is where the criterion lives.

Output records are *integrated* quadrature increments over each step,

    dO_k = C x_k dt + D dW_k,

with the same Wiener increment dW_k entering the state update and the
feedthrough term; the reflected field subtracts the instantaneous input, so
dropping that correlation silently breaks the inference variances.  The
finite-time transform at the carrier is the plain window sum scaled by
1/sqrt(tau).  Its second moment differs from the carrier spectral density by
two systematics: the spectral-leakage edge term, about 11/(gamma_c tau)
relative at phi = 0 at the headline point, and the dt discretization, whose
phi = 0 bias is first order in dt.

Two estimators sample that same chain, with the same dt and burn-in, and so
the same distribution of window sums.  Both start from `_window_step`, the
one-step map y' = F y + G z of the augmented state y = (x, s), the state
and its carrier window sum, with F = [[S, 0], [c^T, 1]], S = I + dt A, and
G = [B sig; q^T], driven by unit normals z; and both run through `_chain`,
the one loop that draws each trajectory's stream in blocks and chains one
matrix product per piece.

- `sample_inference_variance`, the production path behind
  `epr_product_estimate`.  Binary powering of the Gaussian map (F, G G^T)
  composes the burn-in and one window exactly (the discrete form of C. F.
  Van Loan, "Computing integrals involving the matrix exponential", IEEE
  TAC 23, 1978), so a trajectory draws 6 normals for its burn-in and 7 per
  window, whatever the step count, and `_chain` runs the windows as steps.
- `estimate_inference_variance`, the step-level reference.  The impulse
  response of (F, G), the powers F^m and the noise responses F^m G, gives
  any piece of steps as one matrix product of its start state and its
  Wiener increments; `_chain` cuts the pieces at the burn-in and window
  edges.  `integrate` runs the 6-state step through the same loop in pieces
  of SUB_BLOCK steps whose products hold every step's outputs.  The draws
  are those of the per-step recursion, and the results equal it up to
  rounding.

Every trajectory derives its own random stream from (seed, trajectory
index), so reruns are bit-reproducible and a trajectory's draws do not
depend on how trajectories are batched.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .errors import NumericalError, ParameterError
from .spectra import NoisePsd, StateSpace

# Steps are generated and consumed in fixed blocks so that a trajectory's
# noise stream does not depend on batching.
NOISE_BLOCK = 4096

# Default integrator safety factor: dt = DT_SAFETY / spectral_radius(A).
DT_SAFETY = 0.08

# Hard step-size guard from the integrate() contract.
DT_LIMIT = 0.1

# integrate() refuses output records larger than this many bytes, and both
# estimators refuse plans whose draws, as doubles, exceed it.  The estimators
# stream their draws in blocks, so for them it bounds the run time, not an
# allocation.
RECORD_BUDGET_BYTES = 2**30

# Steps per block-Toeplitz product in integrate(), where it divides
# NOISE_BLOCK, and windows per product in the window sampler.
SUB_BLOCK = 64

# Default measurement window in cavity lifetimes.  The naive choice of a few
# tens of lifetimes leaves a 1/(Gamma tau) spectral-leakage bias on the
# phi = 0 estimate several times the target statistical error; at 1500
# lifetimes the leakage and dt biases together come to about 0.8 standard
# errors at the default trajectory budget.
TAU_LIFETIMES = 1500.0


@dataclass(frozen=True)
class SimConfig:
    """Integration and estimation plan for one Monte Carlo run.

    Every trajectory runs ``burn_in``, the discarded transient, then
    ``n_segments`` non-overlapping windows of length ``tau``, the
    measurement window of the finite-time transform; that is the whole run.
    dt, tau and burn_in must be finite, dt > 0, tau >= 100 dt, burn_in >= 0
    and seed >= 0.
    """

    dt: float
    tau: float
    n_segments: int
    n_trajectories: int
    seed: int
    burn_in: float

    def __post_init__(self) -> None:
        for name, value in (("dt", self.dt), ("tau", self.tau),
                            ("burn_in", self.burn_in)):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if not (self.dt > 0.0):
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if self.tau < 100.0 * self.dt:
            raise ParameterError(
                f"tau = {self.tau!r} must be at least 100*dt = {100 * self.dt!r}")
        if self.n_segments < 1 or self.n_trajectories < 1:
            raise ParameterError("n_segments and n_trajectories must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed!r}")
        if self.burn_in < 0.0:
            raise ParameterError(f"burn_in must be >= 0, got {self.burn_in!r}")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo variance estimate in gamma_c units."""

    mean: float
    std_err: float
    n_samples: int


@dataclass(frozen=True)
class SimulationRecords:
    """Raw per-step output increments of an `integrate` run.

    ``increments`` has shape (n_trajectories, n_steps, 4) and holds the
    time-integrated output quadratures (x1, y1, x2, y2) over each step;
    divide by the step for averaged instantaneous values.  ``final_states``
    has shape (n_trajectories, 6).
    """

    increments: np.ndarray
    final_states: np.ndarray


def default_sim_config(model: StateSpace, *, n_trajectories: int = 180,
                       n_segments: int = 150, seed: int = 0,
                       dt: float | None = None, tau: float | None = None,
                       burn_in: float | None = None) -> SimConfig:
    """Fill a SimConfig from the model's timescales.

    dt is set a factor DT_SAFETY below the stability guard, tau to
    TAU_LIFETIMES cavity lifetimes (rounded to a whole number of steps) and
    burn_in to 30 relaxation times of the slowest mode (never below the
    5/gamma_m floor demanded by the estimators; rounded up to a whole number
    of steps).  The run is that burn-in plus n_segments windows.  A given dt
    must be finite and positive, and a given tau or burn_in finite.
    """
    for name, value in (("dt", dt), ("tau", tau), ("burn_in", burn_in)):
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if dt is not None and not (dt > 0.0):
        raise ParameterError(f"dt must be positive, got {dt!r}")
    eigs = np.linalg.eigvals(model.drift)
    rho = float(np.max(np.abs(eigs)))
    margin = float(np.min(-eigs.real))
    if margin <= 0.0:
        raise NumericalError("model must be strictly stable")
    if dt is None:
        dt = DT_SAFETY / rho
    if tau is None:
        tau = TAU_LIFETIMES / model.gamma_c
    tau = max(1, round(tau / dt)) * dt
    gamma_m = -0.5 * model.drift[1, 1]
    if burn_in is None:
        burn_in = max(30.0 / margin, 5.0 / gamma_m)
    return SimConfig(dt=dt, tau=tau, n_segments=n_segments,
                     n_trajectories=n_trajectories, seed=seed,
                     burn_in=math.ceil(burn_in / dt) * dt)


def _noise_levels(model: StateSpace, noise: NoisePsd | None) -> np.ndarray:
    """White-noise intensities: field quadratures at gamma_c, force at the
    omega -> 0 Brownian level.  ``noise=None`` means a noiseless run."""
    if noise is None:
        return np.zeros(spectra.N_NOISES)
    levels = noise.levels(0.0)
    if np.any(levels < 0.0):
        raise ParameterError("noise intensities must be non-negative")
    return levels


def _check_step(model: StateSpace, cfg: SimConfig) -> tuple[int, int, int]:
    """Check dt against DT_LIMIT and tau against the step grid; return the
    run's burn-in, window and total step counts, the total being the burn-in
    plus n_segments whole windows."""
    rho = float(np.max(np.abs(np.linalg.eigvals(model.drift))))
    if cfg.dt * rho > DT_LIMIT:
        raise NumericalError(
            f"dt * spectral_radius(A) = {cfg.dt * rho:.3f} exceeds {DT_LIMIT}; "
            "reduce the step size")
    burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
    window_steps = round(cfg.tau / cfg.dt)
    if abs(window_steps * cfg.dt - cfg.tau) > 1e-9 * cfg.tau:
        raise ParameterError("tau must be a whole number of steps")
    return burn_steps, window_steps, burn_steps + cfg.n_segments * window_steps


def _check_plan(model: StateSpace, cfg: SimConfig) -> tuple[int, int, int]:
    """`_check_step` plus the estimators' stationarity floor and the two
    trajectories their jackknife error needs."""
    steps = _check_step(model, cfg)
    if cfg.n_trajectories < 2:
        raise ParameterError(
            f"the estimators need n_trajectories >= 2, got {cfg.n_trajectories!r}")
    # Stationarity floor; raw `integrate` runs (transient studies) are exempt.
    gamma_m = -0.5 * model.drift[1, 1]
    if gamma_m > 0.0 and cfg.burn_in < 5.0 / gamma_m:
        raise ParameterError(
            f"burn_in = {cfg.burn_in!r} shorter than 5 mechanical "
            f"relaxation times = {5.0 / gamma_m!r}")
    return steps


def _check_budget(what: str, n_traj: int, per_traj: int, advice: str) -> None:
    """Refuse an array of n_traj x per_traj doubles above the budget."""
    n_bytes = n_traj * per_traj * 8
    if n_bytes > RECORD_BUDGET_BYTES:
        raise ParameterError(
            f"{what} of {n_traj} trajectories x {per_traj} doubles needs "
            f"{n_bytes / 2**30:.1f} GiB, above the "
            f"{RECORD_BUDGET_BYTES / 2**30:.0f} GiB budget; {advice}")


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _draw_block(rngs: list[np.random.Generator], nb: int,
                width: int = spectra.N_NOISES) -> np.ndarray:
    z = np.empty((len(rngs), nb, width))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _step(model: StateSpace, noise: NoisePsd | None,
          dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Euler-Maruyama step driven by unit normals z: x' = S x + (B sig) z.

    Returns S = I + dt A, B sig and sig, the per-noise standard deviation of
    one step's Wiener increment.
    """
    sig = np.sqrt(_noise_levels(model, noise) * dt)
    return np.eye(spectra.N_STATES) + dt * model.drift, model.input_map * sig, sig


def _window_step(model: StateSpace, noise: NoisePsd | None, dt: float, phi: float,
                 gain: float) -> tuple[np.ndarray, np.ndarray]:
    """One step y' = F y + G z of the chain and its carrier window sum.

    y = (x, s) is the state and the window sum s' = s + c.x + q.z, which
    accumulates the step's integrated outputs weighted by (cos phi, sin phi,
    -gain cos phi, -gain sin phi).  Returns F = [[S, 0], [c^T, 1]] and
    G = [B sig; q^T]; both estimators build their maps from these, so they
    sum the same quadrature.
    """
    step, b_sig, sig = _step(model, noise, dt)
    c, s = math.cos(phi), math.sin(phi)
    weights = np.array([c, s, -gain * c, -gain * s])
    n = spectra.N_STATES
    f_one = np.eye(n + 1)
    f_one[:n, :n] = step
    f_one[n, :n] = (model.output_map.T * dt) @ weights
    return f_one, np.vstack([b_sig, (model.feedthrough * sig).T @ weights])


def _impulse_response(step: np.ndarray, b_sig: np.ndarray,
                      length: int) -> tuple[np.ndarray, np.ndarray]:
    """Impulse response of a chain x' = S x + (B sig) z of n states, k noises.

    Returns the powers S^m for m <= length (shape (length+1, n, n)) and the
    noise responses P_m = S^m B sig for m < length (shape (length, n, k)).
    The powers are built by doubling: log2(length) batched n x n products.
    """
    powers = np.empty((length + 1, *step.shape))
    powers[0] = np.eye(len(step))
    filled = 1
    while filled <= length:
        k = min(filled, length + 1 - filled)
        powers[filled:filled + k] = powers[:k] @ (powers[filled - 1] @ step)
        filled += k
    return powers, powers[:length] @ b_sig


def _chain(rngs: list[np.random.Generator], x: np.ndarray, n_steps: int,
           maps: Callable[[int], tuple[np.ndarray, np.ndarray]], offset: int,
           period: int, width: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Run a chain over n_steps from the start states x (n, 6), piece by piece.

    Draws ``width`` unit normals per step from each trajectory's stream in
    ``rngs``, in NOISE_BLOCK blocks, freeing each block before the next
    draw, and cuts every block at its edges, at step ``offset`` and every
    ``period`` steps after it.  ``maps(L)`` gives the (x_map, z_map) of an
    L-step piece, which takes the start states and the piece's normals
    flattened step-major to z (n, width L) to the product
    ``x @ x_map + z @ z_map``, whose first 6 columns are the end states.
    Yields (first step, end step, product) per piece.
    """
    for start in range(0, n_steps, NOISE_BLOCK):
        z = _draw_block(rngs, min(NOISE_BLOCK, n_steps - start), width)
        a, end = start, start + z.shape[1]
        while a < end:
            b = min(end, offset if a < offset else a + period - (a - offset) % period)
            x_map, z_map = maps(b - a)
            res = x @ x_map + z[:, a - start:b - start].reshape(len(x), -1) @ z_map
            x = res[:, :spectra.N_STATES]
            yield a, b, res
            a = b
        del z   # free the block before the next draw, the memory peak


def _toeplitz(powers: np.ndarray, responses: np.ndarray, out_map: np.ndarray,
              feed: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(x_map, z_map) of a piece of ``length`` steps of a chain with outputs
    C x + D z: the piece maps its start states and unit normals (flattened
    step-major) to a product whose columns are the end state, then every
    step's outputs.  ``out_map`` is C and ``feed`` is D."""
    n_out, n_in = feed.shape
    # lag[i, j] = j - i + 1 indexes [0, D, C P_0, C P_1, ...]: output j sees
    # its own step's noise through D and earlier noise through C P_{j-1-i}.
    taps = np.concatenate([np.zeros((1, n_out, n_in)), feed[None],
                           out_map @ responses[:length - 1]])
    lag = np.clip(np.arange(length)[None, :] - np.arange(length)[:, None] + 1, 0, None)
    z_out = taps[lag].transpose(0, 3, 1, 2).reshape(n_in * length, n_out * length)
    x_out = (out_map @ powers[:length]).transpose(2, 0, 1).reshape(
        spectra.N_STATES, n_out * length)
    z_end = responses[length - 1::-1].transpose(0, 2, 1).reshape(
        n_in * length, spectra.N_STATES)
    return (np.concatenate([powers[length].T, x_out], axis=1),
            np.concatenate([z_end, z_out], axis=1))


def integrate(model: StateSpace, noise: NoisePsd | None, cfg: SimConfig,
              initial_state: np.ndarray | None = None) -> SimulationRecords:
    """Euler-Maruyama trajectories with pathwise output records.

    Simulates the plan's steps, the burn-in plus n_segments whole windows,
    for every trajectory and returns the integrated output increments
    (burn-in included; the estimators skip it).  Memory is
    O(n_trajectories * n_steps), and a record above RECORD_BUDGET_BYTES is
    refused before anything is allocated; use the streaming estimators for
    production window counts.

    The chain runs through `_chain` in pieces of SUB_BLOCK steps: one
    block-Toeplitz product per piece maps its start states and Wiener
    increments to its end states and every step's outputs.  The result
    equals the per-step recursion up to rounding.
    """
    _, _, n_steps = _check_step(model, cfg)
    n_traj = cfg.n_trajectories
    _check_budget("record", n_traj, n_steps * spectra.N_OUTPUTS,
                  "use the streaming estimators")
    step, b_sig, sig = _step(model, noise, cfg.dt)
    powers, responses = _impulse_response(step, b_sig, SUB_BLOCK)
    maps = functools.cache(functools.partial(_toeplitz, powers, responses,
                                             model.output_map * cfg.dt,
                                             model.feedthrough * sig))
    x = np.zeros((n_traj, spectra.N_STATES))
    if initial_state is not None:
        x[:] = np.asarray(initial_state, dtype=float)
    out = np.empty((n_traj, n_steps, spectra.N_OUTPUTS))
    for a, b, res in _chain(_streams(cfg.seed, n_traj), x, n_steps, maps, 0,
                            SUB_BLOCK, spectra.N_NOISES):
        out[:, a:b] = res[:, spectra.N_STATES:].reshape(n_traj, b - a, -1)
        x = res[:, :spectra.N_STATES]
    return SimulationRecords(increments=out, final_states=x)


def windowed_transform(increments: np.ndarray, dt: float, tau: float,
                       omega: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """Finite-time transforms of one trajectory's output record.

    Splits the (n_steps, 4) increment record into non-overlapping windows of
    length ``tau`` and returns an (n_windows, 2) array of per-mode transform
    samples (1/sqrt(tau)) * sum_k exp(i omega t_k) X(phi)_k.  Real at
    omega = 0, complex otherwise.
    """
    increments = np.asarray(increments)
    if increments.ndim != 2 or increments.shape[1] != spectra.N_OUTPUTS:
        raise ParameterError("increments must have shape (n_steps, 4)")
    k_per = round(tau / dt)
    if k_per < 1 or increments.shape[0] < k_per:
        raise ParameterError(
            f"record of {increments.shape[0]} steps is shorter than one "
            f"window of {k_per} steps")
    n_win = increments.shape[0] // k_per
    c, s = math.cos(phi), math.sin(phi)
    quad = np.stack([c * increments[:, 0] + s * increments[:, 1],
                     c * increments[:, 2] + s * increments[:, 3]], axis=1)
    quad = quad[:n_win * k_per].reshape(n_win, k_per, 2)
    scale = 1.0 / math.sqrt(k_per * dt)
    if omega == 0.0:
        return quad.sum(axis=1) * scale
    t_k = (np.arange(k_per) + 0.5) * dt
    phase = np.exp(1j * omega * t_k)
    return np.einsum("k,wkm->wm", phase, quad) * scale


def _estimate(sum_sq: np.ndarray, cfg: SimConfig, window_steps: int,
              gamma_c: float) -> Estimate:
    """Mean and jackknife standard error of the per-trajectory window-sum
    second moments, in gamma_c units."""
    n_traj = len(sum_sq)
    per_traj = sum_sq / (cfg.n_segments * window_steps * cfg.dt * gamma_c)
    return Estimate(mean=float(per_traj.mean()),
                    std_err=float(per_traj.std(ddof=1) / math.sqrt(n_traj)),
                    n_samples=n_traj * cfg.n_segments)


def estimate_inference_variance(model: StateSpace, noise: NoisePsd | None,
                                cfg: SimConfig, phi: float,
                                gain: float) -> Estimate:
    """Monte Carlo estimate of Var[X1(phi,0) - gain * X2(phi,0)], gamma_c units.

    The step-level reference: runs every Euler-Maruyama step through `_chain`
    and streams the window sums instead of materializing records, so memory
    is O(n_trajectories) and time O(n_trajectories * steps); plans whose
    draws exceed RECORD_BUDGET_BYTES are refused before any stream is
    spawned.  The transform has zero mean by construction and the uncentred
    second moment over all windows is the variance estimator; the standard
    error is the jackknife (equivalently the standard error of the
    per-trajectory means), which is robust to any residual correlation
    between windows of one trajectory.
    """
    burn_steps, window_steps, n_steps = _check_plan(model, cfg)
    n_traj = cfg.n_trajectories
    _check_budget("step draws", n_traj, n_steps * spectra.N_NOISES,
                  "use fewer trajectories or segments")
    block = min(NOISE_BLOCK, n_steps)
    powers, responses = _impulse_response(
        *_window_step(model, noise, cfg.dt, phi, gain), block)
    # A piece of L steps takes its start states x and normals z to the end
    # state and the piece's window sum as x @ x_maps[L] + z @ z_map[-5L:];
    # the rows of z_map run over the lag m = block-1 ... 0 of a step from
    # the piece's end, holding (F^m G)^T.
    x_maps = np.ascontiguousarray(powers[:, :, :spectra.N_STATES].transpose(0, 2, 1))
    z_map = np.ascontiguousarray(responses[::-1].transpose(0, 2, 1)).reshape(
        block * spectra.N_NOISES, -1)

    def maps(length):
        return x_maps[length], z_map[(block - length) * spectra.N_NOISES:]

    wsum = np.zeros(n_traj)
    sum_sq = np.zeros(n_traj)
    x = np.zeros((n_traj, spectra.N_STATES))
    for a, b, res in _chain(_streams(cfg.seed, n_traj), x, n_steps, maps,
                            burn_steps, window_steps, spectra.N_NOISES):
        if a >= burn_steps:
            wsum += res[:, spectra.N_STATES]
            if (b - burn_steps) % window_steps == 0:
                sum_sq += wsum * wsum
                wsum[:] = 0.0
    return _estimate(sum_sq, cfg, window_steps, model.gamma_c)


def _compose(first: tuple[np.ndarray, np.ndarray],
             then: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(F, Q) of the Gaussian map y -> F y + N(0, Q) ``first``, then ``then``."""
    (f1, q1), (f2, q2) = first, then
    return f2 @ f1, f2 @ q1 @ f2.T + q2


def _power(one: tuple[np.ndarray, np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(F, Q) of n applications of the map ``one``, by binary powering."""
    out = (np.eye(len(one[0])), np.zeros_like(one[1]))
    while n:
        if n & 1:
            out = _compose(out, one)
        n >>= 1
        if n:
            one = _compose(one, one)
    return out


def _factor(cov: np.ndarray) -> np.ndarray:
    """A factor L with L L^T = cov, so that L z with unit normals z has
    covariance cov.

    The covariance is scaled to a unit diagonal first, because its entries
    span decades, and factored with `eigh`.  Eigenvalues negative only by
    rounding are clipped to zero; a materially negative one is refused.
    """
    scale = np.sqrt(np.diag(cov))
    scale[scale == 0.0] = 1.0   # a noiseless component: its row is zero
    vals, vecs = np.linalg.eigh(cov / np.outer(scale, scale))
    if vals[0] < -1e-9 * len(cov):
        raise NumericalError(
            f"window covariance is not positive semidefinite: scaled eigenvalue "
            f"{vals[0]!r}")
    return scale[:, None] * vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_inference_variance(model: StateSpace, noise: NoisePsd | None,
                              cfg: SimConfig, phi: float,
                              gain: float) -> Estimate:
    """Monte Carlo estimate of Var[X1(phi,0) - gain * X2(phi,0)], gamma_c units.

    Samples the step-level chain of `estimate_inference_variance` window by
    window, exactly: binary powering of `_window_step`'s one-step map
    (F, G G^T) gives the burn-in and window maps.  Each trajectory's own
    stream gives 6 normals for the burn-in from x = 0, then 7 per window;
    the windows run through `_chain` in `_toeplitz` pieces of SUB_BLOCK
    windows.  Time is O(n_trajectories * n_segments) whatever the step
    count, memory O(n_trajectories), and plans whose draws exceed
    RECORD_BUDGET_BYTES are refused before any stream is spawned.  The
    distribution is the step chain's (same dt, same burn-in), the draws are
    not, and the estimate and its jackknife error are formed the same way.
    """
    burn_steps, window_steps, _ = _check_plan(model, cfg)
    n_traj, n_seg, n = cfg.n_trajectories, cfg.n_segments, spectra.N_STATES
    _check_budget("window draws", n_traj, n + (n + 1) * n_seg,
                  "use fewer trajectories or segments")
    f_one, g_one = _window_step(model, noise, cfg.dt, phi, gain)
    one = (f_one, g_one @ g_one.T)
    burn = _factor(_power(one, burn_steps)[1][:n, :n])
    # From window to window the chain is again x' = A x + B xi with output
    # s = C x + D xi: A, C from the window map (each window starts with
    # s = 0) and [B; D] the factor of its covariance.
    f_win, q_win = _power(one, window_steps)
    l_win = _factor(q_win)
    powers, responses = _impulse_response(f_win[:n, :n], l_win[:n], SUB_BLOCK)
    maps = functools.cache(functools.partial(_toeplitz, powers, responses,
                                             f_win[n:, :n], l_win[n:]))
    rngs = _streams(cfg.seed, n_traj)
    x = _draw_block(rngs, 1, n)[:, 0] @ burn.T
    sum_sq = np.zeros(n_traj)
    for _, _, res in _chain(rngs, x, n_seg, maps, 0, SUB_BLOCK, n + 1):
        sum_sq += np.einsum("ij,ij->i", res[:, n:], res[:, n:])
    return _estimate(sum_sq, cfg, window_steps, model.gamma_c)


def _derived_seed(seed: int, index: int) -> int:
    children = np.random.SeedSequence(seed).spawn(2)
    return int(children[index].generate_state(1, dtype=np.uint64)[0])


def epr_product_estimate(model: StateSpace, noise: NoisePsd | None,
                         cfg: SimConfig) -> tuple[Estimate, Estimate, Estimate]:
    """Monte Carlo criterion: both inference variances and their product.

    Runs one window-level sample (`sample_inference_variance`) per
    quadrature angle with the analytically optimal gain and an independent
    noise stream per angle, then propagates the two standard errors into
    the product to first order.  Returns
    (estimate at phi=0, estimate at phi=pi/2, product estimate).
    """
    if noise is None:
        raise ParameterError("epr_product_estimate requires input noise")
    results = []
    for idx, phi in enumerate((0.0, math.pi / 2)):
        _, gain = spectra.inferred_variance_at(model, noise, 0.0, phi)
        run_cfg = replace(cfg, seed=_derived_seed(cfg.seed, idx))
        results.append(sample_inference_variance(model, noise, run_cfg, phi, gain))
    est_x, est_y = results
    product = est_x.mean * est_y.mean
    prod_err = math.hypot(est_y.mean * est_x.std_err, est_x.mean * est_y.std_err)
    return est_x, est_y, Estimate(mean=product, std_err=prod_err,
                                  n_samples=est_x.n_samples + est_y.n_samples)
