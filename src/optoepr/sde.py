"""Time-domain Monte Carlo verification of the spectral solution.

The linearized dynamics are integrated as a linear Ito system with the
Euler-Maruyama scheme, all noises white: the field quadratures at their flat
level gamma_c and the mirror force noise at its omega -> 0 Brownian level
4 m gamma_m k_B T.  That approximation is exact in spectral density at the
carrier, which is where the criterion lives.

Output records are *integrated* quadrature increments over each step,

    dO_k = C x_k dt + D dW_k,

with the same Wiener increment dW_k entering the state update and the
feedthrough term; the reflected field subtracts the instantaneous input, so
dropping that correlation silently breaks the inference variances.  The
finite-time transform at the carrier is then the plain window sum scaled by
1/sqrt(tau), and the chain telescopes so the window-sum statistics carry no
O(dt) discretization bias; the only systematic is the spectral-leakage edge
term of order 1/(Gamma tau), controlled by the default window length.

Every trajectory derives its own random stream from (seed, trajectory
index), drawn in fixed-size blocks, so reruns are bit-reproducible and a
trajectory's draws do not depend on how trajectories are batched.

No Python loop runs per step.  The recursion x' = S x + B dW with
S = I + dt A is linear, so one impulse response, the powers S^m and the
noise responses S^m B for m below the noise block, gives any stretch of
steps as a matrix product of its start state and its Wiener increments.
`integrate` takes every step's outputs from block-Toeplitz products over
short sub-blocks; the streaming estimator cuts each noise block at the
burn-in and window edges and maps each piece to its end state and window
sum in one product.  The draws are those of the per-step recursion, and the
results equal it up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .errors import NumericalError, ParameterError
from .spectra import NoisePsd, StateSpace

# Steps are generated and consumed in fixed blocks so that a trajectory's
# noise stream does not depend on batching.
NOISE_BLOCK = 4096

# Default integrator safety factor: dt = DT_SAFETY / spectralـradius(A).
DT_SAFETY = 0.08

# Hard step-size guard from the integrate() contract.
DT_LIMIT = 0.1

# integrate() refuses output records, and the streaming estimator noise
# blocks, larger than this many bytes.
RECORD_BUDGET_BYTES = 2**30

# Steps per block-Toeplitz product in integrate(); divides NOISE_BLOCK.
SUB_BLOCK = 64

# Default measurement window in cavity lifetimes.  The naive choice of a few
# tens of lifetimes leaves a 1/(Gamma tau) spectral-leakage bias on the
# phi = 0 estimate several times the target statistical error; 1500 lifetimes
# pushes it well below one standard error at the default trajectory budget.
TAU_LIFETIMES = 1500.0


@dataclass(frozen=True)
class SimConfig:
    """Integration and estimation plan for one Monte Carlo run.

    ``tau`` is the measurement window of the finite-time transform,
    ``n_segments`` the number of non-overlapping windows per trajectory and
    ``burn_in`` the discarded transient.  ``duration`` must be finite and
    cover burn_in + n_segments * tau, so every time is finite; ``seed`` must
    be >= 0.
    """

    dt: float
    duration: float
    tau: float
    n_segments: int
    n_trajectories: int
    seed: int
    burn_in: float

    def __post_init__(self) -> None:
        if not (self.dt > 0.0):
            raise ParameterError(f"dt must be positive, got {self.dt!r}")
        if not math.isfinite(self.duration):
            raise ParameterError(f"duration must be finite, got {self.duration!r}")
        if self.tau < 100.0 * self.dt:
            raise ParameterError(
                f"tau = {self.tau!r} must be at least 100*dt = {100 * self.dt!r}")
        if self.n_segments < 1 or self.n_trajectories < 1:
            raise ParameterError("n_segments and n_trajectories must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed!r}")
        if self.burn_in < 0.0:
            raise ParameterError(f"burn_in must be >= 0, got {self.burn_in!r}")
        need = self.n_segments * self.tau + self.burn_in
        if not (need <= self.duration * (1.0 + 1e-12)):   # NaN fails too
            raise ParameterError(
                f"duration {self.duration!r} shorter than burn_in + "
                f"n_segments*tau = {need!r}")


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
    5/gamma_m floor demanded by the estimator).  A given dt must be finite
    and positive, and a given tau or burn_in finite.
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
    burn_steps = math.ceil(burn_in / dt)
    duration = (burn_steps + n_segments * round(tau / dt)) * dt
    return SimConfig(dt=dt, duration=duration, tau=tau, n_segments=n_segments,
                     n_trajectories=n_trajectories, seed=seed,
                     burn_in=burn_steps * dt)


def _noise_levels(model: StateSpace, noise: NoisePsd | None) -> np.ndarray:
    """White-noise intensities: field quadratures at gamma_c, force at the
    omega -> 0 Brownian level.  ``noise=None`` means a noiseless run."""
    if noise is None:
        return np.zeros(spectra.N_NOISES)
    levels = noise.levels(0.0)
    if np.any(levels < 0.0):
        raise ParameterError("noise intensities must be non-negative")
    return levels


def _check_step(model: StateSpace, cfg: SimConfig,
                require_burn: bool = False) -> tuple[int, int]:
    rho = float(np.max(np.abs(np.linalg.eigvals(model.drift))))
    if cfg.dt * rho > DT_LIMIT:
        raise NumericalError(
            f"dt * spectral_radius(A) = {cfg.dt * rho:.3f} exceeds {DT_LIMIT}; "
            "reduce the step size")
    if require_burn:
        # Stationarity floor for the estimators; raw integration runs (e.g.
        # transient studies) are exempt.
        gamma_m = -0.5 * model.drift[1, 1]
        if gamma_m > 0.0 and cfg.burn_in < 5.0 / gamma_m:
            raise ParameterError(
                f"burn_in = {cfg.burn_in!r} shorter than 5 mechanical "
                f"relaxation times = {5.0 / gamma_m!r}")
    burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
    window_steps = round(cfg.tau / cfg.dt)
    if abs(window_steps * cfg.dt - cfg.tau) > 1e-9 * cfg.tau:
        raise ParameterError("tau must be a whole number of steps")
    return burn_steps, window_steps


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _draw_block(rngs: list[np.random.Generator], nb: int) -> np.ndarray:
    z = np.empty((len(rngs), nb, spectra.N_NOISES))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _impulse_response(model: StateSpace, noise: NoisePsd | None, dt: float,
                      length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Impulse response of the Euler-Maruyama chain x' = S x + B sig z.

    Returns the powers S^m for m <= length (shape (length+1, 6, 6)), the
    noise responses P_m = S^m B diag(sig) for m < length (shape
    (length, 6, 5)) and sig, the per-noise standard deviation of one step's
    Wiener increment, so that a unit normal z drives the chain.  The powers
    are built by doubling: log2(length) batched 6x6 products.
    """
    sig = np.sqrt(_noise_levels(model, noise) * dt)
    step = np.eye(spectra.N_STATES) + dt * model.drift
    powers = np.empty((length + 1, spectra.N_STATES, spectra.N_STATES))
    powers[0] = np.eye(spectra.N_STATES)
    filled = 1
    while filled <= length:
        k = min(filled, length + 1 - filled)
        powers[filled:filled + k] = powers[:k] @ (powers[filled - 1] @ step)
        filled += k
    return powers, powers[:length] @ (model.input_map * sig), sig


def _toeplitz(powers: np.ndarray, responses: np.ndarray, out_map: np.ndarray,
              feed: np.ndarray, length: int) -> tuple[np.ndarray, ...]:
    """Maps of one sub-block of ``length`` steps, for row-vector states.

    With the start state x (n, 6) and the sub-block's unit normals flattened
    step-major to z (n, 5*length), the sub-block's outputs are
    ``x @ x_out + z @ z_out`` (n, 4*length, step-major) and its end state is
    ``x @ x_end + z @ z_end``.
    """
    n_in, n_out = spectra.N_NOISES, spectra.N_OUTPUTS
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
    return x_out, z_out, powers[length].T, z_end


def integrate(model: StateSpace, noise: NoisePsd | None, cfg: SimConfig,
              initial_state: np.ndarray | None = None) -> SimulationRecords:
    """Euler-Maruyama trajectories with pathwise output records.

    Simulates ``round(cfg.duration/cfg.dt)`` steps for every trajectory and
    returns the integrated output increments (burn-in included; the
    estimators skip it).  Memory is O(n_trajectories * n_steps), and a
    record above RECORD_BUDGET_BYTES is refused before anything is
    allocated; use the streaming estimators for production window counts.

    The recursion is evaluated in sub-blocks of T = SUB_BLOCK steps built
    from one impulse response: the sub-block start states come from a
    short loop over sub-blocks, x <- S^T x + sum_i S^(T-1-i) B dW_i, and
    every step's outputs of a whole noise block then follow from one
    block-Toeplitz product of the start states and the Wiener increments.
    The result equals the per-step recursion up to rounding.
    """
    _check_step(model, cfg)
    n_steps = round(cfg.duration / cfg.dt)
    n_traj = cfg.n_trajectories
    record_bytes = n_traj * n_steps * spectra.N_OUTPUTS * 8
    if record_bytes > RECORD_BUDGET_BYTES:
        raise ParameterError(
            f"record of {n_traj} trajectories x {n_steps} steps needs "
            f"{record_bytes / 2**30:.1f} GiB, above the "
            f"{RECORD_BUDGET_BYTES / 2**30:.0f} GiB budget; use the streaming "
            "estimators")
    dt = cfg.dt
    sub = min(SUB_BLOCK, n_steps)
    powers, responses, sig = _impulse_response(model, noise, dt, sub)
    out_map = model.output_map * dt
    feed = model.feedthrough * sig
    maps = _toeplitz(powers, responses, out_map, feed, sub)

    x = np.zeros((n_traj, spectra.N_STATES))
    if initial_state is not None:
        x[:] = np.asarray(initial_state, dtype=float)
    out = np.empty((n_traj, n_steps, spectra.N_OUTPUTS))

    rngs = _streams(cfg.seed, n_traj)
    step = 0
    while step < n_steps:
        nb = min(NOISE_BLOCK, n_steps - step)
        z = _draw_block(rngs, nb)
        # Whole sub-blocks, then (last noise block only) one shorter tail.
        for start, length, count in ((0, sub, nb // sub),
                                     (nb - nb % sub, nb % sub, 1)):
            if length * count == 0:
                continue
            x_out, z_out, x_end, z_end = (
                maps if length == sub
                else _toeplitz(powers, responses, out_map, feed, length))
            zs = z[:, start:start + count * length].reshape(
                n_traj, count, spectra.N_NOISES * length)
            starts = np.empty((n_traj, count, spectra.N_STATES))
            for b in range(count):
                starts[:, b] = x
                x = x @ x_end + zs[:, b] @ z_end
            span = out[:, step + start:step + start + count * length].reshape(
                n_traj, count, spectra.N_OUTPUTS * length)
            np.matmul(zs, z_out, out=span)
            span += starts @ x_out
        step += nb
        del z, zs   # free the block before the next draw
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


def estimate_inference_variance(model: StateSpace, noise: NoisePsd | None,
                                cfg: SimConfig, phi: float,
                                gain: float) -> Estimate:
    """Monte Carlo estimate of Var[X1(phi,0) - gain * X2(phi,0)], gamma_c units.

    Streams the window sums instead of materializing records, so memory is
    O(n_trajectories).  The transform has zero mean by construction and the
    uncentred second moment over all windows is the variance estimator; the
    standard error is the jackknife (equivalently the standard error of the
    per-trajectory means), which is robust to any residual correlation
    between windows of one trajectory.
    """
    burn_steps, window_steps = _check_step(model, cfg, require_burn=True)
    n_traj = cfg.n_trajectories
    dt = cfg.dt
    tau_eff = window_steps * dt
    n_steps = burn_steps + cfg.n_segments * window_steps
    if n_steps * dt > cfg.duration * (1.0 + 1e-12):
        raise ParameterError("duration does not cover burn_in + n_segments*tau")
    block = min(NOISE_BLOCK, n_steps)
    block_bytes = n_traj * block * spectra.N_NOISES * 8
    if block_bytes > RECORD_BUDGET_BYTES:
        raise ParameterError(
            f"noise block of {n_traj} trajectories x {block} steps needs "
            f"{block_bytes / 2**30:.1f} GiB, above the "
            f"{RECORD_BUDGET_BYTES / 2**30:.0f} GiB budget; use fewer trajectories")
    powers, responses, sig = _impulse_response(model, noise, dt, block)

    c, s = math.cos(phi), math.sin(phi)
    weights = np.array([c, s, -gain * c, -gain * s])
    c_vec = (model.output_map.T * dt) @ weights
    # sums[L] = sum_{l<L} (S^l)^T c: a start state's share of an L-step sum.
    sums = np.zeros((block + 1, spectra.N_STATES))
    np.cumsum(powers[:-1].transpose(0, 2, 1) @ c_vec, axis=0, out=sums[1:])
    # A piece of L steps maps (x, z) to (end state, window sum) as
    # x @ x_maps[L] + z_flat @ z_map[-5L:]; rows of z_map run over the lag
    # m = L-1 ... 0 of each step from the piece's end, holding P_m^T and
    # Q_m = sig d + (B sig)^T sums[m].
    x_maps = np.concatenate([powers.transpose(0, 2, 1), sums[:, :, None]], axis=2)
    q = (model.feedthrough * sig).T @ weights + sums[:block] @ (model.input_map * sig)
    z_map = np.concatenate([responses.transpose(0, 2, 1), q[:, :, None]], axis=2)
    z_map = np.ascontiguousarray(z_map[::-1]).reshape(block * spectra.N_NOISES, -1)

    x = np.zeros((n_traj, spectra.N_STATES))
    wsum = np.zeros(n_traj)
    sum_sq = np.zeros(n_traj)
    rngs = _streams(cfg.seed, n_traj)
    step = 0
    while step < n_steps:
        nb = min(NOISE_BLOCK, n_steps - step)
        z = _draw_block(rngs, nb)
        # Cut the block at the burn-in and window edges.
        a = 0
        while a < nb:
            into = step + a - burn_steps
            stop = min(nb, a - into if into < 0
                       else a + window_steps - into % window_steps)
            length = stop - a
            res = (z[:, a:stop].reshape(n_traj, spectra.N_NOISES * length)
                   @ z_map[(block - length) * spectra.N_NOISES:] + x @ x_maps[length])
            x = res[:, :spectra.N_STATES]
            if into >= 0:
                wsum += res[:, spectra.N_STATES]
                if (into + length) % window_steps == 0:
                    sum_sq += wsum * wsum
                    wsum[:] = 0.0
            a = stop
        step += nb
        del z   # free the block before the next draw, the memory peak
    per_traj = sum_sq / (cfg.n_segments * tau_eff * model.gamma_c)
    mean = float(per_traj.mean())
    if n_traj > 1:
        std_err = float(per_traj.std(ddof=1) / math.sqrt(n_traj))
    else:
        std_err = float("nan")
    return Estimate(mean=mean, std_err=std_err,
                    n_samples=n_traj * cfg.n_segments)


def _derived_seed(seed: int, index: int) -> int:
    children = np.random.SeedSequence(seed).spawn(2)
    return int(children[index].generate_state(1, dtype=np.uint64)[0])


def epr_product_estimate(model: StateSpace, noise: NoisePsd | None,
                         cfg: SimConfig) -> tuple[Estimate, Estimate, Estimate]:
    """Monte Carlo criterion: both inference variances and their product.

    Runs one estimate per quadrature angle with the analytically optimal
    gain and an independent noise stream per angle, then propagates the two
    standard errors into the product to first order.  Returns
    (estimate at phi=0, estimate at phi=pi/2, product estimate).
    """
    if noise is None:
        raise ParameterError("epr_product_estimate requires input noise")
    results = []
    for idx, phi in enumerate((0.0, math.pi / 2)):
        _, gain = spectra.inferred_variance_at(model, noise, 0.0, phi)
        run_cfg = replace(cfg, seed=_derived_seed(cfg.seed, idx))
        results.append(estimate_inference_variance(model, noise, run_cfg, phi, gain))
    est_x, est_y = results
    product = est_x.mean * est_y.mean
    prod_err = math.hypot(est_y.mean * est_x.std_err, est_x.mean * est_y.std_err)
    return est_x, est_y, Estimate(mean=product, std_err=prod_err,
                                  n_samples=est_x.n_samples + est_y.n_samples)
