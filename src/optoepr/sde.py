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

One kernel, `_propagate`, runs every chain here: a linear chain
x' = S x + B z driven by unit normals z, with outputs C x + D z.  It works
in blocks of matrix products over pieces of a few steps, whose maps
`_piece_map` builds by running that recursion once on the identity basis of
a piece's inputs, and chains the pieces' end states by a doubling scan
(W. D. Hillis and G. L. Steele, "Data parallel algorithms", CACM 29, 1986);
its results equal the per-step recursion on the same draws up to rounding.
Three paths drive it:

- `integrate`, the record of every step's outputs: `_step`, the one
  Euler-Maruyama step (S, B, C, D) = (I + dt A, B sig, C dt, D sig).
- `estimate_inference_variance`, the step-level reference: `_window_step`,
  the same chain with its outputs weighted into the quadrature the window
  sum takes, so each step's one output is its term of that sum.
- `sample_inference_variance`, the production path behind
  `epr_product_estimate`.  Binary powering of the Gaussian map (F, G G^T) of
  that chain and its window sum composes the burn-in and one window exactly
  (the discrete form of C. F. Van Loan, "Computing integrals involving the
  matrix exponential", IEEE TAC 23, 1978).  From window to window the chain
  is again linear, with the window map as its step and the window sum as its
  output, so a trajectory draws 6 normals for its burn-in and 7 per window,
  whatever the step count.

Both estimators sample the same chain, with the same dt and burn-in, and so
the same distribution of window sums.

Trajectory i of a run seeded with ``seed`` draws from child i of numpy's
``SeedSequence(seed)``, bit for bit; `_seed_words` runs numpy's seeding
hash for every child in one vectorized pass.  So reruns are
bit-reproducible and a trajectory's draws do not depend on how trajectories
are batched.  A large run's trajectories are cut into contiguous slices,
and each slice's whole chain, its draws, products and window sums or
record rows, runs on one thread (`_each_slice`).  The cut depends only on
the plan, never on the core count, so every output is the same bits on
any number of cores.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import spectra
from .errors import NumericalError, ParameterError, check_budget, require_finite
from .spectra import NoisePsd, StateSpace

# Steps are generated and consumed in fixed blocks so that a trajectory's
# noise stream does not depend on batching.
NOISE_BLOCK = 4096

# Default integrator safety factor: dt = DT_SAFETY / spectral_radius(A).
DT_SAFETY = 0.08

# Hard step-size guard from the integrate() contract.
DT_LIMIT = 0.1

# What one trajectory's noise stream holds: a `Generator` on a `PCG64` from
# `_streams` took 760-830 B of resident memory each, over 50 000 to 200 000
# streams (Python 3.11, numpy 2.4); rounded up to 1 KiB.
_STREAM_BYTES = 1024

# `SimConfig` refuses a tau or burn_in longer than this many steps, so that
# every step count of a plan is exact as a double.
MAX_STEPS = 2**53

# Steps per piece in `_propagate`; divides NOISE_BLOCK.  A piece's products
# cost O(length) per step, the end-state scan O(log2(pieces)) per piece.
# Another length moves the outputs by rounding, so 8 stays.  Medians of 100
# interleaved runs at 4, 8 and 16 steps, two sessions (one BLAS thread,
# 2-core x86): integrate() at 4 trajectories x 51 626 headline steps
# 14.6-15.2, 13.9-14.4 and 15.8-16.3 ms; sample_inference_variance() at
# 180 trajectories x 150 windows 3.6-3.9, 3.9 and 3.6-3.8 ms.
_PIECE_STEPS = 8

# `_each_slice` cuts a run's trajectories into _CUT_SLICES slices when its
# blocks hold at least _CUT_NORMALS normals in rows of at least _CUT_ROW,
# and runs each slice's whole chain on one of up to _SLICES threads, the
# usable cores.  numpy releases the GIL while it draws a row or multiplies,
# but a slice pays a thread wake-up per run and GIL hand-offs per row and
# per product, so small runs stay whole.  The cut cannot follow the core
# count: BLAS products of another row count round differently.  Cut against
# whole, on two threads (2-core x86, one BLAS thread, medians of 6
# interleaved runs): the window sampler at 180 rows of 252 normals 1.18 of
# the whole run's time, of 511 1.02-1.06, of 700 0.91, of 1050 0.88, of 2100
# 0.66; at 20 rows of 2100 1.15, 8 of 4200 1.02, 4 of 14 000 0.94-1.02,
# 6 of 14 000 0.78; integrate() at 2, 3 and 4 trajectories of 20 480
# normals 0.81, 0.91 and 0.62.  Three or four slices were no faster than
# two at 4 x 20 480, 180 x 1050 or 180 x 14 000.
_SLICES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_CUT_SLICES = 2
_CUT_NORMALS = 2**15
_CUT_ROW = 2**10

# numpy's SeedSequence pool size and hash constants
# (numpy/random/bit_generator.pyx), which `_seed_words` reproduces.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

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
    dt, tau and burn_in must be finite, dt > 0, burn_in >= 0, seed >= 0,
    and tau and burn_in at most MAX_STEPS steps.  Here alone the step grid
    is set: tau is rounded to the nearest whole step (at least 100 of them)
    and burn_in up to a whole step, or to the nearest one within
    max(1e-9, 4 ulp(1) * steps) of a step.
    """

    dt: float
    tau: float
    n_segments: int
    n_trajectories: int
    seed: int
    burn_in: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be finite and positive, got {self.dt!r}")
        require_finite(tau=self.tau, burn_in=self.burn_in)
        for name, value in (("tau", self.tau), ("burn_in", self.burn_in)):
            if abs(value) / self.dt > MAX_STEPS:   # inf when the ratio overflows
                raise ParameterError(f"{name} = {value!r} spans more than MAX_STEPS = "
                                     f"2**53 steps of dt = {self.dt!r}")
        if self.burn_in < 0.0:
            raise ParameterError(f"burn_in must be >= 0, got {self.burn_in!r}")
        window_steps = round(self.tau / self.dt)
        if window_steps < 100:
            raise ParameterError(
                f"tau = {self.tau!r} must be at least 100*dt = {100 * self.dt!r}")
        if self.n_segments < 1 or self.n_trajectories < 1:
            raise ParameterError("n_segments and n_trajectories must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed!r}")
        object.__setattr__(self, "tau", window_steps * self.dt)
        # A burn_in within the rounding of n*dt/dt of n steps is n steps, so
        # `replace` never moves the grid; any other is rounded up.
        ratio = self.burn_in / self.dt
        burn_steps = round(ratio)
        if abs(ratio - burn_steps) > max(1e-9, 4 * math.ulp(1.0) * ratio):
            burn_steps = math.ceil(ratio)
        object.__setattr__(self, "burn_in", burn_steps * self.dt)


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
    divide by the step for averaged instantaneous values.
    """

    increments: np.ndarray


def default_sim_config(model: StateSpace, *, n_trajectories: int = 180,
                       n_segments: int = 150, seed: int = 0,
                       dt: float | None = None, tau: float | None = None,
                       burn_in: float | None = None) -> SimConfig:
    """Fill a SimConfig from the model's timescales.

    dt defaults to a factor DT_SAFETY below the stability guard, tau to
    TAU_LIFETIMES cavity lifetimes and burn_in to 30 relaxation times of the
    slowest mode, never below the 5/gamma_m floor demanded by the
    estimators; `SimConfig` puts tau and burn_in on the step grid and checks
    the plan.  The run is that burn-in plus n_segments windows.  The drift
    must pass `spectra.require_stable`.
    """
    eigs = spectra.require_stable(model.drift)
    if dt is None:
        dt = DT_SAFETY / float(np.max(np.abs(eigs)))
    if tau is None:
        tau = TAU_LIFETIMES / model.gamma_c
    if burn_in is None:
        gamma_m = -0.5 * model.drift[1, 1]
        burn_in = max(30.0 / float(np.min(-eigs.real)), 5.0 / gamma_m)
    return SimConfig(dt=dt, tau=tau, n_segments=n_segments,
                     n_trajectories=n_trajectories, seed=seed, burn_in=burn_in)


def _check_step(model: StateSpace, cfg: SimConfig) -> tuple[int, int, int]:
    """Check the drift's stability and dt against DT_LIMIT; return the run's
    burn-in, window and total step counts, the total being the burn-in plus
    n_segments whole windows."""
    rho = float(np.max(np.abs(spectra.require_stable(model.drift))))
    if cfg.dt * rho > DT_LIMIT:
        raise NumericalError(
            f"dt * spectral_radius(A) = {cfg.dt * rho:.3f} exceeds {DT_LIMIT}; "
            "reduce the step size")
    burn_steps, window_steps = round(cfg.burn_in / cfg.dt), round(cfg.tau / cfg.dt)
    return burn_steps, window_steps, burn_steps + cfg.n_segments * window_steps


def _check_plan(model: StateSpace, cfg: SimConfig) -> tuple[int, int, int]:
    """`_check_step` plus the estimators' stationarity floor and the two
    trajectories their jackknife error needs."""
    steps = _check_step(model, cfg)
    if cfg.n_trajectories < 2:
        raise ParameterError(
            f"the estimators need n_trajectories >= 2, got {cfg.n_trajectories!r}")
    # Stationarity floor; `integrate`, which records the burn-in, is exempt.
    gamma_m = -0.5 * model.drift[1, 1]
    if gamma_m > 0.0 and cfg.burn_in < 5.0 / gamma_m:
        raise ParameterError(
            f"burn_in = {cfg.burn_in!r} shorter than 5 mechanical "
            f"relaxation times = {5.0 / gamma_m!r}")
    return steps


def _check_budget(what: str, n_traj: int, per_traj: int, advice: str) -> None:
    """Refuse n_traj trajectories of per_traj doubles and a noise stream
    each above the budget.  The streams are held for the whole run; the
    estimators stream their draws in blocks, so for them the budget bounds
    the run time and the streams' memory, not an allocation of the draws."""
    check_budget(what + " of {} trajectories x ({} doubles and a stream)",
                 n_traj * (8 * per_traj + _STREAM_BYTES), advice, n_traj, per_traj)


def _hasher(const: int, mult: int) -> Callable:
    """numpy's `SeedSequence` hash with its running constant: each call xors
    a 32-bit word with the constant, advances the constant by ``mult``,
    multiplies by it and folds the high half in.  A word is a Python int or
    a uint32 array; every product is masked to 32 bits before it meets an
    array, and array arithmetic wraps silently."""
    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x, y):
    """numpy's `SeedSequence` mix of two 32-bit words, as `_hasher`."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _seed_words(seed: int, n: int) -> np.ndarray:
    """State words of the children of ``np.random.SeedSequence(seed)``.

    Row i, shape (n, 4) uint64, is ``SeedSequence(seed).spawn(n)[i]
    .generate_state(4, np.uint64)``, what PCG64 seeds itself from, computed
    for every child in one pass of numpy's algorithm.  A child's entropy is
    the seed's little-endian 32-bit words, zero-padded to the pool, then its
    spawn key i, one word since n < 2**32.  Only the key differs between
    children, so the pool is mixed on Python ints until the key enters as
    an (n,) uint32 array.
    """
    seed = operator.index(seed)
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length(), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hash_word = _hasher(_INIT_A, _MULT_A)
    pool = [hash_word(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_word(pool[src]))
    for w in [*words[_POOL_SIZE:], np.arange(n, dtype=np.uint32)]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_word(w))
    # generate_state: 8 words off the cycled pool, paired little-endian.
    out_hash = _hasher(_INIT_B, _MULT_B)
    state = [out_hash(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


@functools.cache
def _given_seed() -> type:
    """An `ISeedSequence` that hands a bit generator fixed state words.
    Built on first use: importing the package does not load numpy.random."""
    class GivenSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words   # PCG64 asks for its 4 uint64 words
    return GivenSeed


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    """The generators of ``np.random.SeedSequence(seed).spawn(n)``, one per
    trajectory, bit for bit, without a `SeedSequence` object per child."""
    given = _given_seed()
    return [np.random.Generator(np.random.PCG64(given(w))) for w in _seed_words(seed, n)]


@functools.cache
def _pool():
    """The threads that run the slices the calling thread does not.  Built
    on first use: importing the package starts no thread.  A forked child
    inherits the pool but not its threads, so it builds its own."""
    from concurrent.futures import ThreadPoolExecutor
    if hasattr(os, "register_at_fork"):   # absent where there is no fork
        os.register_at_fork(after_in_child=_pool.cache_clear)
    return ThreadPoolExecutor(max_workers=_SLICES - 1,
                              thread_name_prefix="optoepr-slice")


def _each_slice(n_traj: int, row_normals: int, run: Callable[[int, int], None]) -> None:
    """Call ``run(a, b)`` once for each slice [a, b) of a run's n_traj
    trajectories, each of which draws row_normals normals per noise block.

    A run whose blocks hold at least _CUT_NORMALS normals, in rows of at
    least _CUT_ROW, is cut into _CUT_SLICES contiguous slices (n_traj
    permitting), any other is one slice.  The cut depends only on the plan,
    so every product has the same shape and the bits are the same on any
    core count; _SLICES decides only which thread runs which slice: with T
    of them usable, the calling thread runs slices 0, T, 2T, ..., and
    `_pool` thread t slices t, t + T, ....  No pool is built for one slice.
    """
    cut = (n_traj * row_normals >= _CUT_NORMALS and row_normals >= _CUT_ROW)
    count = min(_CUT_SLICES, n_traj) if cut else 1
    edges = [n_traj * k // count for k in range(count + 1)]
    slices = list(zip(edges[:-1], edges[1:]))
    threads = min(_SLICES, count)

    def take(t: int) -> None:
        for a, b in slices[t::threads]:
            run(a, b)

    rest = [_pool().submit(take, t) for t in range(1, threads)]
    try:
        take(0)
    finally:   # the slices share the caller's arrays: wait for every one
        for slice_done in rest:
            slice_done.result()


def _draw_block(rngs: list[np.random.Generator], nb: int,
                width: int = spectra.N_NOISES) -> np.ndarray:
    """The next (nb, width) unit normals of every stream in ``rngs``, row i
    from stream i."""
    z = np.empty((len(rngs), nb, width))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _step(model: StateSpace, noise: NoisePsd, dt: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Euler-Maruyama step as the chain x' = S x + B z, outputs C x + D z
    (the step's integrated increments), on unit normals z: (S, B, C, D) =
    (I + dt A, B sig, C dt, D sig), sig the per-noise standard deviation of
    one step's Wiener increment, white at the omega = 0 levels, which
    `NoisePsd.levels` checks (zero levels make a noiseless run)."""
    sig = np.sqrt(noise.levels(0.0) * dt)
    return (np.eye(spectra.N_STATES) + dt * model.drift, model.input_map * sig,
            model.output_map * dt, model.feedthrough * sig)


def _window_step(model: StateSpace, noise: NoisePsd, dt: float, phi: float,
                 gain: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_step`'s chain (S, B, w C, w D) with its outputs weighted by w =
    (cos phi, sin phi, -gain cos phi, -gain sin phi), for finite phi and
    gain: each step's one output is its term of the carrier window sum."""
    require_finite(phi=phi, gain=gain)
    step, b, out_map, feed = _step(model, noise, dt)
    c, s = math.cos(phi), math.sin(phi)
    w = np.array([[c, s, -gain * c, -gain * s]])
    return step, b, w @ out_map, w @ feed


def _piece_map(step: np.ndarray, b: np.ndarray, out_map: np.ndarray,
               feed: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(x_map, z_map) of a piece of ``length`` steps of the chain
    x' = S x + B z with outputs C x + D z; ``step`` is S, ``b`` B,
    ``out_map`` C and ``feed`` D.

    The recursion runs once on the identity basis of the piece's inputs,
    the start state and then its unit normals flattened step-major, so
    row r is the response to input r: the end state, then every step's
    outputs.  x_map holds the start state's rows, z_map the normals'.
    """
    n, k = b.shape
    basis = np.eye(n + k * length)
    x, outs = basis[:, :n], []
    for z in np.split(basis[:, n:], length, axis=1):
        outs.append(x @ out_map.T + z @ feed.T)
        x = x @ step.T + z @ b.T
    out = np.concatenate([x, *outs], axis=1)
    return out[:n], out[n:]


class _Chain:
    """The chain x' = S x + B z with outputs C x + D z over a run of n_steps
    steps, as `_propagate` runs it; ``step`` is S, ``b`` B, ``out_map`` C
    and ``feed`` D.  Its piece maps and scan hops are built here, once per
    run, and shared by every slice of the run."""

    def __init__(self, n_steps: int, step: np.ndarray, b: np.ndarray,
                 out_map: np.ndarray, feed: np.ndarray) -> None:
        self.n_steps, self.width, self.n_out = n_steps, b.shape[1], len(feed)
        most = min(NOISE_BLOCK, n_steps) // _PIECE_STEPS   # pieces in the largest block
        rest = n_steps % _PIECE_STEPS
        # `_piece_map` of a _PIECE_STEPS-step piece and of the run's shorter
        # last piece, if any.
        self.piece = _piece_map(step, b, out_map, feed, _PIECE_STEPS) if most else None
        self.last = _piece_map(step, b, out_map, feed, rest) if rest else None
        hops = []   # hops[j] = (S^T)^(L 2^j), the map over 2^j pieces
        for _ in range(most.bit_length()):
            hops.append(hops[-1] @ hops[-1] if hops else self.piece[0][:, :len(step)])
        self.hops = hops

    @property
    def row_normals(self) -> int:
        """The normals a trajectory draws for the run's largest block."""
        return self.width * min(NOISE_BLOCK, self.n_steps)


def _propagate(rngs: list[np.random.Generator], x: np.ndarray, chain: _Chain
               ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run ``chain`` over its steps from the start states x (n_traj, n).

    Draws the chain's ``width`` unit normals per step from each trajectory's
    stream in ``rngs``, in NOISE_BLOCK blocks, freeing each block before the
    next draw.  Each block is cut into _PIECE_STEPS-step pieces, whose
    `_piece_map` takes a piece's start state and normals to its end state
    and every step's outputs.  Per block, one product with the map's
    end-state columns gives every piece's noise term u_p.  The states after
    0, 1, ..., P pieces are the inclusive scan of (x, u_0, ..., u_{P-1})
    under x_{p+1} = x_p (S^T)^L + u_p, for L-step pieces: for
    k = 1, 2, 4, ... < P + 1, every entry from the k-th on adds the entry k
    before it times (S^T)^(kL).  The products of the normals and of the
    pieces' start states with the output columns are then summed into the
    block's outputs in place.  Only the last block can end in a shorter
    piece, since _PIECE_STEPS divides NOISE_BLOCK; it takes its own single
    product.

    Yields (first step, the block's outputs, the end states) per block; the
    outputs are a one-block buffer that the next block overwrites.
    """
    n_traj, n = x.shape
    n_steps, hops = chain.n_steps, chain.hops
    if chain.piece:
        x_map, z_map = chain.piece
    if chain.last:
        last_x, last_z = chain.last
    rest = n_steps % _PIECE_STEPS
    buffer = np.empty((n_traj, min(NOISE_BLOCK, n_steps), chain.n_out))
    for start in range(0, n_steps, NOISE_BLOCK):
        z = _draw_block(rngs, min(NOISE_BLOCK, n_steps - start), chain.width)
        nb = z.shape[1]
        out = buffer[:, :nb]
        pieces = nb // _PIECE_STEPS
        full = pieces * _PIECE_STEPS
        if pieces:
            zp = z[:, :full].reshape(n_traj, pieces, -1)
            # states[:, p] starts as piece p-1's noise term (x for p = 0);
            # after the scan's step k it sums the last 2k of these terms
            # carried forward, and at the end it is the state after p pieces.
            states = np.empty((n_traj, pieces + 1, n))
            states[:, 0] = x
            np.matmul(zp, z_map[:, :n], out=states[:, 1:])
            for j, hop in enumerate(hops[:pieces.bit_length()]):
                states[:, 1 << j:] += states[:, :-(1 << j)] @ hop
            x = states[:, pieces]
            # The pieces' outputs, a view of out written in place.
            piece_out = out[:, :full].reshape(n_traj, pieces, -1)
            np.matmul(zp, z_map[:, n:], out=piece_out)
            piece_out += states[:, :pieces] @ x_map[:, n:]
            del zp
        if nb > full:
            res = x @ last_x + z[:, full:].reshape(n_traj, -1) @ last_z
            out[:, full:] = res[:, n:].reshape(n_traj, rest, -1)
            x = res[:, :n]
        del z   # free the block before the next draw, the memory peak
        yield start, out, x


def integrate(model: StateSpace, noise: NoisePsd, cfg: SimConfig) -> SimulationRecords:
    """Euler-Maruyama trajectories with pathwise output records.

    Simulates the plan's steps, the burn-in plus n_segments whole windows,
    for every trajectory from the zero state and returns the integrated
    output increments (burn-in included; the estimators skip it).  Memory is
    O(n_trajectories * n_steps), and a record whose doubles and streams
    pass BUDGET_BYTES is refused before anything is allocated; use
    the streaming estimators for production window counts.

    `_propagate` runs `_step`'s chain on each of `_each_slice`'s slices,
    and each block's outputs are copied into the slice's rows of the
    record.  The result equals the per-step recursion up to rounding.
    """
    _, _, n_steps = _check_step(model, cfg)
    n_traj = cfg.n_trajectories
    _check_budget("record", n_traj, n_steps * spectra.N_OUTPUTS,
                  "use the streaming estimators")
    out = np.empty((n_traj, n_steps, spectra.N_OUTPUTS))
    rngs = _streams(cfg.seed, n_traj)
    chain = _Chain(n_steps, *_step(model, noise, cfg.dt))

    def run(lo: int, hi: int) -> None:
        for start, block, _ in _propagate(rngs[lo:hi], np.zeros((hi - lo, spectra.N_STATES)),
                                          chain):
            out[lo:hi, start:start + block.shape[1]] = block

    _each_slice(n_traj, chain.row_normals, run)
    return SimulationRecords(increments=out)


def windowed_transform(increments: np.ndarray, dt: float, tau: float,
                       omega: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """Finite-time transforms of one trajectory's output record.

    Splits the (n_steps, 4) increment record into non-overlapping windows of
    length ``tau`` (a ragged tail is dropped) and returns an (n_windows, 2)
    array of per-mode transform samples
    (1/sqrt(tau)) * sum_k exp(i omega t_k) X(phi)_k, with t_k = (k + 1/2) dt
    and X(phi) = cos(phi) x + sin(phi) y.  Real at omega = 0, complex
    otherwise.  dt and tau must be finite and positive, omega and phi finite.

    The windows are reduced before they are projected: each window's
    transposed (k, 4) record times the phase columns (cos, sin of omega t_k;
    a column of ones at omega = 0), then the projection onto X(phi).  The
    phase is built by angle addition from two ~sqrt(k)-long exponentials.
    """
    increments = np.asarray(increments)
    if increments.ndim != 2 or increments.shape[1] != spectra.N_OUTPUTS:
        raise ParameterError("increments must have shape (n_steps, 4)")
    for name, value in (("dt", dt), ("tau", tau)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    require_finite(omega=omega, phi=phi)
    steps = tau / dt   # inf when the ratio overflows
    k_per = round(steps) if steps < increments.shape[0] + 1 else 0
    if k_per < 1 or increments.shape[0] < k_per:
        raise ParameterError(
            f"record of {increments.shape[0]} steps is shorter than one "
            f"window of tau/dt = {steps:.6g} steps")
    n_win = increments.shape[0] // k_per
    windows = increments[:n_win * k_per].reshape(n_win, k_per, spectra.N_OUTPUTS)
    c, s = math.cos(phi), math.sin(phi)
    projection = np.array([[c, s, 0.0, 0.0], [0.0, 0.0, c, s]])
    if omega == 0.0:
        phase = np.ones((k_per, 1))
    else:
        # exp(i omega t_k) for k = a m + b is coarse[a] * fine[b]; its
        # (real, imaginary) pairs are the columns (cos, sin).
        m = math.isqrt(k_per - 1) + 1
        fine = np.exp(1j * omega * dt * (np.arange(m) + 0.5))
        coarse = np.exp(1j * omega * dt * m * np.arange(-(-k_per // m)))
        phase = (coarse[:, None] * fine).ravel()[:k_per]
        phase = phase.view(np.float64).reshape(k_per, 2)
    out = projection @ (windows.transpose(0, 2, 1) @ phase)
    out *= 1.0 / math.sqrt(k_per * dt)
    return out[..., 0] if omega == 0.0 else out[..., 0] + 1j * out[..., 1]


def _estimate(sum_sq: np.ndarray, cfg: SimConfig, window_steps: int,
              gamma_c: float) -> Estimate:
    """Mean and jackknife standard error of the per-trajectory window-sum
    second moments, in gamma_c units."""
    n_traj = len(sum_sq)
    per_traj = sum_sq / (cfg.n_segments * window_steps * cfg.dt * gamma_c)
    return Estimate(mean=float(per_traj.mean()),
                    std_err=float(per_traj.std(ddof=1) / math.sqrt(n_traj)),
                    n_samples=n_traj * cfg.n_segments)


def estimate_inference_variance(model: StateSpace, noise: NoisePsd,
                                cfg: SimConfig, phi: float,
                                gain: float) -> Estimate:
    """Monte Carlo estimate of Var[X1(phi,0) - gain * X2(phi,0)], gamma_c units.

    The step-level reference: runs every Euler-Maruyama step through
    `_propagate`, whose per-step output is the step's term of the window
    sum, and streams the window sums instead of materializing records, so
    memory is O(n_trajectories) and time O(n_trajectories * steps); plans
    whose draws and streams exceed BUDGET_BYTES are refused before
    any stream is spawned.  The transform has zero mean by construction and
    the uncentred second moment over all windows is the variance estimator;
    the standard error is the jackknife (equivalently the standard error of
    the per-trajectory means), which is robust to any residual correlation
    between windows of one trajectory.
    """
    burn_steps, window_steps, n_steps = _check_plan(model, cfg)
    n_traj = cfg.n_trajectories
    _check_budget("step draws", n_traj, n_steps * spectra.N_NOISES,
                  "use fewer trajectories or segments")
    rngs = _streams(cfg.seed, n_traj)
    chain = _Chain(n_steps, *_window_step(model, noise, cfg.dt, phi, gain))
    sum_sq = np.zeros(n_traj)

    # Each step's output is its contribution to the window sum; a block's
    # outputs are summed window by window from the end of the burn-in.
    def run(lo: int, hi: int) -> None:
        wsum = np.zeros(hi - lo)
        for start, out, _ in _propagate(rngs[lo:hi], np.zeros((hi - lo, spectra.N_STATES)),
                                        chain):
            a, end = max(start, burn_steps), start + out.shape[1]
            while a < end:
                b = min(end, a + window_steps - (a - burn_steps) % window_steps)
                wsum += out[:, a - start:b - start, 0].sum(axis=1)
                if (b - burn_steps) % window_steps == 0:
                    sum_sq[lo:hi] += wsum * wsum
                    wsum[:] = 0.0
                a = b

    _each_slice(n_traj, chain.row_normals, run)
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
    rounding are clipped to zero; a materially negative one is refused, as
    is a non-finite entry or a negative variance, which cancellation leaves
    in the window sum where the noise outgrows the double precision.
    """
    var = np.diag(cov)
    if not (np.isfinite(cov).all() and var.min() >= 0.0):
        raise NumericalError("window covariance has a non-finite entry or a negative "
                             f"variance (least variance {float(var.min())!r})")
    scale = np.sqrt(var)
    scale[scale == 0.0] = 1.0   # a noiseless component: its row is zero
    vals, vecs = np.linalg.eigh(cov / np.outer(scale, scale))
    if vals[0] < -1e-9 * len(cov):
        raise NumericalError(
            f"window covariance is not positive semidefinite: scaled eigenvalue "
            f"{vals[0]!r}")
    return scale[:, None] * vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_inference_variance(model: StateSpace, noise: NoisePsd,
                              cfg: SimConfig, phi: float,
                              gain: float) -> Estimate:
    """Monte Carlo estimate of Var[X1(phi,0) - gain * X2(phi,0)], gamma_c units.

    Samples the step-level chain of `estimate_inference_variance` window by
    window, exactly: with `_window_step`'s chain (S, B, c, d), binary
    powering of the one-step map (F, G G^T) of y = (x, s), the state and
    its window sum, F = [[S, 0], [c, 1]] and G = [B; d], gives the burn-in
    and window maps.  Each trajectory's own
    stream gives 6 normals for the burn-in from x = 0, then 7 per window;
    the windows run through `_propagate` as the steps of the window chain,
    whose output is the window sum.  Time is O(n_trajectories * n_segments)
    whatever the step count, memory O(n_trajectories), and plans whose
    draws and streams exceed BUDGET_BYTES are refused before any
    stream is spawned.  The distribution is the step chain's (same dt, same
    burn-in), the draws are not, and the estimate and its jackknife error
    are formed the same way.
    """
    burn_steps, window_steps, _ = _check_plan(model, cfg)
    n_traj, n_seg, n = cfg.n_trajectories, cfg.n_segments, spectra.N_STATES
    _check_budget("window draws", n_traj, n + (n + 1) * n_seg,
                  "use fewer trajectories or segments")
    step, b, c, d = _window_step(model, noise, cfg.dt, phi, gain)
    g_one = np.vstack([b, d])
    one = (np.block([[step, np.zeros((n, 1))], [c, np.ones((1, 1))]]), g_one @ g_one.T)
    burn = _factor(_power(one, burn_steps)[1][:n, :n])
    # From window to window the chain is again x' = A x + B xi with output
    # s = C x + D xi: A, C from the window map (each window starts with
    # s = 0) and [B; D] the factor of its covariance.
    f_win, q_win = _power(one, window_steps)
    l_win = _factor(q_win)
    rngs = _streams(cfg.seed, n_traj)
    x = _draw_block(rngs, 1, n)[:, 0] @ burn.T
    chain = _Chain(n_seg, f_win[:n, :n], l_win[:n], f_win[n:, :n], l_win[n:])
    sum_sq = np.zeros(n_traj)

    def run(lo: int, hi: int) -> None:
        for _, out, _ in _propagate(rngs[lo:hi], x[lo:hi], chain):
            sum_sq[lo:hi] += np.einsum("ij,ij->i", out[..., 0], out[..., 0])

    _each_slice(n_traj, chain.row_normals, run)
    return _estimate(sum_sq, cfg, window_steps, model.gamma_c)


def _derived_seed(seed: int, index: int) -> int:
    """The first state word of ``SeedSequence(seed).spawn(2)[index]``."""
    return int(_seed_words(seed, 2)[index, 0])


def epr_product_estimate(model: StateSpace, noise: NoisePsd, cfg: SimConfig
                         ) -> tuple[Estimate, Estimate, Estimate, tuple[float, float]]:
    """Monte Carlo criterion: both inference variances and their product.

    Runs one window-level sample (`sample_inference_variance`) per
    quadrature angle with the analytically optimal gain and an independent
    noise stream per angle, then propagates the two standard errors into
    the product to first order.  Returns (estimate at phi=0, estimate at
    phi=pi/2, product estimate, (var_x, var_y)), the last the spectral
    variances that came with the gains, in gamma_c units.
    """
    runs = []
    for idx, phi in enumerate((0.0, math.pi / 2)):
        var, gain = spectra.inferred_variance_at(model, noise, 0.0, phi)
        run_cfg = replace(cfg, seed=_derived_seed(cfg.seed, idx))
        runs.append((sample_inference_variance(model, noise, run_cfg, phi, gain), var))
    (est_x, var_x), (est_y, var_y) = runs
    product = est_x.mean * est_y.mean
    prod_err = math.hypot(est_y.mean * est_x.std_err, est_x.mean * est_y.std_err)
    prod = Estimate(mean=product, std_err=prod_err,
                    n_samples=est_x.n_samples + est_y.n_samples)
    return est_x, est_y, prod, (var_x, var_y)
