"""Tests for the Euler-Maruyama oracle: integrator, windows, and estimators."""

import cmath
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from optoepr import (DimensionlessParams, NoisePsd, NumericalError,
                     ParameterError, SimConfig, build_state_space, default_sim_config,
                     epr_lhs, epr_product_estimate, estimate_inference_variance,
                     inferred_variance_at, integrate, noise_psd,
                     realize_dimensionless, sample_inference_variance,
                     windowed_transform)
from optoepr import sde
from optoepr.sde import (MAX_STEPS, NOISE_BLOCK, RECORD_BUDGET_BYTES, _draw_block,
                         _streams)
from optoepr.spectra import N_NOISES

from conftest import HEADLINE


@pytest.fixture(scope="module")
def empty_cavity():
    params, ss = realize_dimensionless(DimensionlessParams(0.0, 0.3, 0.18))
    return params, build_state_space(params, ss), noise_psd(params)


@pytest.fixture(scope="module")
def headline(headline_realization):
    params, ss = headline_realization
    return params, build_state_space(params, ss), noise_psd(params)


def small_cfg(model, *, n_traj=24, n_seg=12, tau_lifetimes=300.0, seed=0,
              dt_frac=0.08):
    rho = np.max(np.abs(np.linalg.eigvals(model.drift)))
    return default_sim_config(model, n_trajectories=n_traj, n_segments=n_seg,
                              seed=seed, dt=dt_frac / rho,
                              tau=tau_lifetimes / model.gamma_c)


def reference_records(model, noise, cfg, x0=None):
    """The Euler-Maruyama recursion one step at a time, on the oracle's noise
    stream: the plain loop that the blocked kernel evaluates, kept as a test
    oracle.  Returns (increments, final states)."""
    n_steps = sde._check_step(model, cfg)[2]
    sig = np.sqrt(noise.levels(0.0) * cfg.dt)
    step_mat = (np.eye(6) + cfg.dt * model.drift).T
    x = np.zeros((cfg.n_trajectories, 6)) + (0.0 if x0 is None else x0)
    out = np.empty((cfg.n_trajectories, n_steps, 4))
    rngs = _streams(cfg.seed, cfg.n_trajectories)
    for start in range(0, n_steps, NOISE_BLOCK):
        dw = _draw_block(rngs, min(NOISE_BLOCK, n_steps - start)) * sig
        for k in range(dw.shape[1]):
            out[:, start + k] = (x @ model.output_map.T * cfg.dt
                                 + dw[:, k] @ model.feedthrough.T)
            x = x @ step_mat + dw[:, k] @ model.input_map.T
    return out, x


def kernel_blocks(model, noise, cfg, x0=None):
    """`_propagate` on `_step`'s chain over the plan's steps from x0 (zero
    when None), on the oracle's noise stream."""
    n_steps = sde._check_step(model, cfg)[2]
    x = np.zeros((cfg.n_trajectories, 6)) + (0.0 if x0 is None else x0)
    return sde._propagate(_streams(cfg.seed, cfg.n_trajectories), x,
                          sde._Chain(n_steps, *sde._step(model, noise, cfg.dt)))


def kernel_records(model, noise, cfg, x0=None):
    """The blocks of `kernel_blocks` joined, and the last end state.
    Returns (increments, final states), as `reference_records` does."""
    out = np.empty((cfg.n_trajectories, sde._check_step(model, cfg)[2], 4))
    for start, block, x in kernel_blocks(model, noise, cfg, x0):
        out[:, start:start + block.shape[1]] = block
    return out, x


def kernel_end_state(model, noise, cfg, x0=None):
    """The last end state of `kernel_blocks`, without keeping a record."""
    for _, _, x in kernel_blocks(model, noise, cfg, x0):
        pass
    return x


def log_slices(monkeypatch):
    """Spy on `sde._each_slice`: returns a list that gains, per call, the
    list of its slices' (a, b, run on the main thread) as they run."""
    each_slice, calls = sde._each_slice, []

    def spy(n_traj, row_normals, run):
        slices = []
        calls.append(slices)

        def logged(a, b):
            slices.append((a, b, threading.current_thread() is threading.main_thread()))
            run(a, b)
        each_slice(n_traj, row_normals, logged)

    monkeypatch.setattr(sde, "_each_slice", spy)
    return calls


def max_rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def ragged_cfg(headline):
    # More than two noise blocks, the last one partial, and a window that does
    # not divide NOISE_BLOCK, so every cut of the blocked kernels is taken.
    _, model, _ = headline
    cfg = small_cfg(model, n_traj=3, n_seg=5, tau_lifetimes=150.0, seed=17)
    n_steps = sde._check_step(model, cfg)[2]
    window_steps = round(cfg.tau / cfg.dt)
    assert n_steps > 2 * NOISE_BLOCK and n_steps % NOISE_BLOCK
    assert NOISE_BLOCK % window_steps
    return cfg


@pytest.fixture(scope="module")
def edge_cfg(headline):
    # As ragged_cfg, but the first noise block ends one step past a window
    # edge, so a one-step piece closes nothing and must not square the sum.
    _, model, _ = headline
    cfg = small_cfg(model, n_traj=3, n_seg=6, tau_lifetimes=107.0, seed=17)
    n_steps = sde._check_step(model, cfg)[2]
    burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
    window_steps = round(cfg.tau / cfg.dt)
    assert n_steps > 2 * NOISE_BLOCK and n_steps % NOISE_BLOCK
    assert (NOISE_BLOCK - burn_steps) % window_steps == 1
    return cfg


@pytest.fixture(scope="module")
def long_burn_cfg(headline):
    # A burn-in longer than a noise block, so the first block closes no window
    # and the second ends the burn-in.
    _, model, _ = headline
    cfg = small_cfg(model, n_traj=3, n_seg=3, tau_lifetimes=150.0, seed=19)
    burn_steps = sde._check_step(model, cfg)[0] + NOISE_BLOCK
    cfg = replace(cfg, burn_in=burn_steps * cfg.dt)
    assert sde._check_step(model, cfg)[0] == burn_steps
    return cfg


class TestBlockedKernel:
    def test_integrate_matches_per_step_recursion(self, headline, ragged_cfg):
        _, model, noise = headline
        x0 = np.array([0.3, -0.2, 1.0, -0.5, 0.25, 0.8])
        got, got_x = kernel_records(model, noise, ragged_cfg, x0)
        out, x = reference_records(model, noise, ragged_cfg, x0)
        assert max_rel_diff(got, out) < 1e-12
        assert max_rel_diff(got_x, x) < 1e-12

    @pytest.mark.parametrize("plan", ["ragged_cfg", "edge_cfg", "long_burn_cfg"])
    def test_estimator_matches_per_step_recursion(self, headline, plan, request):
        params, model, noise = headline
        cfg, phi, gain = request.getfixturevalue(plan), 0.7, -0.3
        est = estimate_inference_variance(model, noise, cfg, phi, gain)
        out, _ = reference_records(model, noise, cfg)
        burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
        window_steps = round(cfg.tau / cfg.dt)
        c, s = math.cos(phi), math.sin(phi)
        z = out[:, burn_steps:burn_steps + cfg.n_segments * window_steps] @ [
            c, s, -gain * c, -gain * s]
        sums = z.reshape(cfg.n_trajectories, cfg.n_segments, window_steps).sum(axis=2)
        per_traj = (sums ** 2).mean(axis=1) / (window_steps * cfg.dt * params.gamma_c)
        assert est.mean == pytest.approx(per_traj.mean(), rel=1e-12)
        assert est.std_err == pytest.approx(
            per_traj.std(ddof=1) / math.sqrt(cfg.n_trajectories), rel=1e-12)

    def test_integrate_independent_of_batching(self, headline):
        # A trajectory's record must not depend on how many others share its
        # matrix products.
        _, model, noise = headline
        wide = small_cfg(model, n_traj=24, n_seg=2, tau_lifetimes=120.0, seed=4)
        a, a_x = kernel_records(model, noise, wide)
        b, b_x = kernel_records(model, noise, replace(wide, n_trajectories=3))
        assert max_rel_diff(a[:3], b) < 1e-12
        assert max_rel_diff(a_x[:3], b_x) < 1e-12

    @pytest.mark.parametrize("n_traj", [1, 5])
    @pytest.mark.parametrize("tail", ["partial", "one-step", "no-whole-piece"])
    def test_integrate_last_piece_matches_per_step_recursion(self, headline,
                                                             n_traj, tail):
        # One full noise block, then a last block that ends in a shorter
        # piece: whole pieces and 5 steps, whole pieces and one step, or
        # 5 steps alone.
        _, model, noise = headline
        piece = sde._PIECE_STEPS
        n_steps = NOISE_BLOCK + {"partial": 2 * piece + 5, "one-step": piece + 1,
                                 "no-whole-piece": 5}[tail]
        dt = small_cfg(model).dt
        cfg = SimConfig(dt=dt, tau=n_steps * dt, n_segments=1,
                        n_trajectories=n_traj, seed=29, burn_in=0.0)
        assert sde._check_step(model, cfg)[2] == n_steps
        x0 = np.array([0.3, -0.2, 1.0, -0.5, 0.25, 0.8])
        got, got_x = kernel_records(model, noise, cfg, x0)
        out, x = reference_records(model, noise, cfg, x0)
        assert max_rel_diff(got, out) < 1e-12
        assert max_rel_diff(got_x, x) < 1e-12

    @pytest.mark.parametrize("pieces", [1, 2, 3, 4])
    def test_integrate_scan_edges_match_per_step_recursion(self, headline, pieces):
        # A full noise block, a power-of-two piece count, then a last block
        # of 1, 2, 3 or 4 whole pieces: the end-state doubling scan at and
        # around its edges.  A last block with no whole piece is covered by
        # test_integrate_last_piece_matches_per_step_recursion.
        _, model, noise = headline
        piece = sde._PIECE_STEPS
        assert (NOISE_BLOCK // piece) & (NOISE_BLOCK // piece - 1) == 0
        n_steps = NOISE_BLOCK + pieces * piece
        dt = small_cfg(model).dt
        cfg = SimConfig(dt=dt, tau=n_steps * dt, n_segments=1,
                        n_trajectories=3, seed=31, burn_in=0.0)
        x0 = np.array([0.3, -0.2, 1.0, -0.5, 0.25, 0.8])
        got, got_x = kernel_records(model, noise, cfg, x0)
        out, x = reference_records(model, noise, cfg, x0)
        assert max_rel_diff(got, out) < 1e-12
        assert max_rel_diff(got_x, x) < 1e-12

    def test_integrate_final_state_bit_equal_across_batching(self, headline):
        # The README's claim: a trajectory's final state does not depend, to
        # the bit, on how many trajectories share its products.
        _, model, noise = headline
        wide = small_cfg(model, n_traj=24, n_seg=2, tau_lifetimes=120.0, seed=4)
        _, a_x = kernel_records(model, noise, wide)
        _, b_x = kernel_records(model, noise, replace(wide, n_trajectories=3))
        assert a_x[:3].tobytes() == b_x.tobytes()

    def test_draw_block_is_the_per_stream_sequence(self):
        # The noise stream every kernel and reference_records rest on: block k
        # of trajectory n is the next standard_normal((nb, N_NOISES)) draw of
        # stream n, a partial last block included.
        for n_streams in (3, 5, 1):
            rngs, refs = _streams(5, n_streams), _streams(5, n_streams)
            for nb in (NOISE_BLOCK, 1000, 7):
                want = np.stack([r.standard_normal((nb, N_NOISES)) for r in refs])
                assert _draw_block(rngs, nb).tobytes() == want.tobytes()

    def test_large_block_is_cut_into_slices(self, headline, monkeypatch):
        # Which slices `_each_slice` runs, and on which thread.  The step
        # chain's plan of 4 trajectories x NOISE_BLOCK x 5 normals is cut in
        # two, whatever the core count: on 3 cores the calling thread runs
        # the first slice and a pool thread the second, on one core the
        # calling thread runs both, in order.  The window sampler's 180 x 1
        # plan (7 normals a row) and 180 rows of 511 normals stay one slice
        # on the calling thread.
        _, model, noise = headline
        runs = log_slices(monkeypatch)
        steps = small_cfg(model, n_traj=4, n_seg=2, tau_lifetimes=120.0)
        assert sde._check_step(model, steps)[2] > NOISE_BLOCK
        windows = default_sim_config(model, n_segments=1)
        for cores in (3, 1):
            monkeypatch.setattr(sde, "_SLICES", cores)
            for call, want in (
                    (lambda: integrate(model, noise, steps),
                     [(0, 2, True), (2, 4, cores == 1)]),
                    (lambda: sample_inference_variance(model, noise, windows, 0.0, 0.5),
                     [(0, 180, True)]),
                    (lambda: sde._each_slice(180, 511, lambda a, b: None),
                     [(0, 180, True)])):
                runs.clear()
                call()
                assert sorted(runs[0]) == want
                assert cores > 1 or runs[0] == want

    @pytest.mark.parametrize("slices", [1, 2, 3])
    def test_integrate_independent_of_slice_count(self, headline, monkeypatch, slices):
        # The same bytes on 1, 2 or 3 usable cores, where the cut is uneven
        # and has a one-row slice: `integrate`'s record on 3 and 5
        # trajectories, and `sample_inference_variance` on 3 x 5000 and
        # 5 x 3000 windows, the first spanning two noise blocks.
        _, model, noise = headline
        cut = log_slices(monkeypatch)
        runs = [(integrate, small_cfg(model, n_traj=n, n_seg=2, tau_lifetimes=120.0, seed=9))
                for n in (3, 5)]
        runs += [(lambda *args: sample_inference_variance(*args, 0.7, -0.3),
                  small_cfg(model, n_traj=n, n_seg=segs, seed=9))
                 for n, segs in ((3, 5000), (5, 3000))]
        monkeypatch.setattr(sde, "_SLICES", 1)
        want = [fn(model, noise, cfg) for fn, cfg in runs]
        assert [sorted(c[:2] for c in run) for run in cut] == [
            [(0, 1), (1, 3)], [(0, 2), (2, 5)]] * 2
        monkeypatch.setattr(sde, "_SLICES", slices)
        cut.clear()
        got = [fn(model, noise, cfg) for fn, cfg in runs]
        assert [sorted(c[:2] for c in run) for run in cut] == [
            [(0, 1), (1, 3)], [(0, 2), (2, 5)]] * 2
        assert got[0].increments.tobytes() == want[0].increments.tobytes()
        assert got[1].increments.tobytes() == want[1].increments.tobytes()
        assert got[2:] == want[2:]

    def test_record_budget_refused_before_work(self, headline):
        # Both configurations trip the guard before anything is allocated:
        # the estimator's default plan (~14 GB as a record) and one long
        # single trajectory.
        _, model, noise = headline
        with pytest.raises(ParameterError, match="budget"):
            integrate(model, noise, default_sim_config(model))
        cfg = small_cfg(model, n_traj=1, n_seg=1)
        steps = RECORD_BUDGET_BYTES // (4 * 8) + 1   # 4 doubles per step
        long_run = SimConfig(dt=cfg.dt, tau=steps * cfg.dt, n_segments=1,
                             n_trajectories=1, seed=0, burn_in=0.0)
        with pytest.raises(ParameterError, match="budget"):
            integrate(model, noise, long_run)

    def test_trajectory_budget_refused_before_streams(self, headline, monkeypatch):
        # One trajectory more than a NOISE_BLOCK x 5 noise block can hold
        # within the budget; the guard must fire before any stream is spawned.
        _, model, noise = headline
        n_traj = RECORD_BUDGET_BYTES // (NOISE_BLOCK * N_NOISES * 8) + 1
        cfg = small_cfg(model, n_traj=n_traj, n_seg=1)
        assert sde._check_step(model, cfg)[2] > NOISE_BLOCK

        def no_streams(*args):
            raise AssertionError("streams spawned before the budget check")

        monkeypatch.setattr(sde, "_streams", no_streams)
        with pytest.raises(ParameterError, match="budget"):
            estimate_inference_variance(model, noise, cfg, 0.0, 0.0)

    def test_step_draw_budget_refused_before_streams(self, headline, monkeypatch):
        # Two trajectories whose noise blocks are small, but whose draws over
        # the whole run (n_steps x 5 doubles each) exceed the budget.
        _, model, noise = headline
        cfg = default_sim_config(model, n_trajectories=2, n_segments=1700)
        n_steps = sde._check_step(model, cfg)[2]
        assert 2 * n_steps * N_NOISES * 8 > RECORD_BUDGET_BYTES

        def no_streams(*args):
            raise AssertionError("streams spawned before the budget check")

        monkeypatch.setattr(sde, "_streams", no_streams)
        with pytest.raises(ParameterError, match="budget"):
            estimate_inference_variance(model, noise, cfg, 0.0, 0.0)


@pytest.mark.parametrize("run, n_segments", [
    (lambda model, noise, cfg: sample_inference_variance(model, noise, cfg, 0.0, 0.0),
     10**308),
    (lambda model, noise, cfg: estimate_inference_variance(model, noise, cfg, 0.0, 0.0),
     10**304),
    (lambda model, noise, cfg: integrate(model, noise, cfg), 10**304),
], ids=["sample", "estimate", "integrate"])
def test_plan_past_double_range_refused_before_streams(headline, monkeypatch, run,
                                                        n_segments):
    # Each trajectory's doubles outgrow the double range: the budget compares
    # and reports them exactly, before any stream is spawned.
    _, model, noise = headline
    cfg = default_sim_config(model, n_segments=n_segments)

    def no_streams(*args):
        raise AssertionError("streams spawned before the budget check")

    monkeypatch.setattr(sde, "_streams", no_streams)
    with pytest.raises(ParameterError, match=r"budget") as info:
        run(model, noise, cfg)
    assert re.search(r"\de\+30\d doubles", str(info.value))


def numpy_derived_seed(seed, index):
    """`_derived_seed` through numpy's own SeedSequence."""
    child = np.random.SeedSequence(seed).spawn(2)[index]
    return int(child.generate_state(1, dtype=np.uint64)[0])


# Word-count edges of the seed (one word for 0, two from 2**32, the 64-bit
# per-angle seeds of simulate's default seed 0, and more words than the pool).
STREAM_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**64 - 1, numpy_derived_seed(0, 0),
                numpy_derived_seed(0, 1), 2**200 + 12345]


def run_python(code):
    """Run ``code`` in a fresh interpreter on this checkout's package and
    return its stripped standard output."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestStreams:
    @pytest.mark.parametrize("n", [1, 2, 180, 1000])
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_streams_are_numpys(self, seed, n):
        # Bit for bit the generators of SeedSequence(seed).spawn(n): every
        # state, and a draw of the last stream.
        ours = _streams(seed, n)
        want = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
        assert len(ours) == n
        assert [r.bit_generator.state for r in ours] == [
            r.bit_generator.state for r in want]
        assert ours[-1].standard_normal(7).tobytes() == want[-1].standard_normal(7).tobytes()

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_derived_seed_is_numpys(self, seed):
        assert [sde._derived_seed(seed, i) for i in (0, 1)] == [
            numpy_derived_seed(seed, i) for i in (0, 1)]

    def test_import_does_not_load_numpy_random(self):
        # numpy.random costs every scan and spectrum start ~5 MB; only the
        # oracle's first stream loads it.  decimal, ~1 ms of import, is
        # loaded only by a budget message past the double range.
        code = ("import sys, optoepr; "
                "print('numpy.random' in sys.modules, 'decimal' in sys.modules)")
        assert run_python(code) == "False False"

    def test_import_starts_no_thread(self):
        # The slice threads are built by the first cut run, not by import.
        code = ("import sys, threading, optoepr; print(threading.active_count(), "
                "'concurrent.futures' in sys.modules)")
        assert run_python(code) == "1 False"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_forked_child_draws_a_split_block(self):
        # A child forked after a cut run inherits the pool without its
        # threads; its own cut run must build a new pool, not wait forever.
        code = textwrap.dedent("""
            import os, time
            from optoepr import sde
            sde._SLICES = 2
            rngs = sde._streams(0, 4)
            def draw(a, b):
                sde._draw_block(rngs[a:b], sde.NOISE_BLOCK)
            sde._each_slice(4, sde.NOISE_BLOCK * 5, draw)
            assert sde._pool.cache_info().currsize == 1
            pid = os.fork()
            if pid == 0:
                sde._each_slice(4, sde.NOISE_BLOCK * 5, draw)
                os._exit(0)
            for _ in range(400):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    print(os.waitstatus_to_exitcode(status))
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                print("hung")
        """)
        assert run_python(code) == "0"


def window_one_step(model, noise, cfg, phi, gain):
    """The 7-state one-step map (F_1, Q_1) of the chain and its window sum,
    F_1 = [[S, 0], [c, 1]] and Q_1 = G G^T with G = [B; d], from
    `_window_step`'s chain (S, B, c, d)."""
    step, b, c, d = sde._window_step(model, noise, cfg.dt, phi, gain)
    f_one = np.eye(7)
    f_one[:6, :6], f_one[6, :6] = step, c[0]
    g_one = np.vstack([b, d])
    return f_one, g_one @ g_one.T


def reference_window_sums(model, noise, cfg, phi, gain):
    """The window sampler one window at a time on its documented draws: per
    trajectory, 6 normals for the burn-in from x = 0, then 7 per window.
    Returns each trajectory's sum of squared window sums."""
    burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
    one = window_one_step(model, noise, cfg, phi, gain)
    burn = sde._factor(sde._power(one, burn_steps)[1][:6, :6])
    f_win, q_win = sde._power(one, round(cfg.tau / cfg.dt))
    low = sde._factor(q_win)
    out = []
    for rng in _streams(cfg.seed, cfg.n_trajectories):
        x = burn @ rng.standard_normal(6)
        total = 0.0
        for _ in range(cfg.n_segments):
            y = f_win[:, :6] @ x + low @ rng.standard_normal(7)
            x, total = y[:6], total + y[6] ** 2
        out.append(total)
    return np.array(out)


class TestWindowSampler:
    def test_matches_window_by_window_recursion(self, headline):
        # Windows of 10 lifetimes stay correlated (the window map keeps
        # ~0.1 of the state).  70 windows span whole pieces and a shorter
        # last one, so the state carried between pieces is exercised; then
        # the kernel's edges: one window (no whole piece), a short piece
        # alone, one whole piece, one whole piece and a one-window piece,
        # and a full noise block followed by a block of one window.
        params, model, noise = headline
        phi, gain = 0.7, -0.3
        piece = sde._PIECE_STEPS
        for n_seg in (70, 1, piece - 1, piece, piece + 1, NOISE_BLOCK + 1):
            cfg = small_cfg(model, n_traj=3, n_seg=n_seg, tau_lifetimes=10.0, seed=23)
            est = sample_inference_variance(model, noise, cfg, phi, gain)
            per_traj = reference_window_sums(model, noise, cfg, phi, gain) / (
                cfg.n_segments * round(cfg.tau / cfg.dt) * cfg.dt * params.gamma_c)
            assert est.mean == pytest.approx(per_traj.mean(), rel=1e-12)
            assert est.std_err == pytest.approx(
                per_traj.std(ddof=1) / math.sqrt(cfg.n_trajectories), rel=1e-12)

    def test_doubling_matches_step_by_step_composition(self, headline):
        # 37 = 100101b: a ragged count takes both the square and the multiply.
        _, model, noise = headline
        one = window_one_step(model, noise, small_cfg(model), 0.7, -0.3)
        f, q = np.eye(7), np.zeros((7, 7))
        for _ in range(37):
            f, q = sde._compose((f, q), one)
        f_pow, q_pow = sde._power(one, 37)
        assert max_rel_diff(f_pow, f) < 1e-12
        assert max_rel_diff(q_pow, q) < 1e-12

    def test_window_map_is_the_step_chain_piece_map(self, headline):
        # The kernel's piece map of `_window_step`'s state chain over one
        # whole window, its outputs summed into the window sum: the
        # start-state rows are the window map's mean part, and the Gram
        # matrix of the normals' rows the window covariance.
        _, model, noise = headline
        cfg = small_cfg(model, tau_lifetimes=10.0)
        window_steps = round(cfg.tau / cfg.dt)
        phi, gain = 0.7, -0.3
        f_win, q_win = sde._power(window_one_step(model, noise, cfg, phi, gain),
                                  window_steps)
        x_map, z_map = sde._piece_map(*sde._window_step(model, noise, cfg.dt, phi, gain),
                                      window_steps)
        assert z_map.shape == (5 * window_steps, 6 + window_steps)

        def window(rows):
            return np.column_stack([rows[:, :6], rows[:, 6:].sum(axis=1)])

        assert max_rel_diff(window(x_map).T, f_win[:, :6]) < 1e-12
        gram = window(z_map).T @ window(z_map)
        assert max_rel_diff(gram, q_win) < 1e-12

    def test_agrees_with_step_chain_on_short_windows(self, headline):
        # At tau = 30/gamma_c the leakage bias moves both estimators far from
        # the carrier reference, so they are checked against each other: the
        # same chain, different draws, within 3 sigma at both angles.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=400, n_seg=20, tau_lifetimes=30.0, seed=31)
        for phi in (0.0, math.pi / 2):
            _, gain = inferred_variance_at(model, noise, 0.0, phi)
            window = sample_inference_variance(model, noise, cfg, phi, gain)
            steps = estimate_inference_variance(model, noise, replace(cfg, seed=32),
                                                phi, gain)
            assert window.n_samples == steps.n_samples == 400 * 20
            assert abs(window.mean - steps.mean) < 3.0 * math.hypot(
                window.std_err, steps.std_err)

    def test_draws_pinned(self, headline):
        # 9000 windows span three noise blocks of `_propagate`; any change in
        # the draws or their order moves these values, BLAS rounding does not.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=5, n_seg=9000, tau_lifetimes=10.0, seed=2)
        est = sample_inference_variance(model, noise, cfg, 0.7, -0.3)
        assert est.mean == pytest.approx(3.0412971099367234, rel=1e-12)
        assert est.std_err == pytest.approx(0.008675011971614658, rel=1e-12)
        assert est.n_samples == 5 * 9000

    def test_memory_independent_of_segments(self, headline):
        # The windows' draws stream through `_propagate` one noise block at a
        # time; 200 000 windows held at once would take 21 MiB.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=2, n_seg=200_000, tau_lifetimes=10.0)
        tracemalloc.start()
        try:
            sample_inference_variance(model, noise, cfg, 0.0, -0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_identical_seed_bit_identical(self, headline):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=8, n_seg=70, seed=9)
        a = sample_inference_variance(model, noise, cfg, 0.0, -0.5)
        b = sample_inference_variance(model, noise, cfg, 0.0, -0.5)
        assert a == b

    def test_trajectory_independent_of_batching(self, headline, monkeypatch):
        # Trajectory j's draws depend only on (seed, j); 70 windows span a
        # full and a partial product.
        _, model, noise = headline
        seen = []

        def keep(sum_sq, *args):
            seen.append(sum_sq.copy())
            return estimate(sum_sq, *args)

        estimate = sde._estimate
        monkeypatch.setattr(sde, "_estimate", keep)
        wide = small_cfg(model, n_traj=24, n_seg=70, seed=4)
        sample_inference_variance(model, noise, wide, 0.0, -0.5)
        sample_inference_variance(model, noise, replace(wide, n_trajectories=3),
                                  0.0, -0.5)
        assert max_rel_diff(seen[0][:3], seen[1]) < 1e-12

    def test_draw_budget_refused_before_streams(self, headline, monkeypatch):
        # One window more than the budget holds at 2 trajectories
        # (6 + 7 x segments doubles each).
        _, model, noise = headline
        n_seg = (RECORD_BUDGET_BYTES // (2 * 8) - 6) // 7 + 1
        cfg = small_cfg(model, n_traj=2, n_seg=n_seg)

        def no_streams(*args):
            raise AssertionError("streams spawned before the budget check")

        monkeypatch.setattr(sde, "_streams", no_streams)
        with pytest.raises(ParameterError, match="budget"):
            sample_inference_variance(model, noise, cfg, 0.0, 0.0)

    def test_stream_budget_refused_before_streams(self, headline, monkeypatch):
        # 1e7 trajectories of one window draw only 104 B each, 1.04e9 B in
        # all, but their generators would hold ~8 GB: each trajectory is
        # charged its stream too, before any stream is spawned.
        _, model, noise = headline
        cfg = default_sim_config(model, n_trajectories=10_000_000, n_segments=1)
        assert 10_000_000 * (6 + 7) * 8 < RECORD_BUDGET_BYTES

        def no_streams(*args):
            raise AssertionError("streams spawned before the budget check")

        monkeypatch.setattr(sde, "_streams", no_streams)
        with pytest.raises(ParameterError, match="budget"):
            sample_inference_variance(model, noise, cfg, 0.0, 0.0)

    def test_factor_resolves_every_scale(self, headline):
        # The headline window covariance spans 38 decades on its diagonal
        # (mirror position in metres against the window sum); its factor
        # must reproduce every correlation, the smallest components included.
        _, model, noise = headline
        cfg = small_cfg(model)
        q_win = sde._power(window_one_step(model, noise, cfg, 0.0, -0.3),
                           round(cfg.tau / cfg.dt))[1]
        low = sde._factor(q_win)
        scale = np.sqrt(np.outer(np.diag(q_win), np.diag(q_win)))
        assert np.max(np.abs(low @ low.T - q_win) / scale) < 1e-12

    def test_factor_clips_rounding_and_refuses_negative(self):
        # Rank one up to rounding, entries far below 1: the unit-diagonal
        # matrix has an eigenvalue of -5e-16, which is clipped.
        cov = np.array([[4.0, 2.0], [2.0, 1.0 - 1e-15]]) * 1e-18
        low = sde._factor(cov)
        assert np.allclose(low @ low.T, cov, rtol=1e-12, atol=0.0)
        with pytest.raises(NumericalError):
            sde._factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # A negative variance, which cancellation leaves in a window sum
        # whose noise outgrows the double precision, and a non-finite entry
        # are refused before the diagonal's square root.
        for cov in ([[1.0, 0.0], [0.0, -4.6e5]], [[1.0, math.nan], [math.nan, 1.0]]):
            with pytest.raises(NumericalError, match="non-finite entry or a negative"):
                sde._factor(np.array(cov))

    @pytest.mark.parametrize("phi, gain", [(math.nan, -0.3), (math.inf, -0.3),
                                           (0.7, math.inf), (0.7, math.nan)])
    def test_estimators_refuse_non_finite_angle_or_gain(self, headline, phi, gain):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=2, n_seg=1)
        name, value = ("phi", phi) if not math.isfinite(phi) else ("gain", gain)
        for estimator in (estimate_inference_variance, sample_inference_variance):
            with pytest.raises(ParameterError, match=f"{name} must be finite, got {value!r}"):
                estimator(model, noise, cfg, phi, gain)

    def test_product_estimate_runs_the_window_sampler(self, headline, monkeypatch):
        _, model, noise = headline

        def no_steps(*args):
            raise AssertionError("step chain called")

        monkeypatch.setattr(sde, "estimate_inference_variance", no_steps)
        cfg = small_cfg(model, n_traj=4, n_seg=2)
        est_x, est_y, _, _ = epr_product_estimate(model, noise, cfg)
        assert est_x.n_samples == est_y.n_samples == 8

    def test_product_estimate_returns_its_spectral_variances(self, headline, monkeypatch):
        # One spectral solve per angle gives both the gain and the variance
        # returned beside the estimates.
        _, model, noise = headline
        want = [inferred_variance_at(model, noise, 0.0, phi)[0]
                for phi in (0.0, math.pi / 2)]
        solves = []

        def counted(*args):
            solves.append(args[3])
            return inferred_variance_at(*args)

        monkeypatch.setattr(sde.spectra, "inferred_variance_at", counted)
        cfg = small_cfg(model, n_traj=4, n_seg=2)
        *_, analytic = epr_product_estimate(model, noise, cfg)
        assert analytic == tuple(want)
        assert solves == [0.0, math.pi / 2]


class TestIntegrate:
    def test_noiseless_decay_matches_matrix_exponential(self, empty_cavity):
        # Deterministic limit: Euler-Maruyama with zero noise against the
        # exact propagator at t = 5/gamma_c, to 1e-6 relative.
        params, model, _ = empty_cavity
        gc = params.gamma_c
        duration = 5.0 / gc
        n_steps = 4_000_000
        dt = duration / n_steps
        cfg = SimConfig(dt=dt, tau=duration, n_segments=1, n_trajectories=1,
                        seed=1, burn_in=0.0)
        x0 = np.array([0.0, 0.0, 1.0, -0.5, 0.25, 0.8])
        x = kernel_end_state(model, NoisePsd(0.0, lambda w: 0.0), cfg, x0)
        exact = expm(model.drift * (n_steps * dt)) @ x0
        err = np.linalg.norm(x[0] - exact) / np.linalg.norm(exact)
        assert err < 1e-6

    def test_empty_cavity_state_variance_matches_lyapunov(self, empty_cavity):
        params, model, noise = empty_cavity
        rho = np.max(np.abs(np.linalg.eigvals(model.drift)))
        dt = 0.02 / rho
        burn = 80.0 / params.gamma_c
        n_traj = 800
        # run to stationarity, then take one x1 sample per trajectory
        cfg = SimConfig(dt=dt, tau=round(burn / dt) * dt, n_segments=1,
                        n_trajectories=n_traj, seed=7, burn_in=0.0)
        x = kernel_end_state(model, noise, cfg)
        x1 = x[:, 2]
        sample_var = x1.var(ddof=1)
        levels = noise.levels(0.0)
        q = model.input_map @ np.diag(levels) @ model.input_map.T
        cov = solve_continuous_lyapunov(model.drift, -q)
        std_err = cov[2, 2] * math.sqrt(2.0 / (n_traj - 1))
        assert abs(sample_var - cov[2, 2]) < 3.0 * std_err

    def test_identical_seed_bit_identical(self, headline):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=4, n_seg=2, tau_lifetimes=120.0, seed=42)
        a, a_x = kernel_records(model, noise, cfg)
        b, b_x = kernel_records(model, noise, cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(a_x, b_x)

    def test_step_size_guard(self, headline):
        # `_check_step` refuses the step before the estimators' own plan
        # checks, which this one-trajectory plan without burn-in also fails.
        _, model, noise = headline
        rho = np.max(np.abs(np.linalg.eigvals(model.drift)))
        dt = 0.5 / rho
        cfg = SimConfig(dt=dt, tau=150 * dt, n_segments=1, n_trajectories=1,
                        seed=0, burn_in=0.0)
        with pytest.raises(NumericalError):
            integrate(model, noise, cfg)
        for estimator in (estimate_inference_variance, sample_inference_variance):
            with pytest.raises(NumericalError):
                estimator(model, noise, cfg, 0.0, 0.0)

    def test_estimators_refuse_one_trajectory(self, headline):
        # The jackknife error of one trajectory is undefined.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=1, n_seg=2)
        for estimator in (estimate_inference_variance, sample_inference_variance):
            with pytest.raises(ParameterError, match="n_trajectories"):
                estimator(model, noise, cfg, 0.0, 0.0)

    def test_estimator_requires_burn_in(self, headline):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=2, n_seg=2)
        bad = SimConfig(dt=cfg.dt, tau=cfg.tau, n_segments=cfg.n_segments,
                        n_trajectories=2, seed=0, burn_in=0.0)
        with pytest.raises(ParameterError):
            estimate_inference_variance(model, noise, bad, 0.0, 0.0)

    @pytest.mark.parametrize("run", [
        lambda model, noise, cfg: integrate(model, noise, cfg),
        lambda model, noise, cfg: estimate_inference_variance(model, noise, cfg, 0.0, -0.5),
        lambda model, noise, cfg: sample_inference_variance(model, noise, cfg, 0.0, -0.5),
    ], ids=["integrate", "estimate", "sample"])
    @pytest.mark.parametrize("vacuum, force", [
        (1.0, math.nan), (1.0, math.inf), (1.0, -1.0), (-1.0, 1.0)],
        ids=["nan-force", "inf-force", "negative-force", "negative-vacuum"])
    def test_bad_noise_level_is_a_numerical_error(self, headline, run, vacuum, force):
        # Every path reads its levels through the one check of
        # `NoisePsd.levels`, which names the carrier it reads them at.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=2, n_seg=1)
        bad = NoisePsd(vacuum * noise.vacuum_level,
                       lambda w: force * noise.brownian(w))
        with pytest.raises(NumericalError, match=re.escape("omega=0.0")):
            run(model, bad, cfg)


class TestSimConfig:
    def test_rejects_short_window(self):
        # 99.4 steps round to 99, below the 100-step floor.
        for tau in (50.0, 99.4):
            with pytest.raises(ParameterError, match="at least 100"):
                SimConfig(dt=1.0, tau=tau, n_segments=1, n_trajectories=1,
                          seed=0, burn_in=0.0)

    def test_rejects_negative_burn_in_and_no_segments(self):
        with pytest.raises(ParameterError, match="burn_in must be >= 0, got -0.001"):
            SimConfig(dt=1e-3, tau=0.5, n_segments=4, n_trajectories=1, seed=0,
                      burn_in=-1e-3)
        with pytest.raises(ParameterError, match="n_segments and n_trajectories"):
            SimConfig(dt=1e-3, tau=0.5, n_segments=0, n_trajectories=1, seed=0,
                      burn_in=0.0)

    @pytest.mark.parametrize("field", ["tau", "burn_in"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, field, value):
        times = {"tau": 0.5, "burn_in": 0.0, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            SimConfig(dt=1e-3, n_segments=4, n_trajectories=1, seed=0, **times)

    def test_rounds_onto_the_step_grid(self):
        # An off-grid tau goes to the nearest whole step and burn_in up to
        # one; a plan already on the grid stays put.
        cfg = SimConfig(dt=1e-3, tau=0.1234567, n_segments=1, n_trajectories=1,
                        seed=0, burn_in=0.0101)
        assert cfg.tau == 123 * 1e-3
        assert round(cfg.tau / cfg.dt) * cfg.dt == cfg.tau
        assert cfg.burn_in == 11 * 1e-3
        assert replace(cfg, seed=1).tau == cfg.tau
        assert replace(cfg, seed=1).burn_in == cfg.burn_in
        # The 100-step floor applies to the rounded window.
        assert replace(cfg, dt=1.0, tau=99.6, burn_in=0.0).tau == 100.0

    def test_burn_in_grid_survives_replace(self):
        # fl(n*dt)/dt can miss n by more than 1e-9 past ~4.5e6 steps; such a
        # burn_in still holds n steps, and `replace` never moves the grid.
        def plan(dt, n):
            return SimConfig(dt=dt, tau=100 * dt, n_segments=1, n_trajectories=1,
                             seed=0, burn_in=n * dt)

        cfg = plan(9.1357e-08, 1_030_958_618_452)
        assert round(cfg.burn_in / cfg.dt) == 1_030_958_618_452
        rng = np.random.default_rng(41)
        for _ in range(20_000):
            cfg = plan(10.0 ** rng.uniform(-12.0, 0.0),
                       int(10.0 ** rng.uniform(0.0, 15.9)))
            assert replace(cfg, seed=1).burn_in == cfg.burn_in

    @pytest.mark.parametrize("field", ["tau", "burn_in"])
    @pytest.mark.parametrize("dt, value", [(1.0, 2.0 * MAX_STEPS), (1e-300, 1e10)],
                             ids=["finite-ratio", "overflowing-ratio"])
    def test_refuses_more_than_max_steps(self, field, dt, value):
        times = {"tau": 200.0 * dt, "burn_in": 0.0, field: value}
        with pytest.raises(ParameterError, match=f"{field} = .* MAX_STEPS"):
            SimConfig(dt=dt, n_segments=1, n_trajectories=1, seed=0, **times)

    def test_default_config_is_consistent(self, headline):
        _, model, _ = headline
        cfg = default_sim_config(model)
        burn_steps, _, _ = sde._check_step(model, cfg)
        assert burn_steps * cfg.dt == pytest.approx(cfg.burn_in, rel=1e-12)
        assert cfg.tau >= 100 * cfg.dt
        gamma_m = -0.5 * model.drift[1, 1]
        assert cfg.burn_in >= 5.0 / gamma_m

    def test_non_finite_drift_is_a_numerical_error(self, headline):
        # One stability analysis, `spectra.require_stable`, refuses the nan
        # before numpy's eigensolver would raise LinAlgError.
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=2, n_seg=1)
        drift = model.drift.copy()
        drift[2, 3] = math.nan
        bad = replace(model, drift=drift)
        with pytest.raises(NumericalError, match="non-finite"):
            default_sim_config(bad)
        with pytest.raises(NumericalError, match="non-finite"):
            integrate(bad, noise, cfg)
        for estimator in (estimate_inference_variance, sample_inference_variance):
            with pytest.raises(NumericalError, match="non-finite"):
                estimator(bad, noise, cfg, 0.0, 0.0)


class TestWindowedTransform:
    def test_constant_record(self):
        dt, tau, c = 1e-3, 0.25, 1.7
        n = 1000
        inc = np.zeros((n, 4))
        inc[:, 0] = c * dt
        out = windowed_transform(inc, dt, tau, omega=0.0, phi=0.0)
        assert out.shape == (4, 2)
        assert np.allclose(out[:, 0], c * math.sqrt(tau), rtol=1e-12)
        assert np.allclose(out[:, 1], 0.0)

    def test_phase_projection(self):
        dt, tau, c = 1e-3, 0.2, 2.0
        inc = np.zeros((400, 4))
        inc[:, 3] = c * dt   # y quadrature of mode 2
        out = windowed_transform(inc, dt, tau, omega=0.0, phi=math.pi / 2)
        assert np.allclose(out[:, 1], c * math.sqrt(tau), rtol=1e-12)
        out0 = windowed_transform(inc, dt, tau, omega=0.0, phi=0.0)
        assert np.allclose(out0[:, 1], 0.0)

    def test_sinusoid_at_matching_frequency(self):
        # |transform| -> (sqrt(tau)/2) * amplitude for tau of many periods.
        dt = 1e-4
        w = 2 * math.pi * 50.0
        tau = 1.0   # 50 periods
        t = (np.arange(int(tau / dt)) + 0.5) * dt
        amp = 0.8
        inc = np.zeros((len(t), 4))
        inc[:, 0] = amp * np.cos(w * t) * dt
        out = windowed_transform(inc, dt, tau, omega=w, phi=0.0)
        assert out.dtype.kind == "c"
        assert abs(out[0, 0]) == pytest.approx(amp * math.sqrt(tau) / 2, rel=1e-3)

    def test_white_noise_periodogram_level(self):
        rng = np.random.default_rng(77)
        dt, level = 1e-3, 2.5
        n = 200_000
        inc = np.zeros((n, 4))
        inc[:, 0] = rng.normal(0.0, math.sqrt(level * dt), size=n)
        tau = 200 * dt
        samples = windowed_transform(inc, dt, tau, omega=0.0, phi=0.0)[:, 0]
        est = (samples ** 2).mean()
        std_err = (samples ** 2).std(ddof=1) / math.sqrt(len(samples))
        assert abs(est - level) < 3 * std_err

    def test_record_shorter_than_window(self):
        inc = np.zeros((50, 4))
        with pytest.raises(ParameterError):
            windowed_transform(inc, 1e-3, 0.1)

    @pytest.mark.parametrize("shape", [(400,), (400, 2), (400, 4, 1)])
    def test_record_not_n_by_4_refused(self, shape):
        with pytest.raises(ParameterError, match=re.escape("shape (n_steps, 4)")):
            windowed_transform(np.zeros(shape), 1e-3, 0.1)


def reference_transform(increments, dt, tau, omega, phi):
    """The finite-time transform one step at a time: per window,
    (1/sqrt(tau)) sum_k exp(i omega t_k) X(phi)_k with t_k = (k + 1/2) dt."""
    k_per = round(tau / dt)
    c, s = math.cos(phi), math.sin(phi)
    out = []
    for w in range(len(increments) // k_per):
        total = np.zeros(2, dtype=complex)
        for k in range(k_per):
            x1, y1, x2, y2 = increments[w * k_per + k]
            total += cmath.exp(1j * omega * (k + 0.5) * dt) * np.array(
                [c * x1 + s * y1, c * x2 + s * y2])
        out.append(total / math.sqrt(k_per * dt))
    return np.array(out)


class TestWindowedTransformKernel:
    @pytest.mark.parametrize("omega", [0.0, 37.0, -9.5])
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2])
    def test_matches_per_step_sum(self, omega, phi):
        # Three windows of 701 steps and a ragged tail of 250, which is dropped;
        # at omega = 37 the last step's phase is 26 rad.
        rng = np.random.default_rng(5)
        dt, k_per = 1e-3, 701
        inc = rng.standard_normal((3 * k_per + 250, 4))
        out = windowed_transform(inc, dt, k_per * dt, omega=omega, phi=phi)
        want = reference_transform(inc, dt, k_per * dt, omega, phi)
        assert out.shape == (3, 2)
        if omega == 0.0:
            assert out.dtype == np.float64
            want = want.real
        assert max_rel_diff(out, want) < 1e-12

    @pytest.mark.parametrize("name, value", [
        ("dt", 0.0), ("dt", -1e-3), ("dt", math.nan), ("dt", math.inf),
        ("tau", 0.0), ("tau", -0.1), ("tau", math.nan), ("tau", math.inf),
        ("omega", math.nan), ("omega", math.inf), ("omega", -math.inf),
        ("phi", math.nan), ("phi", math.inf),
    ])
    def test_refuses_bad_inputs(self, name, value):
        args = {"dt": 1e-3, "tau": 0.1, "omega": 5.0, "phi": 0.3, name: value}
        with pytest.raises(ParameterError, match=name):
            windowed_transform(np.zeros((400, 4)), **args)

    def test_refuses_overflowing_window(self):
        # tau / dt overflows to inf: no record holds such a window.
        with pytest.raises(ParameterError, match="shorter than one window"):
            windowed_transform(np.zeros((400, 4)), 1e-300, 1e10)


class TestEstimators:
    def test_empty_cavity_vacuum_level(self, empty_cavity):
        _, model, noise = empty_cavity
        cfg = small_cfg(model, n_traj=32, n_seg=24, tau_lifetimes=250.0, seed=5)
        est = estimate_inference_variance(model, noise, cfg, 0.0, 0.0)
        assert est.n_samples == 32 * 24
        assert est.std_err > 0
        assert abs(est.mean - 1.0) < 3 * est.std_err

    def test_streaming_matches_integrate_plus_windows(self, headline):
        # Same seed: the streaming estimator must reproduce the record-based
        # pipeline (integrate -> windowed_transform -> sample variance).
        params, model, noise = headline
        cfg = small_cfg(model, n_traj=6, n_seg=5, tau_lifetimes=150.0, seed=11)
        gain = 0.4
        est = estimate_inference_variance(model, noise, cfg, 0.0, gain)
        res = integrate(model, noise, cfg)
        burn_steps = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
        vals = []
        for i in range(cfg.n_trajectories):
            zt = windowed_transform(res.increments[i, burn_steps:], cfg.dt,
                                    cfg.tau, omega=0.0, phi=0.0)
            z = zt[:cfg.n_segments, 0] - gain * zt[:cfg.n_segments, 1]
            vals.append(z ** 2)
        manual = np.mean(vals) / params.gamma_c
        assert est.mean == pytest.approx(manual, rel=1e-10)

    def test_seed_determinism(self, headline):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=8, n_seg=4, seed=9)
        a = estimate_inference_variance(model, noise, cfg, 0.0, -0.5)
        b = estimate_inference_variance(model, noise, cfg, 0.0, -0.5)
        assert a == b

    def test_headline_variances_within_three_sigma(self, headline):
        _, model, noise = headline
        ref = epr_lhs(HEADLINE)
        cfg = small_cfg(model, n_traj=48, n_seg=24, tau_lifetimes=800.0, seed=3)
        for phi, want in ((0.0, ref.var_x), (math.pi / 2, ref.var_y)):
            _, gain = inferred_variance_at(model, noise, 0.0, phi)
            est = estimate_inference_variance(model, noise, cfg, phi, gain)
            assert abs(est.mean - want) < 3 * est.std_err

    def test_dt_halving_within_one_standard_error(self, empty_cavity):
        _, model, noise = empty_cavity
        a = estimate_inference_variance(
            model, noise, small_cfg(model, n_traj=40, n_seg=16, seed=13,
                                    dt_frac=0.08), 0.0, 0.0)
        b = estimate_inference_variance(
            model, noise, small_cfg(model, n_traj=40, n_seg=16, seed=14,
                                    dt_frac=0.04), 0.0, 0.0)
        assert abs(a.mean - b.mean) < math.hypot(a.std_err, b.std_err)

    def test_std_err_scaling_with_trajectories(self, empty_cavity):
        _, model, noise = empty_cavity
        est_n = estimate_inference_variance(
            model, noise, small_cfg(model, n_traj=30, n_seg=10, seed=15),
            0.0, 0.0)
        est_4n = estimate_inference_variance(
            model, noise, small_cfg(model, n_traj=120, n_seg=10, seed=16),
            0.0, 0.0)
        ratio = est_n.std_err / est_4n.std_err
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_product_estimate_composition(self, headline):
        _, model, noise = headline
        cfg = small_cfg(model, n_traj=24, n_seg=16, tau_lifetimes=800.0, seed=21)
        est_x, est_y, prod, _ = epr_product_estimate(model, noise, cfg)
        assert prod.mean == pytest.approx(est_x.mean * est_y.mean, rel=1e-12)
        expect_err = math.hypot(est_y.mean * est_x.std_err,
                                est_x.mean * est_y.std_err)
        assert prod.std_err == pytest.approx(expect_err, rel=1e-12)
        ref = epr_lhs(HEADLINE)
        assert abs(prod.mean - ref.lhs) < 3 * prod.std_err
