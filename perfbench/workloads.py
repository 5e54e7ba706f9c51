"""The benchmark workloads: two fixed batches built from four parts.

Each part prepares its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times), lists its operations, and checks an
operation's outputs.  Every batch of a run repeats the same inputs, so
later batches must reproduce the first one's bytes.

The parts, one per route through optoepr:

- simulate_headline: the stochastic oracle (``sde``) through the CLI, at
  the headline point with the CLI's default trajectory count, window and
  seed, one window per trajectory.  The seed stays the default one: the
  oracle's own |z| < 3 gate raises a false alarm on about 0.5 % of seeds.
- records_offcarrier: ``sde.integrate`` with the record materialized, then
  windowed transforms on and off the carrier; loop- and memory-bound.
- scan_contour: ``criterion`` through ``optoepr scan --contour`` at 200x200.
- spectrum_sweep: ``spectra`` through ``optoepr spectrum`` at 2001 points,
  both angles.

The workloads pair them so that every optimisation the roadmap names is
exercised by one workload and skipped by the other: ``oracle`` runs the two
``sde`` parts (exact window sampling, one Euler-Maruyama kernel), and
``deterministic`` runs the ``criterion`` and ``spectra`` parts (a
vectorized paradox_boundary, a batched spectrum).  Two workloads rather
than four buy runs long enough to be steady: on a shared 2-core host the
speed of one process drifts by up to a factor of two, in spells from a
fraction of a second to tens of seconds.  For the same reason every
operation is kept short (0.2 to 1.5 s), so that a run repeats it often
enough for its fastest repeat (see ``worker.fastest_batch_s``) to fall in
an undisturbed spell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from optoepr import cli, criterion, model, sde, spectra
from optoepr.errors import InvalidRegimeError

HEADLINE = model.DimensionlessParams(p_cal=0.17, t_cal=0.1, delta=0.18)
ANGLES = (0.0, math.pi / 2)


@dataclass
class Op:
    """One operation: a CLI call (``argv``) writing ``outputs``, or a library
    call ``fn`` whose return value is the output."""

    label: str
    argv: list[str] | None = None
    outputs: list[Path] = field(default_factory=list)
    fn: Callable[[], object] | None = None

    def run(self):
        if self.fn is not None:
            return self.fn()
        return cli.main(self.argv)


class Workload:
    """A part of a workload, or (as `Combined`) a whole one."""

    spectrum_points = 0   # omega points per batch, for spectra.solves_per_point
    ops: list[Op]

    def failed_exit(self, op: Op, result) -> str | None:
        if op.fn is None and result != cli.EXIT_OK:
            return f"exit code {result}"
        return None

    def output_bytes(self, op: Op, result) -> list[bytes]:
        return [path.read_bytes() for path in op.outputs]

    def digest(self, op: Op, result) -> str:
        return checks.sha256(*self.output_bytes(op, result))

    def check(self, op: Op, result) -> list[str]:
        raise NotImplementedError

    def readout(self, results: dict[str, object]) -> list[str]:
        return []

    def probe(self) -> dict[str, float]:
        """Extra per-layer timings taken after a traced batch, untimed."""
        return {}


class SimulateHeadline(Workload):
    SEGMENTS = 1

    def __init__(self, workdir: Path, rng: np.random.Generator):
        config = workdir / "headline.cfg"
        config.write_text(f"p_cal = {HEADLINE.p_cal!r}\nt_cal = {HEADLINE.t_cal!r}\n"
                          f"delta = {HEADLINE.delta!r}\nsegments = {self.SEGMENTS}\n")
        out = workdir / "simulate.out"
        self.ops = [Op("simulate", ["simulate", "--config", str(config),
                                    "--output", str(out)], [out])]

    def check(self, op, result):
        # The CLI realizes the triple as a physical set; its analytic product
        # is the closed form at the realized detuning.
        params, ss = spectra.realize_dimensionless(HEADLINE)
        lhs = criterion.epr_lhs(model.to_dimensionless(params, ss.delta)).lhs
        # Two angles, each over the default 180 trajectories.
        return checks.check_simulate(op.outputs[0].read_text(encoding="utf-8"),
                                     lhs_ref=lhs, windows=2 * 180 * self.SEGMENTS)


class RecordsOffcarrier(Workload):
    TRAJECTORIES = 4
    SEGMENTS = 3
    OMEGAS = (0.0, 0.5, 1.0)   # sideband frequencies in gamma_c

    def __init__(self, workdir: Path, rng: np.random.Generator):
        params, ss = spectra.realize_dimensionless(HEADLINE)
        self.model = spectra.build_state_space(params, ss)
        self.noise = spectra.noise_psd(params)
        self.gamma_c = params.gamma_c
        self.cfg = sde.default_sim_config(
            self.model, n_trajectories=self.TRAJECTORIES,
            n_segments=self.SEGMENTS, seed=int(rng.integers(2 ** 31)))
        self.burn_steps = math.ceil(self.cfg.burn_in / self.cfg.dt - 1e-9)
        self.ops = [Op("integrate+transform", fn=self._integrate_and_transform)]

    def _integrate_and_transform(self):
        cfg = self.cfg
        record = sde.integrate(self.model, self.noise, cfg)
        transforms = {}
        for w in self.OMEGAS:
            for phi in ANGLES:
                transforms[w, phi] = [
                    sde.windowed_transform(inc[self.burn_steps:], cfg.dt, cfg.tau,
                                           omega=w * self.gamma_c, phi=phi)
                    for inc in record.increments]
        return record, transforms

    def output_bytes(self, op, result):
        record, transforms = result
        return [record.increments.tobytes()] + [
            x.tobytes() for key in sorted(transforms) for x in transforms[key]]

    def _samples(self, transforms, w, phi, noise):
        """Windows of X1 - g X2 with the optimal gain of ``noise`` at w."""
        ref, gain = spectra.inferred_variance_at(self.model, noise, w * self.gamma_c, phi)
        windows = np.concatenate(transforms[w, phi])
        return windows[:, 0] - gain * windows[:, 1], ref

    def check(self, op, result):
        record, transforms = result
        if record.increments.shape[1] != self.burn_steps + self.SEGMENTS * round(
                self.cfg.tau / self.cfg.dt):
            return [f"record has {record.increments.shape[1]} steps"]
        problems = []
        for phi in ANGLES:
            samples, ref = self._samples(transforms, 0.0, phi, self.noise)
            problems += checks.check_carrier(samples, self.gamma_c, ref)
        return problems

    def readout(self, results):
        """Off-carrier estimates against a white-noise reference; not a check.

        The oracle drives the mirror with white force noise at the carrier
        level, so off the carrier it is compared with that white model.
        """
        _, transforms = results["integrate+transform"]
        white = spectra.NoisePsd(vacuum_level=self.gamma_c,
                                 brownian=lambda w: self.noise.brownian(0.0))
        lines = []
        for w in self.OMEGAS[1:]:
            for phi in ANGLES:
                samples, ref = self._samples(transforms, w, phi, white)
                mean, rel_se = checks.window_power(samples, self.gamma_c)
                lines.append(
                    f"offcarrier omega/gamma_c={w} phi={phi:.4f} estimate={mean:.6g} "
                    f"white_reference={ref:.6g} std_err={ref * rel_se:.3g} "
                    f"z={(mean - ref) / (ref * rel_se):.2f} windows={samples.size}")
        return lines


class ScanContour(Workload):
    RESOLUTION = 200
    DRAWN_DELTAS = 1
    SAMPLED_CELLS = 200

    def __init__(self, workdir: Path, rng: np.random.Generator):
        drawn = sorted(float(d) for d in rng.uniform(0.1, 0.5, self.DRAWN_DELTAS))
        self.deltas = [HEADLINE.delta] + drawn
        self.axis = np.linspace(0.0, 1.0, self.RESOLUTION)
        n = self.RESOLUTION
        self.cells = [list(zip(rng.integers(n, size=self.SAMPLED_CELLS).tolist(),
                               rng.integers(n, size=self.SAMPLED_CELLS).tolist()))
                      for _ in self.deltas]
        self.ops = []
        for k, delta in enumerate(self.deltas):
            grid, contour = workdir / f"scan{k}.csv", workdir / f"contour{k}.csv"
            self.ops.append(Op(f"scan{k}", [
                "scan", f"--delta={delta!r}", "--p-res", str(n), "--t-res", str(n),
                "--output", str(grid), "--contour", str(contour)], [grid, contour]))

    def probe(self):
        # The CLI evaluates the grid through a private helper, so the public
        # criterion.scan is timed directly on the same axes.
        start = time.perf_counter()
        for delta in self.deltas:
            criterion.scan((0.0, 1.0), (0.0, 1.0), delta, self.RESOLUTION)
        return {"criterion.grid_s": time.perf_counter() - start}

    def check(self, op, result):
        k = self.ops.index(op)
        delta = self.deltas[k]

        def scalar_lhs(p, t):
            try:
                return criterion.epr_lhs(model.DimensionlessParams(p, t, delta)).lhs
            except InvalidRegimeError:
                return math.nan

        return checks.check_scan(op.outputs[0], op.outputs[1],
                                 delta=delta, p_axis=self.axis, t_axis=self.axis,
                                 cells=self.cells[k], scalar_lhs=scalar_lhs)


class SpectrumSweep(Workload):
    POINTS = 2001          # odd, so omega = 0 is the middle row
    SPAN = 8.0             # omega range, +-SPAN gamma_c
    DRAWN_TRIPLES = 2

    def __init__(self, workdir: Path, rng: np.random.Generator):
        triples = [HEADLINE] + [
            model.DimensionlessParams(p_cal=float(rng.uniform(0.05, 1.5)),
                                      t_cal=float(rng.uniform(0.0, 0.8)),
                                      delta=float(rng.uniform(0.1, 1.0)))
            for _ in range(self.DRAWN_TRIPLES)]
        self.ops, self.closed_forms = [], []
        for k, dp in enumerate(triples):
            params, ss = spectra.realize_dimensionless(dp)
            branch = [r.delta for r in model.steady_state(params)].index(ss.delta)
            config = workdir / f"realized{k}.cfg"
            config.write_text(_physical_config(params))
            ref = criterion.epr_lhs(model.to_dimensionless(params, ss.delta))
            span = self.SPAN * params.gamma_c
            for a, (phi, closed_form) in enumerate(zip(ANGLES, (ref.var_x, ref.var_y))):
                out = workdir / f"spectrum{k}_{a}.csv"
                self.ops.append(Op(f"spectrum{k}_phi{phi:.4f}", [
                    "spectrum", "--config", str(config), f"--omega-min={-span!r}",
                    f"--omega-max={span!r}", "--points", str(self.POINTS),
                    f"--phi={phi!r}", "--branch", str(branch), "--output", str(out)],
                    [out]))
                self.closed_forms.append(closed_form)
        self.spectrum_points = self.POINTS * len(self.ops)

    def check(self, op, result):
        return checks.check_spectrum(
            op.outputs[0], points=self.POINTS, zero_row=self.POINTS // 2,
            closed_form=self.closed_forms[self.ops.index(op)])


def _physical_config(params: model.PhysicalParams) -> str:
    keys = (("mass_kg", params.mass), ("cavity_length_m", params.cavity_length),
            ("omega_m_rad_s", params.omega_m), ("gamma_m_hz", params.gamma_m),
            ("omega_c_rad_s", params.omega_c), ("omega_0_rad_s", params.omega_0),
            ("gamma_c_hz", params.gamma_c), ("temperature_k", params.temperature),
            ("input_power_w", params.input_power))
    return "".join(f"{key} = {value!r}\n" for key, value in keys)


class Combined(Workload):
    """Parts run as one batch; each operation is checked by its own part."""

    def __init__(self, parts: list[Workload]):
        self.parts = parts
        self.ops = [op for part in parts for op in part.ops]
        self._part = {op.label: part for part in parts for op in part.ops}
        self.spectrum_points = sum(part.spectrum_points for part in parts)

    def output_bytes(self, op, result):
        return self._part[op.label].output_bytes(op, result)

    def check(self, op, result):
        return self._part[op.label].check(op, result)

    def readout(self, results):
        return [line for part in self.parts for line in part.readout(results)]

    def probe(self):
        return {k: v for part in self.parts for k, v in part.probe().items()}


WORKLOADS = {"oracle": (SimulateHeadline, RecordsOffcarrier),
             "deterministic": (ScanContour, SpectrumSweep)}


def make_workload(name: str, workdir: Path, rng: np.random.Generator) -> Combined:
    """Set up workload ``name``: its parts draw their inputs from ``rng`` in turn."""
    return Combined([part(workdir, rng) for part in WORKLOADS[name]])
