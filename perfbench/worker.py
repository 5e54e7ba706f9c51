"""One benchmark process: set up a workload, repeat its batch, check, report.

Started by ``perfbench/run.py`` with the BLAS thread variables set to 1.
``--phase setup`` prepares the inputs and reports how long that took since
``--t0`` (a ``time.monotonic`` reading the parent took just before starting
this process; the clock is system-wide).  ``--phase run`` then repeats the
workload's batch until ``--seconds`` have passed (at least MIN_BATCHES
times).  Every repeat must reproduce the first batch's output bytes; the
outputs are checked once, after the last batch.  With ``--trace 1`` the
batches alternate untraced and traced, and the traced ones record spans.

Readout lines go to standard output first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import optoepr  # noqa: E402
from optoepr import cli, criterion, model, sde, spectra  # noqa: E402

from spans import Tracer, layer_self_times  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

MIN_BATCHES = 3      # timed batches per run, untraced mode
MIN_PAIRS = 2        # untraced/traced batch pairs per run, traced mode

END_TO_END = {"setup_s": "s", "run_ref": "ref", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
REFERENCE_LOOP_N = 300_000   # about 20 ms of pure-Python work on a 2-core Xeon

PER_LAYER = {
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "criterion.self_s": "s", "criterion.boundary_s": "s",
    "criterion.boundary_points": "count", "criterion.grid_s": "s",
    "model.self_s": "s", "model.steady_state_s": "s",
    "model.steady_state_calls": "count",
    "spectra.self_s": "s", "spectra.solve_s": "s", "spectra.solve_calls": "count",
    "spectra.solves_per_point": "ratio", "spectra.realize_s": "s",
    "spectra.realize_attempts": "count", "spectra.build_s": "s",
    "sde.self_s": "s", "sde.estimate_s": "s", "sde.traj_steps": "count",
    "sde.traj_step_ns": "ns", "sde.windows": "count", "sde.integrate_s": "s",
    "sde.integrate_step_ns": "ns", "sde.record_mb": "MB", "sde.transform_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


def _check_import() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(optoepr.__file__).resolve().parents:
        raise SystemExit(f"optoepr imported from {optoepr.__file__}, not {src}")


def machine() -> dict[str, object]:
    """Cores, Python, numpy and the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "platform": platform.platform(),
            "threads_env": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _sim_traj_steps(cfg: sde.SimConfig) -> int:
    burn = math.ceil(cfg.burn_in / cfg.dt - 1e-9)
    return cfg.n_trajectories * (burn + cfg.n_segments * round(cfg.tau / cfg.dt))


def _estimate_note(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"traj_steps": _sim_traj_steps(cfg), "windows": result.n_samples}


def _integrate_note(args, kwargs, result):
    inc = result.increments
    return {"traj_steps": inc.shape[0] * inc.shape[1], "record_bytes": inc.nbytes}


def trace_targets():
    """(module, attribute, span name, note) for every public function the
    workloads reach, at each module its callers look it up in."""
    targets = [(cli, "main", "cli.main", None),
               (criterion, "paradox_boundary", "criterion.paradox_boundary",
                lambda a, k, r: {"points": len(r)}),
               (model, "steady_state", "model.steady_state", None),
               (spectra, "steady_state", "model.steady_state", None),
               (sde, "estimate_inference_variance", "sde.estimate_inference_variance",
                _estimate_note),
               (sde, "integrate", "sde.integrate", _integrate_note)]
    for attr in ("realize_dimensionless", "build_state_space", "noise_psd",
                 "output_response", "output_spectral_matrix", "inferred_variance_at"):
        targets.append((spectra, attr, f"spectra.{attr}", None))
    for attr in ("default_sim_config", "epr_product_estimate", "windowed_transform"):
        targets.append((sde, attr, f"sde.{attr}", None))
    return targets


def layer_metrics(spans, wall: float, spectrum_points: int) -> dict[str, float]:
    """Per-layer metrics of one traced batch that took ``wall`` seconds."""
    layer = layer_self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.notes.items():
            notes[f"{s.name}.{key}"] += value
    attempts = sum(1 for s in spans if s.name == "model.steady_state"
                   and s.parent is not None
                   and spans[s.parent].name == "spectra.realize_dimensionless")
    est_steps = notes["sde.estimate_inference_variance.traj_steps"]
    int_steps = notes["sde.integrate.traj_steps"]
    solves = calls["spectra.output_response"]
    return {
        "cli.self_s": layer.get("cli", 0.0),
        "criterion.self_s": layer.get("criterion", 0.0),
        "criterion.boundary_s": total["criterion.paradox_boundary"],
        "criterion.boundary_points": notes["criterion.paradox_boundary.points"],
        "model.self_s": layer.get("model", 0.0),
        "model.steady_state_s": total["model.steady_state"],
        "model.steady_state_calls": calls["model.steady_state"],
        "spectra.self_s": layer.get("spectra", 0.0),
        "spectra.solve_s": total["spectra.output_response"],
        "spectra.solve_calls": solves,
        "spectra.solves_per_point": solves / spectrum_points if spectrum_points else 0.0,
        "spectra.realize_s": total["spectra.realize_dimensionless"],
        "spectra.realize_attempts": attempts,
        "spectra.build_s": total["spectra.build_state_space"],
        "sde.self_s": layer.get("sde", 0.0),
        "sde.estimate_s": total["sde.estimate_inference_variance"],
        "sde.traj_steps": est_steps,
        "sde.traj_step_ns": (total["sde.estimate_inference_variance"] / est_steps * 1e9
                             if est_steps else 0.0),
        "sde.windows": notes["sde.estimate_inference_variance.windows"],
        "sde.integrate_s": total["sde.integrate"],
        "sde.integrate_step_ns": (total["sde.integrate"] / int_steps * 1e9
                                  if int_steps else 0.0),
        "sde.record_mb": notes["sde.integrate.record_bytes"] / 1e6,
        "sde.transform_s": total["sde.windowed_transform"],
        "trace.unattributed_s": wall - sum(layer.values()),
    }


class Tally:
    """Attempted and failed operations of a run.

    Every batch repeats the same inputs, so each operation must reproduce the
    first batch's output bytes.  The outputs are checked once, after the
    timed batches (so that checking does not count in peak memory), on the
    last batch; the verdict holds for every batch with the same digest.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.reproduced: dict[str, int] = defaultdict(int)

    def _fail(self, label: str, problems: list[str], count: int = 1) -> None:
        self.failed += count
        self.problems += [f"{label}: {p}" for p in problems]

    def _digest(self, op, result) -> str | None:
        if self.workload.failed_exit(op, result):
            return None
        return self.workload.digest(op, result)

    def record(self, results) -> None:
        for op in self.workload.ops:
            self.attempted += 1
            result = results[op.label]
            digest = self._digest(op, result)
            if digest is None:
                self._fail(op.label, [self.workload.failed_exit(op, result)])
            elif self.digests.setdefault(op.label, digest) != digest:
                self._fail(op.label, ["output differs from the first batch"])
            else:
                self.reproduced[op.label] += 1

    def check(self, results) -> None:
        for op in self.workload.ops:
            count = self.reproduced[op.label]
            if not count:
                continue
            result = results[op.label]
            if self._digest(op, result) != self.digests[op.label]:
                problems = ["last batch did not reproduce the output; unchecked"]
            else:
                problems = self.workload.check(op, result)
            if problems:
                self._fail(op.label, problems, count)


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that touches no optoepr code."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i
    return time.perf_counter() - start


def run_batch(wl) -> tuple[dict[str, float], dict[str, float], dict[str, object]]:
    """Run every operation once, with the reference loop before each and after
    the last; return per-operation wall times, the mean reference time around
    each operation, and the outputs."""
    times, refs, results = {}, {}, {}
    before = reference_loop()
    for op in wl.ops:
        start = time.perf_counter()
        results[op.label] = op.run()
        times[op.label] = time.perf_counter() - start
        after = reference_loop()
        refs[op.label] = 0.5 * (before + after)
        before = after
    return times, refs, results


def reference_cost(times: list[dict[str, float]], refs: list[dict[str, float]]) -> float:
    """Batch cost in reference-loop units: the sum over operations of the
    median, over the run's repeats, of the operation's wall time divided by
    the reference loop's time around it.

    A shared host's speed drifts by tens of percent in spells from a fraction
    of a second to minutes.  The reference loop, timed right before and after
    each operation, runs at the speed the operation saw, so the ratio cancels
    the slow spells, and the median drops the repeats where the speed changed
    mid-operation.  The reference is fixed code, so a change to optoepr moves
    the ratio in proportion to the operation's time.
    """
    return sum(statistics.median(t[label] / r[label] for t, r in zip(times, refs))
               for label in times[0])


def fastest_batch_s(batches: list[dict[str, float]]) -> float:
    """Batch wall time with each operation at its fastest repeat: the least
    disturbed wall-time reading of the batch, printed in the readout."""
    return sum(min(b[label] for b in batches) for label in batches[0])


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(wl, seconds: float, traced: bool, report: dict) -> dict:
    tally = Tally(wl)
    plain: list[dict[str, float]] = []
    plain_refs: list[dict[str, float]] = []
    traced_times: list[dict[str, float]] = []
    per_batch: list[dict[str, float]] = []
    tracer = Tracer()
    targets = trace_targets()
    peak_rss_mb = None
    start = time.monotonic()
    pair = 0
    while (pair < (MIN_PAIRS if traced else MIN_BATCHES)
           or time.monotonic() - start < seconds):
        # A traced run alternates which side of each pair goes first.
        sides = ((False, True) if pair % 2 == 0 else (True, False)) if traced else (False,)
        for with_trace in sides:
            results = None   # let the previous batch's outputs go first
            if with_trace:
                tracer.install(targets)
            try:
                times, refs, results = run_batch(wl)
            finally:
                tracer.uninstall()
            tally.record(results)
            if peak_rss_mb is None:
                # After one batch: later repeats add only allocator noise.
                peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               * 1024 / 1e6)
            if with_trace:
                spans = tracer.take()
                per_batch.append(layer_metrics(spans, sum(times.values()),
                                               wl.spectrum_points) | wl.probe())
                traced_times.append(times)
                report["spans"] = spans
            else:
                plain.append(times)
                plain_refs.append(refs)
        pair += 1

    tally.check(results)
    for line in wl.readout(results):
        print(line)
    if traced:
        values = {name: statistics.median(b.get(name, 0.0) for b in per_batch)
                  for name in PER_LAYER}
        values["cli.bytes_out"] = sum(path.stat().st_size for op in wl.ops
                                      if op.argv is not None for path in op.outputs)
        values["trace.overhead_s"] = (fastest_batch_s(traced_times)
                                      - fastest_batch_s(plain))
        metrics = _metric_block(values, PER_LAYER)
        wall = statistics.median(sum(t.values()) for t in traced_times)
        print(f"accounting: median traced batch {wall:.4f} s = module self times "
              f"+ {values['trace.unattributed_s']:.6f} s unattributed; "
              f"tracing overhead {values['trace.overhead_s']:.4f} s")
        report["spans"] = [[s.name, s.parent, s.start, s.end, s.notes]
                           for s in report["spans"]]
    else:
        values = {"run_ref": reference_cost(plain, plain_refs), "peak_rss_mb": peak_rss_mb,
                  "pass_ratio": (tally.attempted - tally.failed) / tally.attempted}
        metrics = _metric_block(values, {k: v for k, v in END_TO_END.items()
                                         if k != "setup_s"})
    report.update(untraced_op_s=plain, untraced_ref_s=plain_refs, traced_op_s=traced_times,
                  digests=tally.digests, problems=tally.problems)
    for label, digest in tally.digests.items():
        print(f"digest {label} sha256={digest}")
    for side, batches in (("untraced", plain), ("traced", traced_times)):
        if batches:
            print(f"{side} batches={len(batches)} median_batch_s="
                  f"{statistics.median(sum(b.values()) for b in batches):.4f} "
                  f"fastest_batch_s={fastest_batch_s(batches):.4f}")
    if plain_refs:
        print("reference_loop median_s="
              f"{statistics.median(r for b in plain_refs for r in b.values()):.5f}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_import()

    base = ROOT / ".perfbench_run"
    workdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, workdir, np.random.default_rng(args.seed))
        setup_s = time.monotonic() - args.t0
        if args.phase == "setup":
            result = {"setup_s": setup_s}
        else:
            report = {"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine()}
            print("machine " + json.dumps(report["machine"]))
            result = measure(wl, args.seconds, bool(args.trace), report)
            result["setup_s"] = setup_s
            report["result"] = result
            name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
            (base / name).write_text(json.dumps(report) + "\n")
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
