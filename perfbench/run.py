"""optoepr benchmark: one workload, one run, metrics as a JSON last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deterministic --seed 1 --seconds 45 --trace 0

The package is imported from the checkout's ``src`` tree, never from an
installed copy; without it the run fails.  Every process the run starts is
a fresh worker (``perfbench/worker.py``) with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: from just before a worker process starts until its inputs are
  ready (interpreter start, ``import optoepr``, writing the configs), the
  median over SETUP_PROBES set-up-only workers and the measuring worker
  (half of the probes run before the measuring worker and half after, so
  that the median spans two moments of a shared host's drifting speed);
- ``run_ref``: cost of the workload's fixed batch, one operation at a time
  (a closed loop with one client), in units of a fixed pure-Python
  reference loop timed around each operation (see
  ``worker.reference_cost``); the batch's wall time is in the readout;
- ``peak_rss_mb``: peak resident memory of the measuring worker through
  set-up and its first batch;
- ``pass_ratio``: operations that passed over operations attempted.

``--trace 1`` runs untraced and traced batches alternately in one worker
and reports the per-module metrics (see ``worker.PER_LAYER``).  Readout
lines (machine, output digests, off-carrier estimates) come first; the last
line has the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("oracle", "deterministic")
SETUP_PROBES = 12
DEADLINE_S = 170.0   # the whole run, set-up probes included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, phase: str, deadline: float) -> tuple[dict, list[str]]:
    """Start one worker, wait for it, return its JSON result and readout lines."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--t0", repr(t0), "--phase", phase,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{phase} worker did not finish in time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{phase} worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        raise WorkerError(f"{phase} worker printed no result") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "optoepr" / "__init__.py").is_file():
        print(f"benchmark: no optoepr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = [run_worker(args, "setup", deadline)[0]["setup_s"] for _ in range(probes)]
        result, readout = run_worker(args, "run", deadline)
        setup += [run_worker(args, "setup", deadline)[0]["setup_s"] for _ in range(probes)]
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for line in readout:
        print(line)
    setup.append(result.pop("setup_s"))
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
