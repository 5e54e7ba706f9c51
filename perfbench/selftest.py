"""Self-tests of the benchmark: each check rejects a corrupted output, the
tracer's self-time arithmetic adds up, and the reference-loop cost cancels
a uniform slow-down but not a slower operation.

Run from the root of a checkout (about ten seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import unittest
from pathlib import Path

import numpy as np

import worker  # puts the checkout's src tree on sys.path first
import checks
from spans import Span, Tracer, layer_self_times, self_times
from optoepr import cli, criterion, model, spectra
from workloads import HEADLINE, _physical_config

SCRATCH = worker.ROOT / ".perfbench_run" / f"selftest-{os.getpid()}"


def setUpModule():
    SCRATCH.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(SCRATCH)


def _edit_line(path: Path, index: int, edit) -> Path:
    """Copy ``path`` with line ``index`` replaced by ``edit(line)``."""
    lines = path.read_text().split("\n")
    lines[index] = edit(lines[index])
    out = path.with_name(f"corrupt-{path.name}")
    out.write_text("\n".join(lines))
    return out


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        spans = [Span(0, "cli.main", None, 0.0, 10.0),
                 Span(1, "spectra.inferred_variance_at", 0, 1.0, 4.0),
                 Span(2, "spectra.output_response", 1, 2.0, 3.0),
                 Span(3, "model.steady_state", 0, 5.0, 9.0)]
        self.assertEqual(self_times(spans), {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
        layers = layer_self_times(spans)
        self.assertEqual(layers, {"cli": 3.0, "spectra": 3.0, "model": 4.0})
        self.assertEqual(sum(layers.values()), spans[0].duration)

    def test_tracer_nests_spans_and_restores_functions(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        class Module:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Module.inner(x) * 2

        original = Module.outer
        tracer.install([(Module, "outer", "a.outer", None),
                        (Module, "inner", "b.inner",
                         lambda args, kwargs, result: {"seen": result})])
        self.assertEqual(Module.outer(1), 4)
        tracer.uninstall()
        self.assertIs(Module.outer, original)
        outer, inner = tracer.take()
        self.assertEqual((outer.parent, inner.parent), (None, outer.id))
        self.assertEqual((outer.start, inner.start, inner.end, outer.end),
                         (0.0, 1.0, 2.0, 3.0))
        self.assertEqual(inner.notes, {"seen": 2})
        self.assertEqual(layer_self_times([outer, inner]), {"a": 2.0, "b": 1.0})
        self.assertEqual(tracer.spans, [])


class SimulateCheck(unittest.TestCase):
    GOOD = "phi_0_z=0.1\nproduct_analytic=0.703262750434\nwindows=720\nvalidation=pass\n"

    def check(self, text):
        return checks.check_simulate(text, lhs_ref=0.7032627504, windows=720)

    def test_accepts_good_and_rejects_corrupt(self):
        self.assertEqual(self.check(self.GOOD), [])
        for bad in (self.GOOD.replace("=pass", "=fail"),
                    self.GOOD.replace("0.703262750434", "0.703262850434"),
                    self.GOOD.replace("windows=720", "windows=719"),
                    self.GOOD.replace("product_analytic", "product")):
            self.assertTrue(self.check(bad), bad)


class ScanCheck(unittest.TestCase):
    N = 40
    DELTA = 0.18

    @classmethod
    def setUpClass(cls):
        cls.scan, cls.contour = SCRATCH / "scan.csv", SCRATCH / "contour.csv"
        rc = cli.main(["scan", f"--delta={cls.DELTA!r}", "--p-res", str(cls.N),
                       "--t-res", str(cls.N), "--output", str(cls.scan),
                       "--contour", str(cls.contour)])
        assert rc == 0
        cls.axis = np.linspace(0.0, 1.0, cls.N)
        cls.cells = [(3, 30), (20, 5), (39, 39)]

    def check(self, scan=None, contour=None):
        def scalar(p, t):
            return criterion.epr_lhs(model.DimensionlessParams(p, t, self.DELTA)).lhs
        return checks.check_scan(scan or self.scan, contour or self.contour,
                                 delta=self.DELTA, p_axis=self.axis,
                                 t_axis=self.axis, cells=self.cells,
                                 scalar_lhs=scalar)

    def row(self, i, j):
        return 1 + i * self.N + j

    def test_accepts_the_program_output(self):
        self.assertEqual(self.check(), [])
        self.assertGreater(checks.contour_crossings(
            np.loadtxt(self.scan, delimiter=",", skiprows=1, usecols=2)
            .reshape(self.N, self.N)), self.N)

    def test_rejects_a_wrong_sampled_cell(self):
        def nudge(line):
            p, t, lhs, flag = line.split(",")
            return ",".join([p, t, f"{float(lhs) * (1 + 1e-9):.12g}", flag])
        self.assertTrue(self.check(scan=_edit_line(self.scan, self.row(20, 5), nudge)))

    def test_rejects_nan_in_a_valid_cell(self):
        def to_nan(line):
            p, t, _, _ = line.split(",")
            return ",".join([p, t, "nan", "false"])
        self.assertTrue(self.check(scan=_edit_line(self.scan, self.row(7, 7), to_nan)))

    def test_rejects_a_flipped_paradox_flag(self):
        def flip(line):
            head, flag = line.rsplit(",", 1)
            return f"{head},{'false' if flag == 'true' else 'true'}"
        self.assertTrue(self.check(scan=_edit_line(self.scan, self.row(9, 9), flip)))

    def test_rejects_a_dropped_contour_point(self):
        lines = self.contour.read_text().split("\n")
        short = SCRATCH / "short-contour.csv"
        short.write_text("\n".join(lines[:1] + lines[2:]))
        self.assertTrue(self.check(contour=short))

    def test_rejects_a_missing_final_newline(self):
        cut = SCRATCH / "cut-scan.csv"
        cut.write_bytes(self.scan.read_bytes()[:-1])
        self.assertTrue(self.check(scan=cut))


class SpectrumCheck(unittest.TestCase):
    POINTS = 41

    @classmethod
    def setUpClass(cls):
        params, ss = spectra.realize_dimensionless(HEADLINE)
        config = SCRATCH / "realized.cfg"
        config.write_text(_physical_config(params))
        cls.out = SCRATCH / "spectrum.csv"
        span = 8.0 * params.gamma_c
        rc = cli.main(["spectrum", "--config", str(config), f"--omega-min={-span!r}",
                       f"--omega-max={span!r}", "--points", str(cls.POINTS),
                       "--phi=0.0", "--output", str(cls.out)])
        assert rc == 0
        cls.closed_form = criterion.epr_lhs(model.to_dimensionless(params, ss.delta)).var_x

    def check(self, path):
        return checks.check_spectrum(path, points=self.POINTS,
                                     zero_row=self.POINTS // 2,
                                     closed_form=self.closed_form)

    def test_accepts_the_program_output(self):
        self.assertEqual(self.check(self.out), [])

    def test_rejects_a_wrong_carrier_row(self):
        def nudge(line):
            fields = line.split(",")
            fields[4] = f"{float(fields[4]) * (1 + 1e-7):.12g}"
            return ",".join(fields)
        self.assertTrue(self.check(_edit_line(self.out, 1 + self.POINTS // 2, nudge)))

    def test_rejects_a_matrix_that_is_not_psd(self):
        def inflate(line):
            fields = line.split(",")
            fields[2] = f"{2.0 * math.sqrt(float(fields[1]) * float(fields[3])):.12g}"
            return ",".join(fields)
        self.assertTrue(self.check(_edit_line(self.out, 3, inflate)))


class CarrierCheck(unittest.TestCase):
    def test_rejects_a_biased_estimate(self):
        gamma_c, ref = 2e6, 0.4
        samples = np.random.default_rng(5).standard_normal(32) * math.sqrt(ref * gamma_c)
        self.assertEqual(checks.check_carrier(samples, gamma_c, ref), [])
        self.assertTrue(checks.check_carrier(2.0 * samples, gamma_c, ref))


class RepeatCheck(unittest.TestCase):
    def test_a_batch_that_changes_its_output_fails(self):
        op = type("Op", (), {"label": "op", "fn": object(), "argv": None})()

        class Stub:
            ops = [op]
            failed_exit = staticmethod(lambda op, result: None)
            digest = staticmethod(lambda op, result: checks.sha256(result))
            check = staticmethod(lambda op, result: [] if result == b"a" else ["bad"])

        tally = worker.Tally(Stub())
        for output in (b"a", b"a", b"b"):
            tally.record({"op": output})
        tally.check({"op": b"a"})
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        tally = worker.Tally(Stub())
        for output in (b"c", b"c"):
            tally.record({"op": output})
        tally.check({"op": b"c"})
        self.assertEqual((tally.attempted, tally.failed), (2, 2))


class ReferenceCost(unittest.TestCase):
    TIMES = [{"a": 1.0, "b": 0.4}, {"a": 3.0, "b": 0.6}, {"a": 1.2, "b": 0.5}]
    REFS = [{"a": 0.02, "b": 0.02}, {"a": 0.06, "b": 0.03}, {"a": 0.02, "b": 0.02}]

    def test_cost_is_the_sum_of_median_ratios(self):
        # a: ratios 50, 50, 60; b: ratios 20, 20, 25.
        self.assertAlmostEqual(worker.reference_cost(self.TIMES, self.REFS), 70.0)

    def test_a_slow_spell_cancels_and_a_slower_operation_shows(self):
        slow = [{k: 1.5 * v for k, v in b.items()} for b in self.TIMES]
        slow_refs = [{k: 1.5 * v for k, v in b.items()} for b in self.REFS]
        self.assertAlmostEqual(worker.reference_cost(slow, slow_refs), 70.0)
        slower_a = [dict(b, a=2.0 * b["a"]) for b in self.TIMES]
        self.assertAlmostEqual(worker.reference_cost(slower_a, self.REFS), 120.0)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match_the_worker(self):
        spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         worker.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         worker.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(worker.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
