"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check that inputs follow from the seed alone, that the emitted metric
names are the ones BENCHMARK.json declares, that every workload passes a
reduced-size smoke run, that the traced MACs of one forward pass equal
``model_count_flops``, that op times are scaled by the host-speed samples
around each op, and that the oracle check catches a wrong warp.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import unittest
from pathlib import Path

import run

run.prepare_imports()

import numpy as np

from symtrans import model, oracles
from symtrans.tensor import Tensor
from tracing import Tracer
from workloads import (WORKLOADS, HostSpeed, OpClock, make_session, oracle_warp_at,
                       warp_matches_oracle)

SMOKE_EXTENT = 16


def reduced(workload):
    return dataclasses.replace(workload, extent=SMOKE_EXTENT)


def declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class SeededInputs(unittest.TestCase):
    def prepared(self, workload, seed, work):
        session = make_session(workload, seed, work, OpClock())
        try:
            session.prepare()
            return tree_bytes(session.dir)
        finally:
            session.close()

    def test_same_seed_gives_identical_bytes(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload.name), tempfile.TemporaryDirectory() as tmp:
                small = reduced(workload)
                first = self.prepared(small, 5, Path(tmp) / "a")
                second = self.prepared(small, 5, Path(tmp) / "b")
                other = self.prepared(small, 6, Path(tmp) / "c")
                self.assertTrue(first)
                self.assertEqual(first, second)
                self.assertNotEqual(first, other)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for name in WORKLOADS:
                with self.subTest(name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.main(["--workload", name, "--seed", "3",
                                         "--seconds", "0.5", "--trace", str(trace),
                                         "--extent", str(SMOKE_EXTENT)])
                    self.assertEqual(code, 0)
                    result = json.loads(out.getvalue().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), declared(section))
                    values = {k: m["value"] for k, m in result["metrics"].items()}
                    if trace:
                        self.assertGreaterEqual(values["unattributed.s"], 0.0)
                        self.assertGreater(values["model.forward.s"], 0.0)
                    else:
                        self.assertTrue(all(v > 0 for v in values.values()))


class TracedMacs(unittest.TestCase):
    def test_forward_macs_equal_model_count_flops(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload.name):
                cfg = workload.model_config()
                _, params = model.init_model_params(cfg, np.random.default_rng(0))
                vol = Tensor(np.zeros((1,) + cfg.input_shape, np.float32))
                tracer = Tracer()
                tracer.install()
                tracer.op = 0
                try:
                    model.forward(vol, vol, params, cfg)
                finally:
                    tracer.uninstall()
                counts = tracer.counts[0]
                traced = (counts["ops.conv3d.dw.macs"] + counts["ops.conv3d.other.macs"]
                          + counts["tensor.matmul.macs"])
                self.assertEqual(traced, model.model_count_flops(cfg))
                self.assertEqual(counts["model.forward.macs"], model.model_count_flops(cfg))


class HostSpeedScaling(unittest.TestCase):
    def test_each_op_is_scaled_by_the_samples_on_either_side(self):
        host = HostSpeed()
        ref = host.REFERENCE_S
        host.samples = [ref, ref, 2 * ref, 2 * ref]
        self.assertEqual(host.scaled([1.0, 3.0, 4.0]), [1.0, 2.0, 2.0])

    def test_clock_samples_once_after_every_op(self):
        clock = OpClock()
        clock.host = HostSpeed()
        for _ in range(3):
            clock.begin()
            clock.end(ok=True)
        self.assertEqual(len(clock.host.samples), 3)
        self.assertTrue(all(s > 0 for s in clock.host.samples))


class OracleCheck(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(11)
        self.image = rng.random((1, 6, 7, 5))
        self.field = (rng.normal(size=(3, 6, 7, 5)) * 3).astype(np.float32)

    def test_patch_evaluation_equals_the_whole_volume_oracle(self):
        full = oracles.trilinear_reference(self.image, self.field)
        points = np.argwhere(np.ones(self.image.shape[1:], bool))
        patch = oracle_warp_at(self.image, self.field, points)
        np.testing.assert_array_equal(patch, full[:, points[:, 0], points[:, 1],
                                                  points[:, 2]].T)

    def test_a_wrong_warp_fails_the_check(self):
        warped = oracles.trilinear_reference(self.image, self.field)
        rng = np.random.default_rng(0)
        self.assertTrue(warp_matches_oracle(self.image, self.field, warped, rng))
        warped[0] += 1e-3
        rng = np.random.default_rng(0)
        self.assertFalse(warp_matches_oracle(self.image, self.field, warped, rng))


if __name__ == "__main__":
    unittest.main()
