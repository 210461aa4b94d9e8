"""Tests of the tracer: a traced run survives a wrapped function that is gone,
and uninstalling puts every original back.

    python3 -m pytest perfbench/test_tracer.py      (or: python3 perfbench/test_tracer.py)
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chevnet import grp, verify  # noqa: E402

from tracer import Tracer  # noqa: E402

SMALL = {"name": "full_net_A2_F2", "root_system": "A2", "delta": ["a1"],
         "ring": {"kind": "zmod", "n": 2}, "net": {"a2": ["1"], "-a2": ["1"]},
         "checks": ["normal"]}


class TracerTest(unittest.TestCase):
    def test_missing_target_is_absent_and_run_goes_on(self):
        gone_fn = grp.multiply_sets
        gone_check = verify.CHECKS.pop("gauss")
        del grp.multiply_sets
        tracer = Tracer()
        try:
            tracer.install()
            report = verify.run_scenario(verify.Scenario(SMALL))
        finally:
            tracer.uninstall()
            grp.multiply_sets = gone_fn
            verify.CHECKS["gauss"] = gone_check
        self.assertEqual(report["checks"][0]["status"], "pass")
        self.assertIn("grp.multiply_sets", tracer.absent)
        self.assertIn("verify.CHECKS['gauss']", tracer.absent)
        metrics = tracer.metrics()
        self.assertNotIn("grp.multiply_sets.s", metrics)
        self.assertNotIn("verify.check.gauss.s", metrics)
        self.assertGreater(metrics["grp.generate.calls"][0], 0)
        self.assertGreater(metrics["kernels.matmul.calls"][0], 0)
        self.assertGreater(metrics["verify.check.normal.s"][0], 0)

    def test_uninstall_restores_originals(self):
        before = (grp.generate, verify.grp.generate, grp.AdjointGroup.matrix_inverse,
                  verify.CHECKS["normal"], verify.net_close)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(grp.generate, before[0])
        self.assertIsNot(verify.net_close, before[4])
        tracer.uninstall()
        after = (grp.generate, verify.grp.generate, grp.AdjointGroup.matrix_inverse,
                 verify.CHECKS["normal"], verify.net_close)
        for a, b in zip(before, after):
            self.assertIs(a, b)


if __name__ == "__main__":
    unittest.main()
