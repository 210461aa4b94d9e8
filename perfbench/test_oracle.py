"""Tests of the benchmark's oracle: each corrupts a correct report and shows
that the oracle rejects it.

    python3 -m pytest perfbench/test_oracle.py      (or: python3 perfbench/test_oracle.py)
"""

import copy
import unittest

import oracle

S1 = {"name": "S1", "root_system": "A2", "delta": ["a1"],
      "ring": {"kind": "zmod", "n": 4}, "net": {"a2": ["2"]},
      "checks": ["jacobson", "finiteindex", "normal"]}
S1_REPORT = {
    "condition_star": {"holds": True},
    "net": {"a1": "(1)", "-a1": "(1)", "a2": "(2)", "-a2": "(0)",
            "a1+a2": "(2)", "-a1-a2": "(0)"},
    "checks": [
        {"name": "jacobson", "status": "pass", "mode": "exact"},
        {"name": "finiteindex", "status": "pass", "mode": "exact",
         "details": {"S_size": 384, "G_size": 384, "quotient": 1, "factors": 1}},
        {"name": "normal", "status": "pass", "mode": "exact"},
    ],
    "sizes": {"E_hat": 192, "G_sigma": 384, "S_sigma": 384, "full_group": 43008},
}

FULL = {"name": "full", "root_system": "A2", "delta": ["a1"],
        "ring": {"kind": "zmod", "n": 3}, "net": {"a2": ["1"], "-a2": ["1"]},
        "checks": ["normal"]}
FULL_REPORT = {
    "condition_star": {"holds": True},
    "net": {r: "(1)" for r in ("a1", "-a1", "a2", "-a2", "a1+a2", "-a1-a2")},
    "checks": [{"name": "normal", "status": "pass", "mode": "exact"}],
    "sizes": {"E_hat": 5616, "G_sigma": 5616, "S_sigma": 5616, "full_group": 5616},
}

S4P = {"name": "S4p", "root_system": "A3", "delta": ["a1", "a2"],
       "ring": {"kind": "zmod", "n": 4}, "net": {"a3": ["2"], "-a3": ["2"]},
       "checks": [{"name": "standard_commutator", "ideal": ["2"]},
                  "nilpotent_by_abelian"],
       "sample_instances": 1000}
S4P_REPORT = {
    "condition_star": {"holds": True},
    "net": {"a1": "(1)", "a3": "(2)"},
    "checks": [
        {"name": "standard_commutator", "status": "pass", "mode": "sampled(984)"},
        {"name": "nilpotent_by_abelian", "status": "pass", "mode": "sampled(1000)"},
    ],
    "sizes": {"full_group": 660602880},
}


def corrupt(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


class ClosedForm(unittest.TestCase):
    def test_orders(self):
        cases = [
            ("A2", {"kind": "zmod", "n": 4}, 43_008),
            ("A2", {"kind": "polyquot", "p": 2, "modulus": "t^2"}, 43_008),
            ("B2", {"kind": "zmod", "n": 3}, 51_840),
            ("A3", {"kind": "zmod", "n": 2}, 20_160),
            ("A3", {"kind": "zmod", "n": 4}, 660_602_880),
            ("A2", {"kind": "zmod", "n": 3}, 5_616),
            ("A2", {"kind": "product", "factors": [{"kind": "zmod", "n": 2},
                                                   {"kind": "zmod", "n": 3}]}, 168 * 5_616),
        ]
        for rs, ring, want in cases:
            self.assertEqual(oracle.group_order(rs, ring), want, (rs, ring))


class Oracle(unittest.TestCase):
    def rejects(self, spec, report, fragment):
        probs = oracle.check_report(spec, report)
        self.assertTrue(any(fragment in p for p in probs),
                        f"expected a problem with {fragment!r}, got {probs}")

    def test_correct_reports_pass(self):
        for spec, rep in ((S1, S1_REPORT), (FULL, FULL_REPORT), (S4P, S4P_REPORT)):
            self.assertEqual(oracle.check_report(spec, rep), [], spec["name"])

    # (a)
    def test_a_failed_check(self):
        bad = corrupt(S1_REPORT, lambda r: r["checks"][0].update(status="fail"))
        self.rejects(S1, bad, "jacobson is fail")

    def test_a_skipped_check(self):
        bad = corrupt(S1_REPORT, lambda r: r["checks"][2].update(status="skipped"))
        self.rejects(S1, bad, "normal is skipped")

    def test_a_gate(self):
        bad = corrupt(S1_REPORT, lambda r: r["condition_star"].update(holds=False))
        self.rejects(S1, bad, "unit-constant gate")

    def test_a_missing_check(self):
        bad = corrupt(S1_REPORT, lambda r: r["checks"].pop())
        self.rejects(S1, bad, "requested")

    # (b)
    def test_b_wrong_full_group(self):
        bad = corrupt(S1_REPORT, lambda r: r["sizes"].update(full_group=43_007))
        self.rejects(S1, bad, "closed form 43008")

    def test_b_full_group_missing(self):
        bad = corrupt(S4P_REPORT, lambda r: r["sizes"].pop("full_group"))
        self.rejects(S4P, bad, "full_group not reported")

    # (c)
    def test_c_e_hat_not_dividing(self):
        bad = corrupt(S1_REPORT, lambda r: r["sizes"].update(E_hat=191))
        self.rejects(S1, bad, "E_hat 191 does not divide")

    def test_c_g_sigma_not_dividing(self):
        bad = corrupt(S1_REPORT, lambda r: r["sizes"].update(G_sigma=383))
        self.rejects(S1, bad, "G_sigma 383 does not divide")

    def test_c_s_sigma_not_dividing_group(self):
        bad = corrupt(S1_REPORT, lambda r: r["sizes"].update(S_sigma=385 * 192))
        self.rejects(S1, bad, "does not divide |G|")

    def test_c_finiteindex_product(self):
        bad = corrupt(S1_REPORT, lambda r: r["checks"][1]["details"].update(quotient=2))
        self.rejects(S1, bad, "finiteindex S_size")

    # (d)
    def test_d_full_net_proper_subgroup(self):
        bad = corrupt(FULL_REPORT, lambda r: r["sizes"].update(S_sigma=1872, E_hat=1872,
                                                               G_sigma=1872))
        self.rejects(FULL, bad, "full net")

    # (e)
    def test_e_zero_samples(self):
        bad = corrupt(S4P_REPORT, lambda r: r["checks"][0].update(mode="sampled(0)"))
        self.rejects(S4P, bad, "sampled(0)")

    def test_e_more_samples_than_asked(self):
        bad = corrupt(S4P_REPORT, lambda r: r["checks"][1].update(mode="sampled(1001)"))
        self.rejects(S4P, bad, "sampled(1001)")

    def test_e_unlabelled_sampling(self):
        bad = corrupt(S4P_REPORT, lambda r: r["checks"][1].update(mode="sampled"))
        self.rejects(S4P, bad, "unknown mode")

    def test_e_sampling_without_request(self):
        bad = corrupt(S1_REPORT, lambda r: r["checks"][2].update(mode="sampled(5)"))
        self.rejects(S1, bad, "None samples requested")


if __name__ == "__main__":
    unittest.main()
