import json
import subprocess
import sys
from pathlib import Path

import pytest

from chevnet.cli import main as cli_main
from chevnet.verify import (CHECKS, CheckResult, Scenario, ScenarioError,
                            load_config, run_scenario, run_scenarios,
                            strip_timings)

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def mini_scenario(**over):
    raw = {
        "name": "mini",
        "root_system": "A2",
        "delta": ["a1"],
        "ring": {"kind": "zmod", "n": 2},
        "net": {},
        "checks": [],
        "seed": 1,
    }
    raw.update(over)
    return raw


def test_empty_check_list_empty_report(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(mini_scenario()))
    report, code = run_scenarios(p, log=lambda *_: None)
    assert code == 0
    assert report["scenarios"][0]["checks"] == []


def test_scenario_errors():
    with pytest.raises(ScenarioError):
        Scenario(mini_scenario(root_system="Z9"))
    with pytest.raises(ScenarioError):
        Scenario(mini_scenario(ring={"kind": "zmod", "n": 1}))
    with pytest.raises(ScenarioError):
        Scenario(mini_scenario(delta=["a1+a1"]))
    for bad in [dict(delta=5), dict(net=["a2", "2"]), dict(checks="normal"),
                dict(budget=0), dict(budget=-1), dict(sample_instances=0),
                dict(ring={"kind": "polyquot", "p": 0, "modulus": "t^2"}),
                dict(ring={"kind": "polyquot", "p": 1, "modulus": "t^2"})]:
        with pytest.raises(ScenarioError):
            Scenario(mini_scenario(**bad))
    with pytest.raises(ScenarioError):
        Scenario(mini_scenario(), budget_override=0)  # 0 is not "unset"
    scn = Scenario(mini_scenario(checks=["no_such_check"]))
    with pytest.raises(ScenarioError):
        run_scenario(scn)


def test_condition_star_gate_skips_all_checks(tmp_path):
    # B2 with the long-root A1: the opposite long root has no partner, so the
    # unit-constant gate fails for every ring
    raw = mini_scenario(name="gate", root_system="B2", delta=["a1"],
                        ring={"kind": "zmod", "n": 3},
                        checks=["local", "normal", "gauss"])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(raw))
    report, code = run_scenarios(p, log=lambda *_: None)
    assert code == 0  # skips do not fail the run
    scen = report["scenarios"][0]
    assert not scen["condition_star"]["holds"]
    assert scen["condition_star"]["failing_root"]
    assert all(c["status"] == "skipped" and c["reason"] == "(*) fails"
               for c in scen["checks"])


def test_local_check_skipped_on_product_ring(tmp_path):
    raw = mini_scenario(
        name="nonlocal",
        ring={"kind": "product",
              "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]},
        checks=["local"])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(raw))
    report, code = run_scenarios(p, log=lambda *_: None)
    assert code == 0
    chk = report["scenarios"][0]["checks"][0]
    assert chk["status"] == "skipped" and chk["reason"] == "ring not local"


def test_exit_code_on_failure(tmp_path, monkeypatch):
    def always_fail(env, params):
        return CheckResult("doomed", "fail", reason="synthetic",
                           witness={"detail": "injected"})

    monkeypatch.setitem(CHECKS, "doomed", always_fail)
    p = tmp_path / "s.json"
    p.write_text(json.dumps(mini_scenario(checks=["doomed"])))
    report, code = run_scenarios(p, log=lambda *_: None)
    assert code == 1
    chk = report["scenarios"][0]["checks"][0]
    assert chk["status"] == "fail" and chk["witness"]["detail"] == "injected"


def test_strip_timings():
    rep = {"scenarios": [{"checks": [{"name": "x", "millis": 5, "status": "pass"}]}]}
    out = strip_timings(rep)
    assert "millis" not in out["scenarios"][0]["checks"][0]
    assert rep["scenarios"][0]["checks"][0]["millis"] == 5  # original untouched


def test_suite_loader_resolves_nested_paths():
    raws = load_config(SCENARIOS / "suite.json")
    names = [r["name"] for r in raws]
    assert names[0] == "S1" and "S4p" in names and len(names) == 10


def test_cli_tables_and_exit_codes(capsys):
    assert cli_main(["tables", "A2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12  # |summable ordered pairs| in A2
    assert cli_main(["tables", "E8"]) == 2
    assert cli_main(["verify", "/nonexistent.json"]) == 2
    assert cli_main(["verify", str(SCENARIOS / "full_net_F2.json"), "--budget", "0"]) == 2
    assert "budget must be at least 1" in capsys.readouterr().err


def test_cli_net_close(capsys):
    assert cli_main(["net-close", str(SCENARIOS / "S1.json")]) == 0
    out = capsys.readouterr().out
    assert "# S1" in out and "a2: (2)" in out and "-a2: (0)" in out


def test_report_written_and_versioned(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(mini_scenario(checks=["semilocal_G"])))
    rp = tmp_path / "report.json"
    report, code = run_scenarios(p, report_path=rp, log=lambda *_: None)
    assert code == 0
    loaded = json.loads(rp.read_text())
    assert loaded["version"] == 1
    assert loaded["scenarios"][0]["checks"][0]["status"] == "pass"
    assert "sizes" in loaded["scenarios"][0]


def test_numpy_backend_smoke():
    """The pure-numpy fallback must produce the same report."""
    import os
    env = dict(os.environ, CHEVNET_BACKEND="numpy")
    code = subprocess.run(
        [sys.executable, "-m", "chevnet.cli", "verify",
         str(SCENARIOS / "full_net_F2.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert code.returncode == 0, code.stdout + code.stderr
    assert code.stdout.count("PASS") == 3


def test_normal_check_generator_mode_on_large_group(tmp_path):
    """The normality scan conjugates by a derived generating set of S(sigma),
    a complete test at every group order, so its mode is always exact."""
    raw = mini_scenario(name="bigfull", ring={"kind": "zmod", "n": 4},
                        net={"a2": ["1"], "-a2": ["1"]}, checks=["normal"])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(raw))
    report, code = run_scenarios(p, log=lambda *_: None)
    assert code == 0
    chk = report["scenarios"][0]["checks"][0]
    assert chk["status"] == "pass"
    assert chk["mode"] == "exact"
    assert report["scenarios"][0]["sizes"]["S_sigma"] == 43008


def test_budget_override_degrades_to_skip(tmp_path):
    """An impossible element budget skips the check with the budget in the
    reason instead of failing or truncating silently."""
    raw = mini_scenario(name="tiny", ring={"kind": "zmod", "n": 3},
                        checks=["local"])
    p = tmp_path / "s.json"
    p.write_text(json.dumps(raw))
    report, code = run_scenarios(p, budget=10, log=lambda *_: None)
    assert code == 0
    chk = report["scenarios"][0]["checks"][0]
    assert chk["status"] == "skipped" and "budget" in chk["reason"]


def test_seed_override_changes_report_seed(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(mini_scenario(checks=[])))
    report, _ = run_scenarios(p, seed=99, log=lambda *_: None)
    assert report["scenarios"][0]["seed"] == 99


def test_push_tori_front_exact_over_order4_units():
    """The torus-commutation certificate must stay exact on rings whose unit
    group has elements of order > 2 (regression: lambda vs lambda^{-1})."""
    import random

    from chevnet.grp import AdjointGroup, word_inverse
    from chevnet.ringkit import zmod
    from chevnet.rootsys import from_name
    from chevnet.verify import _push_tori_front

    a2 = from_name("A2")
    z5 = zmod(5)
    ctx = AdjointGroup(a2, z5)
    rng = random.Random(2)
    chars_pool = ctx.torus_chars()
    assert any(z5.pow(u, 2) != z5.one for u in z5.unit_indices)
    for _ in range(40):
        toks1 = [("torus", chars_pool[rng.randrange(len(chars_pool))])] + [
            ("x", rng.randrange(a2.nroots), rng.randrange(5)) for _ in range(4)]
        toks2 = [("torus", chars_pool[rng.randrange(len(chars_pool))])] + [
            ("x", rng.randrange(a2.nroots), rng.randrange(5)) for _ in range(4)]
        word = (tuple(toks1) + tuple(toks2)
                + word_inverse(ctx, toks1) + word_inverse(ctx, toks2))
        out = _push_tori_front(ctx, list(word))
        assert out is not None
        assert ctx.evaluate_word(out).tobytes() == ctx.evaluate_word(word).tobytes()


def test_kernel_backends_agree():
    import numpy as np

    from chevnet import _kernels as K
    from chevnet.ringkit import zmod

    if not K.NUMBA_AVAILABLE:
        pytest.skip("numba not importable")
    rng = np.random.default_rng(0)
    r = zmod(6)
    for _ in range(5):
        a = rng.integers(0, 6, size=(4, 4)).astype(np.int32)
        b = rng.integers(0, 6, size=(4, 4)).astype(np.int32)
        batch = rng.integers(0, 6, size=(7, 4, 4)).astype(np.int32)
        v = rng.integers(0, 6, size=4).astype(np.int32)
        for f, g in [(K.numpy_impl.matmul, K.numba_impl.matmul)]:
            assert (f(a, b, r.add, r.mul) == g(a, b, r.add, r.mul)).all()
        assert (K.numpy_impl.matmul_left_batch(a, batch, r.add, r.mul)
                == K.numba_impl.matmul_left_batch(a, batch, r.add, r.mul)).all()
        assert (K.numpy_impl.matmul_right_batch(batch, a, r.add, r.mul)
                == K.numba_impl.matmul_right_batch(batch, a, r.add, r.mul)).all()
        assert (K.numpy_impl.matvec_batch(batch, v, r.add, r.mul)
                == K.numba_impl.matvec_batch(batch, v, r.add, r.mul)).all()
