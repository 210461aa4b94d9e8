"""Theorem-level checkers, the scenario runner, and machine-readable reports.

Every checker returns pass/fail/skipped with a minimal witness; failures
are replayable from the scenario seed.  The unit-constant condition on
structure constants outside Delta (the standing hypothesis of all the
statements being verified) is a gate: when it fails, every check in the
scenario is skipped, the report says so, and the exit status stays 0.

Checks degrade explicitly: when a named budget would be exceeded the
checker either switches to a certified sampling mode (reported as
"sampled(n)") or is skipped with the budget in the reason.  Nothing is
ever silently truncated.
"""

from __future__ import annotations

import gc
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import _kernels as K
from . import gauss as gaussmod
from . import grp
from .chevalg import check_condition_star, compute_structure_constants
from .nets import Net, net_close, net_image, net_intersect_ideal, sigma_from_closed_set
from .ringkit import (FiniteRing, Ideal, RingConfigError, is_field, is_local,
                      jacobson_radical, make_ring, unit_ideal, zero_ideal)
from .rootsys import (ClosedRootSet, RootSystem, RootSystemError, Subsystem,
                      from_name, irreducible_components, subsystem_closure,
                      weyl_subgroup)

REPORT_VERSION = 1
DEFAULT_BUDGET = 200_000
DEFAULT_SAMPLE_INSTANCES = 12_000


class ScenarioError(ValueError):
    """Configuration error (exit code 2)."""


# ---------------------------------------------------------------------------
# scenario model


def _shaped(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ScenarioError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return value


class Scenario:
    def __init__(self, raw: dict, budget_override=None, seed_override=None):
        try:
            self.name = raw["name"]
            self.rs: RootSystem = from_name(raw["root_system"])
            delta_roots = [self.rs.parse_root(e)
                           for e in _shaped(raw["delta"], list, "delta")]
            self.delta = Subsystem(self.rs, subsystem_closure(self.rs, delta_roots))
            self.ring: FiniteRing = make_ring(raw["ring"])
            self.strict = bool(raw.get("strict", False))
            net_spec = _shaped(raw.get("net", {}), dict, "net")
            assignment = {self.rs.parse_root(k): [self.ring.parse(v) for v in vals]
                          for k, vals in net_spec.items()}
            if self.strict:
                sigma = {r: (Ideal.from_gens(self.ring, assignment[r])
                             if r in assignment else zero_ideal(self.ring))
                         for r in range(self.rs.nroots)}
                for r in self.delta.members:
                    sigma[r] = unit_ideal(self.ring)
                self.net = Net(self.rs, self.delta, self.ring, sigma)
            else:
                self.net = net_close(self.rs, self.delta, self.ring, assignment)
            self.checks = [c if isinstance(c, dict) else {"name": c}
                           for c in _shaped(raw.get("checks", []), list, "checks")]
            self.budget = int(budget_override if budget_override is not None
                              else raw.get("budget", DEFAULT_BUDGET))
            self.seed = int(seed_override if seed_override is not None
                            else raw.get("seed", 0))
            self.sample_instances = int(raw.get("sample_instances",
                                                DEFAULT_SAMPLE_INSTANCES))
        except (KeyError, RootSystemError, RingConfigError, ValueError) as e:
            raise ScenarioError(f"bad scenario: {e}") from e
        for what, n in (("budget", self.budget), ("sample_instances", self.sample_instances)):
            if n < 1:
                raise ScenarioError(f"bad scenario: {what} must be at least 1, got {n}")


class CheckResult:
    def __init__(self, name, status, reason=None, witness=None, mode="exact",
                 details=None):
        self.name = name
        self.status = status  # pass | fail | skipped
        self.reason = reason
        self.witness = witness
        self.mode = mode
        self.details = details or {}
        self.millis = 0

    def to_json(self):
        out = {"name": self.name, "status": self.status, "mode": self.mode,
               "millis": self.millis}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


def _mat_json(mat) -> list[list[int]]:
    return [[int(v) for v in row] for row in np.asarray(mat)]


def _word_json(ctx, word):
    if word is None:
        return None
    out = []
    for tok in word:
        if tok[0] == "x":
            out.append(f"x({ctx.rs.root_name(tok[1])};{ctx.ring.name(tok[2])})")
        elif tok[0] == "torus":
            out.append("t(" + ",".join(ctx.ring.name(c) for c in tok[1]) + ")")
        elif tok[0] == "transvection":
            _, r, z, e, x = tok
            out.append(f"tv({ctx.rs.root_name(r)};{ctx.ring.name(z)},{ctx.ring.name(e)},{ctx.ring.name(x)})")
        elif tok[0] == "wlift":
            out.append(f"w({ctx.rs.root_name(tok[1])})")
    return out


def element_witness(ctx, mat, word=None, detail=None):
    out = {"matrix": _mat_json(mat)}
    w = _word_json(ctx, word)
    if w is not None:
        out["word"] = w
    if detail:
        out["detail"] = detail
    return out


# ---------------------------------------------------------------------------
# per-scenario computation environment with lazy caching


class Env:
    def __init__(self, scenario: Scenario):
        self.scn = scenario
        self.rs = scenario.rs
        self.ring = scenario.ring
        self.net = scenario.net
        self.ctx = grp.AdjointGroup(self.rs, self.ring)
        self.sc = self.ctx.sc
        self.budget = scenario.budget
        self.sizes: dict[str, int] = {}
        self._cache: dict[str, object] = {}

    def _get(self, key, builder):
        if key not in self._cache:
            try:
                self._cache[key] = ("ok", builder())
            except grp.BudgetExceeded as e:
                self._cache[key] = ("budget", e)
        tag, val = self._cache[key]
        if tag == "budget":
            raise val
        return val

    @property
    def J(self) -> Ideal:
        return self._get("J", lambda: jacobson_radical(self.ring))

    @property
    def S(self) -> grp.Subgroup:
        sub = self._get("S", lambda: grp.S_sigma(self.ctx, self.net, self.budget))
        self.sizes["S_sigma"] = len(sub)
        return sub

    @property
    def E(self) -> grp.Subgroup:
        sub = self._get("E", lambda: grp.E_sigma(self.ctx, self.net, self.budget))
        self.sizes["E_sigma"] = len(sub)
        return sub

    @property
    def E_hat(self) -> grp.Subgroup:
        sub = self._get("E_hat", lambda: grp.E_hat_sigma(self.ctx, self.net, self.budget))
        self.sizes["E_hat"] = len(sub)
        return sub

    @property
    def G(self) -> grp.Subgroup:
        sub = self._get("G", lambda: self._g_sigma())
        self.sizes["G_sigma"] = len(sub)
        return sub

    def _g_sigma(self):
        sub = grp.G_sigma(self.ctx, self.net, self.budget)
        gens = []
        dec = self.ctx.decomposition()
        if dec.is_local:
            gens = grp.E_sigma_generators(self.ctx, self.net)
            gens += [self.ctx.torus(c) for c in self.ctx.torus_chars()]
        else:
            for k, (fc, factor) in enumerate(zip(self.ctx.factor_contexts(), dec.factors)):
                net_p = net_image(self.net, factor.proj)
                fgens = grp.E_sigma_generators(fc, net_p)
                fgens += [fc.torus(c) for c in fc.torus_chars()]
                for g in fgens:
                    gens.append(grp.GroupElement(self.ctx, self._lift_factor_mat(k, g.mat)))
        sub.generators = [g for g in gens if not g.is_identity()]
        return sub

    def _lift_factor_mat(self, which: int, mat) -> np.ndarray:
        dec = self.ctx.decomposition()
        per = []
        for k, fc in enumerate(self.ctx.factor_contexts()):
            per.append(mat if k == which else fc.identity)
        return grp._combine_factor_sets(self.ctx, dec, [m[None] for m in per])[0]

    @property
    def W_bar(self) -> grp.Subgroup:
        return self._get("W_bar", lambda: grp.W_bar(self.ctx, self.budget))

    @property
    def W_bar_sigma(self) -> grp.Subgroup:
        return self._get("W_bar_sigma",
                         lambda: grp.W_bar_sigma(self.ctx, self.net, self.budget))

    def no_A1_components(self) -> bool:
        return not any(c["is_A1"] for c in irreducible_components(self.scn.delta))

    def parse_ideal(self, gens) -> Ideal:
        if gens == "R":
            return unit_ideal(self.ring)
        return Ideal.from_gens(self.ring, [self.ring.parse(g) for g in gens])

    def e_hat_relative(self, ideal: Ideal) -> grp.Subgroup:
        return self._get(("ehat_rel", ideal.members),
                         lambda: grp.E_hat_relative(self.ctx, self.net, ideal,
                                                    self.budget))

    def prop1_closure(self, ideal: Ideal) -> grp.Subgroup:
        """Conjugated root elements plus transvections, no normal closure."""
        return self._get(("prop1", ideal.members), lambda: grp.generate(
            self.ctx, grp.conjugated_root_elements(self.ctx, self.net, ideal)
            + grp.transvections(self.ctx, self.net, ideal),
            self.budget, what="prop1 closure"))

    def prop2_closure(self, ideal: Ideal) -> grp.Subgroup:
        """Conjugated root elements only (the form valid when Delta has no
        A1 components)."""
        return self._get(("prop2", ideal.members), lambda: grp.generate(
            self.ctx, grp.conjugated_root_elements(self.ctx, self.net, ideal),
            self.budget, what="E(sigma,I)"))


# ---------------------------------------------------------------------------
# individual checks


def check_theorem_jacobson(env: Env, params) -> CheckResult:
    name = "jacobson"
    j = env.J
    left = grp.S_sigma_relative(env.ctx, env.S, j)
    gens = [env.ctx.torus(c) for c in env.ctx.torus_congruence_chars(j)]
    gens += grp.E_sigma_generators(env.ctx, net_intersect_ideal(env.net, j))
    right = grp.generate(env.ctx, gens, env.budget, what="T(R,J)E(sigma cap J)")
    for key in left.keys():
        if key not in right.key2idx:
            i = left.key2idx[key]
            return CheckResult(name, "fail",
                               reason="S(sigma) cap G(R,J) escapes T(R,J)E(sigma cap J)",
                               witness=element_witness(env.ctx, left.mats[i],
                                                       left.word_for(key)))
    for i in range(len(left)):
        chars, coeffs = gaussmod.gauss_extract(env.ctx, left.mats[i], j)
        for root, xi in coeffs.items():
            if xi not in env.net.sigma[root].members or xi not in j.members:
                return CheckResult(
                    name, "fail", reason="extracted coefficient escapes sigma cap J",
                    witness=element_witness(env.ctx, left.mats[i],
                                            detail=f"root {env.rs.root_name(root)}"))
    return CheckResult(name, "pass", details={
        "left_size": len(left), "right_size": len(right)})


def check_theorem_local(env: Env, params) -> CheckResult:
    name = "local"
    if not is_local(env.ring):
        return CheckResult(name, "skipped", reason="ring not local")
    s = env.S
    te = grp.T_E_set(env.ctx, env.net, env.budget)
    wbs = env.W_bar_sigma
    prod = grp.multiply_sets(env.ctx, te, wbs.mats)
    prod_keys = {prod[i].tobytes() for i in range(len(prod))}
    s_keys = set(s.keys())
    if prod_keys - s_keys:
        key = min(prod_keys - s_keys)
        mat = next(prod[i] for i in range(len(prod)) if prod[i].tobytes() == key)
        return CheckResult(name, "fail", reason="T*E(sigma)*Wbar(sigma) escapes S(sigma)",
                           witness=element_witness(env.ctx, mat))
    if s_keys - prod_keys:
        key = min(s_keys - prod_keys)
        i = s.key2idx[key]
        return CheckResult(name, "fail", reason="S(sigma) element outside T*E*Wbar",
                           witness=element_witness(env.ctx, s.mats[i], s.word_for(key)))
    return CheckResult(name, "pass", details={
        "S_size": len(s), "TEW_size": len(prod_keys), "Wbar_sigma": len(wbs),
        "cross_check": "|S| == |T*E*Wbar| == %d" % len(prod_keys)})


def check_theorem_normal(env: Env, params) -> CheckResult:
    name = "normal"
    s = env.S
    ehat = env.E_hat
    for key in ehat.keys():
        if key not in s.key2idx:
            i = ehat.key2idx[key]
            return CheckResult(name, "fail", reason="Ehat(sigma) escapes S(sigma)",
                               witness=element_witness(env.ctx, ehat.mats[i]))
    ok, wit = grp.is_normal_in(env.ctx, ehat, s)
    if not ok:
        c, x = wit["conjugator"], wit["element"]
        return CheckResult(name, "fail", reason="conjugate of Ehat generator escapes Ehat",
                           witness={"conjugator": element_witness(env.ctx, c.mat, c.word),
                                    "generator": element_witness(env.ctx, x.mat, x.word)})
    return CheckResult(name, "pass", details={
        "S_size": len(s), "E_hat_size": len(ehat),
        "conjugators": len(grp.subgroup_generators(s)),
        "gens": len(grp.subgroup_generators(ehat))})


def check_semilocal_G(env: Env, params) -> CheckResult:
    name = "semilocal_G"
    g = env.G
    gens = grp.E_sigma_generators(env.ctx, env.net)
    gens += [env.ctx.torus(c) for c in env.ctx.torus_chars()]
    direct = grp.generate(env.ctx, gens, env.budget, what="T*E(sigma)")
    if set(g.keys()) != set(direct.keys()):
        extra = set(g.keys()) ^ set(direct.keys())
        key = min(extra)
        side = "G(sigma)" if key in g.key2idx else "<T,E(sigma)>"
        mats = g if key in g.key2idx else direct
        return CheckResult(name, "fail",
                           reason=f"G(sigma) != T(R)E(sigma); offending side {side}",
                           witness=element_witness(env.ctx, mats.mats[mats.key2idx[key]]))
    return CheckResult(name, "pass", details={"G_size": len(g)})


def check_theorem_finiteindex(env: Env, params) -> CheckResult:
    name = "finiteindex"
    ctx = env.ctx
    dec = ctx.decomposition()
    s = env.S
    g = env.G
    factors = []
    w_subs = []
    for fc, factor in zip(ctx.factor_contexts(), dec.factors):
        net_p = net_image(env.net, factor.proj)
        s_p = grp.S_sigma(fc, net_p, env.budget)
        te_p = grp.T_E_set(fc, net_p, env.budget)
        te_keys = {te_p[i].tobytes() for i in range(len(te_p))}
        wb_p = grp.W_bar(fc, env.budget)
        wbs_p = grp.W_bar_sigma(fc, net_p, env.budget)
        from .nets import delta_prime as dp
        dprime = dp(env.net, factor.max_ideal)
        sym = dprime.symmetric_part()
        w_sub = {w.perm for w in weyl_subgroup(env.rs, sym)}
        w_subs.append(w_sub)
        # Lemma: TE cap Wbar(sigma_P) == preimage of W(Delta' cap -Delta')
        lhs = set()
        for i in range(len(wbs_p.mats)):
            if wbs_p.mats[i].tobytes() in te_keys:
                lhs.add(wbs_p.mats[i].tobytes())
        rhs = set()
        for i in range(len(wb_p.mats)):
            perm = grp.root_permutation(fc, wb_p.mats[i])
            if perm is None:
                return CheckResult(name, "fail",
                                   reason="Wbar element is not monomial on root lines")
            if perm in w_sub:
                rhs.add(wb_p.mats[i].tobytes())
        if lhs != rhs:
            return CheckResult(name, "fail",
                               reason="TE cap Wbar(sigma) != preimage of W(Delta' cap -Delta')")
        # coset label for every element of S(sigma_P)
        labels = {}
        w_invs = [(w, fc.matrix_inverse(w)) for w in wbs_p.mats]
        for i in range(len(s_p)):
            mat = s_p.mats[i]
            found = []
            for w, winv in w_invs:
                if K.matmul(mat, winv, fc.ring.add, fc.ring.mul).tobytes() in te_keys:
                    found.append(grp.root_permutation(fc, w))
            if not found:
                return CheckResult(name, "fail",
                                   reason="S(sigma_P) element admits no TE*w decomposition",
                                   witness=element_witness(fc, mat))
            cosets = {tuple(sorted(_compose_perm(p, q) for q in w_sub)) for p in found}
            if len(cosets) != 1:
                return CheckResult(name, "fail",
                                   reason="decomposition Weyl parts span several cosets",
                                   witness=element_witness(fc, mat))
            labels[mat.tobytes()] = min(next(iter(cosets)))
        factors.append((factor, labels))
    trivial = tuple(
        labels[_project_mat(env, k, ctx.identity).tobytes()]
        for k, (factor, labels) in enumerate(factors))
    psi = {}
    for i in range(len(s)):
        mat = s.mats[i]
        val = []
        for k, (factor, labels) in enumerate(factors):
            pm = _project_mat(env, k, mat)
            if pm.tobytes() not in labels:
                return CheckResult(name, "fail",
                                   reason="projection of S(sigma) escapes S(sigma_P)",
                                   witness=element_witness(ctx, mat))
            val.append(labels[pm.tobytes()])
        psi[mat.tobytes()] = tuple(val)
    # (i) kernel = G(sigma)
    kernel = {k for k, v in psi.items() if v == trivial}
    if kernel != set(g.keys()):
        extra = kernel ^ set(g.keys())
        key = min(extra)
        return CheckResult(name, "fail", reason="ker(psi) != G(sigma)",
                           witness=element_witness(ctx, s.mats[s.key2idx[key]]))
    # (ii)+(iii) psi-classes are exactly the G(sigma)-cosets
    classes: dict[tuple, set] = {}
    for k, v in psi.items():
        classes.setdefault(v, set()).add(k)
    r = ctx.ring
    for v, members in classes.items():
        rep_key = min(members)
        rep = s.mats[s.key2idx[rep_key]]
        coset = K.matmul_right_batch(g.mats, rep, r.add, r.mul)
        coset_keys = {np.ascontiguousarray(coset[t]).tobytes()
                      for t in range(len(coset))}
        if coset_keys != members:
            return CheckResult(name, "fail",
                               reason="psi fibre is not a single G(sigma)-coset",
                               witness=element_witness(ctx, rep))
    # (iv) normality of G(sigma) in S(sigma)
    ok, wit = grp.is_normal_in(ctx, g, s)
    if not ok:
        return CheckResult(name, "fail", reason="G(sigma) is not normal in S(sigma)",
                           witness=element_witness(ctx, wit["conjugate"].mat))
    # psi is multiplicative: checked on generators times everything, which
    # propagates to all products
    s_gens = grp.subgroup_generators(s)
    for gen in s_gens:
        for i in range(len(s)):
            h = s.mats[i]
            gh = ctx.mm(gen.mat, h)
            for k, (factor, labels) in enumerate(factors):
                pg = labels[_project_mat(env, k, gen.mat).tobytes()]
                ph = labels[_project_mat(env, k, h).tobytes()]
                composed = min(_compose_perm(_compose_perm(pg, ph), q)
                               for q in w_subs[k])
                if labels[_project_mat(env, k, gh).tobytes()] != composed:
                    return CheckResult(name, "fail",
                                       reason="psi is not multiplicative",
                                       witness=element_witness(ctx, gh))
    return CheckResult(name, "pass", details={
        "S_size": len(s), "G_size": len(g), "quotient": len(classes),
        "factors": len(factors)})


def _compose_perm(p, q):
    return tuple(p[x] for x in q)


def _project_mat(env: Env, which: int, mat) -> np.ndarray:
    factor = env.ctx.decomposition().factors[which]
    return np.ascontiguousarray(factor.proj.table[mat], dtype=np.int32)


def check_standard_commutator(env: Env, params) -> CheckResult:
    name = "standard_commutator"
    if not env.no_A1_components():
        return CheckResult(name, "skipped", reason="Delta has A1 components")
    ideal = env.parse_ideal(params.get("ideal", []))
    target_a = env.e_hat_relative(ideal)
    target_b = env.prop2_closure(ideal)
    if set(target_a.keys()) != set(target_b.keys()):
        return CheckResult(name, "fail",
                           reason="normal closure and conjugated-generator forms differ")
    target = target_b
    e_gens = grp.E_sigma_generators(env.ctx, env.net)
    mode = "exact"
    try:
        s_rel = grp.S_sigma_relative(env.ctx, env.S, ideal)
        s_mats = s_rel.mats
    except grp.BudgetExceeded:
        # S(sigma) is out of enumeration reach: sample S(sigma, I) through
        # T(R,I)E(sigma cap I), certifying every sampled element directly
        j = env.J
        if not ideal.members <= j.members:
            return CheckResult(name, "skipped",
                               reason="budget exceeded and I is not inside J")
        gens = [env.ctx.torus(c) for c in env.ctx.torus_congruence_chars(ideal)]
        gens += grp.E_sigma_generators(env.ctx, net_intersect_ideal(env.net, ideal))
        s_rel = grp.generate(env.ctx, gens, env.budget, what="T(R,I)E(sigma cap I)")
        mask = grp.stabilizer_mask(env.ctx, s_rel.mats, env.net)
        cong = grp.CongruenceFilter(env.ctx, ideal).mask(s_rel.mats)
        if not (mask.all() and cong.all()):
            return CheckResult(name, "fail",
                               reason="sampled element fails the S(sigma,I) membership test")
        s_mats = s_rel.mats
        mode = "sampled"
    total = len(s_mats) * len(e_gens)
    if total > env.scn.sample_instances * 20:
        rng = random.Random(env.scn.seed)
        want = max(env.scn.sample_instances // max(len(e_gens), 1), 1)
        pick = sorted(rng.sample(range(len(s_mats)), min(want, len(s_mats))))
        s_mats = s_mats[pick]
        mode = "sampled"
    n = 0
    r = env.ring
    for i in range(len(s_mats)):
        smat = s_mats[i]
        sinv = env.ctx.matrix_inverse(smat)
        for e in e_gens:
            einv = e.inverse()
            comm = env.ctx.mm(env.ctx.mm(smat, e.mat), env.ctx.mm(sinv, einv.mat))
            n += 1
            if comm.tobytes() not in target.key2idx:
                return CheckResult(name, "fail",
                                   reason="[S(sigma,I), E(sigma)] escapes E(sigma,I)",
                                   witness={"s": element_witness(env.ctx, smat),
                                            "e": element_witness(env.ctx, e.mat, e.word)})
    mode = f"sampled({n})" if mode == "sampled" else "exact"
    return CheckResult(name, "pass", mode=mode, details={
        "instances": n, "target_size": len(target), "S_rel_size": int(len(s_mats))})


def check_nilpotent_by_abelian(env: Env, params) -> CheckResult:
    name = "nilpotent_by_abelian"
    if not env.no_A1_components():
        return CheckResult(name, "skipped", reason="Delta has A1 components")
    try:
        g = env.G
        ehat = env.E_hat
        qs = grp.quotient_structure(env.ctx, g, ehat)
        if not qs.is_normal:
            return CheckResult(name, "fail", reason="Ehat(sigma) not normal in G(sigma)")
        if not qs.is_abelian:
            return CheckResult(name, "fail",
                               reason="G(sigma)/Ehat(sigma) is not abelian")
        return CheckResult(name, "pass", details={
            "G_size": len(g), "E_hat_size": len(ehat), "quotient": len(qs),
            "nilpotent": bool(qs.is_nilpotent)})
    except grp.BudgetExceeded:
        return _sampled_abelian_quotient(env, name)


def _sampled_abelian_quotient(env: Env, name: str) -> CheckResult:
    """Certified sampling: commutators of random T*E(sigma) words rewrite to
    explicit E(sigma) words (exact matrix identity), plus an independent
    residue-side membership check."""
    ctx, r = env.ctx, env.ring
    rng = random.Random(env.scn.seed)
    chars_pool = ctx.torus_chars()
    gen_pool = []
    for root in env.rs.gauss_order:
        for xi in sorted(env.net.sigma[root].members):
            if xi:
                gen_pool.append(("x", root, xi))
    j = env.J
    q, rho = ctx.quotient_data(j)
    fc = grp.AdjointGroup(env.rs, q)
    net_res = net_image(env.net, rho)
    e_res = grp.E_sigma(fc, net_res, env.budget)
    n_target = env.scn.sample_instances
    violations = 0
    for trial in range(n_target):
        toks1 = [("torus", chars_pool[rng.randrange(len(chars_pool))])] + [
            gen_pool[rng.randrange(len(gen_pool))] for _ in range(6)]
        toks2 = [("torus", chars_pool[rng.randrange(len(chars_pool))])] + [
            gen_pool[rng.randrange(len(gen_pool))] for _ in range(6)]
        word = (tuple(toks1) + tuple(toks2)
                + grp.word_inverse(ctx, toks1) + grp.word_inverse(ctx, toks2))
        comm = ctx.evaluate_word(word)
        # exact certificate: push tori to the front; they must cancel
        eword = _push_tori_front(ctx, list(word))
        if eword is None:
            violations += 1
        else:
            ok = all(tok[2] in env.net.sigma[tok[1]].members for tok in eword)
            ok = ok and ctx.evaluate_word(eword).tobytes() == comm.tobytes()
            # independent residue-side check
            res = np.ascontiguousarray(rho.table[comm], dtype=np.int32)
            ok = ok and res.tobytes() in e_res.key2idx
            ok = ok and bool(grp.stabilizer_mask(ctx, comm[None], env.net)[0])
            if not ok:
                violations += 1
        if violations:
            return CheckResult(name, "fail",
                               reason="sampled commutator failed the E(sigma) certificate",
                               witness={"word": _word_json(ctx, word), "trial": trial})
    return CheckResult(name, "pass", mode=f"sampled({n_target})",
                       details={"instances": n_target, "residue_E": len(e_res)})


def _push_tori_front(ctx, toks):
    """Collect torus tokens at the back by exact commutation, keeping the
    invariant prefix = (x tokens) * torus(chars); a torus character commutes
    past x_r(u) as torus * x_r(u) = x_r(lam(r) * u) * torus.  Returns the
    pure x-token word if the accumulated torus is trivial, else None."""
    r = ctx.ring
    chars = tuple(r.one for _ in range(ctx.rs.rank))
    out = []
    for tok in toks:
        if tok[0] == "torus":
            chars = gaussmod.merge_chars(ctx, chars, tok[1])
        elif tok[0] == "x":
            lam = gaussmod.char_at_root(ctx, chars, tok[1])
            out.append(("x", tok[1], int(r.mul[lam, tok[2]])))
        else:
            return None
    if chars != tuple(r.one for _ in range(ctx.rs.rank)):
        return None
    return out


def check_relative_generators(env: Env, params) -> CheckResult:
    name = "relative_generators"
    ideal = env.parse_ideal(params.get("ideal", []))
    a = env.e_hat_relative(ideal)
    b = env.prop1_closure(ideal)
    if set(a.keys()) != set(b.keys()):
        key = min(set(a.keys()) ^ set(b.keys()))
        side = a if key in a.key2idx else b
        return CheckResult(name, "fail",
                           reason="normal closure != conjugated-generator subgroup",
                           witness=element_witness(env.ctx, side.mats[side.key2idx[key]]))
    details = {"relative_size": len(a)}
    if env.no_A1_components():
        c = env.prop2_closure(ideal)
        if set(a.keys()) != set(c.keys()):
            return CheckResult(name, "fail",
                               reason="transvection-free generator form differs (no-A1 case)")
        details["prop2_checked"] = 1
    return CheckResult(name, "pass", details=details)


def check_decompose_field(env: Env, params) -> CheckResult:
    name = "decompose_field"
    if not is_field(env.ring):
        return CheckResult(name, "skipped", reason="ring is not a field")
    try:
        roots = [env.rs.parse_root(e) for e in params["delta_prime"]]
    except KeyError:
        raise ScenarioError("decompose_field needs a delta_prime parameter")
    dprime = ClosedRootSet(env.rs, set(roots) | env.scn.delta.members)
    net_p = sigma_from_closed_set(env.rs, env.scn.delta, env.ring, dprime)
    fg = env.ctx.full_group(env.budget)
    mask = grp.stabilizer_mask(env.ctx, fg.mats, net_p)
    s_keys = {fg.mats[i].tobytes() for i in np.nonzero(mask)[0]}
    te = grp.T_E_set(env.ctx, net_p, env.budget)
    wbs = grp.W_bar_sigma(env.ctx, net_p, env.budget)
    prod = grp.multiply_sets(env.ctx, te, wbs.mats)
    prod_keys = {prod[i].tobytes() for i in range(len(prod))}
    if prod_keys != s_keys:
        key = min(prod_keys ^ s_keys)
        return CheckResult(name, "fail",
                           reason="S(sigma_Delta') != (T*E(Delta'))*Wbar(Phi,Delta')",
                           witness={"detail": f"set difference of size "
                                              f"{len(prod_keys ^ s_keys)}"})
    return CheckResult(name, "pass", details={
        "S_size": len(s_keys), "Wbar_sigma": len(wbs)})


def check_gauss(env: Env, params) -> CheckResult:
    name = "gauss"
    j = env.J
    if j.is_zero():
        return CheckResult(name, "skipped", reason="Jacobson radical is zero")
    rng = random.Random(env.scn.seed)
    fam = net_intersect_ideal(env.net, j)
    tc = env.ctx.torus_congruence_chars(j)
    pools = [(root, sorted(fam[root].members)) for root in range(env.rs.nroots)]
    words = int(params.get("words", 100))
    length = int(params.get("length", 10))
    for trial in range(words):
        word = []
        for _ in range(length):
            if rng.random() < 0.3:
                word.append(("torus", tc[rng.randrange(len(tc))]))
            else:
                root, us = pools[rng.randrange(len(pools))]
                word.append(("x", root, us[rng.randrange(len(us))]))
        try:
            chars, coeffs = gaussmod.gauss_rewrite(env.ctx, word, j, net=env.net)
            mat = env.ctx.evaluate_word(word)
            chars2, coeffs2 = gaussmod.gauss_extract(env.ctx, mat, j)
            if chars != chars2 or coeffs != coeffs2:
                raise gaussmod.RewriteError("extraction disagrees with rewriting")
        except (gaussmod.RewriteError, AssertionError) as e:
            return CheckResult(name, "fail", reason=str(e),
                               witness={"word": _word_json(env.ctx, word),
                                        "trial": trial})
    return CheckResult(name, "pass", details={"words": words, "length": length})


CHECKS = {
    "jacobson": check_theorem_jacobson,
    "local": check_theorem_local,
    "normal": check_theorem_normal,
    "finiteindex": check_theorem_finiteindex,
    "semilocal_G": check_semilocal_G,
    "standard_commutator": check_standard_commutator,
    "nilpotent_by_abelian": check_nilpotent_by_abelian,
    "relative_generators": check_relative_generators,
    "decompose_field": check_decompose_field,
    "gauss": check_gauss,
}


# ---------------------------------------------------------------------------
# runner


def run_scenario(scenario: Scenario) -> dict:
    env = Env(scenario)
    sc = compute_structure_constants(scenario.rs)
    star_ok, star_data = check_condition_star(scenario.rs, scenario.delta, sc,
                                              scenario.ring)
    results: list[CheckResult] = []
    if star_ok:
        witness = {scenario.rs.root_name(k): scenario.rs.root_name(v)
                   for k, v in star_data.items()}
        star_json = {"holds": True, "witness_pairs": witness}
    else:
        star_json = {"holds": False,
                     "failing_root": scenario.rs.root_name(star_data)}
    for chk in scenario.checks:
        cname = chk.get("name")
        if cname not in CHECKS:
            raise ScenarioError(f"unknown check {cname!r}")
        t0 = time.perf_counter()
        if not star_ok:
            res = CheckResult(cname, "skipped", reason="(*) fails")
        else:
            try:
                res = CHECKS[cname](env, chk)
            except grp.BudgetExceeded as e:
                res = CheckResult(cname, "skipped", reason=str(e))
            except ScenarioError:
                raise
            except (AssertionError, RuntimeError, ValueError) as e:
                res = CheckResult(cname, "fail", reason=f"internal check error: {e}")
        res.millis = int((time.perf_counter() - t0) * 1000)
        results.append(res)
    if env.ctx._order is not None:
        # scheme-point order, known whenever some check sized the ambient group
        env.sizes["full_group"] = env.ctx._order
    report = {
        "scenario": scenario.name,
        "root_system": f"{scenario.rs.letter}{scenario.rs.rank}",
        "ring": scenario.ring.describe(),
        "net": scenario.net.describe(),
        "seed": scenario.seed,
        "budget": scenario.budget,
        "condition_star": star_json,
        "checks": [r.to_json() for r in results],
        "sizes": {k: int(v) for k, v in sorted(env.sizes.items())},
    }
    # groups point back at their AdjointGroup; free the cycles now, not at gen-2 GC
    del env
    gc.collect()
    return report


def load_config(path: str | Path) -> list[dict]:
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read scenario file {path}: {e}") from e
    if isinstance(raw, dict) and "scenarios" in raw:
        out = []
        for entry in raw["scenarios"]:
            if isinstance(entry, str):
                sub = (p.parent / entry)
                out.extend(load_config(sub))
            else:
                out.append(entry)
        return out
    if isinstance(raw, dict):
        return [raw]
    raise ScenarioError(f"scenario file {path} must hold an object")


def run_scenarios(config_path, report_path=None, seed=None, budget=None,
                  jobs: int = 1, log=print) -> tuple[dict, int]:
    raws = load_config(config_path)
    scenarios = [Scenario(r, budget_override=budget, seed_override=seed)
                 for r in raws]
    if jobs > 1 and len(scenarios) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(run_scenario, scenarios))
    else:
        reports = [run_scenario(s) for s in scenarios]
    report = {"version": REPORT_VERSION, "scenarios": reports}
    any_fail = False
    any_star_fail = False
    for rep in reports:
        if not rep["condition_star"]["holds"]:
            any_star_fail = True
        for chk in rep["checks"]:
            line = f"{rep['scenario']}: {chk['status'].upper():7s} {chk['name']}"
            if chk.get("mode", "exact") != "exact":
                line += f" [{chk['mode']}]"
            if chk.get("reason"):
                line += f" ({chk['reason']})"
            line += f" ({chk['millis']} ms)"
            log(line)
            if chk["status"] == "fail":
                any_fail = True
    if any_star_fail:
        log("warning: at least one scenario failed the unit-constant gate; "
            "its checks were skipped")
    if report_path:
        Path(report_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, (1 if any_fail else 0)


def strip_timings(report: dict) -> dict:
    """Report with volatile timing fields removed (for determinism diffs)."""
    out = json.loads(json.dumps(report))
    for scen in out.get("scenarios", []):
        for chk in scen.get("checks", []):
            chk.pop("millis", None)
    return out
