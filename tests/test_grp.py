import random

import numpy as np
import pytest

from chevnet import _kernels as K
from chevnet.chevalg import LieElement, bracket
from chevnet.grp import (AdjointGroup, BudgetExceeded, CongruenceFilter,
                         E_hat_relative, E_hat_sigma, E_sigma,
                         E_sigma_generators, G_sigma, GroupElement, S_sigma,
                         S_sigma_relative, W_bar, generate, is_normal_in,
                         quotient_structure, root_permutation,
                         subgroup_generators)
from chevnet.nets import full_net, net_close
from chevnet.ringkit import Ideal, jacobson_radical, product, unit_ideal, zmod
from chevnet.rootsys import Subsystem, from_name, subsystem_closure, weyl_group

A2 = from_name("A2")
Z4 = zmod(4)
F2 = zmod(2)
F3 = zmod(3)


def delta_a1(rs=A2):
    return Subsystem(rs, subsystem_closure(rs, [rs.parse_root("a1")]))


def s1_net():
    return net_close(A2, delta_a1(), Z4, {A2.parse_root("a2"): [2]})


@pytest.fixture(scope="module")
def ctx4():
    return AdjointGroup(A2, Z4)


@pytest.fixture(scope="module")
def ctx2():
    return AdjointGroup(A2, F2)


def test_x_gen_zero_is_identity(ctx4):
    for root in range(A2.nroots):
        assert ctx4.x(root, 0).is_identity()


def test_one_parameter_subgroup(ctx4):
    for root in range(A2.nroots):
        for xi in range(4):
            for zeta in range(4):
                lhs = ctx4.x(root, xi) * ctx4.x(root, zeta)
                rhs = ctx4.x(root, int(Z4.add[xi, zeta]))
                assert lhs.key == rhs.key


def test_w_lift_sends_root_vector_to_opposite(ctx4):
    a1 = A2.parse_root("a1")
    w = ctx4.w_lift(a1)
    col = w.mat[:, ctx4.sc.basis_pos[a1]]
    nz = np.nonzero(col)[0]
    assert len(nz) == 1
    assert int(nz[0]) == ctx4.sc.basis_pos[int(A2.neg[a1])]
    assert int(col[nz[0]]) in (Z4.one, int(Z4.neg[Z4.one]))


def test_phi_alpha_elementary_and_diagonal_cases(ctx4):
    a1 = A2.parse_root("a1")
    ident = ctx4.phi_alpha(a1, ((1, 0), (0, 1)))
    assert ident.is_identity()
    for xi in range(4):
        g = ctx4.phi_alpha(a1, ((1, xi), (0, 1)))
        assert g.key == ctx4.x(a1, xi).key
        g2 = ctx4.phi_alpha(a1, ((1, 0), (xi, 1)))
        assert g2.key == ctx4.x(int(A2.neg[a1]), xi).key
    for eps in Z4.unit_indices:
        g = ctx4.phi_alpha(a1, ((eps, 0), (0, int(Z4.inv[eps]))))
        assert g.key == ctx4.h_alpha(a1, eps).key
    with pytest.raises(ValueError):
        ctx4.phi_alpha(a1, ((2, 0), (0, 2)))  # det != 1


def test_phi_alpha_multiplicative_seeded(ctx4):
    rng = random.Random(11)
    a1 = A2.parse_root("a1")
    sl2 = sorted(ctx4._sl2_table().keys())
    for _ in range(50):
        m = sl2[rng.randrange(len(sl2))]
        n = sl2[rng.randrange(len(sl2))]

        def mul2(m, n, r=Z4):
            (a, b), (c, d) = m
            (e, f), (g, h) = n
            return ((int(r.add[r.mul[a, e], r.mul[b, g]]),
                     int(r.add[r.mul[a, f], r.mul[b, h]])),
                    (int(r.add[r.mul[c, e], r.mul[d, g]]),
                     int(r.add[r.mul[c, f], r.mul[d, h]])))

        lhs = ctx4.phi_alpha(a1, m) * ctx4.phi_alpha(a1, n)
        rhs = ctx4.phi_alpha(a1, mul2(m, n))
        assert lhs.key == rhs.key


def test_transvection_special_cases(ctx4):
    a1 = A2.parse_root("a1")
    assert ctx4.transvection(a1, 2, 3, 0).is_identity()
    for xi in range(4):
        t = ctx4.transvection(a1, 1, 0, xi)
        assert t.key == ctx4.x(a1, xi).key


def test_conjugate_transvection_identity_small(ctx4):
    """phi(g) t^{z,h}(xi) phi(g)^{-1} = t^{g(z,h)}(xi), spot-checked here;
    the exhaustive A1-scale version lives in the acceptance suite."""
    a1 = A2.parse_root("a1")
    g = ((1, 1), (0, 1))
    for (z, h, xi) in [(1, 0, 2), (2, 3, 1), (0, 1, 3)]:
        pg = ctx4.phi_alpha(a1, g)
        lhs = pg * ctx4.transvection(a1, z, h, xi) * pg.inverse()
        z1 = int(Z4.add[Z4.mul[1, z], Z4.mul[1, h]])
        h1 = int(Z4.add[Z4.mul[0, z], Z4.mul[1, h]])
        assert lhs.key == ctx4.transvection(a1, z1, h1, xi).key


def test_generate_identity_only(ctx4):
    sub = generate(ctx4, [GroupElement(ctx4, ctx4.identity)], 10)
    assert len(sub) == 1


def test_generate_accepts_raw_matrices(ctx2):
    sub = generate(ctx2, [ctx2.x_mat(A2.parse_root("a1"), 1)], 10)
    assert len(sub) == 2


def test_generate_psl32_order(ctx2):
    order = (2**3 - 1) * (2**3 - 2) * (2**3 - 4)  # |GL(3,2)| = |PSL(3,2)|
    gens = [ctx2.x(r, 1) for r in range(A2.nroots)]
    sub = generate(ctx2, gens, 10**4)
    assert len(sub) == order == 168


def test_generate_involution(ctx2):
    sub = generate(ctx2, [ctx2.x(A2.parse_root("a1"), 1)], 10)
    assert len(sub) == 2


def test_generate_budget_overflow(ctx2):
    with pytest.raises(BudgetExceeded) as exc:
        generate(ctx2, [ctx2.x(r, 1) for r in range(A2.nroots)], 50)
    assert exc.value.partial == 50


def test_generators_are_bracket_automorphisms(ctx4):
    net = s1_net()
    sc = ctx4.sc
    for g in E_sigma_generators(ctx4, net)[:8] + [ctx4.torus((3, 1))]:
        for i in range(sc.dim):
            for j in range(sc.dim):
                x = LieElement(sc, Z4, np.zeros(sc.dim, dtype=np.int32))
                y = LieElement(sc, Z4, np.zeros(sc.dim, dtype=np.int32))
                x.vec[i] = Z4.one
                y.vec[j] = Z4.one
                gx = LieElement(sc, Z4, K.matvec_batch(g.mat[None], x.vec,
                                                       Z4.add, Z4.mul)[0])
                gy = LieElement(sc, Z4, K.matvec_batch(g.mat[None], y.vec,
                                                       Z4.add, Z4.mul)[0])
                lhs = K.matvec_batch(g.mat[None], bracket(x, y).vec,
                                     Z4.add, Z4.mul)[0]
                assert (lhs == bracket(gx, gy).vec).all()


def test_subgroup_inclusion_chain_s1(ctx4):
    net = s1_net()
    budget = 200_000
    e = E_sigma(ctx4, net, budget)
    eh = E_hat_sigma(ctx4, net, budget)
    s = S_sigma(ctx4, net, budget)
    g = G_sigma(ctx4, net, budget)
    fg = ctx4.full_group(budget)
    assert set(e.keys()) <= set(eh.keys()) <= set(g.keys()) <= set(s.keys())
    assert set(s.keys()) <= set(fg.keys())


def test_full_group_order_matches_enumeration(ctx4, ctx2):
    assert ctx4.full_group_order(200_000) == len(ctx4.full_group(200_000)) == 43008
    assert ctx2.full_group_order(200_000) == 168
    fe_ctx = AdjointGroup(A2, product([F2, F3]))
    assert fe_ctx.full_group_order(200_000) == 168 * 5616
    # dual-number ring: residue order times congruence-kernel order
    from chevnet.ringkit import polyquot
    eps_ctx = AdjointGroup(A2, polyquot(2, "t^2"))
    assert eps_ctx.full_group_order(200_000) == len(eps_ctx.full_group(200_000)) == 43008


def test_torus_normalizes_E(ctx4):
    net = s1_net()
    e = E_sigma(ctx4, net, 10**5)
    for chars in ctx4.torus_chars():
        t = ctx4.torus(chars)
        tinv = t.inverse()
        for gen in E_sigma_generators(ctx4, net)[:6]:
            conj = t * gen * tinv
            assert conj.key in e.key2idx


def test_congruence_filter(ctx4):
    j = jacobson_radical(Z4)
    filt = CongruenceFilter(ctx4, j)
    assert filt.is_member(ctx4.identity)
    assert filt.is_member(ctx4.x_mat(A2.parse_root("a2"), 2))
    assert not filt.is_member(ctx4.x_mat(A2.parse_root("a2"), 1))
    everything = CongruenceFilter(ctx4, unit_ideal(Z4))
    assert everything.is_member(ctx4.x_mat(A2.parse_root("a2"), 1))
    nothing = CongruenceFilter(ctx4, Ideal.from_gens(Z4, []))
    assert nothing.is_member(ctx4.identity)
    assert not nothing.is_member(ctx4.x_mat(A2.parse_root("a2"), 2))


def test_torus_congruence(ctx4):
    j = jacobson_radical(Z4)
    chars = ctx4.torus_congruence_chars(j)
    assert set(chars) == {(1, 1), (1, 3), (3, 1), (3, 3)}
    assert ctx4.torus_congruence_chars(Ideal.from_gens(Z4, [])) == [(1, 1)]


def test_s_sigma_relative(ctx4):
    net = s1_net()
    s = S_sigma(ctx4, net, 200_000)
    j = jacobson_radical(Z4)
    rel = S_sigma_relative(ctx4, s, j)
    filt = CongruenceFilter(ctx4, j)
    assert all(filt.is_member(rel.mats[i]) for i in range(len(rel)))
    assert set(rel.keys()) <= set(s.keys())
    everything = S_sigma_relative(ctx4, s, unit_ideal(Z4))
    assert len(everything) == len(s)
    nothing = S_sigma_relative(ctx4, s, Ideal.from_gens(Z4, []))
    assert len(nothing) == 1


def test_quotient_trivial():
    ctx = AdjointGroup(A2, F2)
    sub = generate(ctx, [ctx.x(r, 1) for r in range(A2.nroots)], 10**4)
    qs = quotient_structure(ctx, sub, sub)
    assert len(qs) == 1 and qs.is_normal and qs.is_abelian and qs.is_nilpotent


def test_quotient_wbar_by_torus_part():
    ctx = AdjointGroup(A2, F3)
    wb = W_bar(ctx, 10**4)
    neg1 = int(F3.neg[F3.one])
    tor_gens = [ctx.torus(c) for c in [(neg1, 1), (1, neg1), (neg1, neg1)]]
    tor = generate(ctx, tor_gens, 10**4)
    assert set(tor.keys()) <= set(wb.keys())
    qs = quotient_structure(ctx, wb, tor)
    assert qs.is_normal and len(qs) == len(weyl_group(A2)) == 6


def test_wbar_surjects_onto_weyl_with_toric_kernel():
    ctx = AdjointGroup(A2, F3)
    wb = W_bar(ctx, 10**4)
    perms = set()
    for i in range(len(wb)):
        perm = root_permutation(ctx, wb.mats[i])
        assert perm is not None
        perms.add(perm)
        if perm == tuple(range(A2.nroots)):
            # kernel element: must be diagonal (a torus character)
            off = wb.mats[i].copy()
            np.fill_diagonal(off, 0)
            assert not off.any()
    assert perms == {w.perm for w in weyl_group(A2)}


def test_e_hat_relative_trivial_and_full(ctx4):
    net = s1_net()
    zero = Ideal.from_gens(Z4, [])
    sub = E_hat_relative(ctx4, net, zero, 10**5)
    assert len(sub) == 1
    full = E_hat_relative(ctx4, net, unit_ideal(Z4), 10**5)
    eh = E_hat_sigma(ctx4, net, 10**5)
    assert set(eh.keys()) == set(full.keys())


def test_lemma13_no_a1_components_transvections_superfluous():
    rs = from_name("A3")
    ctx = AdjointGroup(rs, F2)
    delta = Subsystem(rs, subsystem_closure(
        rs, [rs.parse_root("a1"), rs.parse_root("a2")]))
    net = net_close(rs, delta, F2, {})
    e = E_sigma(ctx, net, 10**5)
    eh = E_hat_sigma(ctx, net, 10**5)
    assert set(e.keys()) == set(eh.keys())


def test_stabilizer_set_closed_under_inversion(ctx4):
    """One-sided image containment suffices on a finite carrier: the
    resulting set is closed under inversion."""
    from chevnet.grp import stabilizer_mask

    net = s1_net()
    fg = ctx4.full_group(200_000)
    mask = stabilizer_mask(ctx4, fg.mats, net)
    keys = {fg.mats[i].tobytes() for i in np.nonzero(mask)[0]}
    for i in np.nonzero(mask)[0]:
        inv = ctx4.matrix_inverse(fg.mats[i])
        assert inv.tobytes() in keys


def test_s_sigma_full_net_is_full_group():
    ctx = AdjointGroup(A2, F3)
    net = full_net(A2, delta_a1(), F3)
    s = S_sigma(ctx, net, 10**5)
    assert len(s) == len(ctx.full_group(10**5)) == 5616


def test_is_normal_in_and_generators():
    ctx = AdjointGroup(A2, F2)
    fg = ctx.full_group(10**4)
    e = generate(ctx, [ctx.x(r, 1) for r in range(A2.nroots)], 10**4)
    ok, wit = is_normal_in(ctx, e, fg)
    assert ok and wit is None  # E = full group here
    a1 = A2.parse_root("a1")
    root_group = generate(ctx, [ctx.x(a1, 1)], 10**4)
    ok, wit = is_normal_in(ctx, root_group, fg)
    assert not ok
    assert wit["conjugate"].key not in root_group.key2idx
    c, n = wit["conjugator"], wit["element"]
    assert (c * n * c.inverse()).key == wit["conjugate"].key
    gens = subgroup_generators(fg)
    regen = generate(ctx, gens, 10**4)
    assert len(regen) == len(fg)


def test_local_ring_is_its_own_factor_context(ctx4):
    factors = ctx4.factor_contexts()
    assert len(factors) == 1 and factors[0] is ctx4


def test_dump_lines_sorted_deterministic(ctx2):
    sub = generate(ctx2, [ctx2.x(A2.parse_root("a1"), 1)], 10)
    lines = sub.dump_lines()
    assert lines == sorted(lines, key=lambda s: [int(v) for v in s.split()]) or \
        lines == sub.dump_lines()
    assert len(lines) == len(sub)


def test_product_ring_pullback_matches_factor_product():
    from chevnet.nets import net_image
    from chevnet.ringkit import local_decomposition

    pr = product([F2, F3])
    ctx = AdjointGroup(A2, pr)
    d = Subsystem(A2, subsystem_closure(A2, [A2.parse_root("a1")]))
    net = net_close(A2, d, pr, {A2.parse_root("a2"): [pr.parse("(0,1)")]})
    s = S_sigma(ctx, net, 200_000)
    e = E_sigma(ctx, net, 200_000)
    assert set(e.keys()) <= set(s.keys())
    sizes = []
    for fc, f in zip(ctx.factor_contexts(), local_decomposition(pr).factors):
        sizes.append(len(S_sigma(fc, net_image(net, f.proj), 200_000)))
    assert len(s) == sizes[0] * sizes[1] == 6 * 432
    # every combined element stabilizes L(sigma) by the direct definition
    from chevnet.grp import stabilizer_mask
    assert stabilizer_mask(ctx, s.mats, net).all()
