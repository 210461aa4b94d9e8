"""Adjoint group machinery: generators, subgroup enumeration, net subgroups.

Group elements ARE their adjoint matrices over the (table-encoded) ring,
acting on the Chevalley basis in the fixed order h_1..h_l then roots in
gauss_order.  Equality is matrix equality; subgroups are materialized
hash sets with BFS words kept for witnesses.

Enumeration is exact and budgeted.  Over a product ring the stabilizer
and net subgroups are assembled from the local factors (projection onto
a local factor is the finite-ring stand-in for localisation), which
keeps the ambient group out of memory when it is too large to walk.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import _kernels as K
from .chevalg import LSigma, StructureConstants, compute_structure_constants
from .nets import Net, net_image, net_intersect_ideal
from .ringkit import (FiniteRing, Ideal, LocalDecomposition,
                      local_decomposition, quotient_ring, unit_ideal)
from .rootsys import RootSystem


class BudgetExceeded(RuntimeError):
    def __init__(self, partial: int, what: str = "subgroup"):
        super().__init__(f"{what} enumeration exceeded budget at {partial} elements")
        self.partial = partial


class FactorizationError(RuntimeError):
    """A 2x2 unimodular matrix did not factor into elementaries."""


# ---------------------------------------------------------------------------
# tokens and words


def token_inverse(ctx: "AdjointGroup", tok):
    kind = tok[0]
    r = ctx.ring
    if kind == "x":
        return [("x", tok[1], int(r.neg[tok[2]]))]
    if kind == "torus":
        return [("torus", tuple(int(r.inv[c]) for c in tok[1]))]
    if kind == "transvection":
        _, root, zeta, eta, xi = tok
        return [("transvection", root, zeta, eta, int(r.neg[xi]))]
    if kind == "wlift":
        root = tok[1]
        one, neg1 = r.one, int(r.neg[r.one])
        nroot = int(ctx.rs.neg[tok[1]])
        return [("x", root, neg1), ("x", nroot, one), ("x", root, neg1)]
    raise ValueError(f"unknown token {tok!r}")


def word_inverse(ctx: "AdjointGroup", word):
    out = []
    for tok in reversed(word):
        out.extend(token_inverse(ctx, tok))
    return tuple(out)


class GroupElement:
    """An invertible adjoint matrix with an optional generator word."""

    __slots__ = ("ctx", "mat", "word", "_key")

    def __init__(self, ctx: "AdjointGroup", mat: np.ndarray, word=None):
        self.ctx = ctx
        self.mat = np.ascontiguousarray(mat, dtype=np.int32)
        self.word = tuple(word) if word is not None else None
        self._key = None

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = self.mat.tobytes()
        return self._key

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        mat = K.matmul(self.mat, other.mat, self.ctx.ring.add, self.ctx.ring.mul)
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return GroupElement(self.ctx, mat, word)

    def inverse(self) -> "GroupElement":
        if self.word is not None:
            w = word_inverse(self.ctx, self.word)
            return GroupElement(self.ctx, self.ctx.evaluate_word(w), w)
        return GroupElement(self.ctx, self.ctx.matrix_inverse(self.mat))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def is_identity(self) -> bool:
        return self.key == self.ctx.identity_key


class Subgroup:
    """Canonically ordered element set plus the generators that built it."""

    def __init__(self, ctx: "AdjointGroup", mats: np.ndarray, generators,
                 words: dict[bytes, tuple] | None = None):
        self.ctx = ctx
        self.ring = ctx.ring
        mats = np.ascontiguousarray(mats, dtype=np.int32)
        keys = [mats[i].tobytes() for i in range(len(mats))]
        order = sorted(range(len(mats)), key=keys.__getitem__)
        self.mats = np.ascontiguousarray(mats[order]) if len(mats) else mats
        self.key2idx = {self.mats[i].tobytes(): i for i in range(len(self.mats))}
        self.generators = list(generators)
        self.words = words or {}

    def __len__(self):
        return len(self.mats)

    def __contains__(self, g) -> bool:
        key = g.key if isinstance(g, GroupElement) else (
            g if isinstance(g, bytes) else np.ascontiguousarray(g, dtype=np.int32).tobytes())
        return key in self.key2idx

    def keys(self):
        return self.key2idx.keys()

    def word_for(self, key: bytes):
        return self.words.get(key)

    def dump_lines(self) -> list[str]:
        """Diff-able textual dump: one matrix per line, canonical order."""
        return [" ".join(str(int(v)) for v in m.ravel()) for m in self.mats]


# ---------------------------------------------------------------------------
# the ambient group context


class AdjointGroup:
    """G(Phi, R) in its adjoint representation over a finite ring."""

    def __init__(self, rs: RootSystem, ring: FiniteRing):
        self.rs = rs
        self.ring = ring
        self.sc: StructureConstants = compute_structure_constants(rs)
        self.dim = self.sc.dim
        ident = np.zeros((self.dim, self.dim), dtype=np.int32)
        np.fill_diagonal(ident, ring.one)
        self.identity = np.ascontiguousarray(ident)
        self.identity_key = self.identity.tobytes()
        self._x_cache: dict[tuple[int, int], np.ndarray] = {}
        self._torus_cache: dict[tuple, np.ndarray] = {}
        self._sl2_words: dict[tuple, tuple] | None = None
        self._full: Subgroup | None = None
        self._decomp: LocalDecomposition | None = None
        self._factor_ctx: list[AdjointGroup] | None = None
        self._quotients: dict[frozenset, tuple] = {}
        self._residue_ctx: AdjointGroup | None = None
        self._order: int | None = None

    # -- scalars / helpers ----------------------------------------------------

    def mm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return K.matmul(a, b, self.ring.add, self.ring.mul)

    def matrix_inverse(self, mat: np.ndarray) -> np.ndarray:
        cur = mat
        prev = self.identity
        for _ in range(10**6):
            if cur.tobytes() == self.identity_key:
                return prev
            prev = cur
            cur = self.mm(cur, mat)
        raise RuntimeError("element order overflow while inverting")

    def decomposition(self) -> LocalDecomposition:
        if self._decomp is None:
            self._decomp = local_decomposition(self.ring)
        return self._decomp

    def factor_contexts(self) -> list["AdjointGroup"]:
        """One context per local factor; a local ring is its own only factor,
        so its groups are enumerated once."""
        if self._factor_ctx is None:
            dec = self.decomposition()
            self._factor_ctx = [self] if dec.is_local else [
                AdjointGroup(self.rs, f.ring) for f in dec.factors]
        return self._factor_ctx

    def quotient_data(self, ideal: Ideal):
        key = ideal.members
        got = self._quotients.get(key)
        if got is None:
            q, rho = quotient_ring(self.ring, ideal)
            got = (q, rho)
            self._quotients[key] = got
        return got

    # -- generators -------------------------------------------------------------

    def x_mat(self, root: int, xi: int) -> np.ndarray:
        got = self._x_cache.get((root, xi))
        if got is None:
            got = self.sc.template(root).evaluate(self.ring, xi)
            self._x_cache[(root, xi)] = got
        return got

    def x(self, root: int, xi: int) -> GroupElement:
        return GroupElement(self, self.x_mat(root, xi), [("x", root, int(xi))])

    def torus_mat(self, chars: tuple[int, ...]) -> np.ndarray:
        chars = tuple(int(c) for c in chars)
        got = self._torus_cache.get(chars)
        if got is None:
            r = self.ring
            for c in chars:
                if not r.units[c]:
                    raise ValueError("torus character entries must be units")
            diag = np.empty(self.dim, dtype=np.int32)
            diag[: self.rs.rank] = r.one
            for root, pos in self.sc.basis_pos.items():
                v = r.one
                for i, m in enumerate(self.rs.roots[root]):
                    v = int(r.mul[v, r.pow(chars[i], m)])
                diag[pos] = v
            got = np.zeros((self.dim, self.dim), dtype=np.int32)
            np.fill_diagonal(got, diag)
            got = np.ascontiguousarray(got)
            self._torus_cache[chars] = got
        return got

    def torus(self, chars) -> GroupElement:
        chars = tuple(int(c) for c in chars)
        return GroupElement(self, self.torus_mat(chars), [("torus", chars)])

    def torus_chars(self) -> list[tuple[int, ...]]:
        """All torus characters (tuples of units)."""
        return list(itertools.product(self.ring.unit_indices, repeat=self.rs.rank))

    def torus_congruence_chars(self, ideal: Ideal) -> list[tuple[int, ...]]:
        """Characters with every entry in 1 + I."""
        r = self.ring
        ok = [u for u in r.unit_indices if int(r.add[u, r.neg[r.one]]) in ideal]
        return list(itertools.product(ok, repeat=self.rs.rank))

    def h_alpha(self, root: int, eps: int) -> GroupElement:
        r = self.ring
        if not r.units[eps]:
            raise ValueError("h_alpha requires a unit")
        chars = tuple(r.pow(eps, self.rs.pairing(self.rs.simple[i], root))
                      for i in range(self.rs.rank))
        return self.torus(chars)

    def w_lift(self, root: int) -> GroupElement:
        r = self.ring
        one, neg1 = r.one, int(r.neg[r.one])
        nroot = int(self.rs.neg[root])
        mat = self.mm(self.mm(self.x_mat(root, one), self.x_mat(nroot, neg1)),
                      self.x_mat(root, one))
        return GroupElement(self, mat, [("wlift", root)])

    def evaluate_word(self, word) -> np.ndarray:
        out = self.identity
        for tok in word:
            kind = tok[0]
            if kind == "x":
                m = self.x_mat(tok[1], tok[2])
            elif kind == "torus":
                m = self.torus_mat(tok[1])
            elif kind == "transvection":
                m = self.transvection(tok[1], tok[2], tok[3], tok[4]).mat
            elif kind == "wlift":
                m = self.w_lift(tok[1]).mat
            else:
                raise ValueError(f"unknown token {tok!r}")
            out = self.mm(out, m)
        return out

    # -- SL2 images ---------------------------------------------------------------

    def _sl2_table(self):
        """BFS factorization of SL(2,R) into elementary 2x2 words."""
        if self._sl2_words is not None:
            return self._sl2_words
        r = self.ring
        one, zero = r.one, 0

        def mul2(m, n):
            (a, b), (c, d) = m
            (e, f), (g, h) = n
            return (
                (int(r.add[r.mul[a, e], r.mul[b, g]]), int(r.add[r.mul[a, f], r.mul[b, h]])),
                (int(r.add[r.mul[c, e], r.mul[d, g]]), int(r.add[r.mul[c, f], r.mul[d, h]])),
            )

        gens = []
        for u in range(1, r.size):
            gens.append((((one, u), (zero, one)), ("E12", u)))
            gens.append((((one, zero), (u, one)), ("E21", u)))
        ident = ((one, zero), (zero, one))
        words = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g, tag in gens:
                    p = mul2(m, g)
                    if p not in words:
                        words[p] = words[m] + (tag,)
                        nxt.append(p)
            frontier = nxt
        self._sl2_words = words
        return words

    def phi_alpha(self, root: int, m) -> GroupElement:
        """Image of a 2x2 unimodular matrix under the SL2 homomorphism at root."""
        r = self.ring
        (a, b), (c, d) = m
        det = int(r.add[r.mul[a, d], r.neg[r.mul[b, c]]])
        if det != r.one:
            raise ValueError("phi_alpha needs det = 1")
        words = self._sl2_table()
        key = ((int(a), int(b)), (int(c), int(d)))
        if key not in words:
            raise FactorizationError(f"2x2 matrix does not factor over elementaries: {m}")
        nroot = int(self.rs.neg[root])
        word = [("x", root if tag == "E12" else nroot, u) for tag, u in words[key]]
        return GroupElement(self, self.evaluate_word(word), word)

    def transvection(self, root: int, zeta: int, eta: int, xi: int) -> GroupElement:
        r = self.ring
        zh = r.mul[zeta, eta]
        xzh = int(r.mul[xi, zh])
        m = ((int(r.add[r.one, r.neg[xzh]]), int(r.mul[xi, r.mul[zeta, zeta]])),
             (int(r.neg[r.mul[xi, r.mul[eta, eta]]]), int(r.add[r.one, xzh])))
        g = self.phi_alpha(root, m)
        return GroupElement(self, g.mat, [("transvection", root, int(zeta), int(eta), int(xi))])

    # -- ambient group --------------------------------------------------------------

    def full_group_generators(self) -> list[GroupElement]:
        gens = E_sigma_generators(self, [unit_ideal(self.ring)] * self.rs.nroots)
        for chars in self.torus_chars():
            g = self.torus(chars)
            if not g.is_identity():
                gens.append(g)
        return gens

    def full_group(self, budget: int) -> Subgroup:
        if self._full is None:
            self._full = generate(self, self.full_group_generators(), budget,
                                  what="full group")
            self._order = len(self._full)
        return self._full

    def residue_context(self) -> "AdjointGroup":
        from .ringkit import jacobson_radical

        if self._residue_ctx is None:
            q, _ = self.quotient_data(jacobson_radical(self.ring))
            self._residue_ctx = AdjointGroup(self.rs, q)
        return self._residue_ctx

    def full_group_order(self, budget: int) -> int:
        """Order of G(Phi,R) without materializing oversize groups: product
        over local factors; per local factor, residue-field order times the
        order of the congruence kernel (generated by the congruence
        elementaries and congruence torus)."""
        from .ringkit import jacobson_radical

        if self._order is not None:
            return self._order
        dec = self.decomposition()
        if not dec.is_local:
            total = 1
            for fc in self.factor_contexts():
                total *= fc.full_group_order(budget)
            self._order = total
            return total
        j = jacobson_radical(self.ring)
        if j.is_zero():
            self._order = len(self.full_group(budget))
            return self._order
        residue = self.residue_context().full_group_order(budget)
        gens = E_sigma_generators(self, [j] * self.rs.nroots)
        gens += [self.torus(c) for c in self.torus_congruence_chars(j)]
        kernel = generate(self, gens, budget, what="congruence kernel")
        self._order = residue * len(kernel)
        return self._order


# ---------------------------------------------------------------------------
# BFS subgroup generation


def generate(ctx: AdjointGroup, gens, budget: int, what: str = "subgroup") -> Subgroup:
    """Deterministic BFS closure under left-multiplication by the generators
    and their inverses."""
    r = ctx.ring
    glist: list[GroupElement] = []
    seen_gens = set()
    for g in list(gens):
        if isinstance(g, np.ndarray):
            g = GroupElement(ctx, g)
        if g.key != ctx.identity_key and g.key not in seen_gens:
            seen_gens.add(g.key)
            glist.append(g)
    for g in list(glist):
        gi = g.inverse()
        if gi.key != ctx.identity_key and gi.key not in seen_gens:
            seen_gens.add(gi.key)
            glist.append(gi)

    mats = [ctx.identity]
    words: dict[bytes, tuple] = {ctx.identity_key: ()}
    visited = {ctx.identity_key: 0}
    frontier = [0]
    while frontier:
        batch = np.stack([mats[i] for i in frontier])
        nxt = []
        for g in glist:
            prods = K.matmul_left_batch(g.mat, batch, r.add, r.mul)
            gword = g.word if g.word is not None else None
            for t in range(len(frontier)):
                m = np.ascontiguousarray(prods[t])
                key = m.tobytes()
                if key not in visited:
                    if len(mats) >= budget:
                        raise BudgetExceeded(len(mats), what)
                    visited[key] = len(mats)
                    if gword is not None:
                        prev = words.get(mats[frontier[t]].tobytes())
                        if prev is not None:
                            words[key] = tuple(gword) + prev
                    mats.append(m)
                    nxt.append(len(mats) - 1)
        frontier = nxt
    return Subgroup(ctx, np.stack(mats), glist, words)


def subgroup_from_mats(ctx: AdjointGroup, mats, generators=(), words=None) -> Subgroup:
    if len(mats) == 0:
        mats = np.zeros((0, ctx.dim, ctx.dim), dtype=np.int32)
    else:
        mats = np.stack([np.ascontiguousarray(m, dtype=np.int32) for m in mats])
    return Subgroup(ctx, mats, list(generators), words)


def multiply_sets(ctx: AdjointGroup, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The set {a*b}, deduplicated, as a matrix stack."""
    r = ctx.ring
    out: dict[bytes, np.ndarray] = {}
    if len(A) <= len(B):
        for i in range(len(A)):
            prods = K.matmul_left_batch(A[i], B, r.add, r.mul)
            for t in range(len(B)):
                m = np.ascontiguousarray(prods[t])
                out.setdefault(m.tobytes(), m)
    else:
        for j in range(len(B)):
            prods = K.matmul_right_batch(A, B[j], r.add, r.mul)
            for t in range(len(A)):
                m = np.ascontiguousarray(prods[t])
                out.setdefault(m.tobytes(), m)
    return np.stack(list(out.values())) if out else np.zeros((0, ctx.dim, ctx.dim), np.int32)


# ---------------------------------------------------------------------------
# stabilizer and congruence filters


def stabilizer_mask(ctx: AdjointGroup, mats: np.ndarray, net: Net) -> np.ndarray:
    """For each matrix: does it map L(sigma) into (hence onto) itself?
    On a finite carrier containment of the image forces equality."""
    if len(mats) == 0:
        return np.zeros(0, dtype=bool)
    r = ctx.ring
    allowed = np.ones((ctx.dim, r.size), dtype=bool)
    for root, pos in ctx.sc.basis_pos.items():
        allowed[pos] = net.sigma[root].mask
    mask = np.ones(len(mats), dtype=bool)
    cols = np.arange(ctx.dim)
    for v in LSigma(net).module_generators():
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            break
        outs = K.matvec_batch(mats[idx], v.vec, r.add, r.mul)
        ok = allowed[cols[None, :], outs].all(axis=1)
        mask[idx] &= ok
    return mask


class CongruenceFilter:
    """Membership test for the principal congruence subgroup of level I."""

    def __init__(self, ctx: AdjointGroup, ideal: Ideal):
        self.ctx = ctx
        self.ideal = ideal
        if len(ideal) == ctx.ring.size:
            # level R: the quotient is the zero ring, everything is congruent
            self.rho = None
            self.target = None
        else:
            q, rho = ctx.quotient_data(ideal)
            self.rho = rho
            self.target = rho.table[ctx.identity]

    def is_member(self, mat: np.ndarray) -> bool:
        if self.rho is None:
            return True
        return bool((self.rho.table[mat] == self.target).all())

    def mask(self, mats: np.ndarray) -> np.ndarray:
        if len(mats) == 0:
            return np.zeros(0, dtype=bool)
        if self.rho is None:
            return np.ones(len(mats), dtype=bool)
        return (self.rho.table[mats] == self.target[None]).all(axis=(1, 2))


# ---------------------------------------------------------------------------
# net subgroups


def E_sigma_generators(ctx: AdjointGroup, family) -> list[GroupElement]:
    """x_alpha(xi) for every nonzero xi in family[alpha]; the family is any
    root -> ideal assignment (a net, or a net cut down to an ideal)."""
    return [ctx.x(root, xi) for root in ctx.rs.gauss_order
            for xi in sorted(family[root].members) if xi]


def transvections(ctx: AdjointGroup, net: Net, ideal: Ideal) -> list[GroupElement]:
    """SL2-transvection images over Delta with every zeta, eta and nonzero
    xi in I, ordered by (root, zeta, eta, xi)."""
    size = ctx.ring.size
    xis = [xi for xi in sorted(ideal.members) if xi]
    return [ctx.transvection(root, zeta, eta, xi) for root in sorted(net.delta.members)
            for zeta in range(size) for eta in range(size) for xi in xis]


def conjugated_root_elements(ctx: AdjointGroup, net: Net, ideal: Ideal) -> list[GroupElement]:
    """x_{-alpha}(zeta) x_alpha(xi) x_{-alpha}(-zeta) for xi in sigma_alpha cap I
    and zeta in sigma_{-alpha}."""
    neg = ctx.ring.neg
    gens = []
    for root in ctx.rs.gauss_order:
        nroot = int(ctx.rs.neg[root])
        for xi in sorted(net.sigma[root].members & ideal.members):
            if xi:
                gens += [ctx.x(nroot, zeta) * ctx.x(root, xi) * ctx.x(nroot, int(neg[zeta]))
                         for zeta in sorted(net.sigma[nroot].members)]
    return gens


def E_sigma(ctx: AdjointGroup, net: Net, budget: int) -> Subgroup:
    return generate(ctx, E_sigma_generators(ctx, net), budget, what="E(sigma)")


def E_hat_sigma(ctx: AdjointGroup, net: Net, budget: int) -> Subgroup:
    gens = E_sigma_generators(ctx, net) + transvections(ctx, net, unit_ideal(ctx.ring))
    return generate(ctx, gens, budget, what="Ehat(sigma)")


def W_bar(ctx: AdjointGroup, budget: int) -> Subgroup:
    r = ctx.ring
    gens = [ctx.w_lift(ctx.rs.simple[i]) for i in range(ctx.rs.rank)]
    neg1 = int(r.neg[r.one])
    signs = sorted({r.one, neg1})
    for chars in itertools.product(signs, repeat=ctx.rs.rank):
        g = ctx.torus(chars)
        if not g.is_identity():
            gens.append(g)
    return generate(ctx, gens, budget, what="Wbar")


def W_bar_sigma(ctx: AdjointGroup, net: Net, budget: int) -> Subgroup:
    wb = W_bar(ctx, budget)
    mask = stabilizer_mask(ctx, wb.mats, net)
    return subgroup_from_mats(ctx, wb.mats[mask], words={
        m.tobytes(): wb.words[m.tobytes()] for m in wb.mats[mask]
        if m.tobytes() in wb.words})


def S_sigma(ctx: AdjointGroup, net: Net, budget: int) -> Subgroup:
    """Stab_{G(Phi,R)}(L(sigma)), assembled from local factors when the ring
    splits (the combined result is still verified element by element)."""
    dec = ctx.decomposition()
    if dec.is_local:
        order = ctx.full_group_order(budget)
        if order > budget:
            raise BudgetExceeded(order, "full group")
        fg = ctx.full_group(budget)
        mask = stabilizer_mask(ctx, fg.mats, net)
        words = {m.tobytes(): fg.words[m.tobytes()] for m in fg.mats[mask]
                 if m.tobytes() in fg.words}
        return subgroup_from_mats(ctx, fg.mats[mask], words=words)
    parts = []
    total = 1
    for fc, factor in zip(ctx.factor_contexts(), dec.factors):
        net_p = net_image(net, factor.proj)
        s_p = S_sigma(fc, net_p, budget)
        parts.append(s_p)
        total *= len(s_p)
    if total > budget:
        raise BudgetExceeded(total, "S(sigma) pullback")
    mats = _combine_factor_sets(ctx, dec, [p.mats for p in parts])
    mask = stabilizer_mask(ctx, mats, net)
    if not mask.all():
        raise AssertionError("factor pullback produced a non-stabilizing element")
    return subgroup_from_mats(ctx, mats)


def _combine_factor_sets(ctx: AdjointGroup, dec: LocalDecomposition,
                         factor_mats: list[np.ndarray]) -> np.ndarray:
    """Entrywise ring-isomorphism pullback of per-factor matrix sets."""
    idx = dec.combine_index()
    mats = []
    for tup in itertools.product(*[range(len(m)) for m in factor_mats]):
        per = tuple(factor_mats[k][i] for k, i in enumerate(tup))
        mats.append(np.ascontiguousarray(idx[per], dtype=np.int32))
    return np.stack(mats)


def T_E_set(ctx: AdjointGroup, net: Net, budget: int) -> np.ndarray:
    """The product set T(Phi,R) * E(sigma) as a matrix stack."""
    e = E_sigma(ctx, net, budget)
    tmats = np.stack([ctx.torus_mat(c) for c in ctx.torus_chars()])
    out = multiply_sets(ctx, tmats, e.mats)
    if len(out) > budget:
        raise BudgetExceeded(len(out), "T*E(sigma)")
    return out


def G_sigma(ctx: AdjointGroup, net: Net, budget: int) -> Subgroup:
    """Elements whose projection to every local factor lies in T*E of the
    projected net."""
    dec = ctx.decomposition()
    if dec.is_local:
        return subgroup_from_mats(ctx, T_E_set(ctx, net, budget))
    parts = []
    total = 1
    for fc, factor in zip(ctx.factor_contexts(), dec.factors):
        net_p = net_image(net, factor.proj)
        te = T_E_set(fc, net_p, budget)
        parts.append(te)
        total *= len(te)
    if total > budget:
        raise BudgetExceeded(total, "G(sigma) pullback")
    mats = _combine_factor_sets(ctx, dec, parts)
    return subgroup_from_mats(ctx, mats)


def S_sigma_relative(ctx: AdjointGroup, s_sigma: Subgroup, ideal: Ideal) -> Subgroup:
    """S(sigma, I) = S(sigma) cap G(Phi,R,I)."""
    filt = CongruenceFilter(ctx, ideal)
    mask = filt.mask(s_sigma.mats)
    words = {m.tobytes(): s_sigma.words[m.tobytes()] for m in s_sigma.mats[mask]
             if m.tobytes() in s_sigma.words}
    return subgroup_from_mats(ctx, s_sigma.mats[mask], words=words)


# -- relative elementary subgroups ------------------------------------------------


def normal_closure(ctx: AdjointGroup, base_gens, conjugators, budget: int,
                   what: str = "normal closure") -> Subgroup:
    """Smallest subgroup containing base_gens closed under conjugation by the
    given conjugating generators (and their inverses).

    Round-based: each round conjugates the current generator list by every
    conjugator, collects everything that escaped, and re-closes once.  At
    the fixpoint c<S>c^{-1} = <cSc^{-1}> lands inside for every c, which
    is conjugation-invariance under the whole group the c's generate.
    """
    conj = []
    seen = set()
    for c in conjugators:
        for g in (c, c.inverse()):
            if g.key not in seen and g.key != ctx.identity_key:
                seen.add(g.key)
                conj.append((g, g.inverse()))
    gens = []
    gen_keys = set()
    for g in base_gens:
        if g.key not in gen_keys and g.key != ctx.identity_key:
            gen_keys.add(g.key)
            gens.append(g)
    sub = generate(ctx, gens, budget, what=what)
    while True:
        new = []
        for h in gens:
            for c, cinv in conj:
                y = c * h * cinv
                if y.key not in sub.key2idx and y.key not in gen_keys:
                    gen_keys.add(y.key)
                    new.append(y)
        if not new:
            return sub
        gens.extend(new)
        sub = generate(ctx, gens, budget, what=what)


def E_hat_relative(ctx: AdjointGroup, net: Net, ideal: Ideal, budget: int) -> Subgroup:
    """Ehat(sigma, I): normal closure in Ehat(sigma) of the relative
    generators."""
    base = (E_sigma_generators(ctx, net_intersect_ideal(net, ideal))
            + transvections(ctx, net, ideal))
    conj = E_sigma_generators(ctx, net) + transvections(ctx, net, unit_ideal(ctx.ring))
    return normal_closure(ctx, base, conj, budget, what="Ehat(sigma,I)")


# ---------------------------------------------------------------------------
# quotients


class QuotientStructure:
    def __init__(self, cosets: list[bytes], table: np.ndarray | None,
                 is_normal: bool, is_abelian: bool | None, is_nilpotent: bool | None):
        self.cosets = cosets
        self.table = table
        self.is_normal = is_normal
        self.is_abelian = is_abelian
        self.is_nilpotent = is_nilpotent

    def __len__(self):
        return len(self.cosets)


def subgroup_generators(sub: Subgroup) -> list[GroupElement]:
    """A small generating set, derived incrementally (and then recorded on
    the subgroup) if none was recorded."""
    if sub.generators:
        return sub.generators
    ctx = sub.ctx
    gens: list[GroupElement] = []
    have = {ctx.identity_key}
    for i in range(len(sub)):
        m = sub.mats[i]
        if m.tobytes() in have:
            continue
        gens.append(GroupElement(ctx, m, sub.words.get(m.tobytes())))
        have = set(generate(ctx, gens, len(sub) + 1, what="gens").keys())
        if len(have) == len(sub):
            break
    sub.generators = gens
    return gens


def is_normal_in(ctx: AdjointGroup, sub: Subgroup, big: Subgroup):
    """Conjugates the generators of sub by the generators of big; for finite
    groups this is a complete normality test.  Returns (bool, witness)."""
    ngens = subgroup_generators(sub)
    for c in subgroup_generators(big):
        cinv = c.inverse()
        for n in ngens:
            y = c * n * cinv
            if y.key not in sub.key2idx:
                return False, {"conjugator": c, "element": n, "conjugate": y}
    return True, None


def quotient_structure(ctx: AdjointGroup, big: Subgroup, sub: Subgroup,
                       table_cap: int = 4096) -> QuotientStructure:
    """Coset table of big/sub with normality/abelian/nilpotency flags."""
    for k in sub.keys():
        if k not in big.key2idx:
            raise ValueError("N is not contained in H")
    normal, _ = is_normal_in(ctx, sub, big)
    r = ctx.ring
    coset_rep: dict[bytes, bytes] = {}
    reps: list[bytes] = []
    rep_mat: dict[bytes, np.ndarray] = {}
    for i in range(len(big)):
        m = big.mats[i]
        if m.tobytes() in coset_rep:
            continue
        orbit = K.matmul_left_batch(m, sub.mats, r.add, r.mul)
        keys = [np.ascontiguousarray(orbit[t]).tobytes() for t in range(len(sub))]
        rep = min(keys)
        for t, k in enumerate(keys):
            coset_rep[k] = rep
            if k == rep:
                rep_mat[rep] = np.ascontiguousarray(orbit[t])
        reps.append(rep)
    reps.sort()
    if not normal:
        return QuotientStructure(reps, None, False, None, None)
    q = len(reps)
    is_abelian = None
    is_nilpotent = None
    table = None
    if q <= table_cap:
        index = {k: i for i, k in enumerate(reps)}
        table = np.zeros((q, q), dtype=np.int64)
        for i, ki in enumerate(reps):
            prods = K.matmul_right_batch(
                np.stack([rep_mat[k] for k in reps]), rep_mat[ki], r.add, r.mul)
            for j in range(q):
                table[j, i] = index[coset_rep[np.ascontiguousarray(prods[j]).tobytes()]]
        is_abelian = bool((table == table.T).all())
        is_nilpotent = _table_is_nilpotent(table, index[coset_rep[ctx.identity_key]])
    return QuotientStructure(reps, table, True, is_abelian, is_nilpotent)


def _table_is_nilpotent(table: np.ndarray, ident: int) -> bool:
    q = len(table)
    inv = np.zeros(q, dtype=np.int64)
    for i in range(q):
        inv[i] = int(np.nonzero(table[i] == ident)[0][0])

    def comm_subgroup(a_set, b_set):
        gens = {int(table[table[x, y], table[inv[x], inv[y]]])
                for x in a_set for y in b_set}
        closure = {ident}
        frontier = list(gens | {ident})
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = int(table[x, g])
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        return closure

    whole = set(range(q))
    cur = whole
    for _ in range(q + 1):
        nxt = comm_subgroup(whole, cur)
        if nxt == {ident}:
            return True
        if nxt == cur:
            return False
        cur = nxt
    return False


# ---------------------------------------------------------------------------
# monomial (Weyl-like) elements


def root_permutation(ctx: AdjointGroup, mat: np.ndarray):
    """If mat maps every root line R*e_r to a single line, return the induced
    root permutation, else None."""
    pos_to_root = {pos: root for root, pos in ctx.sc.basis_pos.items()}
    perm = [0] * ctx.rs.nroots
    for root, pos in ctx.sc.basis_pos.items():
        col = mat[:, pos]
        nz = np.nonzero(col)[0]
        if len(nz) != 1 or int(nz[0]) < ctx.rs.rank:
            return None
        perm[root] = pos_to_root[int(nz[0])]
    return tuple(perm)
