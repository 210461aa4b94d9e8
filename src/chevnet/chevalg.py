"""Chevalley-basis structure constants and adjoint generator templates.

Signs follow the extraspecial-pair convention: positive roots are
processed by height, the extraspecial pair of each sum gets the positive
constant p+1, and every other constant is forced through the standard
rotation/antisymmetry/Jacobi identities (computed exactly over Q and
asserted integral).  The whole table is then re-verified wholesale: the
Jacobi identity must hold on every basis triple over Z.

The adjoint matrix of x_alpha(xi) is an integer polynomial template
(divided powers of ad e_alpha); evaluating it at ring elements is the
only way group generators are ever produced.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .rootsys import RootSystem, Subsystem
from .ringkit import FiniteRing


class StructureConstants:
    """Signed N-table, coroot table, divided powers and templates for one
    root system.  Basis order: h_1..h_l, then roots in gauss_order."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.dim = rs.rank + rs.nroots
        self.basis_pos = {}  # root index -> basis position
        for k, r in enumerate(rs.gauss_order):
            self.basis_pos[r] = rs.rank + k
        self.N = {}  # (root_i, root_j) -> int, for summable pairs
        self._key_cache = {}
        self._build_N()
        self.coroot = self._build_coroots()
        self.bracket_table = self._build_bracket_table()
        self._verify_jacobi()
        self.sparse_bracket = [
            (i, j, k, int(c))
            for (i, j, k), c in np.ndenumerate(self.bracket_table)
            if c
        ]
        self.divided = self._build_divided()
        self._templates: dict[int, GeneratorTemplate] = {}
        self._comm_cache: dict[tuple[int, int], list] = {}

    # -- sign algorithm -------------------------------------------------------

    def _key(self, r: int):
        # same comparator as the positive half of gauss_order
        k = self._key_cache.get(r)
        if k is None:
            k = (int(self.rs.height[r]), tuple(-c for c in self.rs.roots[r]))
            self._key_cache[r] = k
        return k

    def _special_pairs(self, gamma: int):
        rs = self.rs
        out = []
        for a in range(rs.nroots):
            if rs.height[a] <= 0:
                continue
            b = rs.add_roots(a, int(rs.neg[gamma]))
            if b is None:
                continue
            b = int(rs.neg[b])  # gamma - a
            if rs.height[b] <= 0:
                continue
            if self._key(a) < self._key(b):
                out.append((a, b))
        out.sort(key=lambda p: self._key(p[0]))
        return out

    def _build_N(self):
        rs = self.rs
        positives = sorted(
            (r for r in range(rs.nroots) if rs.height[r] > 0), key=self._key
        )
        for gamma in positives:
            for a, b in self._special_pairs(gamma):
                self._positive_pair(a, b)
        # materialize every summable ordered pair
        for (i, j) in rs.sum_table:
            self.N[(i, j)] = self._get_N(i, j)

    def _positive_pair(self, a: int, b: int) -> int:
        if (a, b) in self.N:
            return self.N[(a, b)]
        rs = self.rs
        gamma = rs.add_roots(a, b)
        pairs = self._special_pairs(gamma)
        a1, b1 = pairs[0]
        if (a, b) == (a1, b1):
            val = rs.string_down(a, b) + 1
        else:
            # Jacobi on the quadruple (a1, b1, -a, -b), all known terms have
            # strictly smaller sum height
            na, nb = int(rs.neg[a]), int(rs.neg[b])
            term = Fraction(0)
            if rs.add_roots(b1, na) is not None:
                s = rs.add_roots(b1, na)
                term += Fraction(self._get_N(b1, na) * self._get_N(a1, nb),
                                 rs.inner6(s, s))
            if rs.add_roots(na, a1) is not None:
                s = rs.add_roots(na, a1)
                term += Fraction(self._get_N(na, a1) * self._get_N(b1, nb),
                                 rs.inner6(s, s))
            val = term * rs.inner6(gamma, gamma) / self._get_N(a1, b1)
            if val.denominator != 1:
                raise AssertionError("non-integral structure constant")
            val = int(val)
        self.N[(a, b)] = val
        return val

    def _get_N(self, i: int, j: int) -> int:
        got = self.N.get((i, j))
        if got is not None:
            return got
        rs = self.rs
        if rs.add_roots(i, j) is None:
            raise KeyError("pair does not sum to a root")
        hi, hj = int(rs.height[i]), int(rs.height[j])
        if hi > 0 and hj > 0:
            if self._key(i) < self._key(j):
                val = self._positive_pair(i, j)
            else:
                val = -self._positive_pair(j, i)
        elif hi < 0 and hj < 0:
            val = -self._get_N(int(rs.neg[i]), int(rs.neg[j]))
        elif hi < 0:
            val = -self._get_N(j, i)
        else:
            # i positive, j negative: rotate the zero-sum triple (i, j, k)
            s = rs.add_roots(i, j)
            k = int(rs.neg[s])
            if rs.height[s] > 0:
                frac = Fraction(self._get_N(j, k) * rs.inner6(k, k), rs.inner6(i, i))
            else:
                frac = Fraction(self._get_N(k, i) * rs.inner6(k, k), rs.inner6(j, j))
            if frac.denominator != 1:
                raise AssertionError("non-integral structure constant")
            val = int(frac)
        self.N[(i, j)] = val
        return val

    # -- coroots and bracket table ---------------------------------------------

    def _build_coroots(self):
        rs = self.rs
        table = np.zeros((rs.nroots, rs.rank), dtype=np.int64)
        for r in range(rs.nroots):
            for i in range(rs.rank):
                c = Fraction(self.rs.roots[r][i] * rs.inner6(rs.simple[i], rs.simple[i]),
                             rs.inner6(r, r))
                if c.denominator != 1:
                    raise AssertionError("non-integral coroot coefficient")
                table[r, i] = int(c)
        return table

    def _build_bracket_table(self):
        rs, d, l = self.rs, self.dim, self.rs.rank
        C = np.zeros((d, d, d), dtype=np.int64)
        for i in range(l):
            for r in range(rs.nroots):
                p = self.basis_pos[r]
                val = rs.pairing(r, rs.simple[i])
                C[i, p, p] = val
                C[p, i, p] = -val
        for a in range(rs.nroots):
            pa = self.basis_pos[a]
            na = int(rs.neg[a])
            C[pa, self.basis_pos[na], :l] = self.coroot[a]
            for b in range(rs.nroots):
                s = rs.add_roots(a, b)
                if s is not None:
                    C[pa, self.basis_pos[b], self.basis_pos[s]] = self.N[(a, b)]
        return C

    def _verify_jacobi(self):
        C = self.bracket_table
        T = np.einsum("jkm,imn->ijkn", C, C)
        jac = T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)
        if jac.any():
            raise AssertionError("Jacobi identity fails for the computed constants")
        # magnitude and antisymmetry re-checks
        rs = self.rs
        for (i, j), n in self.N.items():
            if abs(n) != rs.string_down(i, j) + 1:
                raise AssertionError("|N| != p+1")
            if self.N[(j, i)] != -n:
                raise AssertionError("N is not antisymmetric")
            if self.N[(int(rs.neg[i]), int(rs.neg[j]))] != -n:
                raise AssertionError("N(-a,-b) != -N(a,b)")

    def _build_divided(self):
        """m_{a,b,k} = (1/k!) * prod_{t<k} N_{a, b+t*a}; all integral."""
        rs = self.rs
        out = {}
        for a in range(rs.nroots):
            for b in range(rs.nroots):
                if b == a or b == int(rs.neg[a]):
                    continue
                prod, fact, k = 1, 1, 1
                cur = b
                while True:
                    nxt = rs.add_roots(a, cur)
                    if nxt is None:
                        break
                    prod *= self.N[(a, cur)]
                    fact *= k
                    if prod % fact:
                        raise AssertionError("non-integral divided power")
                    out[(a, b, k)] = prod // fact
                    cur = nxt
                    k += 1
        return out

    # -- adjoint templates -------------------------------------------------------

    def ad_matrix(self, root: int) -> np.ndarray:
        """Integer matrix of ad e_root in the fixed basis order."""
        return self.bracket_table[self.basis_pos[root]].T.copy()

    def template(self, root: int) -> "GeneratorTemplate":
        t = self._templates.get(root)
        if t is None:
            t = GeneratorTemplate(self, root)
            self._templates[root] = t
        return t

    # -- Chevalley commutator constants --------------------------------------------

    def commutator_terms(self, a: int, b: int) -> list[tuple[int, int, int, int]]:
        """[x_a(s), x_b(t)] = prod x_{ia+jb}(c * s^i * t^j) over the returned
        (i, j, root, c) in listed order.  Derived symbolically from the
        templates and verified by an exact polynomial identity."""
        key = (a, b)
        cached = self._comm_cache.get(key)
        if cached is not None:
            return cached
        rs = self.rs
        if a == b or a == int(rs.neg[b]):
            raise ValueError("commutator formula needs non-proportional roots")
        pairs = []
        for i in range(1, 5):
            for j in range(1, 5):
                coords = tuple(i * x + j * y for x, y in zip(rs.roots[a], rs.roots[b]))
                r = rs.root_index.get(coords)
                if r is not None:
                    pairs.append((i, j, r))
        pairs.sort(key=lambda t: (t[0] + t[1], t[0]))
        ta, tb = self.template(a), self.template(b)
        lhs = _pm_mul(_pm_mul(ta.poly(0), tb.poly(1)),
                      _pm_mul(ta.poly(0, negate=True), tb.poly(1, negate=True)))
        terms = []
        residual = lhs
        for i, j, r in pairs:
            coeff = residual.get((i, j))
            tr = self.template(r)
            A1 = tr.powers[1]
            if coeff is None:
                c = 0
            else:
                m, n = np.argwhere(A1 != 0)[0]
                if coeff[m, n] % A1[m, n]:
                    raise AssertionError("non-integral commutator constant")
                c = int(coeff[m, n] // A1[m, n])
            terms.append((i, j, r, c))
            if c:
                inv = {}
                for k, P in enumerate(tr.powers):
                    inv[(k * i, k * j)] = P * ((-c) ** k)
                residual = _pm_mul(inv, residual)
        for mono, mat in residual.items():
            expect = np.eye(self.dim, dtype=np.int64) if mono == (0, 0) else 0
            if not (mat == expect).all():
                raise AssertionError("commutator formula extraction failed")
        self._comm_cache[key] = terms
        return terms


def _pm_mul(P: dict, Q: dict) -> dict:
    """Product of matrix-valued polynomials in two variables."""
    out: dict = {}
    for (i1, j1), A in P.items():
        for (i2, j2), B in Q.items():
            k = (i1 + i2, j1 + j2)
            M = A @ B
            if k in out:
                out[k] = out[k] + M
            else:
                out[k] = M
    return {k: v for k, v in out.items() if v.any() or k == (0, 0)}


class GeneratorTemplate:
    """Polynomial matrix exp(xi * ad e_root) with integer divided powers."""

    def __init__(self, sc: StructureConstants, root: int):
        self.sc = sc
        self.root = root
        A = sc.ad_matrix(root)
        powers = [np.eye(sc.dim, dtype=np.int64)]
        k = 1
        cur = A.copy()
        while cur.any():
            powers.append(cur.copy())
            k += 1
            nxt = A @ cur
            if (nxt % k).any():
                raise AssertionError("non-integral divided power in template")
            cur = nxt // k
            if k > 6:
                raise AssertionError("ad e_alpha is not nilpotent of small degree")
        self.powers = powers
        self.degree = len(powers) - 1

    def poly(self, var: int, negate: bool = False) -> dict:
        """As a matrix-valued polynomial in variable 0 or 1."""
        out = {}
        for k, P in enumerate(self.powers):
            mono = (k, 0) if var == 0 else (0, k)
            out[mono] = P * ((-1) ** k) if negate else P
        return out

    def evaluate(self, ring: FiniteRing, xi: int) -> np.ndarray:
        """Adjoint matrix of x_root(xi) over the ring."""
        d = self.sc.dim
        acc = _int_matrix(ring, self.powers[0])
        xpow = ring.one
        for k in range(1, len(self.powers)):
            xpow = int(ring.mul[xpow, xi])
            term = ring.mul[_int_matrix(ring, self.powers[k]), xpow]
            acc = ring.add[acc, term]
        return np.ascontiguousarray(acc, dtype=np.int32)


def _int_matrix(ring: FiniteRing, M: np.ndarray) -> np.ndarray:
    """Entrywise image of an integer matrix under Z -> R."""
    vals = {int(v) for v in np.unique(M)}
    table = {v: ring.from_int(v) for v in vals}
    out = np.empty(M.shape, dtype=np.int32)
    for v, img in table.items():
        out[M == v] = img
    return out


_SC_BY_RS: dict[int, StructureConstants] = {}


def compute_structure_constants(rs: RootSystem) -> StructureConstants:
    sc = _SC_BY_RS.get(id(rs))
    if sc is None:
        sc = StructureConstants(rs)
        _SC_BY_RS[id(rs)] = sc
    return sc


# ---------------------------------------------------------------------------
# Lie elements over a ring


class LieElement:
    """Element of the Chevalley algebra over a finite ring, as a coordinate
    vector in the fixed basis order (h's first, then roots)."""

    __slots__ = ("sc", "ring", "vec")

    def __init__(self, sc: StructureConstants, ring: FiniteRing, vec: np.ndarray):
        self.sc = sc
        self.ring = ring
        self.vec = np.asarray(vec, dtype=np.int32)

    @classmethod
    def zero(cls, sc, ring):
        return cls(sc, ring, np.zeros(sc.dim, dtype=np.int32))

    @classmethod
    def basis_h(cls, sc, ring, i: int):
        v = np.zeros(sc.dim, dtype=np.int32)
        v[i] = ring.one
        return cls(sc, ring, v)

    @classmethod
    def basis_e(cls, sc, ring, root: int, coeff: int = None):
        v = np.zeros(sc.dim, dtype=np.int32)
        v[sc.basis_pos[root]] = ring.one if coeff is None else coeff
        return cls(sc, ring, v)

    def coeff_e(self, root: int) -> int:
        return int(self.vec[self.sc.basis_pos[root]])

    def coeff_h(self, i: int) -> int:
        return int(self.vec[i])

    def __eq__(self, other):
        return (self.ring is other.ring) and (self.vec == other.vec).all()

    def __hash__(self):
        return hash(self.vec.tobytes())


def bracket(x: LieElement, y: LieElement) -> LieElement:
    if x.ring is not y.ring:
        raise ValueError("bracket of elements over different rings")
    r, sc = x.ring, x.sc
    out = np.zeros(sc.dim, dtype=np.int32)
    for i, j, k, c in sc.sparse_bracket:
        xi, yj = int(x.vec[i]), int(y.vec[j])
        if xi == 0 or yj == 0:
            continue
        term = r.mul[r.mul[xi, yj], r.from_int(c)]
        out[k] = r.add[out[k], term]
    return LieElement(sc, r, out)


class LSigma:
    """The submodule D + sum sigma_alpha e_alpha, given by its net."""

    def __init__(self, net):
        self.net = net
        self.sc = compute_structure_constants(net.rs)

    def contains_vec(self, vec: np.ndarray) -> bool:
        for root, pos in self.sc.basis_pos.items():
            if int(vec[pos]) not in self.net.sigma[root]:
                return False
        return True

    def module_generators(self):
        """h_i basis vectors and g*e_alpha for each ideal generator g."""
        ring = self.net.ring
        out = [LieElement.basis_h(self.sc, ring, i) for i in range(self.net.rs.rank)]
        for root in range(self.net.rs.nroots):
            ideal = self.net.sigma[root]
            gens = [g for g in ideal.gens if g != 0]
            if not gens and len(ideal) > 1:
                gens = sorted(ideal.members - {0})
            for g in gens:
                out.append(LieElement.basis_e(self.sc, ring, root, g))
        return out


def in_L_sigma(x: LieElement, L: LSigma) -> bool:
    if x.ring is not L.net.ring:
        raise ValueError("ring mismatch")
    return L.contains_vec(x.vec)


def check_condition_star(rs: RootSystem, delta: Subsystem, sc: StructureConstants,
                         ring: FiniteRing):
    """True iff every root outside Delta has a Delta-partner with a unit
    structure constant; returns (ok, witness-or-failing-root)."""
    witness = {}
    for gamma in range(rs.nroots):
        if gamma in delta.members:
            continue
        found = None
        for alpha in sorted(delta.members):
            if rs.add_roots(alpha, gamma) is None:
                continue
            n = sc.N[(alpha, gamma)]
            if ring.units[ring.from_int(n)]:
                found = alpha
                break
        if found is None:
            return False, gamma
        witness[gamma] = found
    return True, witness
