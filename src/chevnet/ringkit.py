"""Finite commutative rings with unity, fully materialized.

Elements are integer indices 0..size-1 into addition/multiplication
tables; index 0 is always the zero element.  Three kinds are supported:
integers mod n, F_p[t]/(f) for monic f, and finite products.  With the
carrier materialized, ideals, the Jacobson radical, quotients and the
decomposition into local factors are all exact scans.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable, Sequence

import numpy as np

MAX_CARRIER = int(os.environ.get("CHEVNET_MAX_RING", "4096"))


class RingConfigError(ValueError):
    """Invalid ring parameters (non-monic modulus, n < 2, oversize carrier)."""


class FiniteRing:
    """A finite commutative ring given by element tables.

    add/mul are size x size int32 tables on element indices, neg and inv
    are unary tables (inv[a] == -1 for non-units).
    """

    def __init__(self, kind: str, names: list[str], add: np.ndarray, mul: np.ndarray,
                 one: int, spec: dict):
        self.kind = kind
        self.names = names
        self.size = len(names)
        self.add = np.ascontiguousarray(add, dtype=np.int32)
        self.mul = np.ascontiguousarray(mul, dtype=np.int32)
        self.zero = 0
        self.one = one
        self.spec = spec
        if self.size < 2 or one == 0:
            raise RingConfigError("the zero ring is not allowed")
        # neg[a]: unique b with a+b=0
        self.neg = np.argmin(self.add != 0, axis=1).astype(np.int32)
        # units and inverses by invertibility scan
        hits = self.mul == one
        self.inv = np.where(hits.any(axis=1), np.argmax(hits, axis=1), -1).astype(np.int32)
        self.units = self.inv >= 0
        self.unit_indices = [int(i) for i in np.nonzero(self.units)[0]]
        # additive order of 1 (the characteristic)
        c, x = 1, one
        while x != 0:
            x = int(self.add[x, one])
            c += 1
        self.char = c
        self._int_cache: dict[int, int] = {0: 0, 1: one}

    # -- scalar ops ---------------------------------------------------------

    def from_int(self, n: int) -> int:
        """Image of the integer n under Z -> R."""
        n %= self.char
        cached = self._int_cache.get(n)
        if cached is not None:
            return cached
        x = 0
        for _ in range(n):
            x = int(self.add[x, self.one])
        self._int_cache[n] = x
        return x

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a = int(self.inv[a])
            if a < 0:
                raise ValueError("negative power of a non-unit")
            k = -k
        out = self.one
        for _ in range(k):
            out = int(self.mul[out, a])
        return out

    def name(self, a: int) -> str:
        return self.names[a]

    def parse(self, token) -> int:
        """Parse an element literal: int for zmod, 't^2+t+1' style for
        polynomial quotients, '(a,b)' for products."""
        if isinstance(token, int):
            return self.from_int(token)
        s = str(token).strip()
        if self.kind == "product":
            if not (s.startswith("(") and s.endswith(")")):
                return self.from_int(int(s))
            parts = _split_top_level(s[1:-1])
            factors = self.spec["factor_rings"]
            if len(parts) != len(factors):
                raise ValueError(f"expected {len(factors)} components in {s!r}")
            idxs = [f.parse(p) for f, p in zip(factors, parts)]
            return self.encode_tuple(idxs)
        if self.kind == "polyquot":
            return self._parse_poly(s)
        return self.from_int(int(s))

    def _parse_poly(self, s: str) -> int:
        p = self.spec["p"]
        coeffs = _parse_poly_coeffs(s)
        deg = self.spec["deg"]
        acc = [0] * deg
        for k, c in coeffs.items():
            if k >= deg:
                raise ValueError(f"{s!r} has degree >= modulus degree {deg}")
            acc[k] = c % p
        idx = 0
        for k in reversed(range(deg)):
            idx = idx * p + acc[k]
        return idx

    # -- product-ring helpers ------------------------------------------------

    def encode_tuple(self, idxs: Sequence[int]) -> int:
        sizes = [f.size for f in self.spec["factor_rings"]]
        out = 0
        for i, s in zip(reversed(idxs), reversed(sizes)):
            out = out * s + i
        return out

    def decode_tuple(self, idx: int) -> tuple[int, ...]:
        out = []
        for f in self.spec["factor_rings"]:
            out.append(idx % f.size)
            idx //= f.size
        return tuple(out)

    def __repr__(self):
        return f"FiniteRing({self.describe()})"

    def describe(self) -> str:
        if self.kind == "zmod":
            return f"Z/{self.spec['n']}"
        if self.kind == "polyquot":
            return f"F_{self.spec['p']}[t]/({self.spec['modulus_str']})"
        return " x ".join(f.describe() for f in self.spec["factor_rings"])


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


_TERM_RE = re.compile(r"^(\d+)?\*?(t(?:\^(\d+))?)?$")


def _parse_poly_coeffs(s: str) -> dict[int, int]:
    s = s.replace(" ", "").replace("-", "+-")
    out: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad polynomial term {term!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            k = 0
        else:
            k = int(m.group(3)) if m.group(3) else 1
        out[k] = out.get(k, 0) + sign * coef
    return out


# ---------------------------------------------------------------------------
# constructors


def _check_size(n: int):
    if n > MAX_CARRIER:
        raise RingConfigError(f"carrier size {n} exceeds cap {MAX_CARRIER}")


def zmod(n: int) -> FiniteRing:
    if n < 2:
        raise RingConfigError("Zmod requires n >= 2")
    _check_size(n)
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing("zmod", [str(i) for i in idx], add, mul, 1, {"kind": "zmod", "n": n})


def polyquot(p: int, modulus) -> FiniteRing:
    """F_p[t]/(f) for a monic f of degree >= 1, given as coefficient list
    (little-endian) or as a string like 't^2+t+1'."""
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise RingConfigError(f"{p} is not a prime")
    if isinstance(modulus, str):
        coeffs_map = _parse_poly_coeffs(modulus)
        deg = max(coeffs_map)
        f = [coeffs_map.get(k, 0) % p for k in range(deg + 1)]
        mod_str = modulus
    else:
        f = [c % p for c in modulus]
        while len(f) > 1 and f[-1] == 0:
            f.pop()
        deg = len(f) - 1
        mod_str = _poly_name(f)
    if deg < 1:
        raise RingConfigError("modulus must have degree >= 1")
    if f[-1] != 1:
        raise RingConfigError("modulus must be monic")
    size = p**deg
    _check_size(size)

    def decode(i):
        out = []
        for _ in range(deg):
            out.append(i % p)
            i //= p
        return out

    def encode(cs):
        out = 0
        for c in reversed(cs):
            out = out * p + (c % p)
        return out

    elements = [decode(i) for i in range(size)]
    add = np.zeros((size, size), dtype=np.int32)
    mul = np.zeros((size, size), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            add[i, j] = encode([(x + y) % p for x, y in zip(a, b)])
            prod = [0] * (2 * deg - 1)
            for k, x in enumerate(a):
                for l, y in enumerate(b):
                    prod[k + l] = (prod[k + l] + x * y) % p
            # long division by the monic modulus
            for k in reversed(range(deg, len(prod))):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for l in range(deg):
                        prod[k - deg + l] = (prod[k - deg + l] - c * f[l]) % p
            mul[i, j] = encode(prod[:deg])
    names = [_poly_name(decode(i)) for i in range(size)]
    return FiniteRing(
        "polyquot", names, add, mul, 1,
        {"kind": "polyquot", "p": p, "deg": deg, "modulus": f, "modulus_str": mod_str},
    )


def _poly_name(coeffs) -> str:
    terms = []
    for k in reversed(range(len(coeffs))):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("t" if c == 1 else f"{c}t")
        else:
            terms.append(f"t^{k}" if c == 1 else f"{c}t^{k}")
    return "+".join(terms) if terms else "0"


def product(factors: Sequence[FiniteRing]) -> FiniteRing:
    if len(factors) < 2:
        raise RingConfigError("product needs at least two factors")
    size = 1
    for f in factors:
        size *= f.size
    _check_size(size)
    spec = {"kind": "product", "factor_rings": list(factors)}
    shell = object.__new__(FiniteRing)
    shell.spec = spec  # encode/decode need spec before __init__
    decode = FiniteRing.decode_tuple.__get__(shell)
    encode = FiniteRing.encode_tuple.__get__(shell)
    tuples = [decode(i) for i in range(size)]
    add = np.zeros((size, size), dtype=np.int32)
    mul = np.zeros((size, size), dtype=np.int32)
    for i, a in enumerate(tuples):
        for j, b in enumerate(tuples):
            add[i, j] = encode([int(f.add[x, y]) for f, x, y in zip(factors, a, b)])
            mul[i, j] = encode([int(f.mul[x, y]) for f, x, y in zip(factors, a, b)])
    names = ["(" + ",".join(f.name(x) for f, x in zip(factors, t)) + ")" for t in tuples]
    one = encode([f.one for f in factors])
    return FiniteRing("product", names, add, mul, one, spec)


def make_ring(spec: dict) -> FiniteRing:
    """Build a ring from a scenario-file spec dict."""
    kind = spec.get("kind")
    if kind == "zmod":
        return zmod(int(spec["n"]))
    if kind == "polyquot":
        return polyquot(int(spec["p"]), spec["modulus"])
    if kind == "product":
        return product([make_ring(s) for s in spec["factors"]])
    raise RingConfigError(f"unknown ring kind {kind!r}")


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Materialized ideal: generator list plus full element set."""

    def __init__(self, ring: FiniteRing, members: Iterable[int], gens: Iterable[int] = ()):
        self.ring = ring
        self.members = frozenset(int(x) for x in members)
        self.gens = tuple(sorted(set(int(g) for g in gens)))
        self.arr = np.array(sorted(self.members), dtype=np.int32)
        self.mask = np.zeros(ring.size, dtype=bool)
        self.mask[self.arr] = True
        if 0 not in self.members:
            raise ValueError("an ideal contains zero")

    @classmethod
    def from_gens(cls, ring: FiniteRing, gens: Iterable[int]) -> "Ideal":
        gens = [int(g) for g in gens]
        mult = {0}
        for g in gens:
            mult.update(int(x) for x in ring.mul[:, g])
        arr = np.array(sorted(mult), dtype=np.int32)
        # close the set of multiples under addition
        while True:
            sums = np.unique(ring.add[arr[:, None], arr[None, :]])
            if len(sums) == len(arr):
                break
            arr = sums
        return cls(ring, arr.tolist(), gens)

    def __contains__(self, x: int) -> bool:
        return int(x) in self.members

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.ring is other.ring and self.members == other.members

    def __hash__(self):
        return hash((id(self.ring), self.members))

    def __le__(self, other: "Ideal") -> bool:
        return self.members <= other.members

    def _require_same_ring(self, other: "Ideal"):
        if self.ring is not other.ring:
            raise ValueError("ideal operation across different rings")

    def sum(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        return Ideal.from_gens(self.ring, self.members | other.members)

    def product(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        r = self.ring
        gens = {int(r.mul[a, b]) for a in self.members for b in other.members}
        return Ideal.from_gens(r, gens)

    def intersection(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        inter = self.members & other.members
        return Ideal(self.ring, inter, gens=sorted(inter))

    def is_zero(self) -> bool:
        return len(self.members) == 1

    def describe(self) -> str:
        r = self.ring
        if self.is_zero():
            return "(0)"
        gens = tuple(g for g in self.gens if g != 0)
        if not gens:
            gens = tuple(sorted(self.members - {0}))
        # prefer a single generator when one suffices (all our rings are PIRs)
        for g in gens:
            if Ideal.from_gens(r, [g]).members == self.members:
                return f"({r.name(g)})"
        return "(" + ",".join(r.name(g) for g in gens) + ")"


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, [0], [])


def unit_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, range(ring.size), [ring.one])


# ---------------------------------------------------------------------------
# radical, quotients, local decomposition


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """{x : 1 + x*y is a unit for all y}."""
    shifted = ring.add[ring.one, ring.mul]  # shifted[x,y] = 1 + x*y
    good = ring.units[shifted].all(axis=1)
    members = np.nonzero(good)[0]
    return Ideal(ring, members.tolist(), gens=sorted(members.tolist()))


class RingMap:
    """Unital ring homomorphism as an element-index table."""

    def __init__(self, domain: FiniteRing, codomain: FiniteRing, table: np.ndarray,
                 name: str = "map"):
        self.domain = domain
        self.codomain = codomain
        self.table = np.asarray(table, dtype=np.int32)
        self.name = name
        if self.table[domain.one] != codomain.one or self.table[0] != 0:
            raise ValueError("ring map must be unital")

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def kernel(self) -> Ideal:
        members = np.nonzero(self.table == 0)[0]
        return Ideal(self.domain, members.tolist(), gens=sorted(members.tolist()))


def identity_map(ring: FiniteRing) -> RingMap:
    return RingMap(ring, ring, np.arange(ring.size, dtype=np.int32), "id")


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, RingMap]:
    """R/I with the reduction map rho_I (surjective, kernel I)."""
    if ideal.ring is not ring:
        raise ValueError("ideal of a different ring")
    cosets = ring.add[np.arange(ring.size)[:, None], ideal.arr[None, :]]
    rep = cosets.min(axis=1).astype(np.int32)
    reps = np.unique(rep)
    rep_index = {int(r): i for i, r in enumerate(reps)}
    n = len(reps)
    table = np.array([rep_index[int(rep[x])] for x in range(ring.size)], dtype=np.int32)
    add = np.zeros((n, n), dtype=np.int32)
    mul = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            add[i, j] = table[ring.add[a, b]]
            mul[i, j] = table[ring.mul[a, b]]
    names = [ring.name(int(r)) for r in reps]
    q = FiniteRing("quotient", names, add, mul, int(table[ring.one]),
                   {"kind": "quotient", "parent": ring, "ideal": ideal})
    return q, RingMap(ring, q, table, f"rho_{ideal.describe()}")


class LocalFactor:
    def __init__(self, max_ideal: Ideal, ring: FiniteRing, proj: RingMap):
        self.max_ideal = max_ideal   # maximal ideal of the parent ring
        self.ring = ring             # the local factor ring
        self.proj = proj             # parent -> factor


class LocalDecomposition:
    """R ~ product of local factor rings, via primitive idempotents."""

    def __init__(self, ring: FiniteRing, factors: list[LocalFactor]):
        self.ring = ring
        self.factors = factors
        sizes = [f.ring.size for f in factors]
        total = 1
        for s in sizes:
            total *= s
        if total != ring.size:
            raise AssertionError("local factor sizes do not multiply up to |R|")
        # injectivity of the combined projection
        keys = {tuple(int(f.proj.table[x]) for f in factors) for x in range(ring.size)}
        if len(keys) != ring.size:
            raise AssertionError("combined projection is not injective")
        self._combine_index = None

    @property
    def is_local(self) -> bool:
        return len(self.factors) == 1

    def combine_index(self) -> np.ndarray:
        """Array indexed by factor-element tuples giving the parent element."""
        if self._combine_index is None:
            shape = tuple(f.ring.size for f in self.factors)
            idx = -np.ones(shape, dtype=np.int32)
            for x in range(self.ring.size):
                key = tuple(int(f.proj.table[x]) for f in self.factors)
                idx[key] = x
            if (idx < 0).any():
                raise AssertionError("combined projection is not surjective")
            self._combine_index = idx
        return self._combine_index


def local_decomposition(ring: FiniteRing) -> LocalDecomposition:
    idx = np.arange(ring.size)
    idem = np.nonzero(ring.mul[idx, idx] == idx)[0].tolist()
    nonzero = [e for e in idem if e != 0]
    # atoms of the Boolean algebra of idempotents: e minimal under e*f = e
    prim = []
    for e in nonzero:
        if all(f == e or int(ring.mul[e, f]) != f for f in nonzero):
            prim.append(e)
    prim.sort()
    # orthogonality and completeness
    s = 0
    for e in prim:
        s = int(ring.add[s, e])
    if s != ring.one:
        raise AssertionError("primitive idempotents do not sum to 1")
    factors = []
    if len(prim) == 1:
        # local ring: keep R itself, with identity projection
        proj = identity_map(ring)
        nonunits = np.nonzero(~ring.units)[0]
        maxi = Ideal(ring, nonunits.tolist(), gens=sorted(nonunits.tolist()))
        factors.append(LocalFactor(maxi, ring, proj))
    else:
        for e in prim:
            comp = int(ring.add[ring.one, ring.neg[e]])  # 1 - e
            ker = Ideal.from_gens(ring, [comp])
            fac, proj = quotient_ring(ring, ker)
            nonunit = ~fac.units[proj.table]
            maxi = Ideal(ring, np.nonzero(nonunit)[0].tolist(),
                         gens=sorted(np.nonzero(nonunit)[0].tolist()))
            factors.append(LocalFactor(maxi, fac, proj))
    return LocalDecomposition(ring, factors)


def is_local(ring: FiniteRing) -> bool:
    return local_decomposition(ring).is_local


def is_field(ring: FiniteRing) -> bool:
    return bool(ring.units[1:].all()) if ring.size > 1 else False
