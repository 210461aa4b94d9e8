"""Correctness oracle for chevnet scenario reports, independent of chevnet.

Group orders come from Steinberg's formula for Chevalley groups over a
finite field F_q (*Lectures on Chevalley Groups*):

    |G_ad(Phi, F_q)| = q^N * prod_i (q^{d_i} - 1)

with N the number of positive roots and d_i the degrees of the Weyl group.
Over a finite local ring R with residue field F_q and radical J the
reduction map is onto with kernel of order |J|^dim, and a finite ring is
the product of its local factors, so

    |G_ad(Phi, R)| = prod over local factors of q^N * prod_i (q^{d_i} - 1) * |J|^dim.

`check_report` returns a list of problems; an empty list means the report
passed every check below:

(a) the unit-constant gate holds and every requested check is `pass`;
(b) `sizes.full_group`, when reported (it must be over a local ring),
    equals the closed form;
(c) reported sizes obey Lagrange: E_hat | S_sigma, G_sigma | S_sigma,
    S_sigma | |G(Phi, R)|, and finiteindex has S_size = G_size * quotient;
(d) on a full net, S_sigma is the whole group: |S_sigma| = |G(Phi, R)|;
(e) a sampled check reports `sampled(k)` with 0 < k <= the samples asked for.
    A scenario that asks for no samples must be checked exactly, so that a
    change cannot swap an exact check for a sampled one unseen.
"""

from __future__ import annotations

import re

# Weyl group degrees d_i by root-system letter, as a function of the rank.
_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "B": lambda n: [2 * i for i in range(1, n + 1)],
    "C": lambda n: [2 * i for i in range(1, n + 1)],
    "D": lambda n: [2 * i for i in range(1, n)] + [n],
    "G": lambda n: [2, 6],
}

_SAMPLED = re.compile(r"^sampled\((\d+)\)$")


def degrees(root_system: str) -> list[int]:
    letter, rank = root_system[0], int(root_system[1:])
    return _DEGREES[letter](rank)


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def local_factors(ring: dict) -> list[tuple[int, int]]:
    """(residue field size q, radical size |J|) for each local factor."""
    kind = ring["kind"]
    if kind == "zmod":
        return [(p, p ** (e - 1)) for p, e in _factorize(int(ring["n"]))]
    if kind == "polyquot":
        m = re.fullmatch(r"t\^(\d+)|t", ring["modulus"].replace(" ", ""))
        if not m:
            raise ValueError(f"oracle handles moduli t^k only, got {ring['modulus']!r}")
        k = int(m.group(1) or 1)
        p = int(ring["p"])
        return [(p, p ** (k - 1))]
    if kind == "product":
        return [f for sub in ring["factors"] for f in local_factors(sub)]
    raise ValueError(f"unknown ring kind {kind!r}")


def group_order(root_system: str, ring: dict) -> int:
    """|G_ad(Phi, R)| by Steinberg's formula over each local factor."""
    ds = degrees(root_system)
    npos = sum(d - 1 for d in ds)
    dim = len(ds) + 2 * npos
    total = 1
    for q, jsize in local_factors(ring):
        field = q ** npos
        for d in ds:
            field *= q ** d - 1
        total *= field * jsize ** dim
    return total


def _name(chk) -> str:
    return chk if isinstance(chk, str) else chk["name"]


def check_report(spec: dict, report: dict) -> list[str]:
    """Problems found in one scenario report; [] when it is correct."""
    where = spec["name"]
    probs = []
    want = [_name(c) for c in spec["checks"]]
    got = [c["name"] for c in report.get("checks", [])]
    if got != want:
        probs.append(f"{where}: checks {got} reported, {want} requested")
    # (a)
    if not report.get("condition_star", {}).get("holds"):
        probs.append(f"{where}: unit-constant gate reported as failing")
    for chk in report.get("checks", []):
        if chk.get("status") != "pass":
            probs.append(f"{where}: {chk.get('name')} is {chk.get('status')}: "
                         f"{chk.get('reason')}")
    order = group_order(spec["root_system"], spec["ring"])
    sizes = report.get("sizes", {})
    # (b)
    local = len(local_factors(spec["ring"])) == 1
    if "full_group" in sizes:
        if sizes["full_group"] != order:
            probs.append(f"{where}: full_group {sizes['full_group']} != closed form {order}")
    elif local:
        probs.append(f"{where}: full_group not reported over a local ring")
    # (c)
    s_size = sizes.get("S_sigma")
    for sub in ("E_hat", "G_sigma"):
        if s_size and sub in sizes and s_size % sizes[sub]:
            probs.append(f"{where}: {sub} {sizes[sub]} does not divide S_sigma {s_size}")
    if s_size and order % s_size:
        probs.append(f"{where}: S_sigma {s_size} does not divide |G| {order}")
    for chk in report.get("checks", []):
        det = chk.get("details", {})
        if chk.get("name") == "finiteindex" and chk.get("status") == "pass":
            if det.get("S_size") != det.get("G_size", 0) * det.get("quotient", 0):
                probs.append(f"{where}: finiteindex S_size {det.get('S_size')} != "
                             f"G_size {det.get('G_size')} * quotient {det.get('quotient')}")
    # (d)
    net = report.get("net", {})
    if net and all(v == "(1)" for v in net.values()) and s_size != order:
        probs.append(f"{where}: full net but S_sigma {s_size} != |G| {order}")
    # (e)
    asked = spec.get("sample_instances")
    for chk in report.get("checks", []):
        mode = chk.get("mode", "exact")
        if mode == "exact":
            continue
        m = _SAMPLED.match(mode)
        if not m:
            probs.append(f"{where}: {chk.get('name')} has unknown mode {mode!r}")
        elif asked is None or not 0 < int(m.group(1)) <= asked:
            probs.append(f"{where}: {chk.get('name')} reports {mode} for "
                         f"{asked} samples requested")
    return probs
