"""The benchmark's workloads: scenario sets generated from a seed.

Each workload is a list of scenario dicts in the format `chevnet verify`
reads.  The seed chooses each scenario's own `seed`, which drives the
sampled words and sampled elements of the checks.  It never changes a
ring, a net, a check list or the order of the scenarios, so every seed does
the same enumerations.  The order stays fixed because the process's peak
RSS depends on it: freed memory is not all returned to the system between
scenarios.
"""

from __future__ import annotations

import copy
import random

# Samples for the sampled certificates of the beyond-budget workload.  The
# program's default (12,000) makes a single run about twice as long; the
# element budget stays at the program's default.
BEYOND_SAMPLES = 1000

_SHAPES = {
    # local rings whose ambient group (20k-52k elements) is enumerated by BFS
    "ambient_bfs": [
        {"name": "S1_A2_Z4", "root_system": "A2", "delta": ["a1"],
         "ring": {"kind": "zmod", "n": 4}, "net": {"a2": ["2"]},
         "checks": ["jacobson", "local", "normal", "finiteindex",
                    "semilocal_G", "gauss"]},
        {"name": "S3_B2_F3", "root_system": "B2", "delta": ["a2"],
         "ring": {"kind": "zmod", "n": 3}, "net": {},
         "checks": ["local", "normal"]},
        {"name": "S4_A3_F2", "root_system": "A3", "delta": ["a1", "a2"],
         "ring": {"kind": "zmod", "n": 2}, "net": {},
         "checks": ["normal", {"name": "standard_commutator", "ideal": []},
                    "nilpotent_by_abelian",
                    {"name": "relative_generators", "ideal": "R"}]},
        {"name": "S5_A2_F2eps", "root_system": "A2", "delta": ["a1"],
         "ring": {"kind": "polyquot", "p": 2, "modulus": "t^2"},
         "net": {"a2": ["t"]},
         "checks": ["jacobson", "local", "normal", "semilocal_G", "gauss"]},
        {"name": "decompose_B2_F3", "root_system": "B2", "delta": ["a2"],
         "ring": {"kind": "zmod", "n": 3}, "net": {},
         "checks": [{"name": "decompose_field", "delta_prime": ["a2", "-a2"]}]},
    ],
    # a product ring and a full net: many single products, small BFS
    "conjugation": [
        {"name": "S2_A2_F2xF3", "root_system": "A2", "delta": ["a1"],
         "ring": {"kind": "product",
                  "factors": [{"kind": "zmod", "n": 2}, {"kind": "zmod", "n": 3}]},
         "net": {"a2": ["(0,1)"]},
         "checks": ["jacobson", "normal", "finiteindex", "semilocal_G"]},
        {"name": "full_net_A2_F3", "root_system": "A2", "delta": ["a1"],
         "ring": {"kind": "zmod", "n": 3}, "net": {"a2": ["1"], "-a2": ["1"]},
         "checks": ["local", "normal", "semilocal_G"]},
    ],
    # A3/Z4: S(sigma) and E(sigma) are out of reach of the default budget
    "beyond_budget": [
        {"name": "S4p_A3_Z4", "root_system": "A3", "delta": ["a1", "a2"],
         "ring": {"kind": "zmod", "n": 4}, "net": {"a3": ["2"], "-a3": ["2"]},
         "checks": [{"name": "standard_commutator", "ideal": ["2"]},
                    "nilpotent_by_abelian"],
         "sample_instances": BEYOND_SAMPLES},
    ],
}

WORKLOADS = tuple(_SHAPES)


def scenarios(workload: str, seed: int) -> list[dict]:
    """The workload's scenario dicts for this seed, in run order."""
    if workload not in _SHAPES:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for shape in _SHAPES[workload]:
        scn = copy.deepcopy(shape)
        scn["seed"] = rng.randrange(1, 2**31)
        out.append(scn)
    return out
