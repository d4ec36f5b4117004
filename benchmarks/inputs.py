"""Seeded workload inputs.

The seed picks each workload's concrete inputs from a narrow size band in
which the amount of work is held nearly constant, so runs with different
seeds measure the same load on different inputs. Inputs depend only on the
workload name and the seed, never on the polyhex code under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("adjudicate", "sweep", "large_tube")
KINDS = ("armchair", "zigzag")

# adjudicate: grid of a m-values (m = 2..a+1) by b n-values (n = 1..b).
ADJUDICATE_SIDES = range(23, 28)
ADJUDICATE_TARGET = (25, 25)
# sweep: 149 m-values by 150 n-values per kind, offset from the domain corner.
SWEEP_M_COUNT, SWEEP_N_COUNT = 149, 150
SWEEP_M_START, SWEEP_N_START = range(2, 22), range(1, 21)
# large_tube: m*n held near 300*300, i.e. about 271k edges per armchair tube.
LARGE_M = range(290, 311)
LARGE_MN = 300 * 300


def _grid_edges(a: int, b: int) -> int:
    """Edges of every armchair and zigzag tube on the m=2..a+1, n=1..b grid."""
    return sum(6 * m * n + 6 * m for m in range(2, a + 2) for n in range(1, b + 1))


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs for one workload; the same (workload, seed) always gives the same."""
    rng = random.Random(f"polyhex-bench:{workload}:{seed}")
    if workload == "adjudicate":
        a = rng.choice(ADJUDICATE_SIDES)
        target = _grid_edges(*ADJUDICATE_TARGET)
        b = min(range(15, 36), key=lambda b: abs(_grid_edges(a, b) - target))
        return {"m_range": [2, a + 1], "n_range": [1, b]}
    if workload == "sweep":
        m0, n0 = rng.choice(SWEEP_M_START), rng.choice(SWEEP_N_START)
        return {
            "m_range": [m0, m0 + SWEEP_M_COUNT - 1],
            "n_range": [n0, n0 + SWEEP_N_COUNT - 1],
        }
    if workload == "large_tube":
        tubes = []
        for kind in KINDS:
            m = rng.choice(LARGE_M)
            tubes.append({"kind": kind, "m": m, "n": round(LARGE_MN / m)})
        return {"tubes": tubes}
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
