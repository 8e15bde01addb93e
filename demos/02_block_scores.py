#!/usr/bin/env python3
"""Scoring each two-outcome block against its exact quantum maximum.

The certified tables decompose into 2x2 blocks, one per pair of adjacent
outcomes, in two interleaved families. Each block carries a tilted
two-setting Bell expression whose quantum maximum sqrt(8 + 2 alpha^2),
scaled by the block's probability mass, is reached exactly by the target
state. Saturating every block at once is what pins the state down.
"""

import numpy as np

from selftesting import (
    SchmidtCoefficients,
    block_scores,
    blocks,
    compute_tables,
    ideal_realization,
)

# Maximally entangled qubits first: the tilt vanishes and the score is the
# familiar 2*sqrt(2).
sc = SchmidtCoefficients(np.array([1.0, 1.0]) / np.sqrt(2))
score = block_scores(compute_tables(ideal_realization(sc)), sc)[0]
print(f"maximal pair: beta = {score.beta:.12f}  (2*sqrt(2) = {2 * np.sqrt(2):.12f})")

# A four-level state with distinct weights per block.
sc4 = SchmidtCoefficients(np.array([0.8, 0.4, 0.4, 0.2]))
tables = compute_tables(ideal_realization(sc4))

print(f"\nd=4 coefficients {sc4.c}")
print(f"{'family':>8} {'block':>5} {'pair':>8} {'mass':>8} {'tilt':>9} "
      f"{'score':>10} {'target':>10} {'residual':>9}")
for s in block_scores(tables, sc4):
    family = "primed" if s.primed else "plain"
    print(f"{family:>8} {s.m:>5} {str(s.pair):>8} {s.mass:>8.4f} {s.alpha:>9.5f} "
          f"{s.beta:>10.6f} {s.target:>10.6f} {s.residual:>9.1e}")

# Every block must also clear the scaled classical ceiling (2 + |tilt|) * mass.
print("\nquantum vs classical, per block:")
for s in block_scores(tables, sc4):
    classical = (2.0 + abs(s.alpha)) * s.mass
    print(f"  block ({s.primed}, {s.m}): score {s.beta:.6f} > classical {classical:.6f}")

# The tilt per block is a function of the coefficient ratio alone; the
# wrap-around block of even d pairs the last outcome with the first.
wrap = block_scores(tables, sc4)[-1]
block = blocks(sc4)[-1]
print(f"\nwrap block pair {wrap.pair}: tilt {wrap.alpha:.6f} "
      f"(block table says {block.pair}, {block.alpha:.6f})")
