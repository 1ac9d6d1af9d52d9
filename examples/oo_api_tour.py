#!/usr/bin/env python
"""Tour of the object-oriented API: Matrix, Vector, masks, and semirings.

The functional layer mirrors the paper's Chapel procedures; this layer is
what an application would import.  The tour builds a small social-network-
style graph and answers questions with one-liners:

* who is reachable in two hops (masked matrix product);
* mutual-friend counts (PLUS_PAIR);
* a BFS written with vxm + complemented masks;
* distributed execution of the same product via the distributed backend.

Run: ``python examples/oo_api_tour.py``
"""

import numpy as np

import repro
from repro import DistBackend, Matrix, Vector
from repro.algebra import MIN_MONOID, MIN_PLUS, PLUS_PAIR
from repro.algebra.functional import OFFDIAG
from repro.runtime import CostLedger, LocaleGrid, Machine


def main() -> None:
    # a tiny friendship graph (undirected)
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    both = edges + [(v, u) for u, v in edges]
    g = Matrix.from_edges(6, both)
    print(f"graph: {g}")

    # -- two-hop reachability, excluding direct friends and self ----------
    two_hop = (g @ g).masked(~g.as_mask()).select(OFFDIAG)
    print("\nfriend-of-friend pairs (not already friends):")
    coo = two_hop.to_coo()
    for u, v in zip(coo.rows, coo.cols):
        if u < v:
            print(f"  {u} — {v}")

    # -- mutual friends via the (plus, pair) semiring ----------------------
    mutual = g.mxm(g.T, semiring=PLUS_PAIR).masked(g)
    print("\nmutual-friend counts along existing edges:")
    coo = mutual.to_coo()
    for u, v, c in zip(coo.rows, coo.cols, coo.values):
        if u < v:
            print(f"  {u} — {v}: {int(c)} mutual")

    # -- BFS with vxm + complemented masks ----------------------------------
    frontier = Vector.from_pairs(6, [0], [1.0])
    visited = frontier.dup()
    level = 0
    print("\nBFS from 0:")
    while frontier.nnz:
        print(f"  level {level}: vertices {sorted(frontier.indices.tolist())}")
        frontier = frontier.vxm(g, mask=~visited.as_mask())
        visited = visited.ewise_add(frontier)
        level += 1

    # -- shortest paths on the tropical semiring -----------------------------
    w = Matrix.from_triples(
        6, 6,
        [u for u, _ in both], [v for _, v in both],
        np.tile([1.0, 2.0, 1.5, 1.0, 2.5, 1.0, 2.0], 2),
    )
    d = Vector.from_pairs(6, [0], [0.0])
    for _ in range(5):
        step = d.vxm(w, semiring=MIN_PLUS)
        d = d.ewise_add(step, MIN_MONOID)
    print("\ntropical 5-step distances from 0:", dict(zip(d.indices.tolist(), d.values.round(2))))

    # -- the same product on a simulated 16-node cluster ----------------------
    ledger = CostLedger()
    machine = Machine(grid=LocaleGrid.for_count(16), threads_per_locale=24, ledger=ledger)
    big = repro.erdos_renyi(20_000, 8, seed=1)
    x = repro.random_sparse_vector(20_000, density=0.01, seed=2)
    dist = DistBackend(machine)
    y = dist.vxm(dist.vector(x), dist.matrix(big))
    print(f"\ndistributed vxm on 16 nodes: nnz(y)={dist.vector_nnz(y)}")
    print("simulated cost:", ledger.by_component())


if __name__ == "__main__":
    main()
