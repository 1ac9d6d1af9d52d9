#!/usr/bin/env python
"""Tour of the backend API: one op surface over plain storage handles.

Every algorithm in :mod:`repro.algorithms` is written once against the
:class:`~repro.exec.Backend` protocol; this tour drives the same ops by
hand.  On :class:`~repro.exec.ShmBackend` the handles are the
``CSRMatrix``/``SparseVector`` storage itself.  The tour builds a small
social-network-style graph and answers questions with single calls:

* who is reachable in two hops (masked matrix product, complemented mask);
* mutual-friend counts (PLUS_PAIR);
* a BFS written with vxm + complemented masks;
* shortest paths on the tropical semiring;
* distributed execution of the same product via the distributed backend.

Run: ``python examples/api_tour.py``
"""

import numpy as np

import repro
from repro import CSRMatrix, DistBackend, ShmBackend, SparseVector
from repro.algebra import MIN_MONOID, MIN_PLUS, PLUS_PAIR
from repro.algebra.functional import OFFDIAG
from repro.exec import COMPLEMENT
from repro.runtime import CostLedger, LocaleGrid, Machine


def main() -> None:
    b = ShmBackend()
    # a tiny friendship graph (undirected)
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    both = edges + [(v, u) for u, v in edges]
    rows, cols = [u for u, _ in both], [v for _, v in both]
    g = b.matrix(CSRMatrix.from_triples(6, 6, rows, cols, np.ones(len(both))))
    n, m = b.shape(g)
    print(f"graph: {n}x{m}, nnz={b.matrix_nnz(g)}")

    # -- two-hop reachability, excluding direct friends and self ----------
    two_hop = b.select_matrix(b.mxm(g, g, mask=g, desc=COMPLEMENT), OFFDIAG)
    print("\nfriend-of-friend pairs (not already friends):")
    coo = two_hop.to_coo()
    for u, v in zip(coo.rows, coo.cols):
        if u < v:
            print(f"  {u} — {v}")

    # -- mutual friends via the (plus, pair) semiring ----------------------
    mutual = b.mxm(g, b.transpose(g), semiring=PLUS_PAIR, mask=g)
    print("\nmutual-friend counts along existing edges:")
    coo = mutual.to_coo()
    for u, v, c in zip(coo.rows, coo.cols, coo.values):
        if u < v:
            print(f"  {u} — {v}: {int(c)} mutual")

    # -- BFS with vxm + complemented masks ----------------------------------
    frontier = b.vector_from_pairs(6, [0], [1.0])
    visited = np.zeros(6, dtype=bool)
    visited[0] = True
    level = 0
    print("\nBFS from 0:")
    while b.vector_nnz(frontier):
        print(f"  level {level}: vertices {sorted(frontier.indices.tolist())}")
        frontier = b.vxm(frontier, g, mask=visited, desc=COMPLEMENT)
        visited[frontier.indices] = True
        level += 1

    # -- shortest paths on the tropical semiring -----------------------------
    w = b.matrix(
        CSRMatrix.from_triples(
            6, 6, rows, cols, np.tile([1.0, 2.0, 1.5, 1.0, 2.5, 1.0, 2.0], 2)
        )
    )
    d = b.vector(SparseVector.from_pairs(6, [0], [0.0]))
    for _ in range(5):
        step = b.vxm(d, w, semiring=MIN_PLUS)
        d = b.ewise_add(d, step, MIN_MONOID)
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
