"""The four end-to-end workloads: seeded inputs, set-up, one timed op, oracle.

Every workload runs on the distributed backend (``DistBackend``) in the
library's default configuration (fast path on, SPMD pool off, no fault
plan).  The shared-memory backend bills only a few ops, so its simulated
seconds are not yet a comparable metric.

The runner in ``run.py`` drives a workload through three calls:

* ``setup()`` builds everything from the seed and runs one untimed
  warm-up op;
* ``prepare(i)`` builds op ``i``'s inputs (untimed) and returns the call
  to time;
* ``finish(i, out)`` turns that call's output into an :class:`OpRecord`,
  checking it against an independent scipy/numpy oracle (untimed).

Op ``i``'s inputs depend only on ``(seed, i)``, so the first ops of a run,
from which the simulated metrics are taken, repeat exactly per seed.
The library receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

import repro
from repro import algorithms, generators
from repro.exec import DistBackend
from repro.runtime import CostLedger, LocaleGrid, Machine
from repro.service import GraphQueryService, QuerySpec
from repro.streaming import GraphStream, UpdateBatch

#: Input sizes and run shape of every workload.  ``sim_ops`` is how many
#: leading ops the simulated metrics are taken from (fixed, so they repeat
#: per seed); ``threads`` is the simulated threads per locale.
SIZES = {
    "bfs": {"n": 200_000, "degree": 8, "p": 16, "threads": 24, "sim_ops": 100,
            "checked_ops": 32},
    "pagerank": {"n": 50_000, "degree": 8, "p": 16, "threads": 24, "sim_ops": 8,
                 "tol": 1e-8, "max_l1": 1e-6},
    "triangle": {"scale": 11, "edge_factor": 8, "p": 16, "threads": 24, "sim_ops": 8},
    "serve": {"scale": 12, "edge_factor": 8, "p": 4, "threads": 2, "sim_ops": 15,
              "tenants": 4, "queries": 200, "rate": 150.0, "ladder": (150.0, 225.0, 300.0),
              "bfs_share": 0.8, "zipf": 1.2, "update_every": 20, "update_inserts": 24,
              "update_deletes": 8, "warmup_queries": 40, "latency_limit_s": 0.03,
              "backlog_limit_s": 0.1},
}


@dataclass
class OpRecord:
    """What one timed op produced, as the metrics need it."""

    answers: int
    """User-visible results: 1 per algorithm run, or the queries served."""
    attempted: int
    """Results asked for (queries submitted, for ``serve``)."""
    sim_s: float
    """Simulated seconds the op billed to the ledger."""
    latencies: np.ndarray
    """Simulated latency of each answer (``serve``: from the due time)."""
    wrong: int = 0
    """Answers that disagree with the oracle (a stale answer is wrong)."""
    rejected: int = 0
    """Queries the service refused."""
    sim_by_label: dict = field(default_factory=dict)
    """Simulated seconds by the last segment of the ledger label."""
    extra: dict = field(default_factory=dict)
    """Service-layer observations (``serve`` only)."""


def rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one use of the seed."""
    return np.random.default_rng([seed, *stream])


def make_machine(p: int, threads: int) -> Machine:
    """A ledgered simulated machine of ``p`` locales."""
    return Machine(grid=LocaleGrid.for_count(p), threads_per_locale=threads, ledger=CostLedger())


def to_scipy(a) -> sp.csr_matrix:
    """The oracle's copy of a generated ``CSRMatrix``."""
    return sp.csr_matrix((a.values.copy(), a.colidx.copy(), a.rowptr.copy()), shape=a.shape)


def undirected(a, weights: np.random.Generator | None = None) -> repro.CSRMatrix:
    """``A + Aᵀ`` without self-loops (an undirected graph): values one, or
    symmetric U(0.5, 2) edge weights drawn from ``weights``."""
    coo = to_scipy(a).tocoo()
    rows = np.concatenate([coo.row, coo.col])
    cols = np.concatenate([coo.col, coo.row])
    keep = rows != cols
    m = sp.csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=a.shape)
    if weights is None:
        m.data[:] = 1.0
    else:
        low = sp.tril(m, -1).tocsr()
        low.data = weights.uniform(0.5, 2.0, low.nnz)
        m = (low + low.T).tocsr()
    m.sort_indices()
    return repro.CSRMatrix(
        m.shape[0], m.shape[1], m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data,
    )


def label_key(label: str) -> str:
    """The ledger label's last segment without its ``[...]`` suffix."""
    return label.rsplit(":", 1)[-1].split("[", 1)[0]


def drain_ledger(machine: Machine) -> tuple[float, dict]:
    """Simulated seconds recorded since the last drain (total, by label),
    then empty the ledger so a long run does not grow it."""
    ledger = machine.ledger
    by_label: dict[str, float] = {}
    for label, breakdown in ledger.entries:
        key = label_key(label)
        by_label[key] = by_label.get(key, 0.0) + breakdown.total
    total = sum(b.total for _, b in ledger.entries)
    ledger.reset()
    return total, by_label


def bfs_oracle(graph: sp.csr_matrix, sources) -> np.ndarray:
    """BFS levels (-1 unreachable) from scipy's unweighted shortest paths,
    one row per source when ``sources`` is an array."""
    d = csgraph.shortest_path(graph, directed=True, unweighted=True, indices=sources)
    return np.where(np.isinf(d), -1, d).astype(np.int64)


def pagerank_oracle(graph: sp.csr_matrix, damping: float = 0.85, tol: float = 1e-13) -> np.ndarray:
    """PageRank by a plain numpy power iteration (dangling mass spread uniformly)."""
    n = graph.shape[0]
    out = np.asarray(graph.sum(axis=1)).ravel()
    dangling = out == 0
    inv = np.zeros(n)
    inv[~dangling] = 1.0 / out[~dangling]
    step = (sp.diags(inv) @ graph).T.tocsr()
    rank = np.full(n, 1.0 / n)
    for _ in range(10_000):
        new = damping * (step @ rank + rank[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(new - rank).sum() < tol:
            return new
        rank = new
    raise RuntimeError("oracle PageRank did not converge")


def triangle_oracle(graph: sp.csr_matrix) -> int:
    """Triangles of an undirected simple graph: sum of (L·Lᵀ) ∘ L."""
    low = sp.tril(graph, -1).tocsr()
    return int((low @ low.T).multiply(low).sum())


class Workload:
    """A workload for one seed; ``sizes`` defaults to its :data:`SIZES` entry."""

    name = ""

    def __init__(self, seed: int, sizes: dict | None = None) -> None:
        self.seed = seed
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)
        self.sim_ops = self.sizes["sim_ops"]
        self._plan = [0, 0]

    def count_plans(self, backend: DistBackend) -> None:
        """Add a finished session's dispatcher plan-cache hits and misses."""
        st = backend.dispatcher.plan_cache.stats()
        self._plan[0] += st["hits"]
        self._plan[1] += st["misses"]

    def plan_stats(self) -> tuple[int, int]:
        """Dispatcher plan-cache (hits, misses) summed over the sessions."""
        return self._plan[0], self._plan[1]


class _Batch(Workload):
    """Shared shape of the closed-loop batch workloads (one caller).

    The distributed graph and the machine live for the whole run; each op
    is one client session, a fresh ``DistBackend`` over them.  A backend
    kept across ops would hold every per-run matrix it transposed (its
    transpose cache keeps the handles alive), so peak memory would grow
    with the number of ops a run gets through.
    """

    def graph(self) -> repro.CSRMatrix:
        raise NotImplementedError

    def call(self, i: int, backend: DistBackend):
        """The op ``i`` call on ``backend``."""
        raise NotImplementedError

    def setup(self) -> None:
        s = self.sizes
        a = self.graph()
        self.oracle_graph = to_scipy(a)
        self.machine = make_machine(s["p"], s["threads"])
        self.handle = DistBackend(self.machine).matrix(a)
        self._expected = None
        self.prepare(0)()  # warm-up: buffer pool, lazy imports
        self.record(False)

    def prepare(self, i: int):
        self.backend = DistBackend(self.machine)
        return self.call(i, self.backend)

    def record(self, wrong: bool) -> OpRecord:
        self.count_plans(self.backend)
        sim, by_label = drain_ledger(self.machine)
        return OpRecord(1, 1, sim, np.array([sim]), wrong=int(wrong), sim_by_label=by_label)


class Bfs(_Batch):
    """Level-synchronous BFS from seeded uniform sources (SpMSpV-bound)."""

    name = "bfs"

    def graph(self):
        s = self.sizes
        return undirected(
            generators.erdos_renyi(s["n"], s["degree"], seed=rng(self.seed, 0), values="one")
        )

    def source(self, i: int) -> int:
        return int(rng(self.seed, 1, i).integers(self.sizes["n"]))

    def call(self, i: int, backend: DistBackend):
        src = self.source(i)
        return lambda: algorithms.bfs_levels(self.handle, src, backend=backend)

    def finish(self, i: int, levels) -> OpRecord:
        wrong = False
        if i < self.sizes["checked_ops"]:
            wrong = not np.array_equal(levels, bfs_oracle(self.oracle_graph, self.source(i)))
        return self.record(wrong)


class PageRank(_Batch):
    """PageRank power iteration to a fixed tolerance (dense SpMV path)."""

    name = "pagerank"

    def graph(self):
        s = self.sizes
        return generators.erdos_renyi(s["n"], s["degree"], seed=rng(self.seed, 0), values="one")

    def call(self, i: int, backend: DistBackend):
        return lambda: algorithms.pagerank(self.handle, tol=self.sizes["tol"], backend=backend)

    def finish(self, i: int, rank) -> OpRecord:
        if self._expected is None:
            self._expected = pagerank_oracle(self.oracle_graph)
        return self.record(np.abs(rank - self._expected).sum() > self.sizes["max_l1"])


class Triangle(_Batch):
    """Masked L·Lᵀ triangle count on a skewed R-MAT graph (SpGEMM path)."""

    name = "triangle"

    def graph(self):
        s = self.sizes
        return undirected(generators.rmat(s["scale"], s["edge_factor"], seed=rng(self.seed, 0)))

    def call(self, i: int, backend: DistBackend):
        return lambda: algorithms.count_triangles(self.handle, backend=backend)

    def finish(self, i: int, count) -> OpRecord:
        if self._expected is None:
            self._expected = triangle_oracle(self.oracle_graph)
        return self.record(count != self._expected)


# ---------------------------------------------------------------------------
# serve: an open-loop query service with writes beside reads
# ---------------------------------------------------------------------------


@dataclass
class Episode:
    """One open-loop traffic trace against a fresh service."""

    rate: float
    due: np.ndarray
    sources: np.ndarray
    algos: np.ndarray
    tenants: np.ndarray
    updates: list
    """``(due, (rows, cols, weights), (rows, cols))`` insert/delete batches."""


def edge_keys(a) -> tuple[np.ndarray, np.ndarray]:
    """Sorted linear keys ``row * n + col`` and weights of a CSR matrix."""
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(a.rowptr))
    return rows * a.ncols + a.colidx, a.values.astype(np.float64)


def apply_edges(keys, weights, n, inserts, deletes):
    """The mirror's update rule: deletes first, then inserts overwrite
    (the last of duplicate inserts wins)."""
    keep = ~np.isin(keys, deletes[0] * n + deletes[1])
    keys, weights = keys[keep], weights[keep]
    ins = (inserts[0] * n + inserts[1])[::-1]
    uniq, first = np.unique(ins, return_index=True)
    keep = ~np.isin(keys, uniq)
    keys = np.concatenate([keys[keep], uniq])
    weights = np.concatenate([weights[keep], inserts[2][::-1][first]])
    order = np.argsort(keys)
    return keys[order], weights[order]


def parse_ledger(entries) -> tuple[dict, dict, float]:
    """Epoch and batch scope of every executed request, from ledger order.

    ``stream[epoch=k]`` entries move the epoch; each ``svc[req=a+b]``
    entry ran at the epoch last seen.  Returns ``{request id: (epoch,
    scope)}``, simulated seconds per scope, and total stream-apply seconds.
    """
    epoch, apply_s = 0, 0.0
    ran: dict[int, tuple[int, str]] = {}
    exec_s: dict[str, float] = {}
    for label, breakdown in entries:
        head = label.split(":", 1)[0]
        if head.startswith("stream[epoch="):
            epoch = int(head[len("stream[epoch="):-1])
            apply_s += breakdown.total
        elif head.startswith("svc[req="):
            exec_s[head] = exec_s.get(head, 0.0) + breakdown.total
            for rid in head[len("svc[req="):-1].split("+"):
                ran[int(rid)] = (epoch, head)
    return ran, exec_s, apply_s


def answers_match(algo: str, got: np.ndarray, expected: np.ndarray) -> bool:
    if algo == "bfs":
        return np.array_equal(got, expected)
    inf = np.isinf(expected)
    return bool(np.array_equal(np.isinf(got), inf)
                and np.allclose(got[~inf], expected[~inf], rtol=1e-12, atol=0.0))


class Serve(Workload):
    """``GraphQueryService`` over a ``GraphStream``: open-loop Poisson
    BFS/SSSP queries from Zipf-popular sources with update batches
    arriving beside them.  One op is one episode of ``queries`` arrivals
    against a fresh service at the operating ``rate``."""

    name = "serve"

    def setup(self) -> None:
        s = self.sizes
        self.base = undirected(
            generators.rmat(s["scale"], s["edge_factor"], seed=rng(self.seed, 0)), rng(self.seed, 3)
        )
        self.n = self.base.nrows
        # only vertices with edges are queried: a traversal from an isolated
        # vertex is free, so which vertices are popular would swing the load
        live = np.flatnonzero(np.diff(self.base.rowptr))
        self.popularity = rng(self.seed, 1).permutation(live)
        self.base_keys, self.base_weights = edge_keys(self.base)
        self._current = None
        self.run_episode(self.episode((1, 0), s["rate"], s["warmup_queries"]))

    def episode(self, key: tuple, rate: float, queries: int) -> Episode:
        """The trace for ``key``: ``(0, i)`` window op ``i``, ``(1, 0)``
        warm-up, ``(2, k)`` ladder rung ``k``."""
        s, n = self.sizes, self.n
        g = rng(self.seed, 2, *key)
        due = np.cumsum(g.exponential(1.0 / rate, queries))
        sources = self.popularity[(g.zipf(s["zipf"], queries) - 1) % self.popularity.size]
        algos = np.where(g.random(queries) < s["bfs_share"], "bfs", "sssp")
        tenants = g.integers(0, s["tenants"], queries)
        updates = []
        for k in range(queries // s["update_every"]):
            # undirected edges: every insert and delete goes both ways
            u, v = g.integers(0, n, (2, s["update_inserts"]))
            w = g.uniform(0.5, 2.0, s["update_inserts"])
            dels = g.choice(self.base_keys, s["update_deletes"])
            du, dv = dels // n, dels % n
            ins = (np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]))
            updates.append(((k + 1) * s["update_every"] / rate, ins,
                            (np.concatenate([du, dv]), np.concatenate([dv, du]))))
        return Episode(rate, due, sources, algos, tenants, updates)

    def start(self, ep: Episode):
        """Build a fresh service, submit the whole trace, return its run."""
        s, n = self.sizes, self.n
        backend = DistBackend(make_machine(s["p"], s["threads"]))
        svc = GraphQueryService(backend, GraphStream(backend, self.base.copy()))
        reqs = [
            svc.submit(f"tenant{t}", QuerySpec(str(a), int(src)), at=float(d))
            for d, src, a, t in zip(ep.due, ep.sources, ep.algos, ep.tenants)
        ]
        for when, ins, dels in ep.updates:
            svc.submit_update(UpdateBatch.from_edges(n, n, inserts=ins, deletes=dels), at=when)
        self._current = (ep, backend, svc, reqs)
        return svc.run

    def run_episode(self, ep: Episode) -> OpRecord:
        """An untimed episode (warm-up and the rate ladder)."""
        self.start(ep)()
        return self.finish(-1, None)

    def prepare(self, i: int):
        s = self.sizes
        return self.start(self.episode((0, i), s["rate"], s["queries"]))

    def finish(self, i: int, _out) -> OpRecord:
        ep, backend, svc, reqs = self._current
        self._current = None
        self.count_plans(backend)
        ran, exec_s, apply_s = parse_ledger(backend.machine.ledger.entries)
        sim, by_label = drain_ledger(backend.machine)
        update_due = np.array([u[0] for u in ep.updates])
        lat, wait, lag, epochs = [], [], [], {}
        rejected = cached = 0
        for req, due in zip(reqs, ep.due):
            if req.status != "done":
                rejected += 1
                continue
            lat.append(req.finish - due)
            lag.append(req.arrival - due)  # the service rewrites arrival to its late start
            if req.via == "cache":
                cached += 1
                wait.append(0.0)
                # arrivals and updates are ordered by due time in the event loop
                epoch = int(np.searchsorted(update_due, due))
            else:
                epoch, scope = ran[req.id]
                wait.append(req.finish - exec_s[scope] - req.arrival)
            epochs.setdefault((epoch, req.query.algo), []).append(req)
        wrong = self.check(ep, epochs)
        done = len(lat)
        return OpRecord(
            answers=done, attempted=len(reqs), sim_s=sim, latencies=np.array(lat),
            wrong=wrong, rejected=rejected, sim_by_label=by_label,
            extra={
                "queue_wait": np.array(wait), "arrival_lag": np.array(lag),
                "cache_served": cached, "executed": done - cached, "batches": len(exec_s),
                "apply_s": apply_s,
                "backlog_s": max((r.finish for r in reqs if r.finish is not None), default=0.0)
                - float(ep.due[-1]),
            },
        )

    def check(self, ep: Episode, epochs: dict) -> int:
        """Compare every answer with the mirror graph at its epoch."""
        n = self.n
        states = [(self.base_keys, self.base_weights)]
        wrong = 0
        for (epoch, algo), reqs in sorted(epochs.items(), key=lambda kv: kv[0]):
            while len(states) <= epoch:
                _, ins, dels = ep.updates[len(states) - 1]
                states.append(apply_edges(*states[-1], n, ins, dels))
            keys, weights = states[epoch]
            g = sp.csr_matrix((weights, (keys // n, keys % n)), shape=(n, n))
            srcs = np.unique([r.query.source for r in reqs])
            if algo == "bfs":
                expected = bfs_oracle(g, srcs)
            else:
                expected = csgraph.dijkstra(g, directed=True, indices=srcs)
            row = {int(s): k for k, s in enumerate(srcs)}
            wrong += sum(
                not answers_match(algo, r.result, expected[row[r.query.source]]) for r in reqs
            )
        return wrong

    def ladder(self) -> dict[float, OpRecord]:
        """One untimed episode at each ladder rate (the operating rate's
        rung is the window's own episodes, so it is not rerun)."""
        s = self.sizes
        return {
            rate: self.run_episode(self.episode((2, k), rate, s["queries"]))
            for k, rate in enumerate(s["ladder"]) if rate != s["rate"]
        }


WORKLOADS = {cls.name: cls for cls in (Bfs, PageRank, Triangle, Serve)}
