"""Empty placeholder for the deleted per-locale process pool.

The distributed kernels run every locale's work in one serial loop; the
opt-in process pool that used to live here was deleted because it never
paid for its code (0.48x on BFS and 0.55x on triangle in the last
``BENCH_wall.json`` that measured it).  The module stays only because
``benchmarks/e2e/tracer.py`` still names a ``runtime.spmd`` layer and
imports it; with nothing here the tracer reports 0 calls for that layer.
The next change to the end-to-end benchmark drops the layer from the
tracer and deletes this file (ROADMAP, "For the next change to the
end-to-end benchmark").
"""
