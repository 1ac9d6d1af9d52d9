"""Graph algorithms composed from GraphBLAS operations."""

from .bc import betweenness_centrality
from .bfs import (
    bfs_levels,
    bfs_levels_batch,
    bfs_levels_dispatch,
    bfs_levels_incremental,
    bfs_parents,
)
from .bfs_do import bfs_levels_do
from .cc import (
    connected_components,
    connected_components_incremental,
    num_components,
)
from .coloring import greedy_coloring, is_valid_coloring
from .delta_stepping import delta_stepping
from .kcore import kcore_decomposition, kcore_subgraph
from .ktruss import edge_support, ktruss
from .lcc import average_clustering, local_clustering, triangles_per_vertex
from .matching import is_valid_matching, maximal_matching
from .mis import maximal_independent_set
from .pagerank import pagerank, pagerank_incremental
from .sssp import NegativeCycleError, sssp, sssp_batch
from .triangle import count_triangles

__all__ = [
    "betweenness_centrality",
    "bfs_levels",
    "bfs_levels_batch",
    "bfs_levels_dispatch",
    "bfs_levels_incremental",
    "bfs_levels_do",
    "bfs_parents",
    "connected_components",
    "connected_components_incremental",
    "greedy_coloring",
    "is_valid_coloring",
    "delta_stepping",
    "kcore_decomposition",
    "kcore_subgraph",
    "ktruss",
    "edge_support",
    "local_clustering",
    "average_clustering",
    "triangles_per_vertex",
    "maximal_matching",
    "is_valid_matching",
    "maximal_independent_set",
    "num_components",
    "pagerank",
    "pagerank_incremental",
    "sssp",
    "sssp_batch",
    "NegativeCycleError",
    "count_triangles",
]
