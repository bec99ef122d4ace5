"""Contour trees with exact interval-volume splines on tetrahedral meshes."""

from .contourtree import (ContourTree, build_contour_tree, build_join_tree,
                          build_split_tree, merge_trees, superarc_at_value)
from .decomposition import Branch, decompose, top_branches
from .geometry import TetSpline, build_tet_spline
from .hypersweep import (ArcWeights, SuperarcVolume, compute_deltas,
                         count_regular_nodes, count_weights, sweep_volumes,
                         volume_weights)
from .isosurface import (TriangleSoup, euler_characteristic,
                         extract_superarc_contour, march_tets, write_obj)
from .mesh import (TetMesh, build_topology_graph, build_vertex_order,
                   grid_to_tets, load_raw_grid, load_tetgen)

__all__ = [
    "ArcWeights", "Branch", "ContourTree", "SuperarcVolume", "TetMesh",
    "TetSpline", "TriangleSoup", "build_contour_tree", "build_join_tree",
    "build_split_tree", "build_tet_spline", "build_topology_graph",
    "build_vertex_order", "compute_deltas", "count_regular_nodes",
    "count_weights", "decompose", "euler_characteristic",
    "extract_superarc_contour", "grid_to_tets", "load_raw_grid",
    "load_tetgen", "march_tets", "merge_trees", "superarc_at_value",
    "sweep_volumes", "top_branches", "volume_weights", "write_obj",
]

__version__ = "0.1.0"
