"""Exact-arithmetic workbench for a recursive tower of homogeneous blocks,
the lattice shift action on it, and radius-of-comparison certificates."""

from .action import (LevelPermutation, check_equivariance, level_permutation,
                     outerness_witness)
from .certificates import (LedgerRow, WitnessReport, search_witness,
                           verify_witness_json)
from .comparison import (ProjectionSymbol, chern_min_embedding_rank,
                         projection_pair)
from .crossed import check_crossed_sizes, check_upper_bound_gap
from .diagram import (DiagramDocument, build_diagram_document,
                      diagram_to_json_obj, export_diagram, render_dot)
from .rational import ExtendedRational, parse_fraction
from .sequences import (GrowthTables, TargetParams, build_tables,
                        derive_kappa, tables_from_cli, verify_tables)
from .tower import (ConnectingMap, build_connecting_map, check_unital,
                    lattice_maps, multiplicity_matrix, verify_tower)

__all__ = [
    "ConnectingMap",
    "DiagramDocument",
    "ExtendedRational",
    "GrowthTables",
    "LedgerRow",
    "LevelPermutation",
    "ProjectionSymbol",
    "TargetParams",
    "WitnessReport",
    "build_connecting_map",
    "build_diagram_document",
    "build_tables",
    "check_crossed_sizes",
    "check_equivariance",
    "check_unital",
    "check_upper_bound_gap",
    "chern_min_embedding_rank",
    "derive_kappa",
    "diagram_to_json_obj",
    "export_diagram",
    "lattice_maps",
    "level_permutation",
    "multiplicity_matrix",
    "outerness_witness",
    "parse_fraction",
    "projection_pair",
    "render_dot",
    "search_witness",
    "tables_from_cli",
    "verify_tables",
    "verify_tower",
    "verify_witness_json",
]

__version__ = "0.1.0"
