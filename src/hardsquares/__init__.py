"""Homology of configuration spaces of hard squares in a rectangle."""

from .apexgraph import ApexGraph, ApexVertex
from .grid import (
    Piece,
    apex_of,
    boundary,
    cell_dim,
    enumerate_cells,
    f_vector,
    is_valid_cell,
    pieces_overlap,
    sliding_puzzle_counts,
    snap,
)
from .homology import AuditFailure, ChainComplex, SparseMatrix, audit, betti, rank
from .morse import (
    BrokenPairing,
    MorseComplex,
    build_morse_complex,
    cell_status,
    critical_counts,
    match_cell,
    match_string,
    morse_boundary,
    verify_acyclic,
)
from .oracle import (
    CellCapExceeded,
    classify_regime,
    conf_plane_betti,
    direct_betti,
)

__version__ = "0.1.0"
