"""Graph operations and degree/adjacency pencil energies."""

from .graphs import (Graph, DegreeInfo, EdgeListError, MAX_EDGES, MAX_VERTICES,
                     adjacency_matrix, complete, complete_bipartite, cycle,
                     degree_info, is_connected, path, petersen,
                     read_edge_list, write_edge_list)
from .ops import (OpDescriptor, apply_op, central_graph, closed_shadow_graph,
                  closed_splitting_graph, duplicate_graph, ebd_graph,
                  iterated_line_graph, line_graph, middle_graph, op_label,
                  parse_op, shadow_graph, splitting_graph)
from .linalg import (RationalPoly, Spectrum, SymMatrix, charpoly_exact,
                     make_spectrum, multiset_deviation, poly_roots_real,
                     sym_eigenvalues)
from .spectra import (AlphaValue, EnergyReport, a_alpha_exact, a_alpha_matrix,
                      alpha, alpha_energies, alpha_energy, alpha_spectrum)
from .closed_forms import (CLOSED_FORMS, ClosedForm, RegularBase,
                           VerificationRecord, cf_central_spectrum,
                           cf_closed_shadow_spectrum, cf_closed_splitting_spectrum,
                           cf_ebd_spectrum, cf_middle_spectrum,
                           cf_remark_energies, cf_splitting_spectrum,
                           closed_form_identity, verify_closed_form)
from .analysis import (BulletResult, ClassificationResult, ObservationsReport,
                       SweepTable, classify, energy_report_json, format_csv,
                       format_table_json, observations_report,
                       reference_energy, sweep_table, table1, table1_rows,
                       tenth_grid)

__all__ = [
    "Graph", "DegreeInfo", "EdgeListError", "MAX_EDGES", "MAX_VERTICES",
    "adjacency_matrix", "complete", "complete_bipartite", "cycle",
    "degree_info", "is_connected", "path", "petersen", "read_edge_list",
    "write_edge_list",
    "OpDescriptor", "apply_op", "central_graph", "closed_shadow_graph",
    "closed_splitting_graph", "duplicate_graph", "ebd_graph",
    "iterated_line_graph", "line_graph", "middle_graph", "op_label",
    "parse_op", "shadow_graph", "splitting_graph",
    "RationalPoly", "Spectrum", "SymMatrix", "charpoly_exact",
    "make_spectrum", "multiset_deviation", "poly_roots_real",
    "sym_eigenvalues",
    "AlphaValue", "EnergyReport", "a_alpha_exact", "a_alpha_matrix",
    "alpha", "alpha_energies", "alpha_energy", "alpha_spectrum",
    "CLOSED_FORMS", "ClosedForm", "RegularBase", "VerificationRecord",
    "cf_central_spectrum", "cf_closed_shadow_spectrum",
    "cf_closed_splitting_spectrum", "cf_ebd_spectrum",
    "cf_middle_spectrum", "cf_remark_energies", "cf_splitting_spectrum",
    "closed_form_identity", "verify_closed_form",
    "BulletResult", "ClassificationResult", "ObservationsReport",
    "SweepTable", "classify", "energy_report_json", "format_csv",
    "format_table_json", "observations_report", "reference_energy",
    "sweep_table", "table1", "table1_rows", "tenth_grid",
]
