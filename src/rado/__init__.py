"""Rado numbers of quadratic and linear Diophantine equations by
exhaustive coloring search, with coloring certificates and CNF export."""

from .equations import (
    Equation,
    EquationError,
    ParseError,
    Term,
    family_equation,
    parse_equation,
)
from .solutions import (
    EdgeSet,
    OverflowGuardError,
    SolutionCapError,
    SolutionTuple,
    build_hyperedges,
    dp_feasible,
    edges_to_json,
    enumerate_solutions,
    iter_canonical_solutions,
)
from .solver import (
    Coloring,
    RadoOutcome,
    SearchOutcome,
    SearchParams,
    SearchStats,
    SolverError,
    compute_rado,
    find_coloring,
    oracle_colorable,
)
from .cnf import (
    CnfError,
    CnfInstance,
    coloring_to_model,
    export_cnf,
    import_model,
    parse_dimacs,
    parse_model,
    write_dimacs,
)
from .certificate import (
    Certificate,
    CertificateError,
    Verdict,
    parse_certificate,
    verify,
    verify_text,
    write_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "Equation", "EquationError", "ParseError", "Term",
    "family_equation", "parse_equation",
    "EdgeSet", "OverflowGuardError", "SolutionCapError",
    "SolutionTuple", "build_hyperedges", "dp_feasible", "edges_to_json",
    "enumerate_solutions", "iter_canonical_solutions",
    "Coloring", "RadoOutcome", "SearchOutcome", "SearchParams", "SearchStats",
    "SolverError", "compute_rado", "find_coloring", "oracle_colorable",
    "CnfError", "CnfInstance", "coloring_to_model", "export_cnf",
    "import_model", "parse_dimacs", "parse_model", "write_dimacs",
    "Certificate", "CertificateError", "Verdict", "parse_certificate",
    "verify", "verify_text", "write_certificate",
    "__version__",
]
