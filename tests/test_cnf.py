import random

import pytest

from rado.cnf import (
    BINARY,
    DIRECT,
    CnfError,
    coloring_to_model,
    export_cnf,
    import_model,
    parse_dimacs,
    parse_model,
    write_dimacs,
)
from rado.equations import parse_equation
from rado.solutions import build_hyperedges
from rado.solver import COLORABLE, find_coloring


def schur_n2():
    eq = parse_equation("x+y=z")
    return eq, build_hyperedges(eq, 2)


def test_binary_example_exact_text():
    eq, edges = schur_n2()
    assert edges.edges == ((1, 2),)
    inst = export_cnf(eq, edges, 2, BINARY)
    assert inst.variable_count == 2
    assert inst.clause_count == 3
    assert write_dimacs(inst) == (
        "c rado-cnf v1\n"
        "c equation x+y=z\n"
        "c n 2\n"
        "c r 2\n"
        "c encoding binary\n"
        "c tool rado-solver 0.1.0\n"
        "p cnf 2 3\n"
        "-1 0\n"
        "1 2 0\n"
        "-1 -2 0\n"
    )


def test_direct_example_counts():
    eq, edges = schur_n2()
    inst = export_cnf(eq, edges, 2, DIRECT)
    assert inst.variable_count == 4
    assert inst.clause_count == 2 * (1 + 1) + 1 * 2 + 1  # == 7


@pytest.mark.parametrize("text,n,r", [
    ("x+y=z", 9, 2),
    ("x^2+y^2=z^2", 30, 2),
    ("x+y=z", 7, 3),
    ("x1^2+x2^2+x3^2=z^2", 20, 4),
])
def test_clause_count_formulas(text, n, r):
    eq = parse_equation(text)
    edges = build_hyperedges(eq, n)
    m = len(edges)
    if r == 2:
        binary = export_cnf(eq, edges, 2, BINARY)
        assert binary.clause_count == 2 * m + 1
        assert binary.variable_count == n
    direct = export_cnf(eq, edges, r, DIRECT)
    assert direct.clause_count == n * (1 + r * (r - 1) // 2) + m * r + 1
    assert direct.variable_count == n * r


def test_default_encoding_by_r():
    eq, edges = schur_n2()
    assert export_cnf(eq, edges, 2).encoding == BINARY
    assert export_cnf(eq, edges, 3).encoding == DIRECT


def test_binary_requires_two_colors():
    eq, edges = schur_n2()
    with pytest.raises(CnfError, match="binary"):
        export_cnf(eq, edges, 3, BINARY)


def test_empty_edge_set_omits_symmetry():
    eq = parse_equation("x^2+y^2=z^2")
    edges = build_hyperedges(eq, 4)
    assert len(edges) == 0
    binary = export_cnf(eq, edges, 2, BINARY)
    assert binary.clause_count == 0
    direct = export_cnf(eq, edges, 2, DIRECT)
    assert direct.clause_count == 4 * 2  # per-vertex clauses only


def test_import_binary_example():
    eq, edges = schur_n2()
    inst = export_cnf(eq, edges, 2, BINARY)
    coloring = import_model([-1, 2], inst)
    assert coloring.colors == (1, 2)


def test_import_direct_example():
    eq, edges = schur_n2()
    inst = export_cnf(eq, edges, 2, DIRECT)
    # v(1,1) and v(2,2) true, others false
    coloring = import_model([1, -2, -3, 4], inst)
    assert coloring.colors == (1, 2)


def test_import_direct_rejects_amo_violation():
    eq, edges = schur_n2()
    inst = export_cnf(eq, edges, 2, DIRECT)
    with pytest.raises(CnfError, match="at-most-one"):
        import_model([1, 2, -3, 4], inst)


def test_import_rejects_incomplete_model():
    eq, edges = schur_n2()
    inst = export_cnf(eq, edges, 2, BINARY)
    with pytest.raises(CnfError, match="incomplete"):
        import_model([-1], inst)


def test_unconstrained_vertices_default_to_color_one():
    eq = parse_equation("x^2+y^2=z^2")
    edges = build_hyperedges(eq, 6)  # only {3,4,5}
    inst = export_cnf(eq, edges, 2, BINARY)
    coloring = import_model([3, -4, -5], inst)
    assert coloring.colors == (1, 1, 2, 1, 1, 1)


def test_model_round_trip_both_encodings():
    rng = random.Random(5)
    eq = parse_equation("x^2+y^2=z^2")
    for n in (5, 13, 25):
        edges = build_hyperedges(eq, n)
        out = find_coloring(eq, n, 2)
        assert out.verdict == COLORABLE
        for encoding in (BINARY, DIRECT):
            inst = export_cnf(eq, edges, 2, encoding)
            model = coloring_to_model(out.coloring, inst)
            back = import_model(model, inst)
            assert back == out.coloring
        # random perturbations still import to *some* total coloring
        inst = export_cnf(eq, edges, 2, BINARY)
        lits = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
        assert import_model(lits, inst).n == n


def test_export_deterministic():
    eq = parse_equation("x^2+y^2=z^2")
    edges = build_hyperedges(eq, 40)
    a = write_dimacs(export_cnf(eq, edges, 2, BINARY))
    b = write_dimacs(export_cnf(eq, build_hyperedges(eq, 40), 2, BINARY))
    assert a == b
    assert a.endswith("0\n") and not a.endswith("\n\n")


def test_dimacs_parse_round_trip():
    eq = parse_equation("x1^2+x2^2+x3^2=z^2")
    edges = build_hyperedges(eq, 15)
    for r, encoding in ((2, BINARY), (3, DIRECT)):
        inst = export_cnf(eq, edges, r, encoding)
        back = parse_dimacs(write_dimacs(inst))
        assert back == inst


def test_parse_model_forms():
    assert parse_model("v 1 -2 3\nv -4 0\n") == [1, -2, 3, -4]
    assert parse_model("1 -2 3 -4 0") == [1, -2, 3, -4]
    assert parse_model("s SATISFIABLE\nv -1 2 0\n") == [-1, 2]
    assert parse_model("-1 2") == [-1, 2]
    with pytest.raises(CnfError, match="both ways"):
        parse_model("1 -1 0")
    with pytest.raises(CnfError, match="bad model literal"):
        parse_model("1 two 0")


def test_parse_dimacs_errors():
    with pytest.raises(CnfError, match="problem line"):
        parse_dimacs("c equation x+y=z\n1 2 0\n")
    eq, edges = schur_n2()
    text = write_dimacs(export_cnf(eq, edges, 2, BINARY))
    with pytest.raises(CnfError, match="declares"):
        parse_dimacs(text.replace("p cnf 2 3", "p cnf 2 4"))
    with pytest.raises(CnfError, match="end with 0"):
        parse_dimacs("c equation e\nc n 1\nc r 2\nc encoding binary\np cnf 1 1\n1\n")
    # a non-integer header field is a CnfError with its line, not a ValueError
    with pytest.raises(CnfError, match="line 1: non-integer"):
        parse_dimacs("p cnf a 1\n1 0\n")
    with pytest.raises(CnfError, match="line 2: non-integer"):
        parse_dimacs("c equation e\nc n x\nc r 2\nc encoding binary\np cnf 1 1\n1 0\n")


def test_imported_model_has_no_mono_edge():
    eq = parse_equation("x^2+y^2=z^2")
    n = 30
    edges = build_hyperedges(eq, n)
    out = find_coloring(eq, n, 2)
    inst = export_cnf(eq, edges, 2, BINARY)
    model = coloring_to_model(out.coloring, inst)
    coloring = import_model(model, inst)
    for e in edges.edges:
        assert len({coloring.color_of(v) for v in e}) > 1
