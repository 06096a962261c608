import random
import time
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado.cnf import (
    BINARY,
    DIRECT,
    CnfError,
    CnfInstance,
    coloring_to_model,
    export_cnf,
    import_model,
    parse_dimacs,
    parse_model,
    write_dimacs,
)
from rado.equations import parse_equation
from rado.solutions import EdgeSet, build_hyperedges
from rado.solver import COLORABLE, Coloring, find_coloring


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


def schur_n4_text():
    eq = parse_equation("x+y=z")
    return write_dimacs(export_cnf(eq, build_hyperedges(eq, 4), 2))


def test_parse_dimacs_rejects_other_problem_type():
    with pytest.raises(CnfError, match="line 7: bad problem line 'p dnf 4 9'"):
        parse_dimacs(schur_n4_text().replace("p cnf", "p dnf"))


def test_parse_dimacs_requires_n_comment():
    with pytest.raises(CnfError, match="missing 'c n' header comment"):
        parse_dimacs(schur_n4_text().replace("c n 4\n", ""))


def test_import_rejects_literal_out_of_range():
    inst = parse_dimacs(schur_n4_text())
    with pytest.raises(CnfError, match="model literal 7 out of range"):
        import_model([-1, 2, 3, -4, 7], inst)


def test_unconstrained_vertices_default_to_color_one():
    eq = parse_equation("x^2+y^2=z^2")
    edges = build_hyperedges(eq, 6)  # only {3,4,5}
    inst = export_cnf(eq, edges, 2, BINARY)
    coloring = import_model([3, -4, -5], inst)
    assert coloring.colors == (1, 1, 2, 1, 1, 1)


def test_import_direct_rejects_incomplete_model():
    eq = parse_equation("x+y=z")
    inst = export_cnf(eq, build_hyperedges(eq, 4), 3)
    assert inst.encoding == DIRECT
    # vertex 1 has color 1; vertices 2..4 are unassigned, the first is named
    with pytest.raises(CnfError, match="^incomplete model: vertex 2 has no color$"):
        import_model([1, -2, -3], inst)


def test_import_direct_rejects_vertex_with_every_color_false():
    eq = parse_equation("x+y=z")
    inst = export_cnf(eq, build_hyperedges(eq, 4), 3)
    with pytest.raises(CnfError, match="^vertex 1 has no color: at-least-one violated$"):
        import_model([-v for v in range(1, 13)], inst)


def test_import_direct_unconstrained_vertices_default_to_color_one():
    # a direct instance whose clauses leave vertex 3 (variables 5, 6) out
    inst = CnfInstance("x+y=z", 3, 2, DIRECT, 6,
                       [[-2], [1, 2], [-1, -2], [3, 4], [-3, -4], [-1, -3]])
    assert import_model([1, -2, -3, 4], inst).colors == (1, 2, 1)


def test_import_rejects_unknown_encoding():
    inst = CnfInstance("x+y=z", 2, 2, "unary", 2, [[1, 2]])
    with pytest.raises(CnfError, match="unknown encoding 'unary'"):
        import_model([1, -2], inst)


@pytest.mark.parametrize("coloring", [
    Coloring(4, 3, (1, 3, 3, 1)),
    Coloring(6, 2, (1, 2, 2, 1, 1, 2)),
    Coloring(3, 2, (1, 2, 2)),
])
def test_coloring_to_model_rejects_other_size_or_palette(coloring):
    eq = parse_equation("x+y=z")
    inst = export_cnf(eq, build_hyperedges(eq, 4), 2, BINARY)
    with pytest.raises(CnfError, match="coloring"):
        coloring_to_model(coloring, inst)


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


@st.composite
def edge_sets(draw):
    """Random hyperedges over [1, n], in the (largest value, tuple) order
    build_hyperedges returns."""
    n = draw(st.integers(1, 30))
    edges = draw(st.sets(
        st.sets(st.integers(1, n), min_size=1, max_size=4).map(lambda e: tuple(sorted(e))),
        max_size=40,
    ))
    return EdgeSet(n, tuple(sorted(edges, key=lambda e: (e[-1], e))))


def reference_dimacs(inst):
    header = (f"c rado-cnf v1\nc equation {inst.equation}\nc n {inst.n}\nc r {inst.r}\n"
              f"c encoding {inst.encoding}\nc tool rado-solver 0.1.0\n"
              f"p cnf {inst.variable_count} {len(inst.clauses)}\n")
    return header + "".join(" ".join(map(str, c)) + " 0\n" for c in inst.clauses)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(edge_sets(), st.sampled_from([(2, BINARY), (2, DIRECT), (3, DIRECT)]))
def test_dimacs_parse_round_trip(edges, encoding):
    r, encoding = encoding
    inst = export_cnf(parse_equation("x+y=z"), edges, r, encoding)
    text = write_dimacs(inst)
    assert text == reference_dimacs(inst)
    assert parse_dimacs(text) == inst


def list_clauses(edges, r, encoding):
    """The clauses of export_cnf as they were built before the flat store:
    one list per clause."""
    n = edges.n
    smallest = min((e[0] for e in edges.edges), default=None)
    clauses = []
    if encoding == BINARY:
        if smallest is not None:
            clauses.append([-smallest])
        for e in edges.edges:
            clauses += [list(e), [-v for v in e]]
        return clauses
    neg = [[-((i - 1) * r + c) for i in range(n + 1)] for c in range(1, r + 1)]
    if smallest is not None:
        clauses.append([-neg[0][smallest]])
    for i in range(1, n + 1):
        clauses.append([-row[i] for row in neg])
        clauses.extend([a[i], b[i]] for a, b in combinations(neg, 2))
    for e in edges.edges:
        for row in neg:
            clauses.append([row[v] for v in e])
    return clauses


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(edge_sets(), st.sampled_from([(2, BINARY), (2, DIRECT), (3, DIRECT)]))
def test_clause_store_matches_clause_lists(edges, encoding):
    r, encoding = encoding
    inst = export_cnf(parse_equation("x+y=z"), edges, r, encoding)
    lists = list_clauses(edges, r, encoding)
    assert list(inst.clauses) == lists
    assert inst.clauses == lists and lists == inst.clauses
    assert inst.clauses != lists + [[1]] and lists + [[1]] != inst.clauses
    assert len(inst.clauses) == inst.clause_count == inst.clauses.literals.count(0)
    assert parse_dimacs(write_dimacs(inst)).clauses == inst.clauses
    built = CnfInstance(inst.equation, inst.n, r, encoding, inst.variable_count, lists)
    assert built == inst and built.clauses.literals == inst.clauses.literals


def test_write_dimacs_matches_reference_on_exports():
    for text, n, r in (("x^2+y^2=z^2", 300, 2), ("x1^2+x2^2+x3^2=z^2", 25, 3),
                       ("x+y=z", 40, 4)):
        eq = parse_equation(text)
        inst = export_cnf(eq, build_hyperedges(eq, n), r)
        assert write_dimacs(inst) == reference_dimacs(inst)


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


def per_token_parse_dimacs(text):
    """The parser as it was before the token memo and the header checks:
    an int() per token and a second walk over every literal."""
    meta = {}
    variable_count = None
    clause_count = None
    clauses = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c "):
            parts = line[2:].split(None, 1)
            if len(parts) == 2 and parts[0] in ("equation", "n", "r", "encoding"):
                key, value = parts
                meta[key] = header_int(value, lineno, line) if key in ("n", "r") else value
            continue
        if line.startswith("p "):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError(f"line {lineno}: bad problem line {line!r}")
            variable_count = header_int(fields[2], lineno, line)
            clause_count = header_int(fields[3], lineno, line)
            continue
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise CnfError(f"line {lineno}: bad clause {line!r}") from None
        if not lits or lits[-1] != 0:
            raise CnfError(f"line {lineno}: clause must end with 0")
        clauses.append(lits[:-1])
    if variable_count is None:
        raise CnfError("missing problem line")
    if clause_count != len(clauses):
        raise CnfError(
            f"problem line declares {clause_count} clauses, found {len(clauses)}"
        )
    for key in ("equation", "n", "r", "encoding"):
        if key not in meta:
            raise CnfError(f"missing 'c {key}' header comment")
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > variable_count:
                raise CnfError(f"literal {lit} out of range")
    return (meta["equation"], meta["n"], meta["r"], meta["encoding"], variable_count, clauses)


def header_int(token, lineno, line):
    try:
        return int(token)
    except ValueError:
        raise CnfError(f"line {lineno}: non-integer field in {line!r}") from None


@lru_cache(maxsize=None)
def exported_text(text, n, r, encoding):
    eq = parse_equation(text)
    return write_dimacs(export_cnf(eq, build_hyperedges(eq, n), r, encoding))


HEADER_LINES = 7
EDITS = ("plus", "zeros", "tab", "crlf", "indent", "comment", "stray c", "inner zero",
         "out of range", "non-integer", "no final zero", "blank")


def edit_dimacs(text, edits, line_end):
    """Apply (kind, line, token) edits to the clause lines of exported text,
    then end each of them with line_end; the header is left alone, so it
    stays consistent."""
    lines = text.split("\n")[:-1]
    variable_count = int(lines[HEADER_LINES - 1].split()[2])
    for kind, at, k in edits:
        i = HEADER_LINES + at % (len(lines) - HEADER_LINES + 1)
        inserted = {"comment": "c a comment between clauses", "stray c": "c",
                    "blank": " \t"}.get(kind)
        if inserted is not None or i == len(lines):
            lines.insert(i, inserted if inserted is not None else "1 0")
            continue
        toks = lines[i].split(" ")
        j = k % len(toks)
        if kind == "plus" and not toks[j].startswith("-"):
            toks[j] = "+" + toks[j]
        elif kind == "zeros":
            toks[j] = toks[j].replace("-", "-00") if toks[j].startswith("-") else "00" + toks[j]
        elif kind == "inner zero":
            toks.insert(j, "0")
        elif kind == "out of range":
            toks[j] = str((variable_count + 1 + k % 3) * (-1) ** k)
        elif kind == "non-integer":
            toks[j] = ("x", "1.5", "--1", "1e3")[k % 4]
        elif kind == "no final zero" and toks[-1] == "0":
            toks.pop()
        line = " ".join(toks)
        if kind == "tab":
            line = line.replace(" ", "\t", 1 + k % 2)
        elif kind == "crlf":
            line += "\r"
        elif kind == "indent":
            line = ("  ", "\t", " \t ")[k % 3] + line
        lines[i] = line
    lines[HEADER_LINES:] = [line + line_end for line in lines[HEADER_LINES:]]
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        inst = parse(text)
    except CnfError as exc:
        return "error", str(exc)
    if isinstance(inst, tuple):
        return "ok", inst
    return "ok", (inst.equation, inst.n, inst.r, inst.encoding, inst.variable_count,
                  inst.clauses)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["x+y=z", "x^2+y^2=z^2", "a+b+c=d", "x1^2+x2^2+x3^2=z^2"]),
    st.integers(1, 16),
    st.sampled_from([(2, BINARY), (2, DIRECT), (3, DIRECT)]),
    # lines drawn from the first few too, so that edits meet on one line
    st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 3) | st.integers(0, 10**6),
                       st.integers(0, 40)), max_size=4),
    st.sampled_from(["", " ", "\t", "\r", " \t "]),
)
def test_parse_dimacs_matches_per_token_parser(text, n, encoding, edits, line_end):
    r, encoding = encoding
    edited = edit_dimacs(exported_text(text, n, r, encoding), edits, line_end)
    assert parse_outcome(parse_dimacs, edited) == parse_outcome(per_token_parse_dimacs, edited)


def test_parse_dimacs_names_first_out_of_range_literal():
    head = "c equation x+y=z\nc n 2\nc r 2\nc encoding binary\np cnf 2 3\n"
    with pytest.raises(CnfError, match="^literal 3 out of range$"):
        parse_dimacs(head + "1 2 0\n-1 3 0\n-4 0\n")
    with pytest.raises(CnfError, match="^literal -4 out of range$"):
        parse_dimacs(head + "1 2 0\n-4 1 0\n3 0\n")
    with pytest.raises(CnfError, match="^literal 0 out of range$"):
        parse_dimacs(head + "1 2 0\n1 0 2 0\n-1 0\n")


def test_parse_dimacs_huge_declared_variable_count():
    text = ("c equation x+y=z\nc n 1000000000\nc r 2\nc encoding binary\n"
            "p cnf 1000000000 1\n1 -1000000000 0\n")
    start = time.perf_counter()
    inst = parse_dimacs(text)
    assert time.perf_counter() - start < 1.0
    assert inst.variable_count == 1_000_000_000
    assert inst.clauses == [[1, -1_000_000_000]]


@pytest.mark.parametrize("text,message", [
    ("c equation e\nc n 10\nc r 2\nc encoding binary\np cnf 4 1\n1 0\n",
     "declares 4 variables, binary encoding of n=10, r=2 has 10"),
    ("c equation e\nc n 2\nc r 3\nc encoding binary\np cnf 2 1\n1 0\n",
     "binary encoding requires r=2"),
    ("c equation e\nc n 2\nc r 2\nc encoding banana\np cnf -3 0\n",
     "unknown encoding 'banana'"),
    ("c equation e\nc n 2\nc r 3\nc encoding direct\np cnf 2 1\n1 0\n",
     "declares 2 variables, direct encoding of n=2, r=3 has 6"),
    ("c equation e\nc n 0\nc r 2\nc encoding binary\np cnf 0 0\n",
     "n must be >= 1, got 0"),
    ("c equation e\nc n 2\nc r 0\nc encoding direct\np cnf 0 0\n",
     "r must be >= 1, got 0"),
], ids=["n-over-variables", "binary-r3", "banana", "direct-variables", "n0", "r0"])
def test_parse_dimacs_rejects_inconsistent_header(text, message):
    with pytest.raises(CnfError, match=message):
        parse_dimacs(text)
