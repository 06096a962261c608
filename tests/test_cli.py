import json

import pytest

from rado.cli import main
from rado.cnf import parse_dimacs
from rado.solver import find_coloring
from rado.equations import parse_equation
from rado.solutions import build_hyperedges
from rado.cnf import coloring_to_model, export_cnf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solutions_edges(capsys):
    code, out, _ = run(capsys, "solutions", "x^2+y^2=z^2", "--max", "13", "--edges")
    assert code == 0
    assert out.splitlines() == ["3 4 5", "6 8 10", "5 12 13"]


def test_solutions_listing(capsys):
    code, out, _ = run(capsys, "solutions", "x+y=z", "--max", "2")
    assert code == 0
    assert out.splitlines() == ["x=1 y=1 z=2"]


def test_solutions_mixed_degree_exit_2(capsys):
    code, _, err = run(capsys, "solutions", "x^2+y=z")
    assert code == 2
    assert "mixed degrees" in err


def test_solutions_requires_max(capsys):
    code, _, err = run(capsys, "solutions", "x+y=z")
    assert code == 2
    assert "--max" in err


def test_solutions_edges_json_schema(capsys):
    code, out, _ = run(capsys, "solutions", "x^2+y^2=z^2", "--max", "13",
                       "--edges", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "equation": "x^2+y^2=z^2",
        "n": 13,
        "edges": [[3, 4, 5], [6, 8, 10], [5, 12, 13]],
    }


def test_color_colorable(capsys):
    code, out, _ = run(capsys, "color", "x+y=z", "-n", "4", "-r", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "colorable"
    colors = [int(c) for c in lines[1].split()]
    assert len(colors) == 4


def test_color_uncolorable(capsys):
    code, out, _ = run(capsys, "color", "x+y=z", "-n", "5", "-r", "2")
    assert code == 0
    assert out.splitlines()[0] == "uncolorable"


def test_color_budget_exit_3(capsys):
    code, out, _ = run(capsys, "color", "x1^2+x2^2+x3^2=z^2", "-n", "105",
                       "-r", "2", "--timeout", "0.02")
    assert code == 3
    assert out.splitlines()[0] == "budget-exhausted"


def test_rado_schur(capsys):
    code, out, _ = run(capsys, "rado", "x+y=z", "-r", "2")
    assert code == 0
    assert out.splitlines()[0] == "exact 5"
    code, out, _ = run(capsys, "rado", "x+y=z", "-r", "1")
    assert code == 0
    assert out.splitlines()[0] == "exact 2"


def test_rado_lower_bound_with_cert(capsys, tmp_path):
    cert = tmp_path / "w.crt"
    code, out, _ = run(capsys, "rado", "x^2+y^2=z^2", "-r", "2",
                       "--cap", "60", "--cert", str(cert))
    assert code == 3
    assert out.splitlines()[0] == "lower-bound 60"
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0
    assert out.strip() == "valid"


def test_rado_exact_cert_verifies(capsys, tmp_path):
    cert = tmp_path / "w.crt"
    code, out, _ = run(capsys, "rado", "x+y=z", "-r", "2", "--cert", str(cert))
    assert code == 0
    text = cert.read_text()
    assert text.startswith("rado-cert v1\ne x+y=z\nn 4\nr 2\nclaim rado-exact 5\n")
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0


def test_color_cert_verifies(capsys, tmp_path):
    cert = tmp_path / "c.crt"
    code, _, _ = run(capsys, "color", "x^2+y^2=z^2", "-n", "30", "-r", "2",
                     "--cert", str(cert))
    assert code == 0
    assert "claim colorable" in cert.read_text()
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0 and out.strip() == "valid"


def test_verify_invalid_message(capsys, tmp_path):
    bad = tmp_path / "bad.crt"
    bad.write_text("rado-cert v1\ne x+y=z\nn 2\nr 2\nk 1 1\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert out.strip() == "invalid: 1+1=2"


def test_verify_malformed_exit_2(capsys, tmp_path):
    junk = tmp_path / "junk.crt"
    junk.write_text("not a certificate\n")
    code, out, _ = run(capsys, "verify", str(junk))
    assert code == 2
    assert out.startswith("malformed:")


def test_verify_past_enumeration_cap_json(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("rado.solutions.MATERIALIZE_CAP", 10)
    cert = tmp_path / "dense.crt"
    cert.write_text("rado-cert v1\ne x+y=z\nn 30\nr 2\nk" + " 1" * 30 + "\n")
    code, out, _ = run(capsys, "verify", str(cert), "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "malformed"
    assert "MATERIALIZE_CAP=10" in doc["reason"]


def test_export_and_json_counts(capsys, tmp_path):
    cnf = tmp_path / "pyth.cnf"
    code, out, _ = run(capsys, "export", "x^2+y^2=z^2", "-n", "30", "-r", "2",
                       "-o", str(cnf), "--json")
    assert code == 0
    doc = json.loads(out)
    edges = len(build_hyperedges(parse_equation("x^2+y^2=z^2"), 30))
    assert doc["clauses"] == 2 * edges + 1
    assert doc["encoding"] == "binary"
    inst = parse_dimacs(cnf.read_text())
    assert inst.clause_count == doc["clauses"]
    assert inst.n == 30


def test_model_to_cert_pipeline(capsys, tmp_path):
    eq = parse_equation("x^2+y^2=z^2")
    n = 30
    cnf_path = tmp_path / "i.cnf"
    model_path = tmp_path / "i.model"
    cert_path = tmp_path / "i.crt"
    code, _, _ = run(capsys, "export", "x^2+y^2=z^2", "-n", str(n), "-r", "2",
                     "-o", str(cnf_path))
    assert code == 0
    # stand in for an external SAT solver: our own witness, DIMACS v-lines
    coloring = find_coloring(eq, n, 2).coloring
    inst = export_cnf(eq, build_hyperedges(eq, n), 2)
    lits = coloring_to_model(coloring, inst)
    model_path.write_text(
        "s SATISFIABLE\nv " + " ".join(str(l) for l in lits) + " 0\n"
    )
    code, _, _ = run(capsys, "model-to-cert", str(cnf_path), str(model_path),
                     "-o", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert out.strip() == "valid"


def test_table_small(capsys):
    code, out, _ = run(capsys, "table", "--min-k", "4", "--max-k", "5",
                       "-r", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [(r["k"], r["kind"], r["value"]) for r in doc["rows"]] == [
        (4, "exact", 37),
        (5, "exact", 23),
    ]


def test_table_jobs_identical_json(capsys):
    _, out1, _ = run(capsys, "table", "--min-k", "2", "--max-k", "4", "-r", "2",
                     "--cap", "40", "--json")
    _, out2, _ = run(capsys, "table", "--min-k", "2", "--max-k", "4", "-r", "2",
                     "--cap", "40", "--json", "--jobs", "2")
    assert out1 == out2
    rows = json.loads(out1)["rows"]
    assert rows[0] == {"k": 2, "kind": "lower-bound", "value": 40,
                       "backend": rows[0]["backend"], "nodes": rows[0]["nodes"]}


def test_table_human_body_identical_across_jobs(capsys):
    def body(text):
        return [line.rsplit(None, 1)[0] for line in text.splitlines()]

    _, out1, _ = run(capsys, "table", "--min-k", "4", "--max-k", "6", "-r", "2")
    _, out2, _ = run(capsys, "table", "--min-k", "4", "--max-k", "6", "-r", "2",
                     "--jobs", "3")
    assert body(out1) == body(out2)


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "--min-k", "5", "--max-k", "3", "-r", "2")
    assert code == 2
    assert "min-k" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_table_bad_jobs(capsys, jobs):
    code, out, err = run(capsys, "table", "--min-k", "3", "--max-k", "4",
                         "-r", "2", "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err
    assert out == ""


def test_rado_json_deterministic(capsys):
    _, out1, _ = run(capsys, "rado", "x+y=z", "-r", "2", "--json")
    _, out2, _ = run(capsys, "rado", "x+y=z", "-r", "2", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "exact" and doc["value"] == 5
    assert doc["witness_n"] == 4
    assert "elapsed" not in json.dumps(doc)


def test_distinct_flag(capsys):
    code, out, _ = run(capsys, "solutions", "9x^2+16y^2=~n^2", "--max", "5",
                       "--distinct")
    assert code == 0
    assert all("x=3 y=3" not in line for line in out.splitlines())
