import argparse
import json

import pytest

from rado.cli import _build_parser, main
from rado.cnf import parse_dimacs
from rado.solver import SearchParams, find_coloring
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
    code, _, err = run(capsys, "solutions", "x+y=z", "--max", "0")
    assert code == 2
    assert "bound must be >= 1" in err


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


def test_solutions_listing_json(capsys):
    code, out, _ = run(capsys, "solutions", "x+y=~z", "--max", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "equation", "n", "solutions"]
    assert doc == {
        "command": "solutions",
        "equation": "x+y=~z",
        "n": 2,
        # constrained values first, then the free ones
        "solutions": [{"x": 1, "y": 1, "z": 2}, {"x": 1, "y": 2, "z": 3},
                      {"x": 2, "y": 1, "z": 3}, {"x": 2, "y": 2, "z": 4}],
    }


@pytest.mark.parametrize("backend, coloring, nodes, propagations, max_depth", [
    # edge decides first at 2, on both 2-vertex edges {1, 2} and {2, 4}
    pytest.param("edge", [2, 1, 1, 2], 1, 3, 1, id="edge-1-3-1"),
    # one coefficient group per side
    pytest.param("dp", [1, 2, 2, 1], 1, 3, 1, id="dp-1-3-1"),
])
def test_color_json(capsys, backend, coloring, nodes, propagations, max_depth):
    code, out, _ = run(capsys, "color", "x+y=z", "-n", "4", "-r", "2",
                       "--backend", backend, "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "equation", "n", "r", "verdict", "coloring",
                         "backend", "nodes", "propagations", "max_depth"]
    assert doc == {
        "command": "color", "equation": "x+y=z", "n": 4, "r": 2,
        "verdict": "colorable", "coloring": coloring, "backend": backend,
        "nodes": nodes, "propagations": propagations, "max_depth": max_depth,
    }


def test_color_refuses_too_many_dp_masks(capsys, monkeypatch):
    # x+2y=z: a group of x and a group of y need 2 x 2 masks on one side
    monkeypatch.setattr("rado.solutions.DP_MASK_CAP", 3)
    code, out, err = run(capsys, "color", "x+2y=z", "-n", "5", "-r", "2",
                         "--backend", "dp")
    assert (code, out) == (2, "")
    assert "needs 4 dp masks, past DP_MASK_CAP=3" in err


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


@pytest.mark.parametrize("argv", [
    ("color", "x+y=z", "-n", "4", "-r", "2", "--timeout", "nan"),
    ("rado", "x+y=z", "-r", "2", "--timeout", "nan"),
    ("table", "--min-k", "3", "--max-k", "3", "-r", "2", "--timeout-per-k", "nan"),
])
def test_nan_timeout_exit_2(capsys, argv):
    # a NaN budget would compare false against every deadline
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "time_budget" in err


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


def test_model_to_cert_json(capsys, tmp_path):
    cnf_path = tmp_path / "s.cnf"
    model_path = tmp_path / "s.model"
    cert_path = tmp_path / "s.crt"
    code, _, _ = run(capsys, "export", "x+y=z", "-n", "4", "-r", "2",
                     "-o", str(cnf_path))
    assert code == 0
    model_path.write_text("v -1 2 3 -4 0\n")
    code, out, _ = run(capsys, "model-to-cert", str(cnf_path), str(model_path),
                       "-o", str(cert_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "path", "equation", "n", "r"]
    assert doc == {"command": "model-to-cert", "path": str(cert_path),
                   "equation": "x+y=z", "n": 4, "r": 2}
    assert "k 1 2 2 1" in cert_path.read_text().splitlines()


@pytest.mark.parametrize("edit", [
    ("c r 2", "c r 3"),
    ("c n 30", "c n 31"),
    ("c encoding binary", "c encoding banana"),
])
def test_model_to_cert_rejects_inconsistent_header(capsys, tmp_path, edit):
    cnf_path = tmp_path / "i.cnf"
    model_path = tmp_path / "i.model"
    code, _, _ = run(capsys, "export", "x^2+y^2=z^2", "-n", "30", "-r", "2",
                     "-o", str(cnf_path))
    assert code == 0
    cnf_path.write_text(cnf_path.read_text().replace(*edit))
    model_path.write_text(" ".join(str(-v) for v in range(1, 31)) + " 0\n")
    code, _, err = run(capsys, "model-to-cert", str(cnf_path), str(model_path),
                       "-o", str(tmp_path / "i.crt"))
    assert code == 2
    assert "error" in err.lower()
    assert not (tmp_path / "i.crt").exists()


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


def test_dp_refuses_distinct_exit_2(capsys):
    code, out, err = run(capsys, "rado", "distinct: x+y=z", "-r", "3", "--backend", "dp")
    assert (code, out) == (2, "")
    assert "backend 'dp' refuses a distinct: equation" in err


HELP = (("-h", "--help"), argparse.SUPPRESS, None, None, False, 0)
FLAG = (False, None, None, False, 0)    # a store_true flag, less its option string
REQUIRED_INT = (None, int, None, True, None)
POSITIONAL = ((), None, None, None, True, None)
OUTPUT = (("-o", "--output"), None, None, None, True, None)
TIMEOUT = (600.0, float, None, False, None)
CAP = (("--cap",), 10_000, int, None, False, None)
SEARCH = {
    "timeout": (("--timeout",), *TIMEOUT),
    "backend": (("--backend",), "auto", None, ("edge", "dp", "auto"), False, None),
    "cert": (("--cert",), None, None, None, False, None),
}

# dest -> (option strings, default, type, choices, required, nargs)
SURFACE = {
    "solutions": {
        "equation": POSITIONAL,
        "max": (("--max",), None, int, None, False, None),
        "edges": (("--edges",), *FLAG),
        "distinct": (("--distinct",), *FLAG),
    },
    "color": {
        "equation": POSITIONAL,
        "n": (("-n",), *REQUIRED_INT),
        "r": (("-r",), *REQUIRED_INT),
        **SEARCH,
        "distinct": (("--distinct",), *FLAG),
    },
    "rado": {
        "equation": POSITIONAL,
        "r": (("-r",), *REQUIRED_INT),
        "cap": CAP,
        **SEARCH,
        "distinct": (("--distinct",), *FLAG),
    },
    "export": {
        "equation": POSITIONAL,
        "n": (("-n",), *REQUIRED_INT),
        "r": (("-r",), *REQUIRED_INT),
        "output": OUTPUT,
        "direct": (("--direct",), *FLAG),
        "distinct": (("--distinct",), *FLAG),
    },
    "verify": {"file": POSITIONAL},
    "model-to-cert": {"cnf": POSITIONAL, "model": POSITIONAL, "output": OUTPUT},
    "table": {
        "min_k": (("--min-k",), *REQUIRED_INT),
        "max_k": (("--max-k",), *REQUIRED_INT),
        "r": (("-r",), *REQUIRED_INT),
        "jobs": (("--jobs",), 1, int, None, False, None),
        "timeout_per_k": (("--timeout-per-k",), *TIMEOUT),
        "cap": CAP,
    },
}


def subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_argument_surface_is_pinned():
    subs = subparsers()
    assert list(subs) == list(SURFACE)
    for name, sub in subs.items():
        got = {
            a.dest: (tuple(a.option_strings), a.default, a.type,
                     None if a.choices is None else tuple(a.choices),
                     a.required, a.nargs)
            for a in sub._actions
        }
        assert got == {"help": HELP, **SURFACE[name],
                       "json": (("--json",), *FLAG)}, name
        # positionals keep their order: model-to-cert reads cnf, then model
        assert [a.dest for a in sub._actions if not a.option_strings] == [
            dest for dest, spec in SURFACE[name].items() if spec[0] == ()
        ], name


def test_search_defaults_are_search_params():
    subs = subparsers()
    defaults = SearchParams()
    for name, dest, field in [
        ("color", "timeout", "time_budget"),
        ("color", "backend", "backend"),
        ("rado", "timeout", "time_budget"),
        ("rado", "backend", "backend"),
        ("rado", "cap", "n_cap"),
        ("table", "timeout_per_k", "time_budget"),
        ("table", "cap", "n_cap"),
    ]:
        assert subs[name].get_default(dest) == getattr(defaults, field), (name, dest)


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in SURFACE],
                         ids=["top-level", *SURFACE])
def test_help_renders(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: rado", *argv[:-1]]))
