"""CLI surface: exit codes, report streams, JSON outputs."""
import json
import os
import subprocess
import sys
import time

import pytest

import graphfield
from graphfield.cli import Runner, _parse_group, main
from graphfield.errors import BudgetExceeded
from graphfield.graphs import Graph, graph_to_json


def write_graph(tmp_path, name, vertices, edges):
    path = tmp_path / name
    path.write_text(graph_to_json(Graph(vertices, edges)))
    return str(path)


def test_transform_k2_pass(tmp_path, capsys):
    infile = write_graph(tmp_path, "k2.json", ["s", "t"], [("s", "t")])
    out = str(tmp_path / "k2c.json")
    rc = main(["transform", "--in", infile, "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rep["status"] == "pass"
    doc = json.loads((tmp_path / "k2c.json").read_text())
    assert len(doc["vertices"]) == 6 and doc["color_count"] == 7


def test_transform_star_past_the_closure_cap_is_unknown(tmp_path, capsys):
    # Aut K_{1,9} has 9! elements; the search counts them in a few dozen
    # nodes, and listing them took 110 s before the closure bound
    leaves = [f"l{i}" for i in range(9)]
    infile = write_graph(tmp_path, "star.json", ["c", *leaves], [("c", x) for x in leaves])
    t0 = time.perf_counter()
    rc = main(["transform", "--in", infile])
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert rc == 0
    rep = json.loads(captured.out.strip().splitlines()[-1])
    assert rep["status"] == "unknown"
    assert rep["details"] == {"budget": {"what": "group closure", "limit": 20000}}


def test_transform_disconnected_exit2(tmp_path, capsys):
    infile = write_graph(tmp_path, "d.json", ["a", "b", "c"], [("a", "b")])
    rc = main(["transform", "--in", infile])
    capsys.readouterr()
    assert rc == 2


def test_build_field_k2(tmp_path, capsys):
    infile = write_graph(tmp_path, "k2.json", ["s", "t"], [("s", "t")])
    rc = main(["build-field", "--in", infile, "--depth", "1", "--trials", "10"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert lines[0]["summary"]["dimension"] == 5
    assert all(l["status"] == "pass" for l in lines[1:])


def test_build_field_depth0(tmp_path, capsys):
    infile = write_graph(tmp_path, "k2.json", ["s", "t"], [("s", "t")])
    rc = main(["build-field", "--in", infile, "--depth", "0", "--trials", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert lines[0]["summary"]["dimension"] == 1


@pytest.mark.parametrize(
    "vertices,edges,depth",
    [
        pytest.param(["a", "b", "c"], [("a", "b"), ("b", "c")], "0", id="p3-depth0"),
        pytest.param(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], '{"a": 1}', id="k3-vertex-only"),
    ],
)
def test_build_field_with_depth0_edges(tmp_path, capsys, vertices, edges, depth):
    """Depth-0 edges stay generators of degree 1; the primality smoke
    must still sample and invert."""
    infile = write_graph(tmp_path, "g.json", vertices, edges)
    rc = main(["build-field", "--in", infile, "--depth", depth, "--trials", "6"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    smoke = next(json.loads(l) for l in captured.out.splitlines() if '"primality-smoke"' in l)
    assert smoke["status"] == "pass" and smoke["details"]["inversions"] == 3


def test_build_field_triangle_default_options_finishes(tmp_path):
    """A hang fails here instead of stalling the suite: the run is killed
    after 60 s."""
    infile = write_graph(
        tmp_path, "k3.json", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    src = os.path.dirname(os.path.dirname(graphfield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "graphfield.cli", "build-field", "--in", infile],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    smoke = next(json.loads(l) for l in proc.stdout.splitlines() if '"primality-smoke"' in l)
    assert smoke["status"] == "pass" and smoke["details"]["inversions"] == 25


def test_build_field_too_large_exit2(tmp_path, capsys):
    infile = write_graph(
        tmp_path, "k3.json", ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
    )
    rc = main(["build-field", "--in", infile, "--depth", "3", "--budget", "500"])
    capsys.readouterr()
    assert rc == 2


def test_towers_alt5(capsys):
    rc = main(["towers", "--group", "alt:5"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out.strip().splitlines()[0])
    assert doc["tau"] == 1
    assert [s["order"] for s in doc["stages"]][:2] == [60, 120]


@pytest.mark.parametrize("group, orders, tau", [("psl2:11", [660, 1320, 1320], 1),
                                               ("pgl2:11", [1320, 1320], 0)])
def test_towers_past_a_thousand_elements(capsys, group, orders, tau):
    rc = main(["towers", "--group", group])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out.strip().splitlines()[0])
    assert doc["tau"] == tau
    assert [s["order"] for s in doc["stages"]] == orders


def test_towers_psl2_8_is_refused_by_the_search_budget(capsys):
    assert main(["towers", "--group", "psl2:8"]) == 2
    err = capsys.readouterr().err
    assert "automorphism search: automorphisms held exceeded budget 1322" in err
    assert "element cap" not in err


def test_runner_records_budget_reason(capsys):
    runner = Runner()

    def refused():
        raise BudgetExceeded("automorphism search", 5)

    rep = runner.run("refused", "groups.aut_group", refused)
    assert rep.status == "unknown"
    assert rep.details == {"budget": {"what": "automorphism search", "limit": 5}}
    line = json.loads(capsys.readouterr().out.strip())
    assert line["details"]["budget"] == {"what": "automorphism search", "limit": 5}


@pytest.mark.parametrize("spec, order, gens", [
    ("sym:2", 2, [[(0, 1)]]),  # the 2-cycle is the transposition: one generator
    ("sym:3", 6, [[(0, 1)], [(0, 1, 2)]]),
    ("alt:3", 3, [[(0, 1, 2)]]),
    ("alt:4", 12, [[(0, 1, 2)], [(1, 2, 3)]]),
])
def test_parse_group_lists_each_generator_once(spec, order, gens):
    G = _parse_group(spec)
    assert G.order == order
    assert [g.to_cycles() for g in G.generators] == gens


def test_towers_s4_subgroup(capsys):
    rc = main(["towers", "--group", "sym:4", "--subgroup", "(0 1)"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out.strip().splitlines()[0])
    assert doc["tau"] == 2
    assert [s["order"] for s in doc["stages"]] == [2, 4, 8, 8]


def test_towers_abelian_subgroup(capsys):
    rc = main(["towers", "--group", "sym:3", "--subgroup", "(0 1 2)"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out.strip().splitlines()[0])
    assert doc["tau"] <= 1


def test_verify_groups_suite(capsys):
    rc = main(["verify", "--suite", "groups"])
    captured = capsys.readouterr()
    assert rc == 0
    reports = [json.loads(l) for l in captured.out.strip().splitlines()]
    assert all(r["status"] in ("pass", "unknown") for r in reports)
    names = {r["check"] for r in reports}
    assert "psl-simplicity" in names


def test_verify_usage_error():
    assert main(["verify", "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("budget", ["0", "-1", "x"])
def test_verify_refuses_a_budget_below_one(capsys, budget):
    assert main(["verify", "--budget", budget, "--suite", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget" in captured.err


@pytest.mark.parametrize(
    "command, option",
    [("transform", "--budget"), ("build-field", "--trials"), ("build-field", "--budget"),
     ("towers", "--budget")],
)
@pytest.mark.parametrize("value", ["0", "-5"])
def test_counts_below_one_are_refused(tmp_path, capsys, command, option, value):
    if command == "towers":
        args = ["--group", "sym:3"]
    else:
        args = ["--in", write_graph(tmp_path, "k2.json", ["s", "t"], [("s", "t")])]
    assert main([command, *args, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and option in captured.err


VERIFY_CHECKS = [
    "gadget-exactness", "transform-corpus", "transform-star-classes",
    "normalizer-tower-s4", "automorphism-tower-a5", "psl-simplicity", "aut-psl-conjugation-q4",
    "tower-dimension-K2", "primality-smoke-K2", "inverse-roundtrip-K2",
    "tower-dimension-P3", "primality-smoke-P3", "inverse-roundtrip-P3",
    "tower-dimension-K3", "primality-smoke-K3", "inverse-roundtrip-K3",
    "radical-irreducibility-K2", "vertex-root-refusals", "p-high-classification", "q-high-descent",
    "sigma-injectivity", "sigma-edge-images", "psi-injective-equivariant",
]


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--suite", "all", "--seed", "0", "--budget", "1"]) == 0
    reports = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [r["check"] for r in reports] == VERIFY_CHECKS
    assert all(r["status"] == "pass" for r in reports)


K2_JSON = graph_to_json(Graph(["s", "t"], [("s", "t")]))
TRIANGLE_ONE_COLOUR = json.dumps({"vertices": ["a", "b", "c"],
                                  "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
                                  "colors": {"a,b": 0, "b,c": 0, "a,c": 0}, "color_count": 1})


def k2_coloured(colour, count):
    return json.dumps({"vertices": ["s", "t"], "edges": [["s", "t"]],
                       "colors": {"s,t": colour}, "color_count": count})


@pytest.mark.parametrize(
    "infile, args",
    [
        pytest.param("{bad", ["transform"], id="malformed-json"),
        pytest.param("{}", ["transform"], id="no-vertices"),
        pytest.param('{"vertices": ["a"], "edges": [["a", "a"]]}', ["transform"], id="loop-edge"),
        pytest.param('{"vertices": ["a:b", "c"], "edges": [["a:b", "c"]]}', ["transform"], id="colon-label"),
        pytest.param('{"vertices": ["a,b", "c"], "edges": [["a,b", "c"]]}', ["transform"], id="comma-label"),
        pytest.param(None, ["towers", "--group", "foo:3"], id="unknown-group"),
        pytest.param(None, ["towers", "--group", "alt:x"], id="non-integer-size"),
        pytest.param(None, ["towers", "--group", "sym:1"], id="sym-1"),
        pytest.param(None, ["towers", "--group", "sym:3", "--subgroup", "(0 7)"], id="cycle-out-of-range"),
        pytest.param(K2_JSON, ["build-field", "--depth", "-1"], id="negative-depth"),
        pytest.param(K2_JSON, ["build-field", "--depth", '{"e:s,t": -1}'], id="negative-edge-depth"),
        pytest.param(K2_JSON, ["build-field", "--depth", "abc"], id="depth-not-json"),
        pytest.param(K2_JSON, ["build-field", "--depth", '{"nosuch": 3}'], id="depth-unknown-key"),
        pytest.param(K2_JSON, ["build-field", "--depth", '{"e:s,t": true}'], id="bool-edge-depth"),
        pytest.param(TRIANGLE_ONE_COLOUR, ["build-field"], id="not-a-star-colouring"),
        pytest.param(None, ["towers", "--group", "psl2:32"], id="psl2-32"),
        pytest.param(None, ["towers", "--group", "sym:20000"], id="sym-20000"),
        pytest.param(None, ["towers", "--group", "alt:100000"], id="alt-100000"),
        pytest.param(k2_coloured(0.0, 1), ["build-field"], id="float-colour"),
        pytest.param(k2_coloured(0, 1.5), ["build-field"], id="float-colour-count"),
        pytest.param(k2_coloured(True, 2), ["build-field"], id="bool-colour"),
        pytest.param(k2_coloured(0, True), ["build-field"], id="bool-colour-count"),
        pytest.param('{"vertices": "st", "edges": ["st"]}', ["transform"], id="string-vertices"),
        pytest.param('{"vertices": ["s", "t"], "edges": ["st"]}', ["transform"], id="string-edge"),
        pytest.param('{"vertices": ["s", "t"], "edges": [["s", "t"]], "colors": {"s,t": 0, "t,s": 1}, '
                     '"color_count": 2}', ["build-field"], id="edge-coloured-twice"),
        pytest.param('{"vertices": ["s", "t"], "edges": [["s", "t"]], "colors": {"s,t": 0, "s,t": 1}, '
                     '"color_count": 2}', ["build-field"], id="colour-key-twice"),
    ],
)
def test_input_errors_exit2(tmp_path, capsys, infile, args):
    if infile is not None:
        path = tmp_path / "in.json"
        path.write_text(infile)
        args = args + ["--in", str(path)]
    t0 = time.perf_counter()
    assert main(args) == 2
    # refused before any large work: sym:n and alt:n before their
    # permutations are built, psl2:q before q is factored
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("char", ["1", "4", "-3", "65537", "x"])
@pytest.mark.parametrize("command", [["verify", "--suite", "field"], ["build-field", "--in", "k2.json"]])
def test_char_that_is_not_zero_or_a_small_prime_is_a_usage_error(capsys, command, char):
    assert main(command + ["--char", char]) == 2
    assert "--char" in capsys.readouterr().err


def test_verify_sorted_flag(capsys):
    rc = main(["verify", "--suite", "groups", "--sorted"])
    captured = capsys.readouterr()
    assert rc == 0
    reports = [json.loads(l) for l in captured.out.strip().splitlines()]
    keys = [(r["check"], r["anchor"]) for r in reports]
    assert keys == sorted(keys)
