import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramseykit import cli, gadgets, minimal
from ramseykit.arrowing import Budget, find_mono
from ramseykit.cli import main
from ramseykit.focusing import report_from_json, report_to_json, verify_focus_report
from ramseykit.formats import graph6_encode, read_graphs, read_hypergraph
from ramseykit.gadgets import blockgraph_from_json
from ramseykit.graphs import Graph, hyper_alpha, hyper_girth
from ramseykit.minimal import enumerate_graphs
from ramseykit.patterns import Clique, CliquePlusCliques, Colour, read_colouring


@pytest.fixture
def files(tmp_path):
    for name, g in {
        "K2": Graph.complete(2),
        "K5": Graph.complete(5),
        "K6": Graph.complete(6),
        "C5": Graph.cycle(5),
    }.items():
        (tmp_path / f"{name}.g6").write_text(graph6_encode(g) + "\n")
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports this ramseykit,
    with no budget set."""
    env = {k: v for k, v in os.environ.items() if k != "RAMSEYKIT_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def error_of(capsys, argv):
    """The exit code and the error kind of a command that fails: nothing on
    stdout and one JSON line on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)["error"]


class TestArrowCommand:
    def test_arrow(self, files, capsys):
        code, out = run(capsys, ["arrow", str(files / "K6.g6"), "--red", "K3", "--blue", "K3", "--no-timing"])
        assert code == 0
        assert json.loads(out) == {"result": "arrow"}

    def test_not_arrow_with_witness_file(self, files, capsys):
        wit = files / "w.txt"
        code, out = run(
            capsys,
            ["arrow", str(files / "K5.g6"), "--red", "K3", "--blue", "K3",
             "--witness", str(wit), "--no-timing"],
        )
        assert code == 0
        assert json.loads(out)["result"] == "not-arrow"
        chi = read_colouring(wit.read_text())
        assert chi.graph == Graph.complete(5)

    def test_undecided_exit_code(self, files, capsys):
        code, out = run(
            capsys,
            ["arrow", str(files / "K6.g6"), "--red", "K3", "--blue", "K3",
             "--max-nodes", "3", "--no-timing"],
        )
        assert code == 10
        assert json.loads(out)["result"] == "undecided"

    def test_missing_file_is_input_error(self, files, capsys):
        code = main(["arrow", str(files / "nope.g6"), "--red", "K3", "--blue", "K3"])
        assert code == 3

    def test_bad_pattern_is_input_error(self, files, capsys):
        code = main(["arrow", str(files / "K6.g6"), "--red", "Q3", "--blue", "K3"])
        assert code == 3

    def test_byte_identical_output(self, files, capsys):
        argv = ["arrow", str(files / "K5.g6"), "--red", "K3", "--blue", "K3", "--no-timing"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestRamseyCommand:
    def test_triangles(self, files, capsys):
        code, out = run(capsys, ["ramsey", "--red", "K3", "--blue", "K3", "--no-timing"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6 and doc["decided"]

    def test_python_m_runs_the_cli(self):
        # R(3, 5) = 14, the whole command with no budget
        done = subprocess.run(
            [sys.executable, "-m", "ramseykit", "ramsey", "--red", "K3", "--blue", "K5", "--no-timing"],
            capture_output=True, text=True, env=fresh_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "blue": "K5", "checked_up_to": 14, "decided": True, "n": 14, "red": "K3"
        }

    def test_env_var_budget(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "0.0")
        code, out = run(capsys, ["ramsey", "--red", "K4", "--blue", "K4", "--no-timing"])
        assert code == 10
        assert json.loads(out)["decided"] is False

    def test_env_var_budget_not_a_number(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "abc")
        code = main(["ramsey", "--red", "K3", "--blue", "K3", "--no-timing"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage-error"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.5"])
    def test_budget_not_finite_or_negative(self, files, capsys, monkeypatch, value):
        # a NaN deadline compares false forever, so the search would never stop
        for env, argv in ((value, []), (None, ["--budget", value])):
            if env is None:
                monkeypatch.delenv("RAMSEYKIT_BUDGET", raising=False)
            else:
                monkeypatch.setenv("RAMSEYKIT_BUDGET", env)
            code = main(["ramsey", "--red", "K4", "--blue", "K4", "--no-timing"] + argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == "usage-error"

    @pytest.mark.parametrize("value", ["-5", "abc"])
    def test_max_nodes_not_a_count(self, files, capsys, value):
        code = main(["ramsey", "--red", "K3", "--blue", "K3", "--no-timing", "--max-nodes", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage-error"

    def test_edgeless_target(self, files, capsys):
        code, out = run(capsys, ["ramsey", "--red", "K1", "--blue", "K3", "--no-timing"])
        assert code == 0
        assert json.loads(out) == {
            "blue": "K3", "checked_up_to": 1, "decided": True, "n": 1, "red": "K1"
        }

    def test_zero_budget_flag_is_valid(self, files, capsys):
        code, out = run(capsys, ["ramsey", "--red", "K4", "--blue", "K4", "--no-timing", "--budget", "0"])
        assert code == 10
        assert json.loads(out)["decided"] is False


class TestFilePatterns:
    def test_arbitrary_pattern_from_file(self, files, capsys):
        path3 = files / "P3.g6"
        path3.write_text(graph6_encode(Graph.path(3)) + "\n")
        code, out = run(
            capsys,
            ["arrow", str(files / "C5.g6"), "--red", f"file:{path3}",
             "--blue", f"file:{path3}", "--no-timing"],
        )
        assert code == 0
        assert json.loads(out)["result"] == "arrow"


class TestMinimalCommand:
    def test_k6(self, files, capsys):
        code, out = run(
            capsys, ["minimal", str(files / "K6.g6"), "--pattern", "K3", "--no-timing"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_ramsey"] and doc["is_minimal"]

    @pytest.mark.parametrize(
        "text, pattern", [("n 3\n0 1\n", "K2+1K1"), ("n 1\n", "K1")], ids=["K2+1K1", "K1"]
    )
    def test_target_with_an_isolated_vertex_is_input_error(self, files, capsys, text, pattern):
        path = files / "host.txt"
        path.write_text(text)
        argv = ["minimal", str(path), "--pattern", pattern, "--minimalize", "--no-timing"]
        assert error_of(capsys, argv) == (3, "input-error")

    def test_minimalize_gets_only_the_time_left(self, files, capsys, monkeypatch):
        # the report and the minimalization are one pass on the command's
        # one budget
        budgets, seen = [], []
        real_options, real_arrows = cli._options, minimal.arrows

        def options(args):
            budgets.append(real_options(args))
            return budgets[-1]

        def spy(g, red, blue, opts=None, *, root=None):
            seen.append(opts)
            return real_arrows(g, red, blue, opts, root=root)

        monkeypatch.setattr(cli, "_options", options)
        monkeypatch.setattr(minimal, "arrows", spy)
        code, out = run(
            capsys,
            ["minimal", str(files / "K6.g6"), "--pattern", "K3", "--minimalize",
             "--budget", "60", "--no-timing"],
        )
        assert code == 0
        assert json.loads(out)["minimalized_graph6"] == graph6_encode(Graph.complete(6))
        assert len(budgets) == 1 and isinstance(budgets[0], Budget)
        assert seen and all(b is budgets[0] for b in seen)

    @pytest.mark.parametrize("spent", [False, True])
    def test_undecided_minimalization_keeps_the_report(self, files, capsys, monkeypatch, spent):
        # K7 is not minimal, so its report ends at the pass's first deletion,
        # and the rest of the pass runs out of nodes: spent before its next
        # search, or one node left, which that search overruns
        path = files / "K7.g6"
        path.write_text(graph6_encode(Graph.complete(7)) + "\n")
        real = cli._minimality

        def decide_then_spend(g, p, budget):
            report, rest = real(g, p, budget)
            budget.nodes_left = 0 if spent else 1
            return report, rest

        monkeypatch.setattr(cli, "_minimality", decide_then_spend)
        code, out = run(
            capsys,
            ["minimal", str(path), "--pattern", "K3", "--minimalize",
             "--budget", "60", "--no-timing"],
        )
        assert code == 10
        doc = json.loads(out)
        assert doc["decided"] and doc["is_ramsey"] and doc["failing_edge"] == [0, 1]
        assert doc["minimalized_graph6"] is None

    def test_max_nodes_caps_the_whole_command(self, files, capsys, monkeypatch):
        # K7: the report takes 26 of the pass's 106 nodes, at most 17 in one
        # search; rooted searches count too
        path = files / "K7.g6"
        path.write_text(graph6_encode(Graph.complete(7)) + "\n")
        nodes = []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            nodes.append(verdict.nodes)
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        code, out = run(
            capsys,
            ["minimal", str(path), "--pattern", "K3", "--minimalize",
             "--max-nodes", "100", "--no-timing"],
        )
        assert code == 10
        doc = json.loads(out)
        assert doc["decided"] and doc["minimalized_graph6"] is None
        assert sum(nodes) <= 100

    def test_report_and_minimalization_search_once(self, files, capsys, monkeypatch):
        # the k = 3 pendant gadget: the report's searches are the first of
        # the pass's 6 full and 9 rooted searches, and the minimalization
        # does not make them again
        g0 = gadgets.build_g0(3, Graph.cycle(5))
        path = files / "pendant.g6"
        path.write_text(graph6_encode(gadgets.build_pendant_gadget(3, [g0, g0]).graph) + "\n")
        full, rooted = [], []
        real = minimal.arrows

        def spy(g, red, blue, opts=None, *, root=None):
            verdict = real(g, red, blue, opts, root=root)
            (full if root is None else rooted).append(verdict.nodes)
            return verdict

        monkeypatch.setattr(minimal, "arrows", spy)
        code = main(["minimal", str(path), "--pattern", "K3.K2", "--minimalize", "--no-timing"])
        assert code == 0
        assert capsys.readouterr().out == (
            '{"decided":true,"failing_edge":[0,9],"is_minimal":false,"is_ramsey":true,'
            '"isolated_vertices":[],"minimalized_graph6":"P~~nNe??G@_F?N?M_FG@x_G?",'
            '"pattern":"K3.K2"}\n'
        )
        assert len(full) == 6 and sum(full) == 411
        assert len(rooted) == 9 and sum(rooted) == 37


class TestSurveyCommand:
    def test_single_edge(self, files, capsys):
        code, out = run(capsys, ["survey", "--pattern", "K2", "--nmax", "3"])
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert lines[0]["graph6"] == "A_"
        assert lines[-1]["summary"] and lines[-1]["min_delta"] == 1

    def test_graphs_file_matches_the_enumeration(self, files, capsys):
        path = files / "all6.g6"
        path.write_text("".join(f"{graph6_encode(g)}\n\n" for g in enumerate_graphs(6)))
        argv = ["survey", "--pattern", "K3", "--nmax", "6", "--no-timing"]
        code, built_in = run(capsys, argv)
        assert code == 0
        code, streamed = run(capsys, argv + ["--graphs", str(path)])
        assert code == 0
        assert streamed == built_in

    def test_graphs_file_is_read_lazily(self, files, capsys):
        path = files / "bad.g6"
        path.write_text("A_\n\nnot graph6 ~~~\n")
        lines = read_graphs(str(path))
        assert next(lines) == Graph.complete(2)
        code, out = run(capsys, ["survey", "--pattern", "K2", "--nmax", "3", "--graphs", str(path)])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("r_value", ["-4", "3"])
    def test_r_value_below_the_lower_bound_is_input_error(self, capsys, r_value):
        # s(K3) >= 2*delta(K3) - 1 = 3, and s(H) <= r(H) - 1
        argv = ["survey", "--pattern", "K3", "--nmax", "3", "--r-value", r_value]
        assert error_of(capsys, argv) == (3, "input-error")

    def test_r_value_gives_the_upper_bound(self, capsys):
        code, out = run(capsys, ["survey", "--pattern", "K3", "--nmax", "3", "--r-value", "6", "--no-timing"])
        assert code == 0
        assert json.loads(out)["upper_bound"] == 5

    def test_env_var_budget_caps_the_survey(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "0")
        code, out = run(capsys, ["survey", "--pattern", "K3", "--nmax", "6"])
        assert code == 10
        assert json.loads(out.splitlines()[-1])["complete"] is False


class TestDistinguishCommand:
    def test_edge_vs_triangle(self, files, capsys):
        code, out = run(
            capsys, ["distinguish", "--h1", "K2", "--h2", "K3", "--nmax", "2", "--no-timing"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["graph6"] == "A_"

    def test_spent_budget_without_a_graph_is_undecided(self, files, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEYKIT_BUDGET", "0")
        code, out = run(
            capsys, ["distinguish", "--h1", "K3", "--h2", "K3.K2", "--nmax", "6", "--no-timing"]
        )
        assert code == 10
        doc = json.loads(out)
        assert not doc["found"] and not doc["complete"]


class TestPinnedScanOutput:
    """``--no-timing`` stdout of the commands that scan the enumeration,
    pinned by sha256: enumeration, canonical forms and the scan's filters
    may change how fast they run, never what they print."""

    @pytest.mark.parametrize(
        "argv, sha",
        [
            (
                ["survey", "--pattern", "K3.K2", "--nmax", "7", "--no-timing"],
                "f5ff88ac85c4d52150bcfc4e5cc88a162282830175758ffa6f837112113d0232",
            ),
            (
                ["distinguish", "--h1", "K3", "--h2", "K3+1K2", "--nmax", "6", "--no-timing"],
                "e253460ec1fcb3599f1bdd2ea732d1ec3c0a4306a125b2064a4f1694cba864b2",
            ),
        ],
    )
    def test_stdout(self, capsys, argv, sha):
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


class TestNmaxRange:
    def test_nmax_zero_checks_no_graph(self, capsys):
        code, out = run(capsys, ["survey", "--pattern", "K3", "--nmax", "0", "--no-timing"])
        assert code == 0
        assert json.loads(out)["graphs_checked"] == 0
        code, out = run(capsys, ["distinguish", "--h1", "K3", "--h2", "K3.K2", "--nmax", "0", "--no-timing"])
        assert code == 0
        doc = json.loads(out)
        assert doc["complete"] and doc["graphs_checked"] == 0

    def test_distinguish_past_the_enumeration_limit(self, capsys):
        code = main(["distinguish", "--h1", "K3", "--h2", "K3.K2", "--nmax", "10"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "input-error"
        assert err["message"] == "built-in enumeration is limited to 9 vertices, got n_max = 10"


class TestBudgetThatNeverFires:
    @pytest.mark.parametrize(
        "argv",
        [["survey", "--pattern", "K3.K2", "--nmax", "6"], ["ramsey", "--red", "K3", "--blue", "K4"]],
        ids=["survey", "ramsey"],
    )
    def test_output_is_unchanged(self, capsys, argv):
        argv = argv + ["--no-timing"]
        code, plain = run(capsys, argv)
        assert code == 0
        code, budgeted = run(capsys, argv + ["--budget", "600", "--max-nodes", "100000000"])
        assert code == 0
        assert budgeted == plain


class TestGadgetCommands:
    def test_g0_and_colour_and_check(self, files, capsys):
        out_json = files / "g0.json"
        code, _ = run(
            capsys,
            ["gadget", "g0", "--k", "3", "--block", str(files / "C5.g6"),
             "-o", str(out_json), "--no-timing"],
        )
        assert code == 0
        bg = blockgraph_from_json(out_json.read_text())
        assert bg.graph.n == 8
        col = files / "col.txt"
        code, out = run(
            capsys,
            ["colour", str(out_json), "--kind", "g0-prop1", "-o", str(col), "--check",
             "--no-timing"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["clean"] is True
        assert read_colouring(col.read_text()).graph == bg.graph

    def test_pendant_builds_one_core_gadget(self, files, capsys, monkeypatch):
        # the handler imports build_g0 from gadgets when it runs
        built, build_g0 = [], gadgets.build_g0

        def spy(k, block=None):
            built.append(build_g0(k, block))
            return built[-1]

        monkeypatch.setattr(gadgets, "build_g0", spy)
        out_json = files / "pendant.json"
        argv = ["gadget", "pendant", "--k", "3", "--block", str(files / "C5.g6"), "-o", str(out_json),
                "--no-timing"]
        assert run(capsys, argv)[0] == 0
        assert len(built) == 1
        g0 = built[0]
        assert blockgraph_from_json(out_json.read_text()) == gadgets.build_pendant_gadget(3, [g0, g0])

    def test_colour_kinds_are_the_gadget_kinds(self, capsys):
        # cli spells the kinds out so that its parser does not import gadgets
        assert cli.COLOURING_KINDS == tuple(gadgets.COLOURING_KINDS)
        with pytest.raises(SystemExit) as exc:
            main(["colour", "--help"])
        assert exc.value.code == 0
        assert "{g0-prop1,g2,lemma7}" in capsys.readouterr().out

    def product_and_colouring(self, files, capsys, block: Graph):
        """A product over C5 with five copies of ``block``, and the file of
        its g2 colouring."""
        (files / "block.g6").write_text(graph6_encode(block) + "\n")
        prod, col = files / "prod.json", files / "g2.txt"
        code, out = run(
            capsys,
            ["gadget", "product", "--k", "4", "--t", "3", "--r-value", "4",
             "--g0", str(files / "C5.g6"), "--blocks", *[str(files / "block.g6")] * 5,
             "-o", str(prod), "--no-timing"],
        )
        assert code == 0
        assert json.loads(out)["h"] == 7
        code, _ = run(
            capsys,
            ["colour", str(prod), "--kind", "g2", "-o", str(col), "--no-timing"],
        )
        assert code == 0
        return prod, col

    def test_product_focus_pipeline(self, files, capsys):
        prod, col = self.product_and_colouring(files, capsys, Graph.cycle(5))
        code, out = run(capsys, ["focus", str(prod), str(col), "--no-timing"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok" and doc["verified"]
        assert doc["J"] == [1, 2, 3, 4, 5]
        # with -o the same line, and a report file that reads back and verifies
        report = files / "focus.json"
        assert run(capsys, ["focus", str(prod), str(col), "-o", str(report), "--no-timing"]) == (0, out)
        text = report.read_text()
        again = report_from_json(text)
        assert report_to_json(again) == text
        bg = blockgraph_from_json(prod.read_text())
        assert verify_focus_report(bg, read_colouring(col.read_text()), again).ok

    def test_focus_failure_writes_no_report(self, files, capsys):
        prod, col = self.product_and_colouring(files, capsys, Graph.empty(5))
        report = files / "focus.json"
        code, out = run(capsys, ["focus", str(prod), str(col), "-o", str(report), "--no-timing"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["status"], doc["block"], doc["required_clique"]) == ("focus-failed", 1, 2)
        assert not report.exists()

    def test_product_without_r_value_is_undecided_within_max_nodes(self, files, capsys):
        argv = ["gadget", "product", "--k", "4", "--t", "3", "--g0", str(files / "C5.g6"),
                "--blocks", *[str(files / "C5.g6")] * 5, "--max-nodes", "0",
                "-o", str(files / "prod.json")]
        assert error_of(capsys, argv) == (10, "undecided")
        assert not (files / "prod.json").exists()

    def test_strict_is_a_usage_error(self, files, capsys):
        blocks = [str(files / "C5.g6")] * 5
        argv = ["gadget", "product", "--k", "4", "--t", "3", "--r-value", "4",
                "--g0", str(files / "C5.g6"), "--blocks", *blocks, "--strict",
                "-o", str(files / "prod.json")]
        assert error_of(capsys, argv) == (2, "usage-error")
        assert not (files / "prod.json").exists()

    def test_strict_meta_key_still_loads(self, files, capsys):
        # block-graph documents written when ``gadget product`` took
        # --strict carry "strict": false in their meta
        prod = files / "prod.json"
        run(
            capsys,
            ["gadget", "product", "--k", "4", "--t", "3", "--r-value", "4",
             "--g0", str(files / "C5.g6"), "--blocks", *[str(files / "C5.g6")] * 5,
             "-o", str(prod), "--no-timing"],
        )
        doc = json.loads(prod.read_text())
        assert doc["meta"] == {"k": 4, "t": 3}
        doc["meta"]["strict"] = False
        old = files / "old.json"
        old.write_text(json.dumps(doc))
        col = files / "g2.txt"
        run(capsys, ["colour", str(prod), "--kind", "g2", "-o", str(col)])
        outputs = []
        for path in (prod, old):
            code, coloured = run(capsys, ["colour", str(path), "--kind", "g2", "--check", "--no-timing"])
            assert code == 0
            code, focused = run(capsys, ["focus", str(path), str(col), "--no-timing"])
            assert code == 0
            outputs.append((coloured, focused))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1][1])["verified"]

    @pytest.mark.parametrize("bad_line", ["x 1 r", "1 0 b"], ids=["not-an-int", "twice"])
    def test_bad_colouring_is_input_error(self, files, capsys, bad_line):
        prod = files / "prod.json"
        col = files / "g2.txt"
        run(
            capsys,
            ["gadget", "product", "--k", "4", "--t", "3", "--r-value", "4",
             "--g0", str(files / "C5.g6"), "--blocks", *[str(files / "C5.g6")] * 5,
             "-o", str(prod), "--no-timing"],
        )
        run(capsys, ["colour", str(prod), "--kind", "g2", "-o", str(col)])
        # a valid colouring of every edge (0 1 among them) plus one bad line
        col.write_text(col.read_text() + bad_line + "\n")
        code = main(["focus", str(prod), str(col)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "input-error"

    def test_product_checks_k_and_t_before_computing_r_value(self, files, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("R(K_k, K_{k-t+1}) computed for an invalid pair")

        monkeypatch.setattr(gadgets, "ramsey_number", no_search)
        code = main(
            ["gadget", "product", "--k", "5", "--t", "2", "--g0", str(files / "C5.g6"),
             "--blocks", *[str(files / "C5.g6")] * 5, "--budget", "0.5",
             "-o", str(files / "prod.json")]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "input-error"

    @pytest.mark.parametrize("command", ["colour", "focus"])
    @pytest.mark.parametrize(
        "doc", [{"format": "blockgraph", "graph6": "D~{"}, [1, 2]], ids=["missing-key", "not-an-object"]
    )
    def test_malformed_block_graph_is_input_error(self, files, capsys, command, doc):
        gadget = files / "bad.json"
        gadget.write_text(json.dumps(doc))
        col = files / "col.txt"
        col.write_text("n 2\n0 1 r\n")
        argv = ["colour", str(gadget), "--kind", "g2"]
        if command == "focus":
            argv = ["focus", str(gadget), str(col)]
        code = main(argv)
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"] == "input-error" and "block graph" in err["message"]

    def test_hypergraph_success(self, files, capsys):
        out_file = files / "h.txt"
        code, out = run(
            capsys,
            ["gadget", "hypergraph", "--u", "3", "--girth-min", "4", "--eps", "4/5",
             "--n", "15", "--seed", "1", "-o", str(out_file), "--no-timing"],
        )
        assert code == 0
        h = read_hypergraph(out_file.read_text())
        assert hyper_girth(h) >= 4
        assert hyper_alpha(h) < 12

    def test_hypergraph_infeasible_exit_code(self, files, capsys):
        code = main(
            ["gadget", "hypergraph", "--u", "3", "--girth-min", "6", "--eps", "1/10",
             "--n", "9", "--seed", "1", "-o", str(files / "h2.txt")]
        )
        assert code == 11

    def test_colour_kind_mismatch(self, files, capsys):
        out_json = files / "g0b.json"
        run(
            capsys,
            ["gadget", "g0", "--k", "3", "--block", str(files / "C5.g6"),
             "-o", str(out_json), "--no-timing"],
        )
        code = main(["colour", str(out_json), "--kind", "g2"])
        assert code == 3


    def test_tampered_derived_parameters_are_input_errors(self, files, capsys):
        prod = files / "prod.json"
        run(
            capsys,
            ["gadget", "product", "--k", "4", "--t", "3", "--r-value", "4",
             "--g0", str(files / "C5.g6"), "--blocks", *[str(files / "C5.g6")] * 5,
             "-o", str(prod), "--no-timing"],
        )
        col = files / "g2.txt"
        assert run(capsys, ["colour", str(prod), "--kind", "g2", "-o", str(col)])[0] == 0
        doc = json.loads(prod.read_text())
        doc["params"].update(f=99, h=3)
        prod.write_text(json.dumps(doc))
        for argv in (["colour", str(prod), "--kind", "g2", "--check"], ["focus", str(prod), str(col)]):
            assert error_of(capsys, argv) == (3, "input-error")


class TestUsageErrors:
    """argparse's own errors end in the JSON usage-error line, as a bad
    ``--budget`` does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["arrow"],
            ["survey", "--pattern", "K3", "--nmax", "abc"],
            ["colour", "prod.json", "--kind", "nope"],
            ["gadget", "hypergraph", "--u", "3", "--girth-min", "4", "--eps", "abc", "--n", "9", "-o", "h.txt"],
            ["gadget", "hypergraph", "--u", "3", "--girth-min", "4", "--eps", "1/0", "--n", "9", "-o", "h.txt"],
            ["survey", "--pattern", "K3", "--nmax", "-1"],
            ["distinguish", "--h1", "K3", "--h2", "K3.K2", "--nmax", "-3"],
        ],
        ids=["no-arguments", "nmax-not-an-int", "unknown-kind", "eps-not-a-number", "eps-zero-denominator",
             "survey-nmax-negative", "distinguish-nmax-negative"],
    )
    def test_usage_error_is_the_json_line(self, capsys, argv):
        assert error_of(capsys, argv) == (2, "usage-error")

    def test_hypergraph_has_no_retry_cap(self, capsys):
        argv = ["gadget", "hypergraph", "--u", "3", "--girth-min", "4", "--eps", "4/5", "--n", "9",
                "--retry-cap", "5", "-o", "h.txt"]
        assert error_of(capsys, argv) == (2, "usage-error")


def _fresh_modules(code: str) -> list[str]:
    """The modules loaded after ``code`` runs in a fresh interpreter: the
    test process has already imported every ramseykit module."""
    script = f"import io, json, sys\nfrom contextlib import redirect_stdout\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestStartupImports:
    """A command loads only the layers it calls: handlers import
    ``gadgets``, ``focusing``, ``cnf`` and ``fractions`` when they run."""

    CLI_LAYERS = ["ramseykit", "ramseykit.arrowing", "ramseykit.cli", "ramseykit.errors", "ramseykit.formats",
                  "ramseykit.graphs", "ramseykit.minimal", "ramseykit.patterns", "ramseykit.symmetry"]

    def test_cli_import(self):
        loaded = _fresh_modules("import ramseykit.cli")
        assert [m for m in loaded if m.startswith("ramseykit")] == self.CLI_LAYERS
        assert "fractions" not in loaded

    def test_gadgets_import(self):
        loaded = _fresh_modules("import ramseykit.gadgets")
        assert "ramseykit.gadgets" in loaded and "fractions" not in loaded

    def test_survey_command(self):
        loaded = _fresh_modules(
            "from ramseykit import cli\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['survey', '--pattern', 'K3.K2', '--nmax', '5', '--no-timing']) == 0"
        )
        # nothing more than the import loaded: neither gadgets nor focusing
        assert [m for m in loaded if m.startswith("ramseykit")] == self.CLI_LAYERS
        assert "fractions" not in loaded


class TestUnreadableFiles:
    """A directory or a file that is not UTF-8, read or written, is an input
    error."""

    @pytest.fixture
    def bad(self, files):
        (files / "dir").mkdir()
        (files / "latin1.g6").write_bytes(b"\xe9\xff\n")
        return files

    @pytest.mark.parametrize("name", ["dir", "latin1.g6"])
    def test_graph_argument(self, bad, capsys, name):
        argv = ["arrow", str(bad / name), "--red", "K3", "--blue", "K3"]
        assert error_of(capsys, argv) == (3, "input-error")

    @pytest.mark.parametrize("name", ["dir", "latin1.g6"])
    def test_graphs_stream(self, bad, capsys, name):
        argv = ["survey", "--pattern", "K3", "--nmax", "4", "--graphs", str(bad / name)]
        assert error_of(capsys, argv) == (3, "input-error")

    def test_witness_into_a_directory(self, bad, capsys):
        argv = ["arrow", str(bad / "K5.g6"), "--red", "K3", "--blue", "K3", "--witness", str(bad / "dir")]
        assert error_of(capsys, argv) == (3, "input-error")

    def test_output_into_a_directory(self, bad, capsys):
        argv = ["gadget", "g0", "--k", "3", "--block", str(bad / "C5.g6"), "-o", str(bad / "dir")]
        assert error_of(capsys, argv) == (3, "input-error")


class TestCnfCommand:
    def test_export_and_solve(self, files, capsys):
        out_file = files / "k6.cnf"
        code, out = run(
            capsys,
            ["cnf", str(files / "K6.g6"), "--red", "K3", "--blue", "K3",
             "-o", str(out_file), "--solve", "--no-timing"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["vars"] == 15 and doc["clauses"] == 40
        assert doc["satisfiable"] is False
        assert out_file.read_text().startswith("p cnf 15 40\n")

    def test_witness_decoded(self, files, capsys):
        out_file = files / "k5.cnf"
        wit = files / "k5w.txt"
        code, out = run(
            capsys,
            ["cnf", str(files / "K5.g6"), "--red", "K3", "--blue", "K3",
             "-o", str(out_file), "--solve", "--witness", str(wit), "--no-timing"],
        )
        assert code == 0
        assert json.loads(out)["satisfiable"] is True
        assert read_colouring(wit.read_text()).graph == Graph.complete(5)

    def test_r_k3_2k3_is_8_through_dpll(self, tmp_path, capsys):
        """R(K3, 2K3) = 8: K8 has no colouring without a red K3 and a blue
        K3 + 1K3, and the colouring of K7 that the solver finds has
        neither."""
        for n, satisfiable in ((8, False), (7, True)):
            g6 = tmp_path / f"K{n}.g6"
            g6.write_text(graph6_encode(Graph.complete(n)) + "\n")
            wit = tmp_path / f"k{n}w.txt"
            code, out = run(
                capsys,
                ["cnf", str(g6), "--red", "K3", "--blue", "K3+1K3", "-o", str(tmp_path / "k.cnf"),
                 "--solve", "--witness", str(wit), "--no-timing"],
            )
            assert code == 0
            assert json.loads(out)["satisfiable"] is satisfiable
        chi = read_colouring(wit.read_text())
        assert chi.graph == Graph.complete(7)
        assert find_mono(chi, Clique(3), Colour.RED) is None
        assert find_mono(chi, CliquePlusCliques(3, 1, 3), Colour.BLUE) is None
