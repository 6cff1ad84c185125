"""Tests for the cost/scalability analysis and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmark.queries import query_by_id
from repro.cli import build_parser, main
from repro.cost import CostAnalyzer
from repro.traffic import TrafficAnalysisApplication
from repro.utils.validation import ValidationError


class TestCostAnalyzer:
    @pytest.fixture(scope="class")
    def analyzer(self):
        return CostAnalyzer(model="gpt-4")

    def test_query_cost_fields(self, analyzer):
        application = TrafficAnalysisApplication.with_size(20, 20)
        cost = analyzer.query_cost(application, query_by_id("ta-m5"), "networkx")
        assert cost.prompt_tokens > 0
        assert cost.cost_usd > 0
        assert cost.within_token_limit

    def test_strawman_costs_more_than_codegen(self, analyzer):
        cdfs = analyzer.cost_cdf(node_count=40, edge_count=40)
        assert cdfs["strawman"].mean > 2 * cdfs["networkx"].mean

    def test_codegen_cost_flat_with_graph_size(self, analyzer):
        sweep = analyzer.scalability_sweep(graph_sizes=(40, 200, 400))
        codegen_costs = [point.codegen_cost_usd for point in sweep.points]
        assert max(codegen_costs) - min(codegen_costs) < 0.01

    def test_strawman_cost_grows_then_exceeds_limit(self, analyzer):
        sweep = analyzer.scalability_sweep(graph_sizes=(40, 80, 120, 160, 300))
        strawman = [p.strawman_cost_usd for p in sweep.points if p.strawman_cost_usd is not None]
        assert strawman == sorted(strawman)          # monotonically growing
        assert len(strawman) >= 2
        limit = sweep.strawman_limit_size()
        assert limit is not None and limit <= 300     # the paper's cliff (~150)

    def test_average_cost_per_task_below_paper_bound(self, analyzer):
        # the paper reports an average cost around $0.1 per task and always < $0.2
        assert analyzer.cost_cdf(backends=("networkx",))["networkx"].mean < 0.2

    def test_cdf_points_monotone(self, analyzer):
        cdf = analyzer.cost_cdf(backends=("networkx",))["networkx"]
        fractions = [fraction for _, fraction in cdf.points()]
        assert fractions == sorted(fractions)
        assert cdf.max >= cdf.mean

    def test_invalid_completion_tokens(self):
        with pytest.raises(ValidationError):
            CostAnalyzer(completion_tokens=0)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["ask", "How many nodes?", "--backend", "sql"])
        assert args.command == "ask" and args.backend == "sql"
        assert build_parser().parse_args(["queries"]).command == "queries"

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage: repro " in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        completed = subprocess.run([sys.executable, "-m", "repro", "--help"], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.startswith("usage: repro ")

    def test_queries_command(self, capsys):
        assert main(["queries"]) == 0
        out = capsys.readouterr().out
        assert "ta-e1" in out and "malt-h3" in out

    def test_ask_command(self, capsys):
        code = main(["ask", "How many nodes are in the communication graph?",
                     "--nodes", "10", "--edges", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "number_of_nodes" in out
        assert "# result:" in out

    def test_ask_malt(self, capsys):
        code = main(["ask", "How many packet switches are in the topology?",
                     "--application", "malt"])
        assert code == 0
        assert "result" in capsys.readouterr().out

    def test_cost_command(self, capsys):
        assert main(["cost", "--sizes", "40", "160"]) == 0
        out = capsys.readouterr().out
        assert "Cost vs graph size" in out
