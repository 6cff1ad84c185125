"""The fabric's headline guarantee, end to end.

Serial and parallel executions of the same sweep must produce byte-identical
reports — accuracy tables and cost figures — and a cache-served re-run must
reproduce them again without executing a single cell.
"""

import pytest

from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner
from repro.cost import CostAnalyzer
from repro.exec import ExecutorPolicy, ResultCache

MODELS = ["gpt-4", "bard"]


def small_config(**overrides):
    return BenchmarkConfig(traffic_node_count=20, traffic_edge_count=20,
                           **overrides)


class TestBenchmarkEquivalence:
    def test_serial_and_parallel_grids_are_byte_identical(self):
        serial = BenchmarkRunner(small_config())
        parallel = BenchmarkRunner(small_config(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        report_serial = serial.run_application(
            "traffic_analysis", backends=("networkx", "pandas"), models=MODELS)
        report_parallel = parallel.run_application(
            "traffic_analysis", backends=("networkx", "pandas"), models=MODELS)

        assert report_serial.render_summary() == report_parallel.render_summary()
        assert report_serial.render_breakdown() == report_parallel.render_breakdown()
        assert report_serial.summary() == report_parallel.summary()
        assert (report_serial.error_type_counts()
                == report_parallel.error_type_counts())
        # the full record logs agree cell by cell, not just in aggregate
        assert (report_serial.logger.to_records()
                == report_parallel.logger.to_records())
        assert parallel.last_run_report.jobs == 2

    def test_scenario_suite_equivalence(self):
        serial = BenchmarkRunner(small_config())
        parallel = BenchmarkRunner(small_config(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        reports_serial = serial.run_scenario_suite(models=["gpt-4"])
        reports_parallel = parallel.run_scenario_suite(models=["gpt-4"])
        assert set(reports_serial) == set(reports_parallel)
        for name in reports_serial:
            assert (reports_serial[name].render_summary()
                    == reports_parallel[name].render_summary())
            assert (reports_serial[name].logger.to_records()
                    == reports_parallel[name].logger.to_records())

    def test_cached_rerun_is_identical_and_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = BenchmarkRunner(small_config(),
                               policy=ExecutorPolicy.processes(jobs=2, cache=cache))
        first = warm.run_application("traffic_analysis", backends=("networkx",),
                                     models=MODELS)
        assert warm.last_run_report.executed == len(warm.last_run_report.results)

        cached = BenchmarkRunner(small_config(),
                                 policy=ExecutorPolicy.serial(cache=cache))
        second = cached.run_application("traffic_analysis", backends=("networkx",),
                                        models=MODELS)
        assert cached.last_run_report.executed == 0
        assert cached.last_run_report.cache_hits == len(cached.last_run_report.results)
        assert first.render_summary() == second.render_summary()
        # the saved log differs only in the `cached` provenance flag — by
        # design: it records where each verdict came from, never what it is
        first_rows = first.logger.to_records()
        second_rows = second.logger.to_records()
        assert all(not row.pop("cached") for row in first_rows)
        assert all(row.pop("cached") for row in second_rows)
        assert first_rows == second_rows

    def test_config_change_invalidates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        BenchmarkRunner(small_config(),
                        policy=ExecutorPolicy.serial(cache=cache)).run_application(
            "traffic_analysis", backends=("networkx",), models=["gpt-4"])
        resized = BenchmarkRunner(
            BenchmarkConfig(traffic_node_count=24, traffic_edge_count=24),
            policy=ExecutorPolicy.serial(cache=cache))
        resized.run_application("traffic_analysis", backends=("networkx",),
                                models=["gpt-4"])
        # a different graph size is a different computation: no stale reuse
        assert resized.last_run_report.cache_hits == 0


class TestCostEquivalence:
    def test_scalability_sweep_identical(self):
        serial = CostAnalyzer()
        parallel = CostAnalyzer(policy=ExecutorPolicy.processes(jobs=2))
        assert (serial.scalability_sweep(graph_sizes=(40, 80, 120))
                == parallel.scalability_sweep(graph_sizes=(40, 80, 120)))

    def test_scenario_cost_sweep_identical(self):
        serial = CostAnalyzer()
        parallel = CostAnalyzer(policy=ExecutorPolicy.processes(jobs=2))
        assert serial.scenario_cost_sweep() == parallel.scenario_cost_sweep()

    def test_cost_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = CostAnalyzer(policy=ExecutorPolicy.processes(jobs=2, cache=cache))
        points = warm.scenario_cost_sweep()
        replay = CostAnalyzer(policy=ExecutorPolicy.serial(cache=cache))
        assert replay.scenario_cost_sweep() == points
        assert replay.last_run_report.executed == 0


class TestPayloadRoundTrips:
    def test_benchmark_config_round_trip(self):
        from repro.llm.calibration import CalibrationTable
        from repro.malt import MaltTopologyConfig

        config = BenchmarkConfig(
            traffic_node_count=11, traffic_edge_count=13, seed=3,
            malt_config=MaltTopologyConfig(datacenters=1, pods_per_datacenter=2),
            calibration=CalibrationTable())
        rebuilt = BenchmarkConfig.from_payload(config.to_payload())
        assert rebuilt.to_payload() == config.to_payload()
        assert rebuilt.malt_config.vendors == config.malt_config.vendors

    def test_pricing_table_round_trip(self):
        from repro.llm.pricing import DEFAULT_PRICING, PricingTable

        rebuilt = PricingTable.from_dict(DEFAULT_PRICING.to_dict())
        assert rebuilt.to_dict() == DEFAULT_PRICING.to_dict()
        assert rebuilt.cost("gpt-4", 1000, 100) == DEFAULT_PRICING.cost("gpt-4", 1000, 100)

    def test_calibration_round_trip(self):
        from repro.llm.calibration import CalibrationTable

        table = CalibrationTable()
        rebuilt = CalibrationTable.from_dict(table.to_dict())
        assert rebuilt.to_dict() == table.to_dict()
        assert (rebuilt.reliability("gpt-4", "traffic_analysis", "networkx", "hard")
                == table.reliability("gpt-4", "traffic_analysis", "networkx", "hard"))


class TestFailurePropagation:
    def test_cell_error_raises_with_task_key(self, monkeypatch):
        """A failing cell must abort the sweep loudly, naming the cell."""
        from repro.exec.report import TaskExecutionError

        runner = BenchmarkRunner(small_config())
        original_payload = BenchmarkConfig.to_payload

        def broken_payload(self):
            payload = original_payload(self)
            payload["traffic_node_count"] = -5  # invalid: workers will fail
            return payload

        monkeypatch.setattr(BenchmarkConfig, "to_payload", broken_payload)
        with pytest.raises(TaskExecutionError) as excinfo:
            runner.run_application("traffic_analysis", backends=("networkx",),
                                   models=["gpt-4"])
        assert "bench/traffic_analysis/networkx" in str(excinfo.value)
