"""Scenario suites: ordered collections of scenarios swept as one unit.

The benchmark runner (:meth:`repro.benchmark.runner.BenchmarkRunner.
run_scenario_suite`) and the cost analyzer (:meth:`repro.cost.analysis.
CostAnalyzer.scenario_cost_sweep`) both consume suites, so one suite
definition drives both the accuracy and the cost axes of an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.scenarios.spec import ScenarioSpec
from repro.utils.validation import require


@dataclass
class ScenarioSuite:
    """A named, ordered collection of scenario specs."""

    name: str
    scenarios: List[ScenarioSpec] = field(default_factory=list)

    def validate(self) -> None:
        require(bool(self.name), "suite name must be non-empty")
        require(len(self.scenarios) > 0, "a suite needs at least one scenario")
        seen: Set[str] = set()
        for spec in self.scenarios:
            spec.validate()
            require(spec.name not in seen,
                    f"duplicate scenario name {spec.name!r} in suite {self.name!r}")
            seen.add(spec.name)

    def families(self) -> List[str]:
        """Distinct topology families covered by the suite, sorted."""
        return sorted({spec.family for spec in self.scenarios})


def default_suite() -> ScenarioSuite:
    """The default multi-family sweep used by tests and the CLI.

    Small scenarios from four distinct families, so an end-to-end sweep
    (topology build, event replay, traffic overlay, benchmark queries) stays
    fast enough for CI.
    """
    from repro.scenarios.registry import get_scenario

    suite = ScenarioSuite(
        name="default",
        scenarios=[
            get_scenario("fat-tree-failover"),
            get_scenario("ring-maintenance"),
            get_scenario("traffic-flashcrowd"),
            get_scenario("star-hub-brownout"),
        ],
    )
    suite.validate()
    return suite

