"""Shared fixtures for the test suite."""

from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_tree, effects
from repro.analysis.templates import clear_template_cache
from repro.benchmark import BenchmarkConfig
from repro.graph import PropertyGraph
from repro.malt import MaltApplication, MaltTopologyConfig
from repro.traffic import CommunicationGraphConfig, TrafficAnalysisApplication


PACKAGE_ROOT = Path(repro.__file__).parent
#: the key the effect cache files the live tree's project under
LIVE_PROJECT_KEY = (str(PACKAGE_ROOT.resolve()), None)

SMALL_MALT_CONFIG = MaltTopologyConfig(
    datacenters=1, pods_per_datacenter=2, racks_per_pod=2, chassis_per_rack=2,
    switches_per_chassis=4, ports_per_switch=3, control_points=4, port_links=6,
    seed=11)


@pytest.fixture(scope="session")
def traffic_app() -> TrafficAnalysisApplication:
    """A 40-node / 40-edge traffic-analysis application (the benchmark default)."""
    return TrafficAnalysisApplication(config=CommunicationGraphConfig(
        node_count=40, edge_count=40, seed=7))


@pytest.fixture(scope="session")
def malt_app() -> MaltApplication:
    """A small MALT application (hundreds of nodes) for fast tests."""
    return MaltApplication(config=SMALL_MALT_CONFIG)


@pytest.fixture(scope="session")
def small_benchmark_config() -> BenchmarkConfig:
    """Benchmark configuration that uses the small MALT topology."""
    return BenchmarkConfig(malt_config=SMALL_MALT_CONFIG)


def _storage_layout(graph) -> str:
    """Everything a :class:`PropertyGraph` or networkx graph stores, in
    storage order and with value types (``repr``), plus whether each edge's
    successor and predecessor entries are one dict."""
    if isinstance(graph, PropertyGraph):
        head = (graph.name, graph.directed, graph.graph_attributes)
        nodes, succ, pred = graph._nodes, graph._succ, graph._pred
    else:
        head = (type(graph).__name__, graph.graph)
        nodes, succ = graph._node, graph._adj
        pred = graph._pred if graph.is_directed() else graph._adj
    shared = all(pred[target][source] is attrs
                 for source, row in succ.items() for target, attrs in row.items())
    return repr((head, [(n, list(a.items())) for n, a in nodes.items()],
                 [(u, [(v, list(a.items())) for v, a in row.items()])
                  for u, row in succ.items()],
                 [(v, list(row)) for v, row in pred.items()], shared))


@pytest.fixture(scope="session")
def storage_layout():
    """``storage_layout(graph)``: a graph's storage as one comparable string."""
    return _storage_layout


@pytest.fixture(scope="session")
def corpus_applications():
    """The benchmark's two applications at their default (paper) scale."""
    config = BenchmarkConfig()
    return {"traffic": config.traffic_application(), "malt": config.malt_application()}


@pytest.fixture(scope="session")
def live_project():
    """The effect analysis of the live ``repro`` tree, built once."""
    return effects.analyze_project(PACKAGE_ROOT)


@pytest.fixture
def live_effect_cache(live_project, monkeypatch):
    """Analyses of the live tree (the CLI's included) reuse ``live_project``
    instead of building their own."""
    monkeypatch.setitem(effects._PROJECT_CACHE, LIVE_PROJECT_KEY, live_project)


@pytest.fixture(scope="session")
def live_tree_findings(live_project):
    """Every finding of every rule on the live tree, computed once."""
    clear_template_cache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(effects._PROJECT_CACHE, LIVE_PROJECT_KEY, live_project)
        return analyze_tree(PACKAGE_ROOT)
