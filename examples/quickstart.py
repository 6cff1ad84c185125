"""Quickstart: ask natural-language questions about a synthetic network.

Builds a small communication graph, runs a few queries through the full
pipeline (prompt -> simulated LLM -> generated code -> sandbox -> result), and
prints the generated code next to the result — the experience Figure 1 of the
paper illustrates.

Run with:  python examples/quickstart.py
"""

from repro.benchmark.queries import traffic_queries
from repro.core import NetworkManagementPipeline
from repro.llm import create_provider
from repro.traffic import TrafficAnalysisApplication


def main() -> None:
    application = TrafficAnalysisApplication.with_size(node_count=40, edge_count=40)
    provider = create_provider("gpt-4")
    pipeline = NetworkManagementPipeline(application, provider, backend="networkx")

    queries = [
        "How many nodes are in the communication graph?",
        "Find the top 3 nodes by total outgoing bytes and return their addresses.",
        "Assign a unique color for each /16 IP address prefix. Use color values "
        "'color-0', 'color-1', ... assigned in sorted order of the prefixes.",
    ]
    for query in queries:
        print("=" * 72)
        print(f"Operator query: {query}")
        result = pipeline.run_query(query)
        print("\nGenerated code:\n")
        print(result.code)
        if result.succeeded:
            if result.result_value is not None:
                print(f"Result: {result.result_value}")
            else:
                colored = sum(1 for _, attrs in result.updated_graph.nodes(data=True)
                              if "color" in attrs)
                print(f"Graph updated: {colored} nodes now carry a 'color' attribute.")
        else:
            print(f"Failed at {result.error_stage}: {result.error_message}")
        print(f"LLM cost: ${result.cost_usd:.4f}")

    print("=" * 72)
    print("The full NeMoEval corpus contains these queries (Table 1 of the paper):")
    for query in traffic_queries()[:6]:
        print(f"  [{query.complexity:>6}] {query.text}")
    print("  ... (see `repro queries` for the complete list)")


if __name__ == "__main__":
    main()
