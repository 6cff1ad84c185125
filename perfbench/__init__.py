"""Repository benchmark: workloads, correctness checks and per-layer tracing."""
