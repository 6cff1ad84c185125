"""Command-line interface for the reproduction (``repro``)."""

from repro.cli.main import main, build_parser

__all__ = ["main", "build_parser"]
