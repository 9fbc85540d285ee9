"""Layered benchmark for eoflab; see perfbench/README.md."""
