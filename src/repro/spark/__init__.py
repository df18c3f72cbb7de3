"""Spark substrate: engine bootstrap and streaming ingestion.

The transaction log is read as DataFrames (the bootstrap graph and the
Structured Streaming micro-batches) and handed to the driver-resident
``SpadeEngine`` via Arrow; the engine's ``Metric`` weighs every edge.
"""
from repro.spark.builder import build_engine

__all__ = ["build_engine"]
