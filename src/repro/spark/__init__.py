"""Spark substrate: graph construction and streaming ingestion.

All set-oriented work lives here as DataFrame/Spark-SQL transformations
(degrees, Fraudar edge weighting, and the Structured Streaming
micro-batch ingestion path), with results handed to the driver-resident
``SpadeEngine`` via Arrow.
"""
from repro.spark.builder import build_engine, degrees, edge_weights

__all__ = ["build_engine", "degrees", "edge_weights"]
