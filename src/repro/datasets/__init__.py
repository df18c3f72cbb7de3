"""Synthetic stand-ins for the paper's seven evaluation datasets.

The Grab datasets are proprietary and the three public ones are not
downloadable in this offline container, so `generator.py` synthesizes
power-law transaction/interaction graphs with planted dense fraud
blocks, timestamps and vertex priors; `presets.py` pins the seven
configurations of Table 3 (Grab1-4 at 1:100 scale, Amazon/Wiki-vote at
published scale, Epinion at 1:10); `stats.py` computes Table 3's
statistics with Spark aggregations.
"""
from repro.datasets.generator import GraphData, edge_rows, transaction_graph
from repro.datasets.presets import PRESETS, load_preset

__all__ = ["GraphData", "edge_rows", "transaction_graph", "PRESETS", "load_preset"]
