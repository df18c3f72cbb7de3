"""The seven evaluation datasets of Table 3, as synthetic presets.

Scaling (documented in DESIGN.md §3): Grab1-4 at 1:100 of the paper's
proprietary sizes with the published |V|:|E| ratios and average degrees
preserved; Amazon and Wiki-vote at the published sizes; Epinion at
1:10. ``scale`` multiplies edge counts for quick test runs
(``scale=0.1`` in unit tests, ``1.0`` for jobs/benchmarks).

Each preset records the paper's statistics so Table 3 can print paper
vs. measured side by side.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict

from repro.datasets.generator import GraphData, transaction_graph


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str  # bipartite | directed
    n_src: int
    n_dst: int
    n_edges: int
    type_label: str  # Table 3 "Type" column
    # Paper-reported statistics (full-scale originals) for EXPERIMENTS.md.
    paper_v: str
    paper_e: str
    paper_avg_deg: float
    paper_increments: str


PRESETS: Dict[str, Preset] = {
    p.name: p
    for p in [
        # Grab1-4: bipartite customer->merchant, 1:100 scale. Source pool
        # is ~4x the merchant pool (many customers, fewer stores); pools
        # chosen so touched |V| tracks the paper's V:E ratio.
        Preset("grab1_lite", "bipartite", 32_000, 8_000, 100_000, "Transaction",
               "3.991M", "10M", 5.011, "1M"),
        Preset("grab2_lite", "bipartite", 38_500, 9_700, 150_000, "Transaction",
               "4.805M", "15M", 6.243, "1.5M"),
        Preset("grab3_lite", "bipartite", 43_500, 10_900, 200_000, "Transaction",
               "5.433M", "20M", 7.366, "2M"),
        Preset("grab4_lite", "bipartite", 48_200, 12_000, 250_000, "Transaction",
               "6.023M", "25M", 8.302, "2.5M"),
        # Public datasets: Amazon/Wiki-vote at published scale, Epinion 1:10.
        Preset("amazon_lite", "directed", 14_000, 14_000, 28_000, "Review",
               "28K", "28K", 2.0, "2.8K"),
        Preset("wikivote_lite", "directed", 8_000, 8_000, 103_000, "Vote",
               "16K", "103K", 12.88, "10.3K"),
        Preset("epinion_lite", "directed", 13_200, 13_200, 84_100, "Who-trust-whom",
               "264K", "841K", 6.37, "84.1K"),
    ]
}


def load_preset(name: str, *, scale: float = 1.0, seed: int = 7) -> GraphData:
    """Materialize a preset at ``scale`` (fractions shrink edge counts)."""
    p = PRESETS[name]
    n_edges = max(2_000, int(p.n_edges * scale))
    shrink = n_edges / p.n_edges
    n_src = max(200, int(p.n_src * shrink))
    n_dst = max(100, int(p.n_dst * shrink))
    big = n_edges >= 20_000
    return transaction_graph(
        name=name,
        n_src=n_src,
        n_dst=n_dst,
        n_edges=n_edges,
        kind=p.kind,
        n_fraud_blocks=2 if big else 1,
        fraud_edges_per_block=max(60, min(1_100, n_edges // 40)),
        n_campaigns=2 if big else 1,
        edges_per_fraudster=max(20, min(500, n_edges // 100)),
        # zlib.crc32 is stable across runs (str hash is salted per process).
        seed=seed + zlib.crc32(name.encode()) % 1000,
    )
