"""Synthetic evolving transaction graphs with planted fraud communities.

Models the paper's workloads (§5, Table 3): a directed, weighted,
timestamped multigraph. Two shapes:

* ``bipartite`` — Grab-style customer→merchant transactions. Sources
  and targets are drawn from separate Zipf-distributed pools (the
  power-law degree distribution of Fig. 9b).
* ``directed``  — Amazon/Wiki-vote/Epinion-style interaction graphs
  where any vertex can be source or target.

Both shapes draw background ids with the fixed Zipf exponent ``ALPHA``.

On top of the background traffic two fraud structures are planted,
mirroring the paper's case studies (Fig. 12/13):

* **Established blocks** — dense customer×merchant collusion rings
  formed during the *initial* window. They are what the peeling
  algorithms detect at load time and they set the standing community
  density ``g(S^P)`` that Definition 4.1 classifies against.
* **Campaigns** (click-farming recruitment) — brand-new fraudster
  accounts appearing in the *increment tail* and transacting heavily
  with an established block's merchants. A fraudster enters ``S^P``
  once its weight into the community exceeds ``g(S^P)`` (adding vertex
  ``u`` to ``S`` raises ``g`` iff ``w_u(S) > g(S)``), i.e. early in its
  burst — which is what makes real-time prevention ℛ meaningful, and
  its later edges are exactly the *urgent* edges that trigger Spade's
  immediate reordering.

Fraud edges are labeled ``is_fraud`` with a ``block`` id (established
blocks first, then campaigns; ``-1`` = background).

Output columns: ``src`` (long), ``dst`` (long), ``amount`` (double > 0),
``ts`` (double seconds from stream start), ``is_fraud`` (boolean).
Vertex priors (FD side information) are uniform small positives, higher
inside fraud blocks. Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

#: Zipf exponent of the background pools: mild enough that the established
#: community density dominates background hub degrees, the regime the
#: paper's edge grouping operates in (most background edges benign under
#: Definition 4.1).
ALPHA = 0.3
#: Customer and merchant vertices of each established collusion ring.
FRAUD_BLOCK_SRC = 6
FRAUD_BLOCK_DST = 4
#: Fresh fraudster accounts per click-farming campaign.
FRAUDSTERS_PER_CAMPAIGN = 2
#: Stream length in seconds; every timestamp lies in ``[0, DURATION_S]``.
DURATION_S = 86_400.0
#: Share of the ``ts``-sorted edges that form the initial graph.
INIT_FRACTION = 0.9


def edge_rows(df: pd.DataFrame) -> List[Tuple]:
    """The ``(src, dst, amount)`` tuples of an edge table, in row order.

    This is the row format every :class:`~repro.core.SpadeEngine` update
    takes.
    """
    return list(df[["src", "dst", "amount"]].itertuples(index=False, name=None))


@dataclass
class GraphData:
    """A generated dataset: full edge table + the 90/10 init/increment split.

    ``edges`` is sorted by ``ts``; ``initial`` is the first 90 % (the
    paper constructs G from V and 90 % of E), ``increments`` the final
    10 % replayed in timestamp order as ΔG. ``priors`` maps vertex id to
    FD prior suspiciousness; ``fraud_blocks`` lists the planted
    communities (vertex-id sets), aligned with the ``block`` edge column
    (``-1`` for background traffic).
    """

    name: str
    edges: pd.DataFrame
    n_initial: int
    priors: Dict[int, float]
    established_blocks: List[frozenset]  # collusion rings in the initial graph
    fraud_blocks: List[frozenset]  # campaign fraudster sets (increment tail)

    @property
    def fraud_vertices(self) -> frozenset:
        """All planted fraudster vertex ids (established + campaigns)."""
        out: set = set()
        for b in self.established_blocks:
            out |= b
        for b in self.fraud_blocks:
            out |= b
        return frozenset(out)

    @property
    def initial(self) -> pd.DataFrame:
        return self.edges.iloc[: self.n_initial]

    @property
    def increments(self) -> pd.DataFrame:
        return self.edges.iloc[self.n_initial :]

    def to_spark(self, spark: SparkSession) -> DataFrame:
        """The full edge table as a Spark DataFrame."""
        return spark.createDataFrame(self.edges)


def _zipf_ids(g: np.random.Generator, n: int, pool: int, offset: int = 0) -> np.ndarray:
    ranks = np.arange(1, pool + 1, dtype=np.float64)
    p = ranks**-ALPHA
    p /= p.sum()
    return offset + g.choice(pool, size=n, p=p)


def transaction_graph(
    *,
    name: str = "synthetic",
    n_src: int,
    n_dst: int,
    n_edges: int,
    kind: str = "bipartite",
    n_fraud_blocks: int = 2,
    fraud_edges_per_block: int = 1_100,
    n_campaigns: int = 2,
    edges_per_fraudster: int = 500,
    seed: int = 0,
) -> GraphData:
    """Generate a timestamped transaction graph with planted fraud.

    ``n_src``/``n_dst`` size the two vertex pools (for ``directed``
    graphs both draws come from the union pool, so |V| ≈ n_src+n_dst).
    Background edges get uniform timestamps over ``DURATION_S``.
    Established blocks of ``FRAUD_BLOCK_SRC`` × ``FRAUD_BLOCK_DST``
    vertices burst inside the initial 90 % window; campaigns of
    ``FRAUDSTERS_PER_CAMPAIGN`` fraudsters burst entirely inside the
    10 % increment tail, attaching to an established block's merchant
    side (the click-farming pattern of Fig. 12c).
    """
    if kind not in ("bipartite", "directed"):
        raise ValueError(f"kind must be bipartite|directed, got {kind!r}")
    g = np.random.default_rng(seed)
    n_campaign_edges = n_campaigns * FRAUDSTERS_PER_CAMPAIGN * edges_per_fraudster
    n_bg = n_edges - n_fraud_blocks * fraud_edges_per_block - n_campaign_edges
    if n_bg <= 0:
        raise ValueError("n_edges too small for the requested fraud structures")

    pool = n_src + n_dst
    if kind == "bipartite":
        src = _zipf_ids(g, n_bg, n_src)
        dst = _zipf_ids(g, n_bg, n_dst, offset=n_src)
    else:
        src = _zipf_ids(g, n_bg, pool)
        dst = _zipf_ids(g, n_bg, pool)
        clash = src == dst
        dst[clash] = (dst[clash] + 1) % pool
    ts = g.uniform(0.0, DURATION_S, n_bg)
    amount = np.exp(g.normal(3.0, 1.0, n_bg)).round(2) + 0.01
    frames = [
        pd.DataFrame(
            {
                "src": src,
                "dst": dst,
                "amount": amount,
                "ts": ts,
                "is_fraud": False,
                "block": -1,
            }
        )
    ]

    priors: Dict[int, float] = {}
    established_blocks: List[frozenset] = []
    block_dst_members: List[np.ndarray] = []
    for b in range(n_fraud_blocks):
        if kind == "bipartite":
            fr_src = g.choice(n_src, size=FRAUD_BLOCK_SRC, replace=False)
            fr_dst = n_src + g.choice(n_dst, size=FRAUD_BLOCK_DST, replace=False)
        else:
            members = g.choice(pool, size=FRAUD_BLOCK_SRC + FRAUD_BLOCK_DST, replace=False)
            fr_src, fr_dst = members[:FRAUD_BLOCK_SRC], members[FRAUD_BLOCK_SRC:]
        # Established collusion ring: bursts inside the initial window so
        # it is already the detected community when the replay starts.
        w0 = g.uniform(0.15, 0.75) * DURATION_S
        w1 = min(DURATION_S, w0 + 0.08 * DURATION_S)
        e_src = g.choice(fr_src, size=fraud_edges_per_block)
        e_dst = g.choice(fr_dst, size=fraud_edges_per_block)
        frames.append(
            pd.DataFrame(
                {
                    "src": e_src,
                    "dst": e_dst,
                    "amount": np.exp(g.normal(3.0, 1.0, fraud_edges_per_block)).round(2)
                    + 0.01,
                    "ts": np.sort(g.uniform(w0, w1, fraud_edges_per_block)),
                    "is_fraud": True,
                    "block": b,
                }
            )
        )
        members = frozenset(int(v) for v in np.concatenate([fr_src, fr_dst]))
        established_blocks.append(members)
        block_dst_members.append(np.asarray(fr_dst))
        for v in members:
            priors[v] = 1.0  # FD side information: suspicious prior

    # Campaigns: fresh fraudster accounts (ids beyond both pools) attach
    # to an established block's merchants inside the increment tail.
    fraud_blocks: List[frozenset] = []
    next_vid = pool
    for c in range(n_campaigns):
        targets = block_dst_members[c % max(1, n_fraud_blocks)]
        members_c = []
        c_src, c_dst, c_ts = [], [], []
        w0 = g.uniform(0.905, 0.93) * DURATION_S
        w1 = min(DURATION_S, w0 + 0.05 * DURATION_S)
        for _ in range(FRAUDSTERS_PER_CAMPAIGN):
            fid = next_vid
            next_vid += 1
            members_c.append(fid)
            c_src.append(np.full(edges_per_fraudster, fid, dtype=np.int64))
            c_dst.append(g.choice(targets, size=edges_per_fraudster))
            c_ts.append(np.sort(g.uniform(w0, w1, edges_per_fraudster)))
            priors[fid] = 1.0
        n_ce = FRAUDSTERS_PER_CAMPAIGN * edges_per_fraudster
        frames.append(
            pd.DataFrame(
                {
                    "src": np.concatenate(c_src),
                    "dst": np.concatenate(c_dst),
                    "amount": np.exp(g.normal(3.0, 1.0, n_ce)).round(2) + 0.01,
                    "ts": np.concatenate(c_ts),
                    "is_fraud": True,
                    "block": n_fraud_blocks + c,
                }
            )
        )
        fraud_blocks.append(frozenset(members_c))

    edges = (
        pd.concat(frames, ignore_index=True)
        .sort_values("ts", kind="mergesort")
        .reset_index(drop=True)
    )
    edges["src"] = edges["src"].astype("int64")
    edges["dst"] = edges["dst"].astype("int64")
    n_initial = int(len(edges) * INIT_FRACTION)
    # Default prior for normal users: small positive constant.
    for v in pd.unique(pd.concat([edges["src"], edges["dst"]])):
        priors.setdefault(int(v), 0.1)
    return GraphData(
        name=name,
        edges=edges,
        n_initial=n_initial,
        priors=priors,
        established_blocks=established_blocks,
        fraud_blocks=fraud_blocks,
    )
