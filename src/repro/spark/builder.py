"""Spark → engine hand-off (Fig. 1 pipeline).

The transaction log is a DataFrame ``(src, dst, amount, ts, ...)``;
edge weights are not computed here: the engine evaluates its
``Metric``'s ``esusp`` as each edge is inserted.

* ``collect_edges`` — the hand-off of ``build_engine`` and
  ``run_stream``: Arrow transfer, then a stable ``ts`` sort on the
  driver instead of a Spark-side sort (no sampling job, no shuffle);
* ``build_engine`` — bootstrap a ``SpadeEngine`` from the initial 90 %
  of the log.
"""
from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.engine import SpadeEngine
from repro.core.susp import Metric


def collect_edges(df: DataFrame) -> Tuple[List[tuple], np.ndarray]:
    """Ship ``(src, dst, amount)`` rows to the driver in timestamp order.

    Collects ``src, dst, amount, ts`` with ``DataFrame.toArrow()`` and
    orders them by a stable ``argsort`` of ``ts``: tied timestamps keep
    partition/file order. Returns the row tuples (the values
    ``edge_rows`` yields) and their ``ts`` in the same order.
    """
    table = df.select("src", "dst", "amount", "ts").toArrow()
    ts = table.column("ts").to_numpy()
    order = np.argsort(ts, kind="stable")
    src, dst, amount = (table.column(c).to_numpy()[order] for c in ("src", "dst", "amount"))
    return list(zip(src.tolist(), dst.tolist(), amount.tolist())), ts[order]


def build_engine(
    spark: SparkSession,
    edges: DataFrame,
    metric: Metric,
    priors: Optional[Dict[Hashable, float]] = None,
) -> SpadeEngine:
    """Bootstrap a :class:`SpadeEngine` from a Spark edge DataFrame.

    The engine evaluates ``esusp`` edge by edge in timestamp order (the
    evolving-graph semantics every later insertion uses).
    """
    eng = SpadeEngine(metric)
    eng.bulk_load(collect_edges(edges)[0], priors=priors)
    return eng
