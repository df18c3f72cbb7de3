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


def collect_edges(df: DataFrame) -> Tuple[List[tuple], Dict[str, np.ndarray]]:
    """Ship ``(src, dst, amount)`` rows to the driver in timestamp order.

    Collects ``src, dst, amount`` and ``ts`` (if present) with
    ``DataFrame.toArrow()`` and orders them by a stable ``argsort`` of
    ``ts``: tied timestamps keep partition/file order. Returns the row
    tuples (the values ``edge_rows`` yields) and each collected column
    as a numpy array in the same order.
    """
    names = ["src", "dst", "amount"] + (["ts"] if "ts" in df.columns else [])
    table = df.select(*names).toArrow()
    cols = {c: table.column(c).to_numpy() for c in names}
    if "ts" in cols:
        order = np.argsort(cols["ts"], kind="stable")
        cols = {c: a[order] for c, a in cols.items()}
    rows = list(zip(cols["src"].tolist(), cols["dst"].tolist(), cols["amount"].tolist()))
    return rows, cols


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
