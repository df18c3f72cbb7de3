"""Fixed small streams replayed to the bit.

Each case bulk-loads a small preset, replays its increments and hashes
the maintained sequence, its ``Δ``, ``best_density``, ``f_total`` and
the community ``S^P``. The digests were recorded before the kernel's
white-run move became a ``memmove`` and ``Detect``'s re-accumulation and
rescan became one pass; a change to the reorder or ``Detect`` that is
meant to keep every result must keep them. A change that alters a result
on purpose records new digests and says why.

One digest was re-recorded since: ``grab2_DW_edges``' ``best_density``,
when ``Detect`` began to rewrite its span in whole blocks and to add a
stale block's offset into ``F`` as it rescans it. The suffix weights it
keeps are then summed in a different order, so the winning density
moved in its last bits, closer to the exact value (relative error
5.2e-16 before, 1.1e-16 after, against a long-double tail sum); the
community is the same. Each case also checks ``best_density`` within
1e-14 of that tail sum.
"""
import hashlib

import numpy as np
import pytest

from repro.core import DG, DW, FD, SpadeEngine
from repro.datasets import edge_rows, load_preset

#: (preset, metric, scale, increments replayed, edges per call, digests of
#: the order, Δ, best_density, f_total and sorted community vids after the
#: replay)
CASES = {
    "grab2_DW_edges": ("grab2_lite", DW, 0.2, 3_000, 1, (
        "506a7ce109c2f82f", "1f25695e3b42fc7a", "cece24bf6cf163c2", "f3869d86528e09a3",
        "de4cf5556e5e8210")),
    "grab1_FD_edges": ("grab1_lite", FD, 0.1, 1_000, 1, (
        "0de4e81bef02d099", "b6dda829d63f65a6", "9e7096d34f822841", "cf6369b03cc3317e",
        "f00c4a0fa6e75849")),
    "grab4_DG_batches": ("grab4_lite", DG, 0.2, 5_000, 250, (
        "9c68af889b830398", "8edcb248ed26e7bd", "b4f2a8ab8593e094", "3433297c096a01c3",
        "da7b1eb536736af8")),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def replay(preset, metric, scale, n, per_call) -> SpadeEngine:
    data = load_preset(preset, scale=scale)
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    rows = edge_rows(data.increments)[:n]
    assert len(rows) == n
    if per_call == 1:
        for row in rows:
            eng.insert_edge(*row)
    else:
        for i in range(0, n, per_call):
            eng.insert_batch(rows[i : i + per_call])
    return eng


@pytest.mark.parametrize("case", list(CASES))
def test_replay_matches_recorded_digests(case):
    preset, metric, scale, n, per_call, want = CASES[case]
    eng = replay(preset, metric, scale, n, per_call)
    community = np.array(sorted(eng._community), dtype=np.int64)
    got = (sha(eng._order[eng._lo : eng._hi].tobytes()), sha(eng.deltas().tobytes()),
           sha(eng.best_density.hex().encode()), sha(eng.f_total.hex().encode()),
           sha(community.tobytes()))
    assert got == want
    d = eng.deltas().astype(np.longdouble)
    f = np.cumsum(d[::-1])[::-1]  # f(S_j), summed from the tail
    best = (f / np.arange(len(d), 0, -1, dtype=np.longdouble)).max()
    assert abs(np.longdouble(eng.best_density) - best) <= 1e-14 * best
