"""The exact oracle as it ran before its two prunes: every sampled bonus,
every (bonus, base) row, in chunks of 2^12 rows.  ``cp_exact_oracle``
skips the bonuses and rows that must overspend and cuts larger chunks;
the tests compare its reports with ``reference_oracle``'s by ``==``."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from crowdprice.common import (
    Candidates,
    CpSolveReport,
    _cheapest_per_set,
    _critical_bonuses,
    _worker_bits,
    make_report,
)
from crowdprice.utilities import UtilityFunction
from crowdprice.workers import WorkerProfile

_CHUNK_ROWS = 1 << 12


def reference_chunk_candidates(
    q: np.ndarray, r: np.ndarray, c: np.ndarray, bits: np.ndarray, limit: float
) -> Candidates:
    """Budget-feasible (words, spend, p, q) rows of one chunk of bonuses,
    the cheapest of each run of rows with one set; every row is built."""
    m, n = len(q), len(r)
    qr = q[:, None] * r
    keys = c - qr
    perm = np.argsort(keys, axis=1, kind="stable")
    ks = np.take_along_axis(keys, perm, axis=1)
    qr_sorted = np.take_along_axis(qr, perm, axis=1)
    c_sorted = c[perm]
    sorted_bits = bits[perm]
    prefix = np.zeros((m, n + 1, bits.shape[1]), dtype=np.uint64)
    prefix[:, 1:] = np.bitwise_or.accumulate(sorted_bits, axis=1)

    band = 4.0 * np.finfo(float).eps * np.maximum(max(1.0, float(c.max())), q * r.max())
    split = np.diff(ks, axis=1) > band[:, None]
    rank = np.arange(n)
    opens = np.concatenate([np.ones((m, 1), dtype=bool), split], axis=1)
    closes = np.concatenate([split, np.ones((m, 1), dtype=bool)], axis=1)
    group_lo = np.maximum.accumulate(np.where(opens, rank, 0), axis=1)
    group_hi = np.minimum.accumulate(np.where(closes, rank + 1, n)[:, ::-1], axis=1)[:, ::-1]

    base = np.empty((2 * n + 2, m))
    base[0] = 0.0
    base[1] = np.nextafter(0.0, 1.0)
    base[2::2] = ks.T
    base[3::2] = np.nextafter(ks.T, np.inf)
    lo = np.empty(base.shape, dtype=np.intp)
    hi = np.empty(base.shape, dtype=np.intp)
    pivot = np.empty(base.shape, dtype=np.intp)
    lo[:2] = pivot[:2] = np.count_nonzero(ks < -band[:, None], axis=1)
    hi[:2] = np.count_nonzero(ks <= band[:, None], axis=1)
    lo[2::2] = lo[3::2] = group_lo.T
    hi[2::2] = hi[3::2] = group_hi.T
    own = base[2:].reshape(n, 2, m) + qr_sorted.T[:, None] >= c_sorted.T[:, None]
    pivot[2:] = (rank[:, None, None] + own).reshape(2 * n, m)
    live = np.ones(base.shape, dtype=bool)
    live[2::2] = live[3::2] = ks.T > 0.0
    row = np.flatnonzero(live)
    at = row % m
    p, lo, hi, pivot = base.ravel()[row], lo.ravel()[row], hi.ravel()[row], pivot.ravel()[row]

    words = prefix.reshape(-1, bits.shape[1])[at * (n + 1) + pivot]
    size = pivot.copy()
    qr_sorted, c_sorted = qr_sorted.ravel(), c_sorted.ravel()
    sorted_bits = sorted_bits.reshape(-1, bits.shape[1])
    k = np.flatnonzero((hi - lo > 1) | (row < 2 * m))
    for d in range((hi - lo)[k].max(initial=0)):
        k = k[hi[k] - lo[k] > d]
        j = lo[k] + d
        flat = at[k] * n + j
        accept = p[k] + qr_sorted[flat] >= c_sorted[flat]
        flip = accept != (j < pivot[k])
        words[k[flip]] ^= sorted_bits[flat[flip]]
        size[k[flip]] += np.where(accept[flip], 1, -1)

    fresh = np.ones(len(p), dtype=bool)
    fresh[1:] = (words[1:] != words[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    lengths = np.diff(starts, append=len(p))
    masks = np.unpackbits(words[starts].view(np.uint8), axis=1, count=n).astype(bool)
    q_row = q[at]
    spend = p * size + q_row * np.repeat(np.einsum("ij,j->i", masks, r), lengths)
    least = np.repeat(np.minimum.reduceat(spend, starts), lengths)
    keep = (spend == least) & (spend <= limit)
    return words[keep], spend[keep], p[keep], q_row[keep]


def reference_oracle(
    workers: Sequence[WorkerProfile], budget: float, utility: UtilityFunction
) -> CpSolveReport:
    """``cp_exact_oracle(workers, budget, utility, max_n=len(workers))``
    with every row evaluated: same samples, filter, merge and ranking."""
    n = len(workers)
    if n == 0:
        return make_report(workers, utility, 0.0, 0.0)
    r = np.array([w.quality for w in workers])
    c = np.array([w.cost for w in workers])
    eps = 1e-9 * max(1.0, float(c.max()))
    limit = budget + 1e-9 * max(1.0, budget, float(c.max()))

    crit = _critical_bonuses(r, c)
    below = crit - eps
    samples = np.unique(
        np.concatenate(
            [
                crit,
                crit + eps,
                below[below >= 0.0],
                (crit[:-1] + crit[1:]) / 2.0,
                [crit[-1] + max(1.0, crit[-1])],
            ]
        )
    )

    bits = _worker_bits(n)
    step = max(1, _CHUNK_ROWS // (2 * n + 2))
    kept: list[Candidates] = []
    pending = 0
    for start in range(0, len(samples), step):
        rows = reference_chunk_candidates(samples[start : start + step], r, c, bits, limit)
        kept.append(_cheapest_per_set(rows))
        pending += len(kept[-1][1])
        if pending > len(kept[0][1]):
            kept, pending = [_cheapest_per_set(*kept)], 0

    words, spend, p, q = _cheapest_per_set(*kept)
    masks = np.unpackbits(words.view(np.uint8), axis=1, count=n).astype(bool)
    kernel = utility.bind(workers)
    values = kernel(masks)
    for t in np.lexsort((q, p, spend, -values)):
        report = make_report(workers, utility, float(p[t]), float(q[t]), kernel=kernel)
        if report.spent <= budget:
            return report
    return make_report(workers, utility, 0.0, 0.0, kernel=kernel)
