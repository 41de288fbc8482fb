"""The one-system half-plane clipping that ``halfplane.clip_systems``
replaced, kept as the reference for the batched kernel: rows are
normalized, a box sized by every axis intercept and pairwise crossing is
clipped row by row in Python, near-duplicate vertices are dropped after
each row, and the schedule of ``repair_strict`` is tested point by point
in one array per witness.  The tests compare the kernel with these
functions by ``==``."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from crowdprice.halfplane import FeasibilityResult, HalfPlane

_TOL = 1e-12
_BOUNDARY_TOL = 1e-9
_STEPS = np.concatenate([[0.0], np.ldexp(1.0, -np.arange(60))])


def reference_clip(poly: list[tuple[float, float]], row: HalfPlane) -> list[tuple[float, float]]:
    """Keep the part of the polygon with row.value <= rhs (+ tolerance)."""
    if not poly:
        return poly
    out: list[tuple[float, float]] = []
    dists = [row.value(x, y) - row.rhs for (x, y) in poly]
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        di, dj = dists[i], dists[j]
        inside_i = di <= _TOL
        inside_j = dj <= _TOL
        if inside_i:
            out.append(poly[i])
        if inside_i != inside_j:
            t = di / (di - dj)
            xi, yi = poly[i]
            xj, yj = poly[j]
            out.append((xi + t * (xj - xi), yi + t * (yj - yi)))
    # collapse near-duplicate vertices so degenerate slivers stay stable
    dedup: list[tuple[float, float]] = []
    for v in out:
        if all(abs(v[0] - w[0]) > 1e-13 or abs(v[1] - w[1]) > 1e-13 for w in dedup):
            dedup.append(v)
    return dedup


def reference_bounding_extent(rows: Sequence[HalfPlane]) -> float:
    """A box size guaranteed to contain every candidate vertex."""
    extent = 1.0
    for row in rows:
        for coef in (row.a_p, row.a_q):
            if abs(coef) > _TOL:
                extent = max(extent, abs(row.rhs / coef))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            det = a.a_p * b.a_q - a.a_q * b.a_p
            if abs(det) > _TOL:
                p = (a.rhs * b.a_q - a.a_q * b.rhs) / det
                q = (a.a_p * b.rhs - a.rhs * b.a_p) / det
                extent = max(extent, abs(p), abs(q))
    return 10.0 * extent


def reference_feasible_point(rows: Sequence[HalfPlane]) -> FeasibilityResult:
    """Intersect the loosened rows with the quadrant p, q >= 0.

    Strict rows are clipped as if non-strict; the result flags which
    strict rows the witness satisfies only with equality, so the caller
    can run ``reference_repair_strict``.  The witness is the polygon vertex with
    the smallest p + q (then smallest p), biasing toward cheap policies.
    """
    normalized = [row.normalized() for row in rows]
    for row in normalized:
        if abs(row.a_p) <= _TOL and abs(row.a_q) <= _TOL:
            # pure constant check
            if 0.0 > row.rhs + _TOL or (row.strict and not 0.0 < row.rhs):
                return FeasibilityResult(False, None, tuple(r.strict for r in rows))

    extent = reference_bounding_extent(normalized)
    poly = [(0.0, 0.0), (extent, 0.0), (extent, extent), (0.0, extent)]
    for row in normalized:
        if abs(row.a_p) <= _TOL and abs(row.a_q) <= _TOL:
            continue
        poly = reference_clip(poly, row)
        if not poly:
            return FeasibilityResult(False, None, tuple(False for _ in rows))

    poly = [(max(0.0, v[0]), max(0.0, v[1])) for v in poly]
    witness = min(poly, key=lambda v: (v[0] + v[1], v[0]))
    flags = tuple(
        row.strict and abs(row.value(*witness) - row.rhs) <= _BOUNDARY_TOL
        for row in normalized
    )
    return FeasibilityResult(True, witness, flags, tuple(poly))


def reference_repair_strict(
    witness: tuple[float, float],
    rows: Sequence[HalfPlane],
    scale: float | None = None,
) -> tuple[float, float] | None:
    """Move a loosened-system witness off the strict boundaries.

    Returns the witness itself when it already satisfies every row, and
    otherwise the first point (p - eps0 * 2^-k, q), k = 0..59, with
    eps0 = 1e-6 * scale, at which p >= 0, every strict row holds strictly
    and the non-strict rows still hold.  The witness and the whole
    schedule are tested as one array against the normalized rows, with
    the float expressions and exact comparisons of trying the points one
    by one, so on finite input the answer is the same.  Returns None after
    60 halvings (at once when q < 0); that marks a boundary-degenerate
    system (two adjacent workers sharing a profile), where the exact
    structure is unattainable for any policy.
    """
    p, q = witness
    if q < 0.0:
        return None
    if scale is None:
        scale = max([1.0] + [abs(r.rhs) for r in rows])
    a_p, a_q_q, limit = [], [], []
    for row in rows:
        # HalfPlane.normalized's division, and its value a_p p + a_q q
        size = max(abs(row.a_p), abs(row.a_q), abs(row.rhs)) or 1.0
        rhs = row.rhs / size
        a_p.append(row.a_p / size)
        a_q_q.append(row.a_q / size * q)
        # exact comparisons: a tolerance here would let contradictory
        # systems (the duplicated-profile degeneracy) "repair" at the dust
        # level.  A float v breaks v <= rhs exactly when v >= the next
        # float above rhs, so both kinds of row fail at v >= limit.
        limit.append(rhs if row.strict else math.nextafter(rhs, math.inf))
    bases = p - (1e-6 * scale) * _STEPS
    value = np.multiply.outer(a_p, bases)
    value += np.array(a_q_q)[:, None]
    ok = bases >= 0.0
    ok &= ~(value >= np.array(limit)[:, None]).any(axis=0)
    k = int(ok.argmax())
    if not ok[k]:
        return None
    return witness if k == 0 else (float(bases[k]), q)
