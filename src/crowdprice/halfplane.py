"""Exact feasibility for small half-plane systems in the (p, q) plane.

The common-pricing searches only ever ask "is there a nonnegative (p, q)
satisfying these few inequalities, some of them strict?", and they ask it
of many small systems at a time.  :func:`clip_systems` answers K systems
together: each system's normalized rows clip a box that holds all of its
vertices, in row order (Sutherland-Hodgman), and each step clips all K
polygons, side by side in (K x V) vertex arrays, by their next row in one
set of array operations.  That is simpler and more robust than a general
LP.  Strict rows are clipped as if non-strict and handled afterwards by
nudging the base payment (:func:`repair_vertices`).  :func:`feasible_point`
and :func:`repair_strict` are the one-system forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HalfPlane",
    "FeasibilityResult",
    "Polygons",
    "clip_systems",
    "feasible_point",
    "repair_strict",
    "repair_vertices",
]

_TOL = 1e-12  # orientation tolerance on normalized coefficients
_BOUNDARY_TOL = 1e-9
_DUPLICATE_TOL = 1e-13  # vertices this close in both coordinates are one
# 0 for the witness itself, then 2^-k for k = 0..59: the halvings of the
# base-payment decrement tried before giving up
_STEPS = np.concatenate([[0.0], np.ldexp(1.0, -np.arange(60))])
# points x rows x steps tested by one array of repair_vertices
_REPAIR_CELLS = 1 << 18


@dataclass(frozen=True)
class HalfPlane:
    """The constraint a_p * p + a_q * q <= rhs (or < rhs when strict)."""

    a_p: float
    a_q: float
    rhs: float
    strict: bool = False

    def normalized(self) -> "HalfPlane":
        scale = max(abs(self.a_p), abs(self.a_q), abs(self.rhs))
        if scale == 0.0:
            return self
        return HalfPlane(self.a_p / scale, self.a_q / scale, self.rhs / scale, self.strict)

    def value(self, p: float, q: float) -> float:
        return self.a_p * p + self.a_q * q


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[float, float] | None
    on_strict_boundary: tuple[bool, ...]
    # all vertices of the clipped (loosened) polygon; callers that must
    # sidestep strict boundaries can probe its interior
    vertices: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class Polygons:
    """The clipped polygons of K systems: system k's vertices are
    (x[k, v], y[k, v]) for v < count[k], in clipping order; the rest of
    each row is zero padding.  A system is feasible when it kept a vertex."""

    x: np.ndarray
    y: np.ndarray
    count: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return self.count > 0


def _normalized(
    a_p: np.ndarray, a_q: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``HalfPlane.normalized`` on every row: each divided by the largest of
    its three magnitudes; an all-zero row stays as it is."""
    size = np.maximum(np.maximum(np.abs(a_p), np.abs(a_q)), np.abs(rhs))
    size[size == 0.0] = 1.0
    return a_p / size, a_q / size, rhs / size


def _constant_rows(
    a_p: np.ndarray, a_q: np.ndarray, rhs: np.ndarray, strict: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which normalized rows bound no direction, so that only their constant
    counts, and which of those fail: 0 <= rhs within ``_TOL``, or 0 < rhs
    for a strict row."""
    constant = (np.abs(a_p) <= _TOL) & (np.abs(a_q) <= _TOL)
    return constant, constant & ((0.0 > rhs + _TOL) | (strict & ~(0.0 < rhs)))


def _rows(rows: Sequence[HalfPlane]) -> tuple[np.ndarray, ...]:
    """One system's rows as (1 x R) arrays a_p, a_q, rhs, strict."""
    return tuple(
        np.array([getattr(row, f) for row in rows], dtype=dtype).reshape(1, -1)
        for f, dtype in (("a_p", float), ("a_q", float), ("rhs", float), ("strict", bool))
    )


def _box_sizes(a_p: np.ndarray, a_q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per system, a box size holding every candidate vertex: ten times the
    largest of 1, each axis intercept and each pairwise row crossing."""
    extent = np.ones(len(a_p))
    for coef in (a_p, a_q):
        bounded = np.abs(coef) > _TOL
        reach = np.abs(rhs / np.where(bounded, coef, 1.0))
        extent = np.maximum(extent, np.where(bounded, reach, 0.0).max(axis=1, initial=0.0))
    rank = np.arange(a_p.shape[1])
    i, j = np.nonzero(np.less.outer(rank, rank))
    ap_i, aq_i, rhs_i = a_p[:, i], a_q[:, i], rhs[:, i]
    ap_j, aq_j, rhs_j = a_p[:, j], a_q[:, j], rhs[:, j]
    det = ap_i * aq_j - aq_i * ap_j
    crossing = np.abs(det) > _TOL
    det = np.where(crossing, det, 1.0)
    p = (rhs_i * aq_j - aq_i * rhs_j) / det
    q = (ap_i * rhs_j - rhs_i * ap_j) / det
    reach = np.where(crossing, np.maximum(np.abs(p), np.abs(q)), 0.0)
    return 10.0 * np.maximum(extent, reach.max(axis=1, initial=0.0))


def _first_apart(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``keep`` less each vertex within ``_DUPLICATE_TOL``, in both
    coordinates, of a vertex kept before it in its row: each vertex is
    compared, in order, with the vertices already kept."""
    near = np.abs(x[:, :, None] - x[:, None, :]) <= _DUPLICATE_TOL
    near &= np.abs(y[:, :, None] - y[:, None, :]) <= _DUPLICATE_TOL
    keep = keep.copy()
    for v in range(1, x.shape[1]):
        keep[:, v] &= ~(near[:, v, :v] & keep[:, :v]).any(axis=1)
    return keep


def _clip_by_row(
    xy: np.ndarray,
    count: np.ndarray,
    a_p: np.ndarray,
    a_q: np.ndarray,
    rhs: np.ndarray,
    constant: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman step on every polygon, the (2 x K x V) vertex
    coordinates ``xy``: keep the part with a_p p + a_q q <= rhs (within
    ``_TOL``), each system its own row, and drop the near-duplicate
    vertices.  Entries past a polygon's count are left as they fall; only
    the vertices below it are read."""
    _, k, width = xy.shape
    col = np.arange(width)
    last = count[:, None] - 1
    live = col <= last
    dist = a_p[:, None] * xy[0]
    dist += a_q[:, None] * xy[1]
    dist -= rhs[:, None]
    inside = dist <= _TOL
    inside |= constant[:, None]
    kept = inside & live
    # flat index of each vertex's successor around its polygon
    succ = np.where(col < last, col + 1, 0)
    succ += np.arange(0, k * width, width)[:, None]
    cross = inside != inside.ravel()[succ]
    cross &= live
    if not cross.any():
        # every polygon lies wholly inside (unchanged) or wholly outside
        return xy, np.where(kept.any(axis=1), count, 0)

    # the crossing point of each edge the row cuts, by flat index f
    f = np.flatnonzero(cross)
    j = succ.ravel()[f]
    flat = xy.reshape(2, -1)
    ds = dist.ravel()
    d_i = ds[f]
    t = d_i / (d_i - ds[j])
    start = flat[:, f]
    cut = start + t * (flat[:, j] - start)
    # candidates in clipping order: each vertex, then its edge's crossing
    cand = np.zeros((2, 2 * flat.shape[1]))
    keep = np.zeros(2 * flat.shape[1], dtype=bool)
    cand[:, 0::2], keep[0::2] = flat, kept.ravel()
    slot = 2 * f + 1
    cand[:, slot], keep[slot] = cut, True
    cand = cand.reshape(2, k, 2 * width)
    keep = keep.reshape(k, 2 * width)

    # the vertices carried over are pairwise apart already, so a near pair
    # has a crossing point in it
    at = f // width
    near = (np.abs(cand[:, at] - cut[:, :, None]) <= _DUPLICATE_TOL).all(axis=0)
    near &= keep[at]
    # each crossing point is near itself; a polygon with more is resolved
    if np.count_nonzero(near) > len(f):
        clash = np.unique(at[np.count_nonzero(near, axis=1) > 1])
        keep[clash] = _first_apart(cand[0, clash], cand[1, clash], keep[clash])

    src = np.flatnonzero(keep)
    row = src // keep.shape[1]
    count = np.bincount(row, minlength=k)
    width = int(count.max())
    # a kept candidate's place: its rank among all kept, less those of the
    # polygons before its own
    dst = np.arange(len(src)) - (np.cumsum(count) - count)[row] + row * width
    out = np.zeros((2, k * width))
    out[:, dst] = cand.reshape(2, -1)[:, src]
    return out.reshape(2, k, width), count


def clip_systems(
    a_p: np.ndarray, a_q: np.ndarray, rhs: np.ndarray, strict: np.ndarray
) -> Polygons:
    """Intersect each of K loosened systems with the quadrant p, q >= 0.

    Row t of the (K x R) arrays is system t's rows a_p p + a_q q <= rhs
    (< rhs where ``strict``); a shorter system is padded with all-zero
    non-strict rows, which bound nothing.  Strict rows are clipped as if
    non-strict.  Per system this is one-at-a-time clipping, with its floats:
    rows are normalized; a system with a constant row that fails is empty;
    the box of ``_box_sizes`` is clipped by the other rows in order, a vertex
    counting as inside within ``_TOL``; after each row a vertex within
    ``_DUPLICATE_TOL`` of one already kept is dropped; and the survivors
    are clamped to p, q >= 0.
    """
    strict = np.asarray(strict, dtype=bool)
    a_p, a_q, rhs = _normalized(*(np.asarray(a, dtype=float) for a in (a_p, a_q, rhs)))
    k, rows = a_p.shape
    constant, failed = _constant_rows(a_p, a_q, rhs, strict)

    size = _box_sizes(a_p, a_q, rhs)
    xy = np.zeros((2, k, 4))
    xy[0, :, 1:3] = size[:, None]
    xy[1, :, 2:4] = size[:, None]
    count = np.where(failed.any(axis=1), 0, 4)
    for j in range(rows):
        if not count.any():
            break
        if not constant[:, j].all():
            xy, count = _clip_by_row(xy, count, a_p[:, j], a_q[:, j], rhs[:, j], constant[:, j])
    xy = np.where((np.arange(xy.shape[2]) < count[:, None]) & (xy > 0.0), xy, 0.0)
    return Polygons(xy[0], xy[1], count)


def feasible_point(rows: Sequence[HalfPlane]) -> FeasibilityResult:
    """Intersect the loosened rows with the quadrant p, q >= 0.

    Strict rows are clipped as if non-strict; the result flags which
    strict rows the witness satisfies only with equality, so the caller
    can run :func:`repair_strict`.  The witness is the polygon vertex with
    the smallest p + q (then smallest p), biasing toward cheap policies.
    One system through :func:`clip_systems`.
    """
    a_p, a_q, rhs, strict = _rows(rows)
    polygons = clip_systems(a_p, a_q, rhs, strict)
    count = int(polygons.count[0])
    if count == 0:
        _, failed = _constant_rows(*_normalized(a_p, a_q, rhs), strict)
        # a failed constant row reports the strict rows; an emptied polygon none
        flags = strict[0] if failed.any() else np.zeros(len(rows), dtype=bool)
        return FeasibilityResult(False, None, tuple(flags.tolist()))

    poly = list(zip(polygons.x[0, :count].tolist(), polygons.y[0, :count].tolist()))
    witness = min(poly, key=lambda v: (v[0] + v[1], v[0]))
    flags = tuple(
        row.strict and abs(row.value(*witness) - row.rhs) <= _BOUNDARY_TOL
        for row in (row.normalized() for row in rows)
    )
    return FeasibilityResult(True, witness, flags, tuple(poly))


def repair_vertices(
    p: np.ndarray,
    q: np.ndarray,
    system: np.ndarray,
    a_p: np.ndarray,
    a_q: np.ndarray,
    rhs: np.ndarray,
    strict: np.ndarray,
    scale: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repair_strict` for each point (p[t], q[t]) against the rows of
    its system, row ``system[t]`` of the (K x R) arrays of
    :func:`clip_systems`.

    Returns (ok, base): where ``ok[t]``, (base[t], q[t]) is the repaired
    point, the point itself when it already satisfies every row.  All
    points, rows and schedule steps are tested in one array (in slices of
    at most ``_REPAIR_CELLS`` cells), with the expressions and exact
    comparisons of the one-point form.
    """
    a_p, a_q, rhs = _normalized(*(np.asarray(a, dtype=float) for a in (a_p, a_q, rhs)))
    # exact comparisons: a tolerance here would let contradictory systems
    # (the duplicated-profile degeneracy) "repair" at the dust level.  A
    # float v breaks v <= rhs exactly when v >= the next float above rhs,
    # so both kinds of row fail at v >= limit.
    limit = np.where(strict, rhs, np.nextafter(rhs, np.inf))
    ok = np.zeros(len(p), dtype=bool)
    base = np.zeros(len(p))
    decrement = (1e-6 * scale) * _STEPS
    step = max(1, _REPAIR_CELLS // (max(1, a_p.shape[1]) * len(_STEPS)))
    for start in range(0, len(p), step):
        t = slice(start, start + step)
        k = system[t]
        bases = p[t, None] - decrement
        value = a_p[k, :, None] * bases[:, None, :]
        value += (a_q[k] * q[t, None])[:, :, None]
        good = bases >= 0.0
        good &= ~(value >= limit[k, :, None]).any(axis=1)
        good &= ~(q[t, None] < 0.0)
        first = good.argmax(axis=1)
        at = np.arange(len(k))
        ok[t] = good[at, first]
        base[t] = bases[at, first]
    return ok, base


def repair_strict(
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
    structure is unattainable for any policy.  One point through
    :func:`repair_vertices`.
    """
    p, q = witness
    if scale is None:
        scale = max([1.0] + [abs(r.rhs) for r in rows])
    point = np.array([p], dtype=float), np.array([q], dtype=float)
    ok, base = repair_vertices(*point, np.zeros(1, dtype=np.intp), *_rows(rows), scale)
    if not ok[0]:
        return None
    repaired = float(base[0])
    return witness if repaired == p else (repaired, q)
