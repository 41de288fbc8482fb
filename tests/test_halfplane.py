import numpy as np
import pytest

from crowdprice.halfplane import (
    HalfPlane,
    _first_apart,
    clip_systems,
    feasible_point,
    repair_strict,
    repair_vertices,
)
from halfplane_reference import (
    reference_clip,
    reference_feasible_point,
    reference_repair_strict,
)


class TestFeasiblePoint:
    def test_band_on_p(self):
        rows = [HalfPlane(-1.0, 0.0, -1.0), HalfPlane(1.0, 0.0, 2.0)]  # 1 <= p <= 2
        res = feasible_point(rows)
        assert res.feasible
        assert res.witness == pytest.approx((1.0, 0.0))

    def test_empty_system(self):
        rows = [HalfPlane(1.0, 1.0, -1.0)]  # p + q <= -1 in the quadrant
        res = feasible_point(rows)
        assert not res.feasible and res.witness is None

    def test_no_rows_gives_origin(self):
        res = feasible_point([])
        assert res.feasible and res.witness == (0.0, 0.0)

    def test_strict_boundary_flagged(self):
        rows = [HalfPlane(-1.0, 0.0, -1.0), HalfPlane(1.0, 0.0, 1.0, strict=True)]  # p >= 1, p < 1
        res = feasible_point(rows)
        assert res.feasible
        assert res.on_strict_boundary[1]

    def test_constant_row_infeasible(self):
        rows = [HalfPlane(0.0, 0.0, -0.5)]
        assert not feasible_point(rows).feasible

    def test_witness_deterministic_under_permutation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows = [
                HalfPlane(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 2)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            res = feasible_point(rows)
            perm = list(rng.permutation(len(rows)))
            res2 = feasible_point([rows[i] for i in perm])
            assert res.feasible == res2.feasible
            if res.feasible:
                assert res.witness == pytest.approx(res2.witness, abs=1e-9)

    def test_agrees_with_grid_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rows = [
                HalfPlane(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 2)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            res = feasible_point(rows)
            ps = np.linspace(0, 2.0, 200)
            P, Q = np.meshgrid(ps, ps)
            ok = np.ones_like(P, dtype=bool)
            for row in rows:
                ok &= row.a_p * P + row.a_q * Q <= row.rhs + 1e-12
            if ok.any():
                assert res.feasible
            if res.feasible:
                p, q = res.witness
                for row in rows:
                    nr = row.normalized()
                    assert nr.a_p * p + nr.a_q * q <= nr.rhs + 1e-9


class TestRepairStrict:
    def test_untouched_when_already_strict(self):
        rows = [HalfPlane(1.0, 0.0, 1.0, strict=True)]
        assert repair_strict((0.2, 0.0), rows) == (0.2, 0.0)

    def test_single_decrement_suffices(self):
        # p + 0.5 q < 1 is tight at (1, 0); the accept row p >= 0.4 has slack
        rows = [
            HalfPlane(1.0, 0.5, 1.0, strict=True),
            HalfPlane(-1.0, 0.0, -0.4),
        ]
        repaired = repair_strict((1.0, 0.0), rows)
        assert repaired is not None
        p, q = repaired
        assert p + 0.5 * q < 1.0 and p >= 0.4

    def test_degenerate_duplicate_worker_fails(self):
        # accept at (r, c) and strictly decline at the same (r, c):
        # impossible, exactly the duplicated-profile case
        r, c = 0.5, 0.3
        rows = [
            HalfPlane(-1.0, -r, -c),
            HalfPlane(1.0, r, c, strict=True),
        ]
        res = feasible_point(rows)
        assert res.feasible  # loosened system collapses to the boundary line
        assert repair_strict(res.witness, rows) is None

    def test_negative_base_never_returned(self):
        rows = [HalfPlane(1.0, 0.0, 0.0, strict=True)]  # p < 0: hopeless in the quadrant
        assert repair_strict((0.0, 0.0), rows) is None


def loop_repair(witness, rows, scale=None):
    """``repair_strict`` as one point at a time: the witness, then each step
    of the schedule p - eps0 * 2^-k, tested with exact comparisons against
    the normalized rows.  The reference for the array-tested schedule."""

    def satisfies(point, normalized):
        p, q = point
        if p < 0.0 or q < 0.0:
            return False
        for row in normalized:
            v = row.value(p, q)
            if row.strict:
                if not v < row.rhs:
                    return False
            elif v > row.rhs:
                return False
        return True

    normalized = [row.normalized() for row in rows]
    if satisfies(witness, normalized):
        return witness
    if scale is None:
        scale = max([1.0] + [abs(r.rhs) for r in rows])
    eps0 = 1e-6 * scale
    p, q = witness
    for k in range(60):
        candidate = (p - eps0 * 2.0**-k, q)
        if candidate[0] >= 0.0 and satisfies(candidate, normalized):
            return candidate
    return None


class TestRepairMatchesLoopReference:
    @staticmethod
    def check(witness, rows, scale=None):
        assert repair_strict(witness, rows, scale=scale) == loop_repair(witness, rows, scale)

    def test_random_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            rows = [
                HalfPlane(
                    float(rng.uniform(-2, 2)),
                    float(rng.uniform(-2, 2)),
                    float(rng.uniform(-1, 2)),
                    strict=bool(rng.integers(0, 2)),
                )
                for _ in range(int(rng.integers(1, 7)))
            ]
            res = feasible_point(rows)
            points = [tuple(rng.uniform(0.0, 2.0, size=2))]
            if res.feasible:
                points += list(res.vertices)
            for point in points:
                self.check(point, rows)
                self.check(point, rows, scale=float(rng.uniform(1.0, 5.0)))

    def test_boundary_witnesses_at_every_depth(self):
        # a strict row tight at the witness and a floor p >= p0 - d: the
        # first step that passes moves with d, down to the last halvings
        rng = np.random.default_rng(32)
        for _ in range(300):
            p0, q0 = (float(x) for x in rng.uniform(0.0, 2.0, size=2))
            a_q = float(rng.uniform(-1.0, 1.0))
            d = 10.0 ** -float(rng.uniform(0.0, 24.0))
            rows = [
                HalfPlane(1.0, a_q, p0 + a_q * q0, strict=True),
                HalfPlane(-1.0, 0.0, -(p0 - d)),
            ]
            self.check((p0, q0), rows, scale=1.0)

    def test_fails_after_every_halving(self):
        # the duplicated-profile system: accept and strictly decline one line
        rows = [HalfPlane(-1.0, -0.5, -0.3), HalfPlane(1.0, 0.5, 0.3, strict=True)]
        witness = feasible_point(rows).witness
        assert loop_repair(witness, rows) is None
        self.check(witness, rows)

    def test_witness_near_zero_base(self):
        # p within the first decrements of 0: steps below 0 are skipped
        rows = [HalfPlane(1.0, 1.0, 1.0, strict=True)]
        for p in (0.0, 1e-300, 1e-9, 3e-7, 1e-6, 2e-6):
            witness = (p, 1.0 - p)
            self.check(witness, rows)
            self.check(witness, rows, scale=1.0)

    def test_negative_bonus_witness(self):
        rows = [HalfPlane(1.0, 0.0, 2.0, strict=True)]
        assert loop_repair((1.0, -0.5), rows) is None
        self.check((1.0, -0.5), rows)
        self.check((2.0, -1e-300), rows)


ZERO_ROW = HalfPlane(0.0, 0.0, 0.0)


def system_arrays(systems):
    """The (K x R) arrays of ``clip_systems`` for K row lists, each padded
    with the all-zero row to the longest."""
    width = max((len(rows) for rows in systems), default=0)
    padded = [list(rows) + [ZERO_ROW] * (width - len(rows)) for rows in systems]
    return tuple(
        np.array([[getattr(row, f) for row in rows] for rows in padded], dtype=dtype).reshape(
            len(systems), width
        )
        for f, dtype in (("a_p", float), ("a_q", float), ("rhs", float), ("strict", bool))
    )


def polygon(polygons, k):
    count = int(polygons.count[k])
    return tuple(zip(polygons.x[k, :count].tolist(), polygons.y[k, :count].tolist()))


def check_against_reference(systems, arrays=None, scales=(1.0,)):
    """``clip_systems`` on all K systems in one call gives each system the
    feasibility and the vertex tuple of the one-system reference, whose
    input is the row list; ``repair_vertices`` on every vertex of every
    system, in one call per scale, gives the reference's repair.  ``arrays``
    are the kernel's input when the caller has them (else the padded row
    lists)."""
    arrays = system_arrays(systems) if arrays is None else arrays
    polygons = clip_systems(*arrays)
    assert len(polygons.count) == len(systems)
    points = []
    for k, rows in enumerate(systems):
        ref = reference_feasible_point(rows)
        assert bool(polygons.feasible[k]) == ref.feasible
        assert polygon(polygons, k) == ref.vertices
        points += [(k, v) for v in ref.vertices]
    system = np.array([k for k, _ in points], dtype=np.intp)
    p = np.array([v[0] for _, v in points])
    q = np.array([v[1] for _, v in points])
    for scale in scales:
        ok, base = repair_vertices(p, q, system, *arrays, scale)
        for t, (k, vertex) in enumerate(points):
            ref = reference_repair_strict(vertex, systems[k], scale=scale)
            assert ((float(base[t]), vertex[1]) if ok[t] else None) == ref
    return polygons


def random_rows(rng, count, strict=True):
    return [
        HalfPlane(
            float(rng.uniform(-2, 2)),
            float(rng.uniform(-2, 2)),
            float(rng.uniform(-1, 2)),
            strict=bool(strict and rng.integers(0, 2)),
        )
        for _ in range(count)
    ]


class TestClipMatchesReference:
    def test_random_systems(self):
        rng = np.random.default_rng(71)
        systems = [random_rows(rng, int(rng.integers(1, 6))) for _ in range(1100)]
        polygons = check_against_reference(systems, scales=(1.0, 2.5))
        assert 0 < polygons.feasible.sum() < len(systems)

    def test_one_system_forms(self):
        rng = np.random.default_rng(72)
        for _ in range(300):
            rows = random_rows(rng, int(rng.integers(0, 6)))
            assert feasible_point(rows) == reference_feasible_point(rows)
            point = tuple(float(v) for v in rng.uniform(0.0, 2.0, size=2))
            assert repair_strict(point, rows) == reference_repair_strict(point, rows)

    def test_mixed_row_counts(self):
        # systems of 0 to 8 rows in one call: the shorter ones padded with
        # all-zero rows, which must bound nothing
        rng = np.random.default_rng(73)
        systems = [random_rows(rng, int(rng.integers(0, 9))) for _ in range(400)]
        check_against_reference(systems)
        # the same systems with the zero rows in the middle
        padded = [rows[:1] + [ZERO_ROW, ZERO_ROW] + rows[1:] for rows in systems]
        polygons = clip_systems(*system_arrays(padded))
        assert [polygon(polygons, k) for k in range(len(padded))] == [
            reference_feasible_point(rows).vertices for rows in systems
        ]

    def test_constant_and_empty_systems(self):
        constant = [
            HalfPlane(0.0, 0.0, -0.5),  # 0 <= -0.5: fails
            HalfPlane(0.0, 0.0, 0.5),
            HalfPlane(0.0, 0.0, 0.0, strict=True),  # 0 < 0: fails
            HalfPlane(0.0, 0.0, 0.5, strict=True),
            HalfPlane(1e-14, 0.0, 1.0),  # constant once normalized
            HalfPlane(0.0, 0.0, -1e-13),  # within the tolerance
            HalfPlane(1e-13, -1e-13, -1.0),  # constant, and fails
        ]
        other = [HalfPlane(-1.0, 0.0, -0.5), HalfPlane(1.0, 1.0, 2.0, strict=True)]
        systems = [[]] + [[row] for row in constant]
        systems += [[row, *other] for row in constant] + [[*other, row] for row in constant]
        systems += [[constant[1], constant[3]], [constant[1], HalfPlane(1.0, 1.0, -1.0)]]
        polygons = check_against_reference(systems, scales=(1.0, 1e-3))
        assert polygon(polygons, 0) == ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
        for rows in systems:
            assert feasible_point(rows) == reference_feasible_point(rows)

    def test_vertices_clamped_to_the_quadrant(self):
        # (0, 1) is inside p + q <= 1 - 5e-13 only by the tolerance, so the
        # edge from (E, 1) crosses it at t > 1, at p = -5e-13, and the clamp
        # makes that crossing a second (0, 1)
        rows = [HalfPlane(0.0, 1.0, 1.0), HalfPlane(1.0, 1.0, 1.0 - 0.5e-12)]
        polygons = check_against_reference([rows], scales=(1.0,))
        assert polygon(polygons, 0).count((0.0, 1.0)) == 2

    def test_near_concurrent_rows(self):
        # rows through one point, each moved off it by 1e-14 to 3e-12: the
        # clipped vertices crowd within the 1e-13 duplicate rule, in chains
        # where a vertex near a dropped one is kept
        rng = np.random.default_rng(74)
        systems = []
        for _ in range(3000):
            p0, q0 = rng.uniform(0.0, 1.0, size=2)
            rows = []
            for _ in range(int(rng.integers(2, 7))):
                theta = rng.uniform(0.0, 2.0 * np.pi)
                a, b = np.cos(theta), np.sin(theta)
                shift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -11.5)
                rows.append(HalfPlane(float(a), float(b), float(a * p0 + b * q0 + shift)))
            systems.append(rows)
        check_against_reference(systems)

    def test_duplicate_chain(self):
        # each vertex is compared with the vertices kept before it, not with
        # every earlier one: (1.6e-13, 0) is near the dropped (0.8e-13, 0)
        # only, so it stays
        step = 0.8e-13
        chains = [
            [(k * step, 0.0) for k in range(6)],
            [(0.5, 0.5 + k * step) for k in range(5)],
            [(k * step, k * step) for k in range(5)] + [(1.0, 1.0)],
            [(0.0, 0.0), (2 * step, 0.0), (step, 0.0), (3 * step, 0.0)],
        ]
        keep_all = HalfPlane(0.0, 0.0, 1.0)  # clips nothing, so only the rule acts
        for chain in chains:
            x = np.array([[v[0] for v in chain]])
            y = np.array([[v[1] for v in chain]])
            kept = _first_apart(x, y, np.ones(x.shape, dtype=bool))[0]
            assert [v for v, k in zip(chain, kept) if k] == reference_clip(chain, keep_all)
        assert sum(_first_apart(
            np.array([[v[0] for v in chains[0]]]), np.zeros((1, 6)), np.ones((1, 6), dtype=bool)
        )[0]) == 3
