import numpy as np
import pytest

from crowdprice.halfplane import HalfPlane, feasible_point, repair_strict


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
