"""Covering numbers: exhaustive oracle agreement and structural properties."""
import math

import numpy as np
import pytest

from uclt import covering
from uclt.covering import (
    FiniteMetricSpace,
    _greedy_sizes,
    covering_number_exact,
    covering_number_greedy,
    covering_numbers_greedy,
    diameter,
    entropy,
    holder_covering_bound,
    load_coords_csv,
    load_distance_csv,
)
from uclt.errors import EmptySpace, TooLarge


def brute_force_min_cover(space, eps):
    """Fully independent oracle: plain subset enumeration over index tuples."""
    import itertools
    n = len(space)
    balls = [set(np.flatnonzero(space.dist[i] <= eps)) for i in range(n)]
    everything = set(range(n))
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if set().union(*(balls[i] for i in combo)) == everything:
                return k
    raise AssertionError("unreachable")


def plain_greedy(space, eps):
    """Reference max-gain heuristic on boolean balls, lowest index on ties."""
    balls = space.dist <= eps
    uncovered = np.ones(len(space), dtype=bool)
    count = 0
    while uncovered.any():
        center = int(np.argmax((balls & uncovered[None, :]).sum(axis=1)))
        uncovered &= ~balls[center]
        count += 1
    return count


def min_raw_greedy(space, eps_values):
    """Smallest raw greedy size over (0, eps], one direct call per radius: each
    distinct positive distance up to eps, eps itself, and a radius below the
    smallest positive distance (where balls hold only zero-distance points)."""
    pos = np.unique(space.dist[space.dist > 0])
    below = 0.5 * min([*pos[:1], *eps_values])
    raw = {float(t): int(_greedy_sizes(space.dist, [t])[0])
           for t in [below, *pos[pos <= max(eps_values)], *eps_values]}
    return [min(v for t, v in raw.items() if t <= eps) for eps in eps_values]


def check_sweep(space, eps_values):
    """The one-sweep counts against their definition and their guarantees."""
    counts = list(covering_numbers_greedy(space, eps_values))
    assert counts == min_raw_greedy(space, eps_values)
    assert counts == [covering_number_greedy(space, e) for e in eps_values]
    for eps, c in zip(eps_values, counts):
        assert c <= _greedy_sizes(space.dist, [eps])[0]
        if len(space) <= 20:
            assert c >= covering_number_exact(space, eps)
    by_eps = [c for _, c in sorted(zip(eps_values, counts))]
    assert all(a >= b for a, b in zip(by_eps, by_eps[1:]))  # nonincreasing in eps
    return counts


class TestDiameter:
    def test_single_point(self):
        assert diameter(FiniteMetricSpace.from_matrix([[0.0]])) == 0.0

    def test_two_points(self):
        assert diameter(FiniteMetricSpace.from_matrix([[0, 1], [1, 0]])) == 1.0

    def test_grid(self):
        assert diameter(FiniteMetricSpace.grid_1d(11)) == pytest.approx(1.0)

    def test_empty(self):
        with pytest.raises(EmptySpace):
            diameter(FiniteMetricSpace((), np.zeros((0, 0))))


class TestCoveringNumbers:
    def test_one_ball_at_diameter(self):
        s = FiniteMetricSpace.grid_1d(11)
        assert covering_number_greedy(s, 1.0) == 1
        assert covering_number_exact(s, 1.0) == 1

    def test_single_point(self):
        s = FiniteMetricSpace.from_matrix([[0.0]])
        assert covering_number_greedy(s, 0.1) == 1
        assert covering_number_exact(s, 0.1) == 1

    def test_simplex_needs_every_point(self):
        d = np.ones((4, 4)) - np.eye(4)
        s = FiniteMetricSpace.from_matrix(d)
        assert covering_number_exact(s, 0.5) == 4
        assert covering_number_greedy(s, 0.5) == 4

    def test_uniform_grid_frozen_oracle_values(self):
        # derived with the exhaustive oracle: a closed 0.25-ball centered on
        # the 0.1-spaced grid covers at most 5 points, so 11 points need 3
        # balls; widening to 0.3 admits a 2-ball cover
        s = FiniteMetricSpace.grid_1d(11)
        assert brute_force_min_cover(s, 0.25) == 3
        assert covering_number_exact(s, 0.25) == 3
        assert covering_number_greedy(s, 0.25) == 3
        assert brute_force_min_cover(s, 0.3) == 2
        assert covering_number_exact(s, 0.3) == 2
        assert covering_number_greedy(s, 0.3) == 2

    def test_exact_equals_count_below_min_distance(self):
        rng = np.random.default_rng(5)
        pts = rng.random((8, 2))
        s = FiniteMetricSpace.from_coords(pts)
        off = s.dist[s.dist > 0]
        eps = 0.5 * float(off.min())
        assert covering_number_exact(s, eps) == 8

    def test_greedy_upper_bounds_exact_on_random_spaces(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(6, 13))
            s = FiniteMetricSpace.from_coords(rng.random((n, 2)))
            prev_e = math.inf
            for eps in sorted(rng.random(4) * 1.0 + 0.02):
                g = covering_number_greedy(s, eps)
                e = covering_number_exact(s, eps)
                assert g >= e
                assert e == brute_force_min_cover(s, eps)
                assert e <= prev_e  # the exact number is nonincreasing in eps
                prev_e = e
                assert math.log(g) - math.log(e) <= math.log(1 + math.log(n)) + 1e-12

    def test_greedy_is_not_monotone_in_eps(self):
        # frozen counterexample: the raw max-gain heuristic is an upper bound
        # but its size can grow with the radius.  At eps = 0.30823 it finds
        # the optimal 2-cover; at the larger 0.31477 its first pick (covering
        # 6 of 9 points) strands the remainder and it needs 3 balls.  The
        # public count keeps the smallest cover built at any radius up to
        # eps, so it stays at 2.
        pts = np.array([[0.590, 0.306], [0.355, 0.701], [0.557, 0.431],
                        [0.195, 0.776], [0.571, 0.434], [0.428, 0.761],
                        [0.579, 0.933], [0.289, 0.572], [0.867, 0.220]])
        s = FiniteMetricSpace.from_coords(pts)
        assert list(_greedy_sizes(s.dist, [0.30823, 0.31477])) == [2, 3]
        assert covering_number_greedy(s, 0.30823) == 2
        assert covering_number_greedy(s, 0.31477) == 2
        assert covering_number_exact(s, 0.30823) == 2
        assert covering_number_exact(s, 0.31477) == 2  # exact stays monotone

    def test_too_large(self):
        s = FiniteMetricSpace.from_coords(np.random.default_rng(0).random((25, 1)))
        with pytest.raises(TooLarge):
            covering_number_exact(s, 0.2)

    def test_bad_eps(self):
        s = FiniteMetricSpace.grid_1d(3)
        for bad in (0.0, -1.0, float("nan")):
            for count in (covering_number_greedy, covering_number_exact):
                with pytest.raises(ValueError):
                    count(s, bad)


class TestGreedySweep:
    def test_raw_helper_is_the_max_gain_heuristic(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 63, 64, 65, 130):
            s = FiniteMetricSpace.from_coords(rng.random((n, 2)))
            radii = np.concatenate(([0.0], rng.choice(s.dist.ravel(), 12), rng.random(4)))
            assert list(_greedy_sizes(s.dist, radii)) == [plain_greedy(s, t) for t in radii]

    def test_matches_min_of_raw_on_random_spaces(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            s = FiniteMetricSpace.from_coords(rng.random((n, 2)))
            eps_values = list(rng.random(6) * 1.3 + 0.01)  # unsorted, some above the diameter
            check_sweep(s, eps_values)

    def test_batch_size_does_not_change_counts(self, monkeypatch):
        rng = np.random.default_rng(19)
        s = FiniteMetricSpace.from_coords(rng.random((40, 2)))
        eps_values = list(np.geomspace(1.5, 0.01, 12))
        counts = check_sweep(s, eps_values)
        for levels_per_block in (1, 7):
            monkeypatch.setattr(covering, "_REPLAY_BLOCK", levels_per_block)
            assert list(covering_numbers_greedy(s, eps_values)) == counts
            assert list(_greedy_sizes(s.dist, eps_values)) == [plain_greedy(s, e) for e in eps_values]

    def test_frozen_counts_on_300_random_points(self):
        # counts frozen from the batched sweep that preceded the replay sweep
        s = FiniteMetricSpace.from_coords(np.random.default_rng(2024).random((300, 2)))
        eps_values = np.geomspace(diameter(s), 0.01 * diameter(s), 16)
        assert list(covering_numbers_greedy(s, eps_values)) == [
            1, 1, 1, 3, 5, 8, 14, 21, 36, 61, 93, 145, 188, 235, 269, 285]

    @pytest.mark.parametrize("space", ["random129", "random200", "sup_grid"])
    def test_raw_sizes_per_level(self, space):
        # consecutive distance levels, so the sweep replays from level to level
        rng = np.random.default_rng(37)
        if space == "sup_grid":  # many tied distances: several pairs per level
            s = FiniteMetricSpace.from_coords(
                np.stack(np.meshgrid(range(7), range(7)), axis=-1).reshape(-1, 2), metric="sup")
        else:
            s = FiniteMetricSpace.from_coords(rng.random((int(space[6:]), 2)))
        levels = np.concatenate(([0.0], np.unique(s.dist[s.dist > 0])))
        picked = np.unique(np.concatenate((
            levels[:60], levels[200:260], rng.choice(levels, 40), levels[-3:])))
        assert list(_greedy_sizes(s.dist, picked)) == [plain_greedy(s, t) for t in picked]

    def test_semi_distance_with_zero_off_diagonal(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            pts = rng.random((6, 2))[rng.integers(0, 6, size=14)]  # repeated points
            sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)  # no triangle inequality
            with pytest.warns(UserWarning):
                s = FiniteMetricSpace.from_matrix(sq)
            assert np.any((s.dist == 0) & ~np.eye(14, dtype=bool))
            eps_values = sorted(rng.random(5) * 0.8 + 0.005)
            check_sweep(s, eps_values)

    def test_below_smallest_positive_distance(self):
        rng = np.random.default_rng(31)
        s = FiniteMetricSpace.from_coords(rng.random((12, 2)))
        eps = 0.5 * float(s.dist[s.dist > 0].min())
        assert check_sweep(s, [eps, 2 * eps, 1.0])[0] == 12
        # with repeated points the balls below the smallest positive distance
        # are the groups of equal points
        dup = FiniteMetricSpace.from_coords(rng.random((4, 2))[[0, 1, 1, 2, 3, 3, 3]])
        eps = 0.5 * float(dup.dist[dup.dist > 0].min())
        assert check_sweep(dup, [eps, 2 * eps])[0] == 4

    def test_input_order_and_validation(self):
        s = FiniteMetricSpace.grid_1d(11)
        assert list(covering_numbers_greedy(s, [0.3, 1.0, 0.25])) == [2, 1, 3]
        assert covering_numbers_greedy(s, []).size == 0
        for bad in ([0.0], [0.3, -1.0], [0.3, float("nan")]):
            with pytest.raises(ValueError):
                covering_numbers_greedy(s, bad)
        with pytest.raises(EmptySpace):
            covering_numbers_greedy(FiniteMetricSpace((), np.zeros((0, 0))), [0.1])


def traced_sweep(monkeypatch, space, running_min, block=32):
    """The sweep over every distance level, recording each greedy re-run:
    its level, start step, reference length, last flagged step, cap, steps,
    size, and whether its first step was decided by the lower-index tie."""
    d = space.dist
    radii = np.concatenate(([0.0], np.unique(d[d > 0])))
    entries = np.searchsorted(np.sort(d.ravel()), radii, side="right")
    calls = []
    resume = covering._resume

    def recorder(balls, run, s, m, after, cap):
        U, _, pick, gain = run
        gains = np.bitwise_count(balls & U[:, s, None]).sum(axis=0)
        tie = m > 0 and gains.max() == gain[s] and gains.argmax() < pick[s]
        steps, size = resume(balls, run, s, m, after, cap)
        level = int(np.searchsorted(entries, int(np.bitwise_count(balls).sum())))
        calls.append(dict(level=level, s=s, m=m, after=after, cap=cap, steps=steps,
                          size=size, tie=bool(tie)))
        return steps, size

    monkeypatch.setattr(covering, "_resume", recorder)
    monkeypatch.setattr(covering, "_REPLAY_BLOCK", block)
    sizes = covering._replay_sweep(d, radii, running_min)
    monkeypatch.undo()
    raw = [plain_greedy(space, t) for t in radii]
    assert list(sizes) == (list(np.minimum.accumulate(raw)) if running_min else raw)
    return calls


class TestReplayPaths:
    """Each path of the replay sweep on a small frozen integer space, picked by
    a random search for one that takes the path, checked against the loop
    reference at every level."""

    def test_rerun_forced_by_lower_index_tie(self, monkeypatch):
        s = FiniteMetricSpace.from_coords([[0, 1], [0, 1], [0, 2], [2, 0], [1, 0], [2, 1]])
        calls = traced_sweep(monkeypatch, s, running_min=False)
        assert any(c["tie"] for c in calls[1:])

    def test_splice_onto_old_tail(self, monkeypatch):
        s = FiniteMetricSpace.from_coords([[1, 3], [2, 3], [1, 3], [3, 0], [4, 3], [2, 5]])
        calls = traced_sweep(monkeypatch, s, running_min=False)
        assert any(c["size"] is None for c in calls)

    def test_reference_cut_by_cap_is_reused(self, monkeypatch):
        s = FiniteMetricSpace.from_coords([[0, 1], [0, 1], [0, 2], [2, 0], [1, 0], [2, 1]])
        calls = traced_sweep(monkeypatch, s, running_min=True)
        # a run stopped by the cap, kept through a later level, then resumed inside
        assert any(a["size"] == a["cap"] and a["steps"] < len(s) and b["level"] > a["level"] + 1
                   and b["m"] == a["steps"] and b["s"] < a["steps"]
                   for a, b in zip(calls, calls[1:]))

    def test_block_boundary_inside_a_diverging_run(self, monkeypatch):
        s = FiniteMetricSpace.from_coords([[5, 31], [19, 23], [24, 28], [1, 19], [5, 16]])
        # all 10 distances differ, so blocks of two levels are [1, 3), [3, 5), ...
        assert np.unique(s.dist[s.dist > 0]).size == 10
        calls = traced_sweep(monkeypatch, s, running_min=False, block=2)
        diverging = {c["level"] for c in calls[1:]}
        assert any(f % 2 == 0 and f + 1 in diverging for f in diverging)


def stepwise_resume(balls, run, s, m, after, cap):
    """The per-step greedy loop `covering._resume` replaced: one numpy gain
    pass and argmax per step, each step written as it is taken."""
    U, left, pick, gain = run
    u = U[:, s].copy()
    rest = int(left[s])
    k = s
    while True:
        gains = np.bitwise_count(balls & u[:, None]).sum(axis=0, dtype=np.int32)
        x = int(gains.argmax())  # argmax takes the lowest index on ties
        g = int(gains[x])
        pick[k], gain[k] = x, g
        u &= ~balls[:, x]
        rest -= g
        k += 1
        total = k + -(-rest // g)
        if rest == 0 or g == 1 or total >= cap:
            return k, min(total, cap)
        if after < k < m and rest == left[k] and np.array_equal(u, U[:, k]):
            return m, None
        U[:, k] = u
        left[k] = rest


def gain_levels(balls, run, s, k):
    """Steps s..k-1 of a greedy run split into gain levels, the runs of equal
    gain: per level its picks and the candidates it rejects, the centers of
    the level's gain at its first step, below its last pick and not picked,
    whose gain fell within the level."""
    U, _, pick, gain = run
    levels, j = [], s
    while j < k:
        e = j + int(np.argmax(np.append(gain[j:k] != gain[j], True)))
        gains = np.bitwise_count(balls & U[:, j, None]).sum(axis=0)
        picks = [int(x) for x in pick[j:e]]
        levels.append((picks, [int(x) for x in np.flatnonzero(gains == gain[j])
                               if x < picks[-1] and x not in picks]))
        j = e
    return levels


def compared_sweep(monkeypatch, space, running_min):
    """The sweep over every distance level with each `_resume` call checked
    against `stepwise_resume` on a copy of its input: the same return value
    and the same run, bit for bit.  Records each call's start, reference
    length, last flagged step, cap, steps and size, and, for a call that
    ran to its stop, its gain levels."""
    d = space.dist
    radii = np.concatenate(([0.0], np.unique(d[d > 0])))
    calls = []
    resume = covering._resume

    def checked(balls, run, s, m, after, cap):
        want_run = tuple(a.copy() for a in run)
        want = stepwise_resume(balls, want_run, s, m, after, cap)
        steps, size = resume(balls, run, s, m, after, cap)
        assert (steps, size) == want
        for got_a, want_a in zip(run, want_run):
            assert got_a.dtype == want_a.dtype and np.array_equal(got_a, want_a)
        calls.append(dict(s=s, m=m, after=after, cap=cap, steps=steps, size=size,
                          levels=gain_levels(balls, run, s, steps) if size is not None else []))
        return steps, size

    monkeypatch.setattr(covering, "_resume", checked)
    covering._replay_sweep(d, radii, running_min)
    monkeypatch.undo()
    return calls


def random_space(n, seed=41):
    return FiniteMetricSpace.from_coords(np.random.default_rng(seed).random((n, 2)))


GAIN_LEVEL_SPACES = {
    **{f"random{n}": lambda n=n: random_space(n) for n in (63, 64, 65, 130)},
    "sup_grid": lambda: FiniteMetricSpace.from_coords(
        np.stack(np.meshgrid(range(7), range(7)), axis=-1).reshape(-1, 2), metric="sup"),
    "repeated": lambda: FiniteMetricSpace.from_coords(
        np.random.default_rng(43).random((12, 2))[np.random.default_rng(47).integers(0, 12, 40)]),
}


class TestGainLevels:
    """`_resume` takes each gain level with one numpy pass and checks each
    pick on Python integers; the run it leaves must be the per-step loop's."""

    @pytest.mark.parametrize("running_min", [False, True], ids=["raw", "running-min"])
    @pytest.mark.parametrize("space", list(GAIN_LEVEL_SPACES))
    def test_equals_stepwise_loop(self, monkeypatch, space, running_min):
        s = GAIN_LEVEL_SPACES[space]()
        calls = compared_sweep(monkeypatch, s, running_min)
        levels = [lv for c in calls for lv in c["levels"]]
        assert any(len(picks) >= 2 for picks, _ in levels)
        assert any(rejected for _, rejected in levels)

    def test_splice_and_cap_equal_stepwise_loop(self, monkeypatch):
        s = GAIN_LEVEL_SPACES["random65"]()
        calls = compared_sweep(monkeypatch, s, running_min=True)
        assert any(c["size"] is None and c["s"] <= c["after"] < c["m"] for c in calls)
        # a run cut by the cap before it covered every point
        assert any(c["size"] == c["cap"] and c["steps"] < len(s) for c in calls[1:])

    @pytest.mark.parametrize("space", ["grid_1d", "integer_grid"])
    def test_tie_heavy_radius_larger_than_one_flag_slice(self, space):
        # distances tie across many pairs: one radius grows more balls than
        # one flag pass takes, so the flags run over several slices
        if space == "grid_1d":
            s = FiniteMetricSpace.grid_1d(200)
        else:
            s = FiniteMetricSpace.from_coords(
                np.stack(np.meshgrid(range(12), range(12)), axis=-1).reshape(-1, 2))
        levels = np.concatenate(([0.0], np.unique(s.dist[s.dist > 0])))
        grown = max(np.unique(np.nonzero(s.dist == t)[0]).size for t in levels[1:])
        assert grown > 2 * covering._REPLAY_BLOCK
        assert list(_greedy_sizes(s.dist, levels)) == [plain_greedy(s, t) for t in levels]


def random_bitsets(rng, n, count, density):
    """`count` random subsets of n points as (words, count) uint64 bitsets."""
    words = -(-n // 64)
    bits = (rng.random((count, 64 * words)) < density) & (np.arange(64 * words) < n)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64).T.copy()


def flagged_sweep(monkeypatch, space, running_min):
    """The sweep over every distance level, checked against `plain_greedy`,
    recording in order each flag slice, as (its block's columns, its first
    column, its end), and each greedy re-run, as (the balls whose cached
    integer it found dropped, the balls cached when it returned)."""
    d = space.dist
    radii = np.concatenate(([0.0], np.unique(d[d > 0])))
    events = []
    flags, resume = covering._flags, covering._resume

    def recorded_flags(cols, c, end, off, U, keys):
        events.append(("flags", cols, c, end))
        return flags(cols, c, end, off, U, keys)

    def recorded_resume(balls, run, s, m, after, cap):
        dropped = {x for x, v in enumerate(run.ints) if v is None}
        out = resume(balls, run, s, m, after, cap)
        events.append(("resume", dropped, {x for x, v in enumerate(run.ints) if v is not None}))
        return out

    monkeypatch.setattr(covering, "_flags", recorded_flags)
    monkeypatch.setattr(covering, "_resume", recorded_resume)
    sizes = covering._replay_sweep(d, radii, running_min)
    monkeypatch.undo()
    raw = [plain_greedy(space, t) for t in radii]
    assert list(sizes) == (list(np.minimum.accumulate(raw)) if running_min else raw)
    return events


class TestFlagSlices:
    """The flag pass compares each grown ball's key, gain * (n + 1) + n -
    center, with one threshold per step, and sizes each pass's first slice
    from the pass before; the greedy re-runs read balls from a cache of
    Python integers that growth empties."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 130])
    def test_folded_threshold_equals_two_compare_rule(self, n, dtype):
        # the rule it replaced: flag a larger gain, or the pick's gain at a
        # lower index, except a tie at the run's last step
        rng = np.random.default_rng(53 + n)
        for _ in range(40):
            m, w = int(rng.integers(1, n + 1)), int(rng.integers(1, 20))
            density = rng.uniform(0.05, 1.0)
            cols, U = random_bitsets(rng, n, w, density), random_bitsets(rng, n, n, density)
            counts = np.bitwise_count(cols[:, :, None] & U[:, None, :m]).sum(axis=0).astype(np.int64)
            centers = rng.integers(0, n, w)
            # gains at or next to a ball's count, so that ties are common
            gain = np.clip(counts[rng.integers(0, w, m), np.arange(m)] + rng.integers(-1, 2, m), 0, n)
            pick, last = rng.integers(0, n, m), bool(rng.integers(0, 2))
            old = (counts > gain) | ((counts == gain) & (centers[:, None] < pick))
            if last:
                old[:, -1] = counts[:, -1] > gain[-1]
            taken = list(zip(pick.tolist(), gain.tolist()))
            keys = np.array(covering._keys(taken, n, last), dtype=dtype)
            got = covering._flags(cols, 0, w, (n - centers).astype(dtype), U, keys)
            assert got.shape == (w, m) and np.array_equal(got, old)

    @pytest.mark.parametrize("running_min", [False, True], ids=["raw", "running-min"])
    def test_first_slice_narrower_than_a_block_after_an_early_hit(self, monkeypatch, running_min):
        events = flagged_sweep(monkeypatch, GAIN_LEVEL_SPACES["random65"](), running_min)
        # right after a re-run, a first slice narrower than 2 * _REPLAY_BLOCK
        # whose pass went on to the next slice of the same block
        assert any(a[0] == "resume" and b[0] == c[0] == "flags"
                   and b[3] - b[2] < 2 * covering._REPLAY_BLOCK and c[1] is b[1] and c[2] == b[3]
                   for a, b, c in zip(events, events[1:], events[2:]))

    @pytest.mark.parametrize("running_min", [False, True], ids=["raw", "running-min"])
    def test_resume_over_columns_already_counted(self, monkeypatch, running_min):
        events = flagged_sweep(monkeypatch, GAIN_LEVEL_SPACES["random130"](), running_min)
        # the slice before a re-run reached past where the next pass starts,
        # so those columns are counted again against the new run
        assert any(a[0] == "flags" and b[0] == "resume" and c[0] == "flags"
                   and c[1] is a[1] and c[2] < a[3]
                   for a, b, c in zip(events, events[1:], events[2:]))

    @pytest.mark.parametrize("space", ["repeated", "sup_grid"])
    def test_cached_ball_dropped_by_growth_and_read_again(self, monkeypatch, space):
        resumes = [e[1:] for e in flagged_sweep(monkeypatch, GAIN_LEVEL_SPACES[space](), True)
                   if e[0] == "resume"]
        # a ball cached after one re-run, dropped by the time of a later one,
        # and cached again when that one returned
        assert any(cached & dropped & again
                   for i, (_, cached) in enumerate(resumes)
                   for dropped, again in resumes[i + 1:])


class TestEntropy:
    def test_zero_at_diameter(self):
        s = FiniteMetricSpace.grid_1d(7)
        assert entropy(s, 1.0, "greedy") == 0.0

    def test_log_of_exact(self):
        s = FiniteMetricSpace.grid_1d(11)
        assert entropy(s, 0.3, "exact") == pytest.approx(math.log(2))
        assert entropy(s, 0.25, "exact") == pytest.approx(math.log(3))

    def test_monotone_in_eps(self):
        s = FiniteMetricSpace.grid_1d(15)
        hs = [entropy(s, e, "greedy") for e in (0.05, 0.1, 0.2, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(hs, hs[1:]))


class TestHolderBound:
    def test_arithmetic(self):
        assert holder_covering_bound(1, 1.0, 1.0, 0.1) == pytest.approx(10.0)
        assert holder_covering_bound(2, 0.5, 1.0, 0.5) == pytest.approx(16.0)

    def test_dominates_measured_grid(self):
        s = FiniteMetricSpace.grid_1d(101, metric="holder(0.5)")
        eps_values = (0.1, 0.2, 0.3)
        counts = [covering_number_greedy(s, e) for e in eps_values]
        c2 = max(c * e ** 2 for c, e in zip(counts, eps_values))  # dim/alpha = 2
        for c, e in zip(counts, eps_values):
            assert c <= holder_covering_bound(1, 0.5, c2, e) + 1e-9


class TestSpaceConstruction:
    def test_semi_distance_warns_not_raises(self):
        d = np.array([[0.0, 1.0, 0.1], [1.0, 0.0, 0.1], [0.1, 0.1, 0.0]])
        with pytest.warns(UserWarning):
            FiniteMetricSpace.from_matrix(d)

    def test_zero_off_diagonal_allowed(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        s = FiniteMetricSpace.from_matrix(d)
        assert diameter(s) == 0.0

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_sup_metric(self):
        s = FiniteMetricSpace.from_coords([[0, 0], [1, 2]], metric="sup")
        assert s.dist[0, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("metric", [("holder", 3.0), ("holder", 0.5)],
                             ids=["exponent-above-one", "exponent-in-range"])
    def test_tuple_holder_metric_rejected(self, metric):
        # a Hoelder exponent is given only as 'holder(alpha)', where it is checked
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_coords([[0], [1], [2]], metric=metric)

    def test_csv_loaders(self, tmp_path):
        dist = tmp_path / "d.csv"
        dist.write_text("a,b\n0,1\n1,0\n")
        s = load_distance_csv(dist)
        assert s.labels == ("a", "b") and s.dist[0, 1] == 1.0
        coords = tmp_path / "c.csv"
        coords.write_text("x\n0.0\n1.0\n")
        s2 = load_coords_csv(coords, metric="holder(0.5)")
        assert s2.dist[0, 1] == pytest.approx(1.0)
