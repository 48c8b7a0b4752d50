"""Finite metric (or semi-metric) spaces: diameters, covering numbers, entropy.

A finite point set with a distance matrix stands in for a compact index set.
Covering numbers use closed balls centered at points of the space; the greedy
count is an upper bound, nonincreasing in the radius, and the exhaustive
search (capped in size) is the exact oracle.  The greedy count needs the
max-gain greedy cover at every distinct distance; one sweep replays a single
greedy run from one distance to the next, re-running it only from the first
step where a grown ball would change its pick.  Discretized covering numbers
lower-bound continuum ones, so condition checks built on them are
resolution-limited by construction.
"""
from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySpace, TooLarge

#: Exhaustive minimum-cover search is only attempted up to this many points.
EXACT_SEARCH_CAP = 20

#: Largest point count for which the triangle inequality is fully checked.
_TRIANGLE_CHECK_CAP = 128

#: Radii, and at most as many pairs, whose grown balls the greedy covering
#: sweep checks in one pass.
_REPLAY_BLOCK = 32


def _parse_metric(metric):
    """Accepts 'euclidean', 'sup', 'holder(alpha)' or ('holder', alpha)."""
    if isinstance(metric, tuple) and metric[0] == "holder":
        return "holder", float(metric[1])
    if not isinstance(metric, str):
        raise ValueError(f"unrecognized metric spec {metric!r}")
    name = metric.strip().lower()
    if name in ("euclidean", "sup"):
        return name, None
    if name.startswith("holder(") and name.endswith(")"):
        alpha = float(name[len("holder("):-1])
        if not (0.0 < alpha <= 1.0):
            raise ValueError("holder exponent must lie in (0, 1]")
        return "holder", alpha
    raise ValueError(f"unrecognized metric spec {metric!r}")


def _pairwise(coords: np.ndarray, metric) -> np.ndarray:
    kind, alpha = _parse_metric(metric)
    diff = coords[:, None, :] - coords[None, :, :]
    if kind == "sup":
        return np.abs(diff).max(axis=2)
    eucl = np.sqrt((diff ** 2).sum(axis=2))
    if kind == "euclidean":
        return eucl
    return eucl ** alpha


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Points plus a symmetric nonnegative distance matrix with zero diagonal.

    Semi-distances are allowed (zero off-diagonal entries are fine); triangle
    inequality violations only raise a warning, since natural semi-distances
    need not satisfy it exactly at Monte Carlo resolution.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        n = len(self.labels)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} does not match {n} points")
        if n == 0:
            return
        if np.any(~np.isfinite(d)) or np.any(d < 0):
            raise ValueError("distances must be finite and nonnegative")
        if np.max(np.abs(d - d.T)) > 1e-9 * max(1.0, float(np.max(d))):
            raise ValueError("distance matrix must be symmetric")
        if np.max(np.abs(np.diag(d))) > 0:
            raise ValueError("distance matrix must have zero diagonal")
        if n <= _TRIANGLE_CHECK_CAP:
            tol = 1e-9 * max(1.0, float(np.max(d)))
            for k in range(n):
                if np.any(d > d[:, k][:, None] + d[k, :][None, :] + tol):
                    warnings.warn("triangle inequality fails; treating as a semi-distance",
                                  stacklevel=2)
                    break

    def __len__(self):
        return len(self.labels)

    @classmethod
    def from_matrix(cls, dist, labels=None) -> "FiniteMetricSpace":
        dist = np.asarray(dist, dtype=float)
        if labels is None:
            labels = tuple(f"x{i}" for i in range(dist.shape[0]))
        return cls(tuple(labels), dist)

    @classmethod
    def from_coords(cls, coords, metric="euclidean", labels=None) -> "FiniteMetricSpace":
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1)
        d = _pairwise(coords, metric)
        np.fill_diagonal(d, 0.0)
        if labels is None:
            labels = tuple(f"x{i}" for i in range(coords.shape[0]))
        return cls(tuple(labels), d, coords=coords)

    @classmethod
    def grid_1d(cls, n: int, low: float = 0.0, high: float = 1.0,
                metric="euclidean") -> "FiniteMetricSpace":
        xs = np.linspace(low, high, n).reshape(-1, 1)
        return cls.from_coords(xs, metric=metric)


def load_distance_csv(path) -> FiniteMetricSpace:
    """n x n numeric CSV, optional single header row of labels."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    labels = None
    try:
        float(rows[0][0])
    except ValueError:
        labels = tuple(s.strip() for s in rows[0])
        rows = rows[1:]
    d = np.array([[float(v) for v in row] for row in rows])
    return FiniteMetricSpace.from_matrix(d, labels=labels)


def load_coords_csv(path, metric="euclidean") -> FiniteMetricSpace:
    """Coordinate rows (optionally headed), turned into a space under `metric`."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    coords = np.array([[float(v) for v in row] for row in rows])
    return FiniteMetricSpace.from_coords(coords, metric=metric)


# ---------------------------------------------------------------------------
# covering machinery
# ---------------------------------------------------------------------------

def diameter(space: FiniteMetricSpace) -> float:
    if len(space) == 0:
        raise EmptySpace("diameter of an empty space")
    return float(np.max(space.dist))


def _resume(balls: np.ndarray, run, s: int, m: int, after: int, cap: int):
    """Run the max-gain greedy on the packed balls (words, n) from step s of
    the reference run, rewriting the run in place.

    `run` holds, per step j < m, the uncovered bitset before the step (a
    column of U) with its popcount, the pick and its gain.  Each step picks
    the center whose ball covers the most uncovered points, breaking ties
    toward the lowest index.  Gains never grow, so once the run provably
    needs `cap` or more balls, or its best gain is 1, the count is known and
    it stops.  Once the uncovered set equals the reference's at a step after
    `after`, the reference tail holds from there on and is kept.  Returns
    (steps, size), with size None when the old tail was kept.
    """
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
        # the rest needs at least rest/g more balls, exactly that many once g is 1
        total = k + -(-rest // g)
        if rest == 0 or g == 1 or total >= cap:
            return k, min(total, cap)
        if after < k < m and rest == left[k] and np.array_equal(u, U[:, k]):
            return m, None
        U[:, k] = u
        left[k] = rest


def _replay_sweep(dist: np.ndarray, radii: np.ndarray, running_min: bool) -> np.ndarray:
    """Greedy cover size at each of the ascending radii, replaying one run.

    Closed balls are bitsets of uint64 words, one column per center, grown
    in place as each radius's pairs arrive.  A reference greedy run is kept:
    per step, the uncovered set, the pick and its gain.  Unchanged balls keep
    their gains, so at a new radius only a ball that grew can alter the run,
    and it does at the first step where it covers more uncovered points than
    the pick, or as many at a lower index.  The last step's tie is exempt: it
    changes the pick but not the count.  The grown balls of a block of radii
    are checked against every step in one pass.  Radii with no such step keep
    the reference count; at the first one that has one the greedy resumes
    from that step (see `_resume`), and the rest of the block is checked
    against the new run.

    With `running_min` the result is the running minimum of the sizes; a run
    that cannot lower it stops early, and the sweep stops once it reaches 1.
    """
    n = dist.shape[0]
    words = -(-n // 64)
    # each (center, member) entry arrives at the first radius that reaches it
    first = np.searchsorted(radii, dist.ravel())
    order = np.argsort(first, kind="stable")
    first = first[order]
    center, member = np.divmod(order, n)
    word = member // 64
    bit = np.left_shift(np.uint64(1), (member % 64).astype(np.uint64))
    balls = np.zeros((words, n), dtype=np.uint64)
    run = (np.zeros((words, n), dtype=np.uint64), np.zeros(n + 1, dtype=np.int64),
           np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    U, left, pick, gain = run
    U[:, 0] = np.packbits(np.arange(64 * words) < n, bitorder="little").view(np.uint64)
    left[0] = n
    sizes = np.empty(radii.size, dtype=np.int64)
    stop = np.searchsorted(first, 1)
    np.bitwise_or.at(balls, (word[:stop], center[:stop]), bit[:stop])
    m, size = _resume(balls, run, 0, 0, -1, n + 1)
    sizes[0] = size
    cap = size if running_min else n + 1
    level = 1
    while level < radii.size and cap > 1:
        # a block is _REPLAY_BLOCK radii, or fewer so that it holds no more than
        # _REPLAY_BLOCK pairs; where many pairs tie it is one radius
        lo = np.searchsorted(first, level)
        cut = first[lo + 2 * _REPLAY_BLOCK] if lo + 2 * _REPLAY_BLOCK < first.size else radii.size
        end = min(level + _REPLAY_BLOCK, max(level + 1, int(cut)))
        hi = np.searchsorted(first, end)
        # one column per grown ball and radius, ordered by radius, then center
        key = first[lo:hi] * n + center[lo:hi]
        fresh = np.diff(key, prepend=-1) != 0
        col_level, col_center = np.divmod(key[fresh], n)
        cols = balls[:, col_center]
        np.bitwise_or.at(cols, (word[lo:hi], np.cumsum(fresh) - 1), bit[lo:hi])
        # carry each ball's growth at earlier radii of the block forward; pass
        # r completes the r-th column of each center
        by_center = np.argsort(col_center, kind="stable")
        carry = np.flatnonzero(col_center[by_center[1:]] == col_center[by_center[:-1]]) + 1
        while carry.size:
            cols[:, by_center[carry]] |= cols[:, by_center[carry - 1]]
            carry = carry[1:][np.diff(carry) == 1]
        while level < end and cap > 1:
            a = np.searchsorted(col_level, level)
            gains = np.bitwise_count(cols[:, a:, None] & U[:, None, :m]).sum(axis=0, dtype=np.int32)
            flags = gains > gain[:m]
            flags[:, :-1] |= ((gains[:, :-1] == gain[:m - 1])
                              & (col_center[a:, None] < pick[:m - 1]))
            hits = np.flatnonzero(flags.any(axis=1))
            diverge = int(col_level[a + hits[0]]) if hits.size else end
            sizes[level:diverge] = min(size, cap)
            # grow the balls up to the diverging radius, or the block's last one
            b = np.searchsorted(col_level, diverge, side="right")
            np.bitwise_or.at(balls, (slice(None), col_center[a:b]), cols[:, a:b])
            if diverge == end:
                level = end
                break
            steps = flags[hits[0]:b - a].any(axis=0)
            s, after = int(steps.argmax()), m - 1 - int(steps[::-1].argmax())
            m, resized = _resume(balls, run, s, m, after, cap)
            size = size if resized is None else resized
            sizes[diverge] = min(size, cap)
            cap = int(sizes[diverge]) if running_min else cap
            level = diverge + 1
    sizes[level:] = 1  # the running minimum reached 1
    return sizes


def _greedy_sizes(dist: np.ndarray, radii) -> np.ndarray:
    """Raw max-gain greedy cover size at each radius.  Not monotone in the
    radius; `covering_numbers_greedy` is the count built on it."""
    radii = np.asarray(radii, dtype=float)
    order = np.argsort(radii, kind="stable")
    sizes = np.empty(radii.size, dtype=np.int64)
    sizes[order] = _replay_sweep(dist, radii[order], running_min=False)
    return sizes


def covering_numbers_greedy(space: FiniteMetricSpace, eps_values) -> np.ndarray:
    """Greedy covering numbers at several radii, from one sweep.

    The count at eps is the smallest raw greedy cover (see `_greedy_sizes`)
    built at any radius t in (0, eps]: a cover by closed t-balls also covers
    at eps, so this is an upper bound on the minimum cover size, never above
    the raw greedy size at eps, and nonincreasing in eps by construction.
    The balls only change at the distinct distances, so the count needs the
    heuristic at each distinct positive distance up to the largest requested
    radius, and at radius 0, which stands for every radius below the
    smallest positive distance.  One sweep gets them all (`_replay_sweep`):
    it carries one greedy run from each distance to the next and re-runs it
    only from the first step that a newly grown ball changes, with the
    sizes identical to a fresh run at every distance.
    """
    n = len(space)
    if n == 0:
        raise EmptySpace("covering an empty space")
    eps = np.asarray(eps_values, dtype=float).reshape(-1)
    if not np.all(eps > 0):
        raise ValueError("eps must be positive")
    if eps.size == 0:
        return np.zeros(0, dtype=np.int64)
    dist = np.asarray(space.dist, dtype=float)
    levels = np.concatenate(([0.0], np.unique(dist[(dist > 0) & (dist <= eps.max())])))
    curve = _replay_sweep(dist, levels, running_min=True)
    return curve[np.searchsorted(levels, eps, side="right") - 1]


def covering_number_greedy(space: FiniteMetricSpace, eps: float) -> int:
    """Size of a greedy cover by closed eps-balls centered at points.

    The smallest max-gain greedy cover built at any radius up to eps: an
    upper bound on the minimum cover size that is nonincreasing in eps.  The
    one-radius case of `covering_numbers_greedy`.
    """
    return int(covering_numbers_greedy(space, [eps])[0])


def covering_number_exact(space: FiniteMetricSpace, eps: float,
                          cap: int = EXACT_SEARCH_CAP) -> int:
    """Minimum cover size by exhaustive subset search in increasing cardinality.

    Ball coverages are memoized as bitsets.  Intended as a test oracle;
    raises TooLarge above `cap` points.
    """
    n = len(space)
    if n == 0:
        raise EmptySpace("covering an empty space")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if n > cap:
        raise TooLarge(f"{n} points exceeds the exhaustive-search cap of {cap}")
    balls = space.dist <= eps
    masks = []
    for i in range(n):
        m = 0
        for j in range(n):
            if balls[i, j]:
                m |= 1 << j
        masks.append(m)
    full = (1 << n) - 1
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            acc = 0
            for i in combo:
                acc |= masks[i]
                if acc == full:
                    break
            if acc == full:
                return k
    return n  # every point's own ball holds it


def entropy(space: FiniteMetricSpace, eps: float, mode: str = "greedy") -> float:
    """Natural log of the covering number under the requested mode."""
    if mode == "greedy":
        return math.log(covering_number_greedy(space, eps))
    if mode == "exact":
        return math.log(covering_number_exact(space, eps))
    raise ValueError(f"mode must be 'greedy' or 'exact', got {mode!r}")


def holder_covering_bound(dim: int, alpha: float, c2: float, eps: float) -> float:
    """Model covering bound c2 * eps**(-dim/alpha) for a bounded set in R^dim
    carrying a distance dominated by C * |x1 - x2|**alpha."""
    if dim < 1 or not (0.0 < alpha <= 1.0) or c2 <= 0 or eps <= 0:
        raise ValueError("need dim >= 1, alpha in (0,1], c2 > 0, eps > 0")
    return c2 * eps ** (-dim / alpha)
