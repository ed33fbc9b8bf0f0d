"""Metrics, matching, cost accounting, and report assembly.

Detection scoring follows the usual multi-object pipeline: peaks come out of
the heatmap by 3x3 local-maximum suppression with a score threshold, are
greedily matched one-to-one to ground truth nearest-pair-first within a
world-scale distance threshold, and the match counts feed MODA / MODP /
precision / recall. ``extract_peaks`` and ``frame_counts`` take a stack of
heatmaps (..., H, W), the leading axes indexing maps, and score it in one
call, each map's row bit-equal to scoring that map alone: one decode's
maps share a padded buffer and one greedy matcher. Classification accuracy
lives on the classifier. The cost ledger is analytic: multiply-accumulate
counts per network, no wall clock.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray

PEAK_SCORE_THRESHOLD = 0.4


# ---------------------------------------------------------------------------
# peak extraction and matching


def _window3(pad: Array, width: int, op) -> Array:
    """``op`` (np.maximum or np.minimum) over the 3x3 neighbourhood of each
    cell of a flat buffer of padded maps whose rows are ``width`` long:
    entry j is the window of ``pad[j + width + 1]``. Offsets of +-width,
    then +-1, read contiguous slices."""
    rows = op(op(pad[: -2 * width], pad[width:-width]), pad[2 * width :])
    return op(op(rows[:-2], rows[1:-1]), rows[2:])


def _plateau_firsts(marked: Array, width: int) -> Array:
    """The first cell in row-major order of each 8-connected plateau of
    ``marked`` (entry j the cell ``j + width + 1`` of a padded flat
    buffer): the least flat index is spread over each plateau until it
    settles."""
    n = marked.size + 2 * width + 2
    own = np.arange(width + 1, n - width - 1)
    first = np.full(n, n)
    core = first[width + 1 : -width - 1]
    core[:] = np.where(marked, own, n)
    while True:
        spread = np.where(marked, _window3(first, width, np.minimum), n)
        if np.array_equal(spread, core):
            return core == own
        core[:] = spread


def extract_peaks(heatmap: Array) -> Array:
    """Detection peaks of each map of a (..., H, W) stack: cells that are
    maximal in their 3x3 neighbourhood and score at least
    ``PEAK_SCORE_THRESHOLD``.
    Adjacent such cells bound each other, so each 8-connected group of them
    is a plateau of one value; a plateau gives one peak, its first cell in
    row-major order. Returns (K, ndim) ints, each row a peak's map index
    (none for one (H, W) map), row and column, sorted by map, then
    descending score, then row, then column.

    The maps are padded by one cell of -inf into one flat buffer, so a 3x3
    window never reads another map. Only a stack whose marked cells touch
    runs the plateau pass; elsewhere every marked cell is a peak."""
    heat = np.asarray(heatmap, dtype=float)
    if heat.ndim < 2:
        raise ShapeError(f"heatmap must be (..., H, W), got {heat.shape}")
    *lead, h, w = heat.shape
    width, size = w + 2, (h + 2) * (w + 2)
    pad = np.full((math.prod(lead), h + 2, width), -np.inf)
    pad[:, 1:-1, 1:-1] = heat.reshape(-1, h, w)
    flat = pad.reshape(-1)
    core = flat[width + 1 : -width - 1]
    marked = core == _window3(flat, width, np.maximum)
    marked &= core >= PEAK_SCORE_THRESHOLD
    at = np.flatnonzero(marked)
    # two marked cells touch when one is right of the other or among the three below it
    if len(at) > 1 and marked.take(at[:, None] + (1, width - 1, width, width + 1),
                                   mode="clip").any():
        at = np.flatnonzero(_plateau_firsts(marked, width))
    cell = at + width + 1          # ascending, so row-major within each map
    cell = cell[np.lexsort((-flat[cell], cell // size))]
    frame, rest = np.divmod(cell, size)
    r, c = np.divmod(rest, width)
    frames = np.unravel_index(frame, lead) if len(lead) > 1 else [frame] * len(lead)
    return np.stack([*frames, r - 1, c - 1], axis=1)


def _greedy_matches(peaks: Array, frame: Array, gts: Array, threshold: float):
    """Greedy nearest-pair-first one-to-one matching of each frame's peaks
    to the ground truth (G, 2) that all frames share, within the threshold.
    Pairs are taken in (frame, distance, peak, ground truth) order, each
    unless its peak or its frame's ground truth is already taken. Returns
    the distance and the frame of each taken pair, in that order."""
    dist = np.hypot(peaks[:, 0, None] - gts[:, 0], peaks[:, 1, None] - gts[:, 1])
    p, g = np.nonzero(dist <= threshold)
    d, f = dist[p, g], frame[p]
    order = np.lexsort((d, f))  # stable: nonzero lists (p, g) ascending
    taken_p, taken_g, keep = set(), set(), []
    for k, pk, gk in zip(order.tolist(), p[order].tolist(), (f * len(gts) + g)[order].tolist()):
        if pk in taken_p or gk in taken_g:
            continue
        taken_p.add(pk)
        taken_g.add(gk)
        keep.append(k)
    return d[keep], f[keep]


def frame_counts(heatmap: Array, gt_positions: Array, threshold: float) -> Array:
    """[tp, fp, fn, gt, distance credit] of each map of a (..., H, W) stack
    against one frame's ground truth, as (..., 5). Credit is the MODP
    numerator sum(1 - d/threshold) over a map's matched pairs."""
    heat = np.asarray(heatmap, dtype=float)
    if heat.ndim < 2:
        raise ShapeError(f"heatmap must be (..., H, W), got {heat.shape}")
    n_maps = math.prod(heat.shape[:-2])
    peaks = extract_peaks(heat.reshape(n_maps, *heat.shape[-2:]))
    gts = np.asarray(gt_positions, dtype=float).reshape(-1, 2)
    d, frame = _greedy_matches(peaks[:, 1:], peaks[:, 0], gts, threshold)
    counts = np.empty((n_maps, 5))
    tp = np.bincount(frame, minlength=n_maps)
    counts[:, 0] = tp
    counts[:, 1] = np.bincount(peaks[:, 0], minlength=n_maps) - tp
    counts[:, 2] = len(gts) - tp
    counts[:, 3] = len(gts)
    # bincount adds each map's terms from 0.0 in the order given, left to right
    counts[:, 4] = np.bincount(frame, 1.0 - d / threshold, n_maps)
    return counts.reshape(heat.shape[:-2] + (5,))


# ---------------------------------------------------------------------------
# detection metric bundle


def detection_metrics_arrays(counts: Array, credit: Array) -> dict:
    """Aggregate (…, 4) frame-count rows [tp, fp, fn, gt] and matching
    credit sums over the frames with ground truth, then substitute the
    totals: MODA = 1 - (FP+FN)/GT, MODP = credit/TP, precision =
    TP/(TP+FP), recall = TP/GT."""
    counts = np.asarray(counts, dtype=float).reshape(-1, 4)
    credit = np.asarray(credit, dtype=float).ravel()
    if len(counts) != len(credit):
        raise ShapeError("counts and credit are misaligned")
    keep = counts[:, 3] > 0
    if not keep.all():
        warnings.warn(f"skipping {int((~keep).sum())} frame(s) with no ground truth",
                      stacklevel=2)
    if not keep.any():
        raise ShapeError("all frames lacked ground truth")
    tp, fp, fn, gt = counts[keep].sum(axis=0)
    moda = 1.0 - (fp + fn) / gt
    modp = float(credit[keep].sum()) / tp if tp > 0 else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / gt
    return {"moda": float(moda), "modp": float(modp),
            "precision": float(precision), "recall": float(recall),
            "primary": float(moda)}


# ---------------------------------------------------------------------------
# cost accounting


@dataclass(frozen=True)
class CostLedger:
    """Analytic per-instance inference cost in multiply-accumulates.

    cost_selected = T * f + g + (T-1) * d (one selector decision per added
    view); cost_full = N * f + g with no selector involved.
    """

    f_per_view: int
    g: int
    selector_step: int
    T: int
    n_cameras: int

    @property
    def cost_selected(self) -> int:
        return self.T * self.f_per_view + self.g + (self.T - 1) * self.selector_step

    @property
    def cost_full(self) -> int:
        return self.n_cameras * self.f_per_view + self.g

    @property
    def ratio(self) -> float:
        return self.cost_selected / self.cost_full

    def to_dict(self) -> dict:
        return {**asdict(self), "cost_selected": self.cost_selected,
                "cost_full": self.cost_full, "ratio": self.ratio}


def cost_from_macs(f_per_view: int, g: int, selector_step: int, T: int,
                   n_cameras: int) -> CostLedger:
    if not 1 <= T <= n_cameras:
        raise ShapeError(f"T={T} outside [1, {n_cameras}]")
    return CostLedger(int(f_per_view), int(g), int(selector_step), T, n_cameras)


def cost_account(world, task_net, q_net, T: int) -> CostLedger:
    """Ledger from actual network shapes; q_net may be None (no selector)."""
    macs = task_net.mac_counts(world)
    d = q_net.mac_count() if q_net is not None else 0
    if T == world.n_cameras:
        d = 0  # full-view inference never consults the selector
    return cost_from_macs(macs["f_per_view"], macs["g"], d, T, world.n_cameras)


# ---------------------------------------------------------------------------
# policy frequency


def policy_frequency(chosen: Array, n_cameras: int) -> Array:
    """Per-step selection frequencies from (n, N, T) chosen-view records:
    freq[t, v0, a] is the fraction of instances whose step-(t+1) selection
    was camera a, given initial view v0. Rows sum to 1."""
    chosen = np.asarray(chosen)
    if chosen.ndim != 3:
        raise ShapeError(f"chosen must be (instances, initial views, T), got {chosen.shape}")
    n, v0s, T = chosen.shape
    if n == 0 or T < 2:
        raise ShapeError("frequency needs at least one instance and one selection step")
    freq = np.zeros((T - 1, n_cameras, n_cameras))
    for t in range(1, T):
        for v0 in range(v0s):
            np.add.at(freq[t - 1, v0], chosen[:, v0, t], 1.0)
    return freq / n


def camera_usage(chosen: Array, n_cameras: int) -> Array:
    """Fraction of rollouts in which each camera was used at all (initial
    view included); the ranking signal for the shut-off study."""
    chosen = np.asarray(chosen)
    if chosen.ndim != 3 or chosen.size == 0:
        raise ShapeError(f"chosen must be a non-empty (instances, initial views, T) array, "
                         f"got {chosen.shape}")
    rows = chosen.reshape(-1, chosen.shape[-1])
    usage = np.zeros(n_cameras)
    for row in rows:
        for cam in set(int(c) for c in row):
            usage[cam] += 1.0
    return usage / len(rows)


# ---------------------------------------------------------------------------
# reports


def build_report(run, cost: CostLedger, config_hash: str, seeds) -> dict:
    """The report body of one evaluated policy. Selection policies with
    T >= 2 carry their per-step selection frequencies as nested (T-1, N, N)
    lists; other runs carry None."""
    freq = None
    if run.T >= 2 and run.policy != "full-views":
        freq = policy_frequency(run.chosen, run.chosen.shape[1]).tolist()
    return {
        "mode": run.task_net.mode,
        "policy": run.policy,
        "split": run.split,
        "T": run.T,
        "metrics": run.metrics(),
        "cost": cost.to_dict(),
        "config_hash": config_hash,
        "seeds": [int(s) for s in seeds],
        "frequency": freq,
        "notes": {},
    }


def frequency_rows(freq) -> list[dict]:
    """(T-1, N, N) frequencies as step (from 1), initial_view, selected_view, frequency rows."""
    return [{"step": t + 1, "initial_view": v0, "selected_view": a, "frequency": f}
            for t, by_v0 in enumerate(freq) for v0, row in enumerate(by_v0)
            for a, f in enumerate(row)]


def table_csv(rows: list[dict], head) -> str:
    """Plot-ready CSV of rows, the one CSV writer: the ``head`` columns, then
    the first row's other keys sorted; ints via str, floats via repr."""
    if not rows:
        raise ConfigError("table has no rows")
    fieldnames = list(head) + sorted(k for k in rows[0] if k not in head)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({
            k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()
        })
    return out.getvalue()
