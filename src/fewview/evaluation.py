"""Metrics, matching, cost accounting, and report assembly.

Detection scoring follows the usual multi-object pipeline: peaks come out of
the heatmap by 3x3 local-maximum suppression with a score threshold, are
greedily matched one-to-one to ground truth nearest-pair-first within a
world-scale distance threshold, and the match counts feed MODA / MODP /
precision / recall. Classification accuracy lives on the classifier. The
cost ledger is analytic: multiply-accumulate counts per network, no wall clock.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray

PEAK_SCORE_THRESHOLD = 0.4


# ---------------------------------------------------------------------------
# peak extraction and matching


def _window3(grid: Array, fill, op) -> Array:
    """``op`` (np.maximum or np.minimum) over each cell's 3x3 neighbourhood,
    cells outside the map reading ``fill``."""
    pad = np.full((grid.shape[0] + 2, grid.shape[1] + 2), fill, dtype=grid.dtype)
    pad[1:-1, 1:-1] = grid
    rows = op(op(pad[:-2], pad[1:-1]), pad[2:])
    return op(op(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])


def extract_peaks(heatmap: Array, threshold: float = PEAK_SCORE_THRESHOLD) -> Array:
    """Detection peaks: cells that are maximal in their 3x3 neighbourhood and
    score at least the threshold. Adjacent such cells bound each other, so
    each 8-connected group of them is a plateau of one value; a plateau gives
    one peak, its first cell in row-major order. Returns (K, 2) ints sorted
    by descending score, then row, then column."""
    heat = np.asarray(heatmap, dtype=float)
    if heat.ndim != 2:
        raise ShapeError(f"heatmap must be 2-D, got {heat.shape}")
    marked = (heat == _window3(heat, -np.inf, np.maximum)) & (heat >= threshold)
    # spread the least row-major index over each plateau until it settles
    own = np.arange(heat.size).reshape(heat.shape)
    first = np.where(marked, own, heat.size)
    while True:
        spread = np.where(marked, _window3(first, heat.size, np.minimum), heat.size)
        if np.array_equal(spread, first):
            break
        first = spread
    r, c = np.nonzero(first == own)  # row-major order
    order = np.lexsort((c, r, -heat[r, c]))
    return np.stack([r[order], c[order]], axis=1)


@dataclass(frozen=True)
class DetectionMatchResult:
    tp: int
    fp: int
    fn: int
    gt: int
    distances: tuple  # matched-pair distances, in cells
    threshold: float  # matching radius, in cells


def match_detections(peaks: Array, gt_positions: Array, threshold: float) -> DetectionMatchResult:
    """Greedy nearest-pair-first one-to-one matching within the threshold.

    Ties on distance break to the lower peak index, then lower ground-truth
    index, so results are deterministic.
    """
    peaks = np.asarray(peaks, dtype=float).reshape(-1, 2)
    gts = np.asarray(gt_positions, dtype=float).reshape(-1, 2)
    n_peaks, n_gt = len(peaks), len(gts)
    dist = np.hypot(peaks[:, None, 0] - gts[None, :, 0], peaks[:, None, 1] - gts[None, :, 1])
    p, g = np.nonzero(dist <= threshold)
    d = dist[p, g]
    order = np.lexsort((g, p, d))
    used_p, used_g, dists = set(), set(), []
    for dk, pk, gk in zip(d[order].tolist(), p[order].tolist(), g[order].tolist()):
        if pk in used_p or gk in used_g:
            continue
        used_p.add(pk)
        used_g.add(gk)
        dists.append(dk)
    tp = len(dists)
    return DetectionMatchResult(tp, n_peaks - tp, n_gt - tp, n_gt, tuple(dists), threshold)


def frame_counts(heatmap: Array, gt_positions: Array, threshold: float) -> Array:
    """[tp, fp, fn, gt, distance credit] for one frame; credit is the MODP
    numerator sum(1 - d/threshold) over matched pairs."""
    peaks = extract_peaks(heatmap)
    m = match_detections(peaks, gt_positions, threshold)
    credit = float(sum(1.0 - d / threshold for d in m.distances))
    return np.array([m.tp, m.fp, m.fn, m.gt, credit], dtype=float)


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
        return {
            "f_per_view": self.f_per_view,
            "g": self.g,
            "selector_step": self.selector_step,
            "T": self.T,
            "n_cameras": self.n_cameras,
            "cost_selected": self.cost_selected,
            "cost_full": self.cost_full,
            "ratio": self.ratio,
        }


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
    chosen = np.asarray(chosen).reshape(-1, chosen.shape[-1])
    usage = np.zeros(n_cameras)
    for row in chosen:
        for cam in set(int(c) for c in row):
            usage[cam] += 1.0
    return usage / len(chosen)


# ---------------------------------------------------------------------------
# reports


def build_report(run, cost: CostLedger, config_hash: str, seeds) -> dict:
    """The report body of one evaluated policy. Selection policies with
    T >= 2 carry their per-step selection frequencies as nested (T-1, N, N)
    lists; other runs carry None."""
    freq = None
    if run.T >= 2 and run.policy != "full-views":
        freq = policy_frequency(run.chosen, run.n_cameras).tolist()
    return {
        "mode": run.mode,
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


def frequency_csv(freq: Array) -> str:
    """step,initial_view,selected_view,frequency rows for plotting."""
    freq = np.asarray(freq, dtype=float)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "initial_view", "selected_view", "frequency"])
    for t, v0, a in np.ndindex(freq.shape):
        writer.writerow([t + 1, v0, a, repr(float(freq[t, v0, a]))])
    return out.getvalue()


def table_csv(rows: list[dict], head) -> str:
    """Plot-ready CSV of study rows: the ``head`` columns first, then the
    other keys of the first row in sorted order; floats written via repr
    for determinism."""
    if not rows:
        raise ConfigError("study produced no rows")
    fieldnames = list(head) + sorted(k for k in rows[0] if k not in head)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({
            k: repr(float(v)) if isinstance(v, float) else v for k, v in row.items()
        })
    return out.getvalue()
