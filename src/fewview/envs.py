"""Synthetic multiview worlds.

Two families:

* a classification world on a camera ring where designated class pairs share
  prototype observations on most views and separate by a configured margin on
  a few discriminative views, so the correct view choice resolves the
  ambiguity;
* a bird's-eye-view detection world on a grid, with cameras owning field-of-view
  cones and a discrete ray-casting occlusion rule, producing per-camera
  observation maps plus smoothed occupancy targets.

Occlusion is read from one occupant-shadow table per camera, built once per
geometry: a packed bit row per cell marking the cells it hides. The tables
hold N * (H*W)**2 / 8 bytes: 0.79 MB at 32 x 32 with 6 cameras, 12.6 MB at
64 x 64.

Instance streams are pure functions of (config, split, index): every instance
comes from its own child seed. A classification world keeps each instance it
generates (about 3 KB, observations read-only), since training and evaluation
read the same instances many times. A detection world regenerates each one on
demand. Its observations are a read-only broadcast of the N one-channel maps
across the C channels: 49 KB at the default config, where N x C materialized
maps would take 0.8 MB. The extractor copies them once, into its per-cell
rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ConfigError

TRAIN, VAL, EVAL = "train", "val", "eval"
_SPLIT_TAGS = {TRAIN: 0, VAL: 1, EVAL: 2}


def _config_hash(cfg) -> str:
    payload = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return hashlib.sha256(
        json.dumps({"kind": type(cfg).__name__, **payload}, sort_keys=True).encode()
    ).hexdigest()


def _check_least(cfg, least: dict) -> None:
    """Raise ConfigError naming the first of the config's counts that lies
    below its ``least`` value; every split must hold an instance, and the
    seed is at least 0, as NumPy requires."""
    for name, value in {**least, "n_train": 1, "n_val": 1, "n_eval": 1, "seed": 0}.items():
        if getattr(cfg, name) < value:
            raise ConfigError(f"{name} must be at least {value}, got {getattr(cfg, name)!r}")


# ---------------------------------------------------------------------------
# the shared world plumbing


class World:
    """What both worlds share: a config with a seed and the three split
    sizes, N cameras, and instances drawn from per-instance child seeds.
    Subclasses define ``__init__`` and ``instance(split, index)``."""

    def __init__(self, config, n_cameras: int):
        self.config = config
        self.n_cameras = n_cameras

    @property
    def n_train(self) -> int:
        return self.config.n_train

    @property
    def n_val(self) -> int:
        return self.config.n_val

    @property
    def n_eval(self) -> int:
        return self.config.n_eval

    def world_hash(self) -> str:
        return _config_hash(self.config)

    def split_size(self, split: str) -> int:
        sizes = {TRAIN: self.n_train, VAL: self.n_val, EVAL: self.n_eval}
        if split not in sizes:
            raise ConfigError(f"split must be one of {sorted(sizes)}, got {split!r}")
        return sizes[split]

    def _instance_rng(self, split: str, index: int) -> np.random.Generator:
        """The child generator of one instance, after the range check."""
        if not 0 <= index < self.split_size(split):
            raise IndexError(f"{split} instance {index} out of range")
        return np.random.default_rng([self.config.seed, _SPLIT_TAGS[split], index])


# ---------------------------------------------------------------------------
# classification world


@dataclass(frozen=True)
class ClassificationConfig:
    n_views: int = 12
    n_classes: int = 10
    feat_dim: int = 32
    noise: float = 0.1
    margin: float = 2.0
    n_train: int = 400
    n_val: int = 160
    n_eval: int = 200
    random_pose: bool = False
    # one tuple of view ids per class pair; None picks pair p -> (2p, 2p+1)
    discriminative_views: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.discriminative_views is not None:  # lists from a config file
            object.__setattr__(self, "discriminative_views", tuple(
                tuple(int(v) for v in views) for views in self.discriminative_views))
        if self.n_classes < 2 or self.n_classes % 2 != 0:
            raise ConfigError("n_classes must be even and at least 2")
        _check_least(self, {"n_views": 2, "feat_dim": 1})
        if not self.noise >= 0:
            raise ConfigError("noise must be nonnegative")
        if not self.margin > 6.0 * self.noise:
            raise ConfigError(
                "margin must exceed 6x the noise level or the designed "
                "discriminative views stop discriminating"
            )
        pairs = self.n_classes // 2
        if self.discriminative_views is not None:
            if len(self.discriminative_views) != pairs:
                raise ConfigError(f"need one discriminative view set per pair ({pairs})")
            for p, views in enumerate(self.discriminative_views):
                if not views:
                    raise ConfigError(f"pair {p} has an empty discriminative view set")
                if any(not 0 <= v < self.n_views for v in views):
                    raise ConfigError(f"pair {p} names a view outside the ring")
                if len(set(views)) != len(views):
                    raise ConfigError(f"pair {p} repeats a view")
        elif 2 * pairs > self.n_views:
            raise ConfigError(
                "default discriminative assignment needs n_classes <= n_views; "
                "pass discriminative_views explicitly for denser packings"
            )


@dataclass(frozen=True)
class ClassificationInstance:
    class_id: int
    pose_steps: int                 # object rotation in whole camera steps
    observations: np.ndarray        # (N, D), view v = prototype + noise


class ClassificationWorld(World):
    """Deterministic stream of ring-camera classification instances."""

    def __init__(self, config: ClassificationConfig):
        super().__init__(config, config.n_views)
        pairs = config.n_classes // 2
        disc = config.discriminative_views
        if disc is None:
            disc = tuple(tuple((2 * p + j) % config.n_views for j in range(2)) for p in range(pairs))
        rng = np.random.default_rng([config.seed, 100])
        base = rng.standard_normal((pairs, config.n_views, config.feat_dim))
        offsets = rng.standard_normal((pairs, config.feat_dim))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        # prototypes: both pair members share base everywhere; the second
        # member moves by margin * unit offset on the pair's own views
        proto = np.zeros((config.n_classes, config.n_views, config.feat_dim))
        for p in range(pairs):
            proto[2 * p] = base[p]
            proto[2 * p + 1] = base[p]
            for v in disc[p]:
                proto[2 * p + 1, v] += config.margin * offsets[p]
        self.prototypes = proto
        self.prototypes.setflags(write=False)
        self._instances: dict[tuple[str, int], ClassificationInstance] = {}

    def instance(self, split: str, index: int) -> ClassificationInstance:
        """The instance at ``index`` of ``split``, generated on first access
        and kept for later ones."""
        key = (split, index)
        if key not in self._instances:
            self._instances[key] = self._generate(split, index)
        return self._instances[key]

    def _generate(self, split: str, index: int) -> ClassificationInstance:
        cfg = self.config
        rng = self._instance_rng(split, index)
        class_id = index % cfg.n_classes
        pose = int(rng.integers(cfg.n_views)) if cfg.random_pose else 0
        noise = cfg.noise * rng.standard_normal((cfg.n_views, cfg.feat_dim))
        canonical = self.prototypes[class_id] + noise
        views = (np.arange(cfg.n_views) - pose) % cfg.n_views
        observations = canonical[views]
        observations.setflags(write=False)
        return ClassificationInstance(class_id, pose, observations)


# ---------------------------------------------------------------------------
# detection world


@dataclass(frozen=True)
class DetectionConfig:
    n_cameras: int = 6
    grid_h: int = 32
    grid_w: int = 32
    channels: int = 16
    ring_radius: float = 24.0
    half_angle_deg: float = 50.0
    view_range: float = 42.0
    meters_per_cell: float = 0.25
    min_targets: int = 5
    max_targets: int = 20
    noise: float = 0.1
    smooth_sigma: float = 1.0
    occlusion: bool = True
    coverage_threshold: float = 0.9
    n_train: int = 160
    n_val: int = 60
    n_eval: int = 60
    seed: int = 0

    def __post_init__(self):
        _check_least(self, {"n_cameras": 2, "channels": 1})
        if self.grid_h < 4 or self.grid_w < 4:
            raise ConfigError("grid too small to place occupants")
        if not 0 < self.min_targets <= self.max_targets:
            raise ConfigError("need 0 < min_targets <= max_targets")
        if self.max_targets > self.grid_h * self.grid_w // 4:
            raise ConfigError("occupant density too high for the grid")
        if not self.smooth_sigma > 0:
            raise ConfigError("smooth_sigma must be positive")
        if not 0 < self.coverage_threshold <= 1:
            raise ConfigError("coverage_threshold must be in (0, 1]")
        if not self.meters_per_cell > 0:
            raise ConfigError("meters_per_cell must be positive")


@dataclass(frozen=True)
class DetectionInstance:
    occupancy: np.ndarray            # (H, W) uint8 ground truth
    positions: tuple[tuple[int, int], ...]
    target: np.ndarray               # (H, W) smoothed occupancy in [0, 1]
    observations: np.ndarray         # (N, C, H, W); zero wherever not visible
    visibility: np.ndarray           # (N, H, W) bool, FoV minus occlusion


@lru_cache(maxsize=8)
def _grid_geometry(n: int, h: int, w: int, ring_radius: float, half_angle_deg: float,
                   view_range: float):
    """Camera anchors, FoV masks and occupant-shadow tables of N cameras on
    a ring around an H x W grid, each aimed at the grid center; cached by
    geometry. Anchors are integer (row, col) cells, possibly outside the
    grid.

    Shadow table ``v`` is (H*W, ceil(H*W/8)) packed bits: row ``c`` marks
    every cell whose ray from camera ``v`` passes through cell ``c``. A ray
    samples the segment from the anchor to a cell at K equal steps (K = the
    Chebyshev distance) and rounds each coordinate with floor(x + 0.5),
    midpoints rounding up; the cells strictly between, inside the grid, are
    its path. The numerators are integers well below 2**53 and IEEE division
    is correctly rounded, so the rule has one exact answer.
    """
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    positions = np.zeros((n, 2), dtype=np.int64)
    for v in range(n):
        theta = 2.0 * np.pi * v / n
        positions[v, 0] = int(np.floor(cy + ring_radius * np.sin(theta) + 0.5))
        positions[v, 1] = int(np.floor(cx + ring_radius * np.cos(theta) + 0.5))
    rows, cols = np.mgrid[0:h, 0:w]
    cos_half = np.cos(np.deg2rad(half_angle_deg))

    fov = np.zeros((n, h, w), dtype=bool)
    for v in range(n):
        pr, pc = positions[v]
        dr, dc = rows - pr, cols - pc
        dist = np.hypot(dr, dc)
        ar, ac = cy - pr, cx - pc
        aim = np.hypot(ar, ac)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = (dr * ar + dc * ac) / (dist * aim)
        inside = (dist > 0) & (dist <= view_range) & (cosang >= cos_half)
        fov[v] = inside

    cells = h * w
    r1, c1 = rows.ravel()[:, None], cols.ravel()[:, None]   # (H*W, 1) ray ends
    shadows = np.zeros((n, cells, -(-cells // 8)), dtype=np.uint8)
    for v in range(n):
        r0, c0 = (int(x) for x in positions[v])
        k = np.maximum(abs(r1 - r0), abs(c1 - c0))           # (H*W, 1) steps
        m = np.arange(1, max(int(k.max()), 1))[None, :]      # (1, K_max - 1)
        kk = np.maximum(k, 1)                                # a ray of length 0 has no steps
        rr = np.floor((r0 * (k - m) + r1 * m) / kk + 0.5).astype(np.int64)
        cc = np.floor((c0 * (k - m) + c1 * m) / kk + 0.5).astype(np.int64)
        keep = (m < k) & (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        ends = np.broadcast_to(np.arange(cells)[:, None], keep.shape)
        table = np.zeros((cells, cells), dtype=bool)
        table[(rr * w + cc)[keep], ends[keep]] = True
        shadows[v] = np.packbits(table, axis=1)
    return positions, fov, shadows


@lru_cache(maxsize=16)
def _gaussian_stamp(sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(4.0 * sigma)))
    span = np.arange(-radius, radius + 1)
    dr, dc = np.meshgrid(span, span, indexing="ij")
    return np.exp(-(dr**2 + dc**2) / (2.0 * sigma * sigma))


def smooth_occupancy(occupancy: np.ndarray, sigma: float) -> np.ndarray:
    """Occupancy indicator softened per target: each occupant contributes a
    unit-peak Gaussian bump; overlaps combine by max so peaks stay at 1."""
    h, w = occupancy.shape
    stamp = _gaussian_stamp(float(sigma))
    radius = stamp.shape[0] // 2
    out = np.zeros((h, w))
    for r, c in zip(*np.nonzero(occupancy)):
        r0, r1 = max(0, r - radius), min(h, r + radius + 1)
        c0, c1 = max(0, c - radius), min(w, c + radius + 1)
        sr, sc = r0 - (r - radius), c0 - (c - radius)
        np.maximum(
            out[r0:r1, c0:c1],
            stamp[sr : sr + (r1 - r0), sc : sc + (c1 - c0)],
            out=out[r0:r1, c0:c1],
        )
    return out


class DetectionWorld(World):
    """Deterministic stream of grid-world detection instances."""

    def __init__(self, config: DetectionConfig):
        super().__init__(config, config.n_cameras)
        self.positions, self.fov_masks, self._shadows = _grid_geometry(
            config.n_cameras, config.grid_h, config.grid_w, config.ring_radius,
            config.half_angle_deg, config.view_range)
        coverage = float(self.fov_masks.any(axis=0).mean())
        if coverage < config.coverage_threshold:
            raise ConfigError(
                f"camera layout covers {coverage:.3f} of the grid, "
                f"below the required {config.coverage_threshold}"
            )
        full = config.grid_h * config.grid_w
        if any(int(self.fov_masks[v].sum()) == full for v in range(config.n_cameras)):
            raise ConfigError("a single camera covers the whole grid; widen the world")

    @property
    def match_threshold_cells(self) -> float:
        return 0.5 / self.config.meters_per_cell

    def visibility(self, occupancy: np.ndarray) -> np.ndarray:
        """FoV masks minus cells whose ray passes through an occupant: the
        union of the occupied cells' shadow rows, one per camera."""
        cfg = self.config
        if not cfg.occlusion:
            return self.fov_masks.copy()
        occupied = np.flatnonzero(occupancy)
        shadow = np.bitwise_or.reduce(self._shadows[:, occupied], axis=1)
        blocked = np.unpackbits(shadow, axis=1, count=cfg.grid_h * cfg.grid_w).view(bool)
        return self.fov_masks & ~blocked.reshape(self.fov_masks.shape)

    def render_views(self, occupancy: np.ndarray, noise: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Observation maps for a given occupancy grid.

        Per camera and visible cell, the map carries the occupancy indicator
        plus noise, broadcast across all channels; cells outside the camera's
        visibility are exactly zero. The observations are a read-only
        broadcast view (N, C, H, W) of the N one-channel maps.
        """
        cfg = self.config
        occupancy = np.asarray(occupancy)
        if occupancy.shape != (cfg.grid_h, cfg.grid_w):
            raise ConfigError(f"occupancy shape {occupancy.shape} does not match the grid")
        vis = self.visibility(occupancy)
        signal = occupancy.astype(np.float64)[None, :, :] + (0.0 if noise is None else noise)
        signal = signal * vis
        obs = np.broadcast_to(signal[:, None], (len(signal), cfg.channels, cfg.grid_h, cfg.grid_w))
        return obs, vis

    def instance(self, split: str, index: int) -> DetectionInstance:
        cfg = self.config
        rng = self._instance_rng(split, index)
        count = int(rng.integers(cfg.min_targets, cfg.max_targets + 1))
        flat = rng.choice(cfg.grid_h * cfg.grid_w, size=count, replace=False)
        occupancy = np.zeros((cfg.grid_h, cfg.grid_w), dtype=np.uint8)
        occupancy.ravel()[flat] = 1
        positions = tuple(sorted((int(f) // cfg.grid_w, int(f) % cfg.grid_w) for f in flat))
        noise = cfg.noise * rng.standard_normal((cfg.n_cameras, cfg.grid_h, cfg.grid_w))
        obs, vis = self.render_views(occupancy, noise)
        target = smooth_occupancy(occupancy, cfg.smooth_sigma)
        return DetectionInstance(occupancy, positions, target, obs, vis)
