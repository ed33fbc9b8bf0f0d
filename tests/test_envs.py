"""World checks: determinism, designed ambiguity/separability, pose rotation,
FoV and occlusion against an exact-rational ray-casting oracle, layouts."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fewview.envs import (
    ClassificationConfig,
    ClassificationWorld,
    DetectionConfig,
    DetectionWorld,
    smooth_occupancy,
)
from fewview.errors import ConfigError
from testkit import discriminative_views, ray_cast_visibility, ray_paths


def small_class_world(**over):
    base = dict(n_views=6, n_classes=4, feat_dim=8, n_train=40, n_val=20, n_eval=20, seed=3)
    base.update(over)
    return ClassificationWorld(ClassificationConfig(**base))


def small_det_world(**over):
    base = dict(
        grid_h=16, grid_w=16, ring_radius=12.0, view_range=22.0,
        channels=4, min_targets=3, max_targets=6,
        n_train=20, n_val=10, n_eval=10, seed=3,
    )
    base.update(over)
    return DetectionWorld(DetectionConfig(**base))


# ---------------------------------------------------------------------------
# classification


def test_classification_streams_deterministic():
    a, b = small_class_world(), small_class_world()
    for split in ("train", "val", "eval"):
        for i in range(5):
            ia, ib = a.instance(split, i), b.instance(split, i)
            assert ia.class_id == ib.class_id
            np.testing.assert_array_equal(ia.observations, ib.observations)
    c = small_class_world(seed=4)
    assert not np.array_equal(
        a.instance("train", 0).observations, c.instance("train", 0).observations
    )


def test_classification_instances_are_cached_read_only():
    w = small_class_world(random_pose=True)
    for i in reversed(range(6)):  # warm the cache out of order
        w.instance("eval", i)
    inst = w.instance("eval", 2)
    assert w.instance("eval", 2) is inst
    fresh = small_class_world(random_pose=True).instance("eval", 2)
    assert (inst.class_id, inst.pose_steps) == (fresh.class_id, fresh.pose_steps)
    np.testing.assert_array_equal(inst.observations, fresh.observations)
    with pytest.raises(ValueError):
        inst.observations[0, 0] = 1.0


def test_splits_use_distinct_noise():
    w = small_class_world()
    assert not np.array_equal(
        w.instance("train", 0).observations, w.instance("eval", 0).observations
    )
    assert not np.array_equal(
        w.instance("val", 0).observations, w.instance("eval", 0).observations
    )


def test_pair_prototypes_share_ambiguous_views():
    w = small_class_world()
    cfg = w.config
    for p in range(cfg.n_classes // 2):
        disc = set(discriminative_views(w, 2 * p))
        for v in range(cfg.n_views):
            d = np.linalg.norm(w.prototypes[2 * p + 1, v] - w.prototypes[2 * p, v])
            if v in disc:
                assert abs(d - cfg.margin) < 1e-12
            else:
                assert d == 0.0


def test_explicit_ambiguity_structure():
    # 2 classes on a 4-camera ring: pair separates on views 1 and 3 only
    w = small_class_world(n_views=4, n_classes=2, discriminative_views=((1, 3),))
    np.testing.assert_array_equal(w.prototypes[0, 0], w.prototypes[1, 0])
    np.testing.assert_array_equal(w.prototypes[0, 2], w.prototypes[1, 2])
    assert np.linalg.norm(w.prototypes[1, 1] - w.prototypes[0, 1]) > 1.0
    assert np.linalg.norm(w.prototypes[1, 3] - w.prototypes[0, 3]) > 1.0
    assert discriminative_views(w, 0) == (1, 3)


def nearest_prototype(world, obs, views):
    """Brute-force classifier: summed squared distance to each class's
    prototypes over the given views."""
    dists = [
        sum(float(np.sum((obs[v] - world.prototypes[c, v]) ** 2)) for v in views)
        for c in range(world.config.n_classes)
    ]
    return int(np.argmin(dists))


def test_ambiguous_views_are_chance_level():
    w = small_class_world(n_views=4, n_classes=2, discriminative_views=((1, 3),))
    rng = np.random.default_rng(9)
    ambiguous = [0, 2]
    hits = 0
    n = 1000
    for i in range(n):
        c = i % 2
        obs = w.prototypes[c] + w.config.noise * rng.standard_normal(w.prototypes[c].shape)
        hits += nearest_prototype(w, obs, ambiguous) == c
    assert hits / n <= 0.5 + 0.05


def test_noise_free_full_views_fully_separable():
    w = small_class_world()
    for c in range(w.config.n_classes):
        assert nearest_prototype(w, w.prototypes[c], range(w.config.n_views)) == c


def test_noisy_instances_separable_with_all_views():
    w = small_class_world()
    for i in range(w.n_eval):
        inst = w.instance("eval", i)
        got = nearest_prototype(w, inst.observations, range(w.config.n_views))
        assert got == inst.class_id


def test_random_pose_world_rotates_prototypes():
    w = small_class_world(random_pose=True, n_train=60)
    cfg = w.config
    poses = set()
    for i in range(30):
        inst = w.instance("train", i)
        poses.add(inst.pose_steps)
        k = inst.pose_steps
        for v in range(cfg.n_views):
            resid = inst.observations[v] - w.prototypes[inst.class_id, (v - k) % cfg.n_views]
            assert np.linalg.norm(resid) < cfg.noise * (np.sqrt(cfg.feat_dim) + 6)
    assert len(poses) > 1


def test_classification_config_validation():
    with pytest.raises(ConfigError):
        ClassificationConfig(n_classes=3)
    with pytest.raises(ConfigError):
        ClassificationConfig(noise=0.5, margin=1.0)
    with pytest.raises(ConfigError):
        ClassificationConfig(n_views=4, n_classes=2, discriminative_views=((4,),))
    with pytest.raises(ConfigError):
        ClassificationConfig(n_views=4, n_classes=2, discriminative_views=())
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        ClassificationConfig(seed=-1)


@pytest.mark.parametrize("views, named", [
    ([[0.7, 1], [2.9, 3]], r"discriminative_views\[0\] 0.7"),
    ([[0, 1], [2, True]], r"discriminative_views\[1\] True"),
    ([[0, 1], ["2", 3]], r"discriminative_views\[1\] '2'")], ids=["float", "bool", "str"])
def test_discriminative_views_must_be_integers(views, named):
    with pytest.raises(ConfigError, match=f"{named} is not an integer"):
        ClassificationConfig(n_views=6, n_classes=4, discriminative_views=views)
    cfg = ClassificationConfig(n_views=6, n_classes=4,
                               discriminative_views=[np.array([0, 1]), [2, 3]])
    assert cfg.discriminative_views == ((0, 1), (2, 3))


def test_world_hash_tracks_config():
    a, b = small_class_world(), small_class_world()
    assert a.world_hash() == b.world_hash()
    assert a.world_hash() != small_class_world(noise=0.2).world_hash()
    assert small_det_world().world_hash() != small_det_world(seed=4).world_hash()


@pytest.mark.parametrize("make", [small_class_world, small_det_world])
def test_unknown_split_is_a_config_error(make):
    w = make()
    with pytest.raises(ConfigError, match="split"):
        w.instance("test", 0)
    with pytest.raises(ConfigError, match="split"):
        w.split_size("test")


@pytest.mark.parametrize("make", [small_class_world, small_det_world])
def test_instance_streams_are_pinned_to_their_integer_keys(make):
    # (world seed, split tag, index), with train 0, val 1 and eval 2, keys
    # every instance stream: a change of key or generator fails here
    w = make(seed=5)
    for split, tag in (("train", 0), ("val", 1), ("eval", 2)):
        for i in (0, 7):
            want = np.random.default_rng([5, tag, i]).bit_generator.random_raw(8)
            np.testing.assert_array_equal(w._instance_rng(split, i).bit_generator.random_raw(8),
                                          want, err_msg=f"{split} {i}")


# ---------------------------------------------------------------------------
# layouts


def test_grid_layout_positions_are_integers_outside_grid():
    pos = DetectionWorld(DetectionConfig(n_cameras=6, grid_h=32, grid_w=32, ring_radius=24.0,
                                         half_angle_deg=50.0, view_range=42.0)).positions
    assert pos.dtype == np.int64
    inside = (pos[:, 0] >= 0) & (pos[:, 0] < 32) & (pos[:, 1] >= 0) & (pos[:, 1] < 32)
    assert not inside.any()


# ---------------------------------------------------------------------------
# detection


def test_detection_streams_deterministic():
    a, b = small_det_world(), small_det_world()
    ia, ib = a.instance("eval", 0), b.instance("eval", 0)
    np.testing.assert_array_equal(ia.occupancy, ib.occupancy)
    np.testing.assert_array_equal(ia.observations, ib.observations)
    assert ia.positions == ib.positions


def test_detection_observations_are_a_read_only_channel_broadcast():
    w = small_det_world()
    inst = w.instance("train", 0)
    obs = inst.observations
    assert obs.shape == (w.n_cameras, w.config.channels, w.config.grid_h, w.config.grid_w)
    assert not obs.flags.writeable
    with pytest.raises(ValueError):
        obs[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(obs, np.repeat(obs[:, :1], w.config.channels, axis=1))


def test_density_and_binary_occupancy():
    w = small_det_world()
    for i in range(w.n_train):
        inst = w.instance("train", i)
        count = int(inst.occupancy.sum())
        assert w.config.min_targets <= count <= w.config.max_targets
        assert set(np.unique(inst.occupancy)) <= {0, 1}
        assert len(inst.positions) == count
        for r, c in inst.positions:
            assert inst.occupancy[r, c] == 1


def test_observations_zero_outside_visibility():
    w = small_det_world()
    for i in range(5):
        inst = w.instance("eval", i)
        for v in range(w.n_cameras):
            hidden = ~inst.visibility[v]
            assert np.all(inst.observations[v][:, hidden] == 0.0)


def test_visible_occupant_is_nonzero_in_map():
    w = small_det_world()
    occ = np.zeros((16, 16), dtype=np.uint8)
    occ[8, 8] = 1
    obs, vis = w.render_views(occ, 0.0)
    seen = [v for v in range(w.n_cameras) if vis[v, 8, 8]]
    assert seen, "center cell should be visible to someone"
    for v in seen:
        assert np.all(obs[v][:, 8, 8] == 1.0)


def test_coverage_gap_keeps_ground_truth():
    # narrow cones leave grid corners uncovered; ground truth still records them
    w = small_det_world(half_angle_deg=10.0, coverage_threshold=0.05)
    uncovered = ~w.fov_masks.any(axis=0)
    assert uncovered.any()
    r, c = map(int, np.argwhere(uncovered)[0])
    occ = np.zeros((16, 16), dtype=np.uint8)
    occ[r, c] = 1
    obs, vis = w.render_views(occ, 0.0)
    assert np.all(obs[:, :, r, c] == 0.0)
    assert occ[r, c] == 1


def test_occlusion_blocks_rear_cell_but_not_side_camera():
    w = DetectionWorld(DetectionConfig(coverage_threshold=0.9))
    # camera 0 anchors at (16, 40) and looks along row 16 toward -x; an
    # occupant at (16, 20) hides (16, 10) from it but not from camera 3
    # anchored at (16, -8) on the opposite side
    pos = w.positions
    assert tuple(pos[0]) == (16, 40)
    assert tuple(pos[3]) == (16, -8)
    occ = np.zeros((32, 32), dtype=np.uint8)
    occ[16, 20] = 1
    occ[16, 10] = 1
    obs, vis = w.render_views(occ, 0.0)
    assert not vis[0, 16, 10]
    assert vis[0, 16, 20]
    assert vis[3, 16, 10]
    assert np.all(obs[0][:, 16, 10] == 0.0)
    assert np.all(obs[3][:, 16, 10] == 1.0)


def test_occlusion_flag_off_restores_fov():
    w = small_det_world(occlusion=False)
    inst = w.instance("eval", 0)
    np.testing.assert_array_equal(inst.visibility, w.fov_masks)


def exact_visibility(world, occupancy):
    """Rational-arithmetic reimplementation of the visibility rule.

    Samples each camera-to-cell segment at Chebyshev-distance many steps and
    rounds coordinates with floor(x + 1/2) computed in exact fractions, then
    checks occupied cells strictly between. Must agree with the float path.
    """
    h, w = occupancy.shape
    vis = world.fov_masks.copy()
    for v in range(world.n_cameras):
        pr, pc = (int(x) for x in world.positions[v])
        for r in range(h):
            for c in range(w):
                if not vis[v, r, c]:
                    continue
                k = max(abs(r - pr), abs(c - pc))
                blocked = False
                for m in range(1, k):
                    rr = math.floor(Fraction(pr * (k - m) + r * m, k) + Fraction(1, 2))
                    cc = math.floor(Fraction(pc * (k - m) + c * m, k) + Fraction(1, 2))
                    if 0 <= rr < h and 0 <= cc < w and occupancy[rr, cc]:
                        blocked = True
                        break
                if blocked:
                    vis[v, r, c] = False
    return vis


def test_visibility_matches_exact_rational_oracle():
    w = small_det_world()
    for i in range(2):
        inst = w.instance("eval", i)
        np.testing.assert_array_equal(inst.visibility, exact_visibility(w, inst.occupancy))


def test_all_camera_misses_match_oracle():
    # occupants invisible to every camera are exactly those the oracle misses
    w = small_det_world(half_angle_deg=20.0, coverage_threshold=0.2)
    inst = w.instance("eval", 0)
    oracle_vis = exact_visibility(w, inst.occupancy)
    for r, c in inst.positions:
        assert inst.visibility[:, r, c].any() == oracle_vis[:, r, c].any()


# 13 x 11 = 143 cells is not a multiple of 8, so packed shadow rows end in
# padding bits; the 16 x 16 ring sits outside its grid; the radius-5 ring puts
# every anchor inside the grid, where the anchor's own ray has no steps
SHADOW_GEOMETRIES = {
    "13x11": dict(grid_h=13, grid_w=11, ring_radius=9.0, view_range=9.0,
                  half_angle_deg=30.0, coverage_threshold=0.5),
    "anchors outside": dict(),
    "anchors inside": dict(n_cameras=4, ring_radius=5.0, view_range=8.0,
                           coverage_threshold=0.1),
}


@functools.lru_cache(maxsize=None)
def shadow_world(name, occlusion=True):
    """A world of the named geometry and its ray-path reference tables."""
    world = small_det_world(occlusion=occlusion, **SHADOW_GEOMETRIES[name])
    return world, ray_paths(world)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SHADOW_GEOMETRIES)), st.booleans(), st.floats(0.0, 0.3),
       st.integers(0, 2**32 - 1))
@example("13x11", True, 0.0, 0)
@example("anchors inside", True, 0.0, 0)
def test_visibility_equals_ray_cast_reference(name, occlusion, density, seed):
    world, paths = shadow_world(name, occlusion)
    shape = (world.config.grid_h, world.config.grid_w)
    occupancy = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
    vis = world.visibility(occupancy)
    assert vis.dtype == bool
    np.testing.assert_array_equal(vis, ray_cast_visibility(world, paths, occupancy))


@pytest.mark.parametrize("name", sorted(SHADOW_GEOMETRIES))
def test_shadow_tables_pack_the_ray_paths(name):
    world, paths = shadow_world(name)
    n, cells = world.n_cameras, world.config.grid_h * world.config.grid_w
    table = np.zeros((n, cells, cells), dtype=bool)
    for v in range(n):
        for end, path in enumerate(paths[v]):
            table[v, path, end] = True
    np.testing.assert_array_equal(world._shadows, np.packbits(table, axis=2))
    assert world._shadows.nbytes == n * cells * math.ceil(cells / 8)


def test_smoothed_target_peaks_and_range():
    w = small_det_world()
    inst = w.instance("eval", 1)
    assert inst.target.min() >= 0.0 and inst.target.max() <= 1.0
    for r, c in inst.positions:
        assert inst.target[r, c] == 1.0


def test_smoothed_target_matches_naive_max_of_bumps():
    w = small_det_world()
    inst = w.instance("eval", 2)
    sig = w.config.smooth_sigma
    h, wd = inst.occupancy.shape
    naive = np.zeros((h, wd))
    for r in range(h):
        for c in range(wd):
            vals = [
                np.exp(-((r - tr) ** 2 + (c - tc) ** 2) / (2 * sig * sig))
                for tr, tc in inst.positions
                if max(abs(r - tr), abs(c - tc)) <= 4 * sig
            ]
            naive[r, c] = max(vals, default=0.0)
    np.testing.assert_allclose(inst.target, naive, atol=1e-12)


def test_detection_config_guards():
    with pytest.raises(ConfigError):
        small_det_world(half_angle_deg=8.0)  # union coverage below threshold
    with pytest.raises(ConfigError):
        small_det_world(half_angle_deg=180.0, view_range=1e6)  # one camera sees all
    with pytest.raises(ConfigError):
        DetectionConfig(min_targets=0)
    with pytest.raises(ConfigError):
        DetectionConfig(min_targets=9, max_targets=5)
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        DetectionConfig(seed=-1)


def test_match_threshold_in_cells():
    assert small_det_world().match_threshold_cells == 2.0
    assert small_det_world(meters_per_cell=0.5).match_threshold_cells == 1.0


def test_smooth_occupancy_empty_grid():
    out = smooth_occupancy(np.zeros((8, 8), dtype=np.uint8), 1.0)
    assert np.all(out == 0.0)
