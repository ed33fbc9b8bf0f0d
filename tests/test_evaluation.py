"""Metric, matching, cost, frequency, and report tests.

The matching tests include an exhaustive optimal-assignment oracle; greedy
nearest-first matching is allowed rare cardinality discrepancies (logged),
bounded at 5% over randomized small scenes.
"""

import itertools
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewview import artifacts
from fewview import evaluation as ev
from fewview.errors import ConfigError, ShapeError
from testkit import (DetectionMatchResult, extract_peaks_bfs, extract_peaks_loop,
                     frame_counts_loop, match_detections, match_detections_loop,
                     paired_t_pvalue)

THR = 2.0  # matching radius in cells (0.5 m at 0.25 m per cell)


# ---------------------------------------------------------------------------
# peak extraction


def test_extract_peaks_single_maximum():
    heat = np.zeros((8, 8))
    heat[3, 4] = 0.9
    np.testing.assert_array_equal(ev.extract_peaks(heat), [[3, 4]])


def test_extract_peaks_threshold():
    heat = np.zeros((8, 8))
    heat[2, 2] = 0.39
    heat[5, 5] = 0.41
    np.testing.assert_array_equal(ev.extract_peaks(heat), [[5, 5]])


def test_extract_peaks_suppresses_neighbours():
    heat = np.zeros((8, 8))
    heat[3, 3] = 0.8
    heat[3, 4] = 0.7  # adjacent, smaller: not a 3x3 local max
    heat[3, 6] = 0.6  # two cells away from the 0.7 ridge, local max
    np.testing.assert_array_equal(ev.extract_peaks(heat), [[3, 3], [3, 6]])


def test_extract_peaks_plateau_keeps_first_cell():
    heat = np.zeros((8, 8))
    heat[4, 4] = heat[4, 5] = 0.6  # adjacent exact tie
    np.testing.assert_array_equal(ev.extract_peaks(heat), [[4, 4]])


def test_extract_peaks_one_peak_per_plateau():
    row = np.zeros((5, 7))
    row[2, 1:6] = 0.8  # a 1x5 plateau
    np.testing.assert_array_equal(ev.extract_peaks(row), [[2, 1]])
    block = np.zeros((8, 8))
    block[2:6, 3:7] = 0.7  # a 4x4 plateau
    np.testing.assert_array_equal(ev.extract_peaks(block), [[2, 3]])
    split = np.zeros((5, 9))
    split[2, 1:4] = split[2, 5:8] = 0.6
    split[2, 4] = 0.5  # a lower cell between two equal plateaus
    np.testing.assert_array_equal(ev.extract_peaks(split), [[2, 1], [2, 5]])
    vee = np.zeros((4, 5))
    vee[1, 1] = vee[2, 2] = vee[1, 3] = 0.7  # (1, 3) touches no earlier cell of its plateau
    np.testing.assert_array_equal(ev.extract_peaks(vee), [[1, 1]])
    snake = np.zeros((32, 32))
    snake[::2] = 0.6  # even rows, joined at alternating ends: one long path
    snake[1::4, 31] = snake[3::4, 0] = 0.6
    np.testing.assert_array_equal(ev.extract_peaks(snake), [[0, 0]])


def test_extract_peaks_border_and_order():
    heat = np.zeros((6, 6))
    heat[0, 0] = 0.5   # corner counts against in-map neighbours only
    heat[5, 5] = 0.9
    np.testing.assert_array_equal(ev.extract_peaks(heat), [[5, 5], [0, 0]])
    with pytest.raises(ShapeError):
        ev.extract_peaks(np.zeros(5))


# ---------------------------------------------------------------------------
# matching


def test_match_exact_hit():
    m = match_detections(np.array([[3, 3]]), np.array([[3, 3]]), THR)
    assert (m.tp, m.fp, m.fn, m.gt) == (1, 0, 0, 1)
    assert m.distances == (0.0,)


def test_match_beyond_threshold_is_fp_and_fn():
    m = match_detections(np.array([[0, 0]]), np.array([[10, 10]]), THR)
    assert (m.tp, m.fp, m.fn, m.gt) == (0, 1, 1, 1)


def test_match_one_to_one_and_counts_invariant():
    peaks = np.array([[0, 0], [0, 1]])
    gts = np.array([[0, 0]])
    m = match_detections(peaks, gts, THR)
    assert m.tp == 1 and m.fp == 1 and m.fn == 0
    assert m.tp + m.fn == m.gt


def test_match_greedy_prefers_nearest_pair():
    peaks = np.array([[0.0, 1.0], [0.0, 4.0]])
    gts = np.array([[0.0, 0.0], [0.0, 3.0]])
    m = match_detections(peaks, gts, THR)
    # nearest pair first: peak0-gt0 at d=1, then peak1-gt1 at d=1
    assert m.tp == 2
    assert m.distances == (1.0, 1.0)


def optimal_match_count(peaks, gts, thr):
    """Exhaustive maximum-cardinality matching within the threshold."""
    peaks = np.asarray(peaks, dtype=float).reshape(-1, 2)
    gts = np.asarray(gts, dtype=float).reshape(-1, 2)
    if len(peaks) == 0 or len(gts) == 0:
        return 0
    small, large = (peaks, gts) if len(peaks) <= len(gts) else (gts, peaks)
    ok = np.hypot(*(small[:, None, :] - large[None, :, :]).transpose(2, 0, 1)) <= thr
    best = 0
    for assignment in itertools.permutations(range(len(large)), len(small)):
        best = max(best, sum(ok[i, j] for i, j in enumerate(assignment)))
    return best


def test_greedy_matches_brute_force_on_small_scenes():
    rng = np.random.default_rng(42)
    agree = 0
    scenes = 200
    discrepancies = []
    for s in range(scenes):
        n_gt = int(rng.integers(1, 7))
        n_peaks = int(rng.integers(0, 7))
        gts = rng.uniform(0, 16, size=(n_gt, 2))
        peaks = rng.uniform(0, 16, size=(n_peaks, 2))
        greedy = match_detections(peaks, gts, THR).tp
        optimal = optimal_match_count(peaks, gts, THR)
        assert greedy <= optimal
        if greedy == optimal:
            agree += 1
        else:
            discrepancies.append((s, greedy, optimal))
    for s, g, o in discrepancies:
        print(f"matching discrepancy scene={s}: greedy={g} optimal={o}")
    assert agree / scenes >= 0.95


def test_known_greedy_suboptimal_configuration():
    # the classic chain: the middle ground truth tempts both peaks
    gts = np.array([[0.0, 3.0], [0.0, 0.0]])
    peaks = np.array([[0.0, 2.0], [0.0, 4.0]])
    greedy = match_detections(peaks, gts, THR)
    assert greedy.tp == 2 or greedy.tp == 1  # documents greedy may trail optimal
    assert optimal_match_count(peaks, gts, THR) == 2


# ---------------------------------------------------------------------------
# array scoring against the loop references in testkit

points = hnp.arrays(np.int64, st.tuples(st.integers(0, 8), st.just(2)),
                    elements=st.integers(0, 5))
map_sides = st.integers(1, 12)


@settings(max_examples=300, deadline=None)
@given(points, points, st.sampled_from([1.0, 2.0, float(np.sqrt(2.0)), float(np.sqrt(5.0))]))
def test_match_equals_pairwise_loop(peaks, gts, thr):
    # integer points in a small box force exact distance ties and d == thr
    fast, loop = match_detections(peaks, gts, thr), match_detections_loop(peaks, gts, thr)
    assert fast == loop
    assert [type(v) for v in vars(fast).values()] == [type(v) for v in vars(loop).values()]
    assert all(type(d) is float for d in fast.distances)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), map_sides, map_sides)
def test_extract_peaks_equals_loop_on_continuous_maps(seed, h, w):
    heat = np.random.default_rng(seed).random((h, w))
    np.testing.assert_array_equal(ev.extract_peaks(heat), extract_peaks_loop(heat))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(map_sides, map_sides),
                  elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
def test_extract_peaks_equals_flood_fill_on_quantized_maps(heat):
    np.testing.assert_array_equal(ev.extract_peaks(heat), extract_peaks_bfs(heat))


# ---------------------------------------------------------------------------
# stacks of maps scored in one call, row by row against the per-map references

LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]  # quantized: ties and plateaus everywhere
THRESHOLDS = [1.0, 2.0, float(np.sqrt(2.0)), float(np.sqrt(5.0))]
cells = hnp.arrays(np.int64, st.tuples(st.integers(0, 8), st.just(2)),
                   elements=st.integers(0, 12))


def stacks(elements):
    return st.integers(1, 6).flatmap(lambda s: hnp.arrays(
        np.float64, st.tuples(st.just(s), map_sides, map_sides), elements=elements))


def assert_stack_rows_equal_per_map(stack, gts, thr, peaks_of):
    peaks = ev.extract_peaks(stack)
    counts = ev.frame_counts(stack, gts, thr)
    assert peaks.shape[1] == 3 and counts.shape == (len(stack), 5)
    assert (np.diff(peaks[:, 0]) >= 0).all()  # ordered by map first
    for s, heat in enumerate(stack):
        want = peaks_of(heat)
        np.testing.assert_array_equal(peaks[peaks[:, 0] == s, 1:], want)
        assert counts[s].tobytes() == frame_counts_loop(heat, gts, thr).tobytes()
    # one (H, W) map is a stack of one without its map axis
    np.testing.assert_array_equal(ev.extract_peaks(stack[0]), peaks_of(stack[0]))
    assert ev.frame_counts(stack[0], gts, thr).tobytes() == counts[0].tobytes()


@settings(max_examples=300, deadline=None)
@given(stacks(st.sampled_from(LEVELS)), cells, st.sampled_from(THRESHOLDS),
       st.sampled_from([None, 0.75, 1.0]), st.integers(-1, 5))
def test_stack_scoring_equals_per_map_on_quantized_maps(stack, gts, thr, seam, blank):
    if seam is not None:  # a high last row above a high first row: only padding parts them
        stack[:-1, -1] = 1.0
        stack[1:, 0] = seam
    if 0 <= blank < len(stack):
        stack[blank] = 0.0  # a map without peaks
    assert_stack_rows_equal_per_map(stack, gts, thr, extract_peaks_bfs)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), map_sides, map_sides, cells,
       st.sampled_from(THRESHOLDS))
def test_stack_scoring_equals_per_map_on_continuous_maps(seed, s, h, w, gts, thr):
    stack = np.random.default_rng(seed).random((s, h, w))  # no two maxima touch
    assert_stack_rows_equal_per_map(stack, gts, thr, extract_peaks_loop)


def test_stack_scoring_keeps_every_leading_axis():
    rng = np.random.default_rng(4)
    stack = np.round(rng.random((2, 3, 9, 7)), 1)
    gts = np.array([[1, 1], [4, 5], [8, 0]])
    flat_peaks = ev.extract_peaks(stack.reshape(6, 9, 7))
    peaks = ev.extract_peaks(stack)
    np.testing.assert_array_equal(peaks[:, 2:], flat_peaks[:, 1:])
    np.testing.assert_array_equal(peaks[:, 0] * 3 + peaks[:, 1], flat_peaks[:, 0])
    counts = ev.frame_counts(stack, gts, THR)
    assert counts.shape == (2, 3, 5)
    np.testing.assert_array_equal(counts.reshape(6, 5),
                                  ev.frame_counts(stack.reshape(6, 9, 7), gts, THR))
    assert ev.extract_peaks(np.zeros((0, 4, 4))).shape == (0, 3)
    assert ev.frame_counts(np.zeros((0, 4, 4)), gts, THR).shape == (0, 5)
    with pytest.raises(ShapeError):
        ev.frame_counts(np.zeros(5), gts, THR)


# ---------------------------------------------------------------------------
# detection metrics


def metrics_of(*results):
    """detection_metrics_arrays over per-frame match results: one count row
    and one matching-credit sum per frame."""
    counts = [[m.tp, m.fp, m.fn, m.gt] for m in results]
    credit = [sum(1.0 - d / m.threshold for d in m.distances) for m in results]
    return ev.detection_metrics_arrays(counts, credit)


def test_detection_metrics_trivial_substitutions():
    m = DetectionMatchResult(tp=8, fp=1, fn=1, gt=10, distances=(0.0,) * 8, threshold=THR)
    out = metrics_of(m)
    assert out["moda"] == pytest.approx(0.8)
    assert out["modp"] == 1.0
    m2 = DetectionMatchResult(tp=8, fp=2, fn=2, gt=10, distances=(0.0,) * 8, threshold=THR)
    out2 = metrics_of(m2)
    assert out2["precision"] == pytest.approx(0.8)
    assert out2["recall"] == pytest.approx(0.8)


def test_detection_metrics_match_direct_formula_on_randomized_results():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tp = int(rng.integers(0, 8))
        fp = int(rng.integers(0, 5))
        fn = int(rng.integers(0, 5))
        gt = tp + fn if tp + fn > 0 else 1
        fn = gt - tp
        dists = tuple(float(d) for d in rng.uniform(0, THR, size=tp))
        m = DetectionMatchResult(tp, fp, fn, gt, dists, THR)
        out = metrics_of(m)
        assert out["moda"] == 1 - (fp + fn) / gt
        assert out["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
        assert out["recall"] == tp / gt
        expected_modp = sum(1 - d / THR for d in dists) / tp if tp else 0.0
        assert out["modp"] == pytest.approx(expected_modp, rel=1e-12)


def test_detection_metrics_skip_empty_frames_with_warning():
    good = DetectionMatchResult(1, 0, 0, 1, (0.0,), THR)
    empty = DetectionMatchResult(0, 2, 0, 0, (), THR)
    with pytest.warns(UserWarning, match="no ground truth"):
        out = metrics_of(good, empty)
    assert out["moda"] == 1.0  # empty frame's FPs skipped along with the frame
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ShapeError):
            metrics_of(empty)


def test_detection_metrics_arrays_aggregate_counts():
    counts = np.array([[1, 0, 0, 1], [2, 1, 1, 3]], dtype=float)
    credit = np.array([1.0, 1.5])
    out = ev.detection_metrics_arrays(counts, credit)
    assert out["moda"] == pytest.approx(1 - (1 + 1) / 4)
    assert out["modp"] == pytest.approx(2.5 / 3)
    assert out["precision"] == pytest.approx(3 / 4)
    assert out["recall"] == pytest.approx(3 / 4)


def test_moda_may_be_negative():
    m = DetectionMatchResult(0, 5, 2, 2, (), THR)
    assert metrics_of(m)["moda"] == pytest.approx(1 - 7 / 2)


# ---------------------------------------------------------------------------
# cost accounting


def test_cost_ratio_one_at_T_equals_N():
    ledger = ev.cost_from_macs(f_per_view=1000, g=50, selector_step=10, T=6, n_cameras=6)
    # full-view inference involves no selector: T=N still pays (T-1) selector
    # steps under selection, so compare the dedicated full-view ledger
    assert ev.cost_from_macs(1000, 50, 0, 6, 6).ratio == 1.0
    assert ledger.cost_full == 6 * 1000 + 50


def test_cost_ratio_proportional_when_f_dominates():
    ledger = ev.cost_from_macs(f_per_view=10_000_000, g=100, selector_step=50,
                               T=2, n_cameras=12)
    assert abs(ledger.ratio - 2 / 12) / (2 / 12) < 0.10


def test_cost_additivity_up_to_selector_terms():
    f, g, d = 5000, 300, 40
    for t1, t2 in ((1, 3), (2, 5), (3, 6)):
        l1 = ev.cost_from_macs(f, g, d, t1, 6)
        l2 = ev.cost_from_macs(f, g, d, t2, 6)
        assert (l2.cost_selected - l1.cost_selected) == (t2 - t1) * f + (t2 - t1) * d


def test_cost_account_matches_independent_recount():
    from fewview.envs import ClassificationConfig, ClassificationWorld
    from fewview import training as tr

    world = ClassificationWorld(ClassificationConfig(n_train=4, n_val=4, n_eval=4))
    net = tr.build_classifier(world, hidden=64, feat_dim=32, seed=0)
    q = tr.build_selector(world, net, hidden=64, seed=0)
    ledger = ev.cost_account(world, net, q, T=2)

    def dense_macs(dense):
        # recount from the raw weight matrices, not the layer metadata
        return sum(w.shape[0] * w.shape[1] for w in dense.weights)

    f_expected = dense_macs(net.feature_net)
    g_expected = dense_macs(net.head_net)
    d_expected = (q.n_cameras * q.feat_dim + dense_macs(q.camera_branch)
                  + dense_macs(q.feature_branch) + dense_macs(q.combiner))
    assert ledger.f_per_view == f_expected
    assert ledger.g == g_expected
    assert ledger.selector_step == d_expected
    assert ledger.cost_selected == 2 * f_expected + g_expected + d_expected


def test_cost_account_detection_scales_by_cells():
    from fewview.envs import DetectionConfig, DetectionWorld
    from fewview import training as tr

    world = DetectionWorld(DetectionConfig(n_train=4, n_val=4, n_eval=4))
    net = tr.build_detector(world, seed=0)
    ledger = ev.cost_account(world, net, None, T=3)
    cells = world.config.grid_h * world.config.grid_w
    assert ledger.f_per_view == net.feature_net.mac_count() * cells
    assert ledger.g == net.head_net.mac_count() * cells
    assert ledger.selector_step == 0


def test_cost_guards():
    with pytest.raises(ShapeError):
        ev.cost_from_macs(10, 1, 1, T=0, n_cameras=6)
    with pytest.raises(ShapeError):
        ev.cost_from_macs(10, 1, 1, T=7, n_cameras=6)


# ---------------------------------------------------------------------------
# policy frequency


def test_frequency_deterministic_policy_is_one_hot():
    chosen = np.tile(np.array([[0, 2], [1, 2], [2, 3]]), (5, 1, 1))
    freq = ev.policy_frequency(chosen, 4)
    assert freq.shape == (1, 4, 4)
    np.testing.assert_array_equal(freq[0, 0], [0, 0, 1, 0])
    np.testing.assert_array_equal(freq[0, 1], [0, 0, 1, 0])
    np.testing.assert_array_equal(freq[0, 2], [0, 0, 0, 1])
    assert freq[0].sum(axis=1)[:3].tolist() == [1, 1, 1]


def test_frequency_rows_sum_to_one_per_step():
    rng = np.random.default_rng(3)
    n, N, T = 50, 5, 3
    chosen = np.zeros((n, N, T), dtype=int)
    for i in range(n):
        for v0 in range(N):
            rest = rng.permutation([c for c in range(N) if c != v0])[: T - 1]
            chosen[i, v0] = [v0, *rest]
    freq = ev.policy_frequency(chosen, N)
    np.testing.assert_allclose(freq.sum(axis=2), 1.0)


def test_frequency_uniform_random_within_3_sigma():
    from fewview import training as tr
    n_cams, draws = 6, 3000
    chosen = np.zeros((draws, 1, 2), dtype=int)
    for i in range(draws):
        seq = tr.random_sequence(n_cams, 0, 2, seed=11, instance_index=i)
        chosen[i, 0] = [0, seq[0]]
    freq = ev.policy_frequency(chosen, n_cams)[0, 0]
    p = 1 / (n_cams - 1)
    sigma = np.sqrt(p * (1 - p) / draws)
    assert freq[0] == 0.0
    assert np.all(np.abs(freq[1:] - p) <= 3 * sigma + 1e-12)


def test_frequency_of_dataset_oracle_equals_its_table():
    from fewview import training as tr
    table = tr.PolicyTable("dataset", np.array([[[0, 3], [1, 0], [2, 0], [3, 1]]]))
    n = 7
    chosen = np.broadcast_to(table.sets, (n, 4, 2))
    freq = ev.policy_frequency(chosen, 4)
    for v0, (_, pick) in enumerate(table.sets[0].tolist()):
        expected = np.zeros(4)
        expected[pick] = 1.0
        np.testing.assert_array_equal(freq[0, v0], expected)


def test_camera_usage_fractions():
    chosen = np.array([[[0, 1], [1, 2]], [[0, 1], [1, 3]]])  # 4 rollouts
    usage = ev.camera_usage(chosen, 4)
    np.testing.assert_allclose(usage, [0.5, 1.0, 0.25, 0.25])


def test_frequency_guards():
    with pytest.raises(ShapeError):
        ev.policy_frequency(np.zeros((3, 4)), 4)
    with pytest.raises(ShapeError):
        ev.policy_frequency(np.zeros((0, 4, 2), dtype=int), 4)
    # usage takes what converts to a 3-D array, nested lists included, and
    # rejects a 2-D or empty input before it could divide by zero rollouts
    nested = [[[0, 1], [1, 2]], [[0, 1], [1, 3]]]
    np.testing.assert_array_equal(ev.camera_usage(nested, 4), ev.camera_usage(np.array(nested), 4))
    for bad in (np.zeros((0, 4, 2), dtype=int), np.zeros((4, 0, 2), dtype=int),
                np.zeros((3, 4), dtype=int), [[0, 1], [1, 2]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError):
                ev.camera_usage(bad, 4)


# ---------------------------------------------------------------------------
# significance


def test_paired_t_pvalue_detects_consistent_gain():
    a = [0.9, 0.92, 0.91, 0.93, 0.9]
    b = [0.7, 0.72, 0.69, 0.71, 0.7]
    assert paired_t_pvalue(a, b) < 0.01
    assert paired_t_pvalue(b, a) > 0.5


def test_paired_t_pvalue_zero_variance_degenerate():
    assert paired_t_pvalue([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]) == 0.0
    assert paired_t_pvalue([0.5, 0.5], [0.5, 0.5]) == 1.0


def test_significance_input_guards():
    with pytest.raises(ShapeError):
        paired_t_pvalue([1.0], [0.0])


# ---------------------------------------------------------------------------
# reports


def test_report_json_is_deterministic_and_complete():
    cost = ev.cost_from_macs(1000, 50, 10, 2, 6)
    run = SimpleNamespace(mode="classification", policy="mvselect", split="eval", T=2,
                          n_cameras=2, chosen=np.array([[[0, 1], [1, 0]]]),
                          metrics=lambda: {"accuracy": 0.9917, "primary": 0.9917})
    report = ev.build_report(run, cost, "abc123", [0, 1, 2])
    text1 = artifacts.json_bytes(report).decode()
    text2 = artifacts.json_bytes(report).decode()
    assert text1 == text2
    assert text1 == json.dumps(json.loads(text1), indent=2, sort_keys=True) + "\n"
    parsed = json.loads(text1)
    assert parsed["config_hash"] == "abc123"
    assert parsed["seeds"] == [0, 1, 2]
    assert parsed["metrics"]["accuracy"] == 0.9917
    assert parsed["frequency"] == [[[0.0, 1.0], [1.0, 0.0]]]
    assert parsed["notes"] == {}
    assert sorted(parsed) == ["T", "config_hash", "cost", "frequency", "metrics", "mode",
                              "notes", "policy", "seeds", "split"]
    assert "throughput" not in text1


def test_build_report_attaches_frequency_and_metrics():
    from fewview import training as tr
    from fewview.envs import ClassificationConfig, ClassificationWorld

    world = ClassificationWorld(ClassificationConfig(n_train=8, n_val=8, n_eval=8, seed=0))
    net = tr.build_classifier(world, hidden=16, feat_dim=8, seed=0)
    run = tr.evaluate_policy(world, net, T=2, policy="random")
    cost = ev.cost_account(world, net, None, T=2)
    report = ev.build_report(run, cost, world.world_hash(), [0])
    assert report["metrics"] == run.metrics()
    freq = np.array(report["frequency"])
    assert freq.shape == (1, 12, 12)
    np.testing.assert_allclose(freq.sum(axis=2), 1.0)
    # full-view runs carry no frequency table
    full = tr.evaluate_policy(world, net, T=12, policy="full-views")
    report_full = ev.build_report(full, ev.cost_account(world, net, None, T=12),
                                  world.world_hash(), [0])
    assert report_full["frequency"] is None
    assert report_full["cost"]["ratio"] == 1.0


# the key columns ``cli.cmd_eval`` heads a frequency table with
FREQUENCY_HEAD = ("step", "initial_view", "selected_view")


def test_frequency_csv_layout():
    freq = np.zeros((1, 2, 2))
    freq[0, 0, 1] = 1.0
    freq[0, 1, 0] = 1.0
    text = ev.table_csv(ev.frequency_rows(freq.tolist()), FREQUENCY_HEAD)
    lines = text.strip().split("\n")
    assert lines[0] == "step,initial_view,selected_view,frequency"
    assert lines[1] == "1,0,0,0.0"
    assert lines[2] == "1,0,1,1.0"
    assert len(lines) == 5


def test_frequency_csv_bytes_at_T_3():
    # three instances of a 3-camera world at T = 3: thirds, whose repr is long
    chosen = np.array([[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                       [[0, 2, 1], [1, 2, 0], [2, 1, 0]],
                       [[0, 1, 2], [1, 0, 2], [2, 0, 1]]])
    freq = ev.policy_frequency(chosen, 3).tolist()
    third, two_thirds = "0.3333333333333333", "0.6666666666666666"
    values = ["0.0", two_thirds, third, third, "0.0", two_thirds, two_thirds, third, "0.0",
              "0.0", third, two_thirds, two_thirds, "0.0", third, third, two_thirds, "0.0"]
    expected = "step,initial_view,selected_view,frequency\n" + "".join(
        f"{t},{v0},{a},{value}\n"
        for (t, v0, a), value in zip(itertools.product((1, 2), range(3), range(3)), values))
    assert ev.table_csv(ev.frequency_rows(freq), FREQUENCY_HEAD).encode("utf-8") == (
        expected.encode("utf-8"))


@pytest.mark.parametrize("head, rows, lines", [
    (("policy",),
     [{"primary": 0.5, "accuracy": 0.1 + 0.2, "policy": "random"},
      {"accuracy": 1.0, "policy": "mvselect", "primary": 1 / 3}],
     ["policy,accuracy,primary", f"random,{0.1 + 0.2!r},0.5", f"mvselect,1.0,{1 / 3!r}"]),
    (("variant",),
     [{"primary": 2 / 3, "variant": "no-camera-branch", "accuracy": 2 / 3}],
     ["variant,accuracy,primary", f"no-camera-branch,{2 / 3!r},{2 / 3!r}"]),
], ids=["random-pose", "ablation"])
def test_table_csv_puts_head_first_then_sorted_keys(head, rows, lines):
    assert ev.table_csv(rows, head) == "".join(line + "\n" for line in lines)


def test_table_csv_rejects_empty_rows():
    with pytest.raises(ConfigError, match="no rows"):
        ev.table_csv([], ("policy",))


def test_table_csv_round_trips_floats():
    rows = [{"T": 2, "accuracy": 0.1 + 0.2}, {"T": 3, "accuracy": 1.0}]
    text = ev.table_csv(rows, ["T", "accuracy"])
    lines = text.strip().split("\n")
    assert lines[0] == "T,accuracy"
    assert lines[1] == f"2,{0.1 + 0.2!r}"

