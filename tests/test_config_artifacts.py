"""Unit tests for experiment-config validation and artifact plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fewview
from fewview import artifacts, cli, training
from fewview.config import MAX_CONFIG_BYTES, load_config, validate_config
from fewview.envs import ClassificationWorld
from fewview.errors import ConfigError


def minimal_raw():
    return {"world": {"kind": "classification"}}


# ---------------------------------------------------------------------------
# config schema


def test_defaults_fill_in_paper_hyperparameters():
    cfg = validate_config(minimal_raw())
    train = dict(cfg.raw["train"] or {})
    assert train == {}  # no train section -> none synthesized
    cfg2 = validate_config({"world": {"kind": "classification"},
                            "train": {"regime": "joint", "epochs": 2, "T": 2}})
    t = cfg2.raw["train"]
    assert t["gamma"] == 0.99
    assert t["epsilon_start"] == 0.95
    assert t["epsilon_end"] == 0.05
    assert t["joint_task_lr_factor"] == pytest.approx(0.2)


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown key: mystery"):
        validate_config({"world": {"kind": "classification"}, "mystery": 1})
    with pytest.raises(ConfigError, match="unknown key: world.flux"):
        validate_config({"world": {"kind": "classification", "flux": 1}})
    with pytest.raises(ConfigError, match="unknown key: eval.turbo"):
        validate_config({"world": {"kind": "classification"}, "eval": {"turbo": 1}})
    with pytest.raises(ConfigError, match="unknown key: network.depth"):
        validate_config({"world": {"kind": "classification"}, "network": {"depth": 9}})


def test_world_kind_required_and_validated():
    with pytest.raises(ConfigError, match="world.kind"):
        validate_config({"world": {}})
    with pytest.raises(ConfigError, match="world.kind"):
        validate_config({"world": {"kind": "surveillance"}})
    with pytest.raises(ConfigError, match="missing required key: world"):
        validate_config({})


def test_world_invariants_run_at_validation_time():
    with pytest.raises(ConfigError):
        validate_config({"world": {"kind": "detection", "min_targets": 0}})


def test_train_config_materializes_and_names_missing_keys():
    cfg = validate_config({"world": {"kind": "classification"},
                           "train": {"regime": "task", "epochs": 3, "T": 12,
                                     "train_view_counts": [1, 2]}})
    tc = cfg.train_config()
    assert tc.train_view_counts == (1, 2)
    assert tc.gamma == 0.99
    cfg2 = validate_config({"world": {"kind": "classification"},
                            "train": {"regime": "task", "T": 2}})
    with pytest.raises(ConfigError, match="missing required key: train.epochs"):
        cfg2.train_config()
    cfg3 = validate_config(minimal_raw())
    with pytest.raises(ConfigError, match="missing required key: train.regime"):
        cfg3.train_config()


def test_require_walks_dotted_paths():
    cfg = validate_config({"world": {"kind": "classification"},
                           "eval": {"T": 3}})
    assert cfg.require("eval.T") == 3
    with pytest.raises(ConfigError, match="missing required key: eval.policy"):
        cfg.require("eval.policy")


def test_config_hash_is_stable_and_covers_defaults():
    a = validate_config({"world": {"kind": "classification"}})
    b = validate_config({"world": {"kind": "classification", "n_views": 12}})
    # n_views=12 is the default, so the normalized configs coincide
    assert a.config_hash == b.config_hash
    c = validate_config({"world": {"kind": "classification", "noise": 0.2}})
    assert c.config_hash != a.config_hash


# config_hash names every run directory and is written into every report,
# so a config that loads keeps its hash
PINNED_HASHES = [
    ({"world": {"kind": "classification"}},
     "f6a141762105911e8c5e7f83fe633d033c54a5e141a00d1a5f2925e617afc963"),
    ({"world": {"kind": "detection", "n_cameras": 4, "grid_h": 16, "grid_w": 16,
                "channels": 4, "ring_radius": 12.0, "view_range": 21, "seed": 3},
      "network": {"task_hidden": None, "task_feat_dim": 8, "selector_hidden": None,
                  "selector_seed": None, "use_camera_branch": None,
                  "use_feature_branch": False},
      "train": {"regime": "joint", "epochs": 2, "T": 2, "task_lr": 1,
                "task_checkpoint": "task.ckpt"},
      "eval": {"policy": "mvselect", "T": 2, "split": "val", "budget": 1000,
               "task_checkpoint": "task.ckpt", "selector_checkpoint": "sel.ckpt",
               "selector_checkpoints": {"2": "sel.ckpt"}, "T_values": [2, 3],
               "policies": ["random", "mvselect"], "k": 1, "n_random": 3,
               "rank_split": "train"},
      "output_dir": "out", "seed": 7},
     "aabff9c30a25dc1c6c5cbc5a2d9242177070163524a37b20e1feaca1d493d94c"),
    ({"world": {"kind": "classification", "n_views": 6, "n_classes": 4,
                "discriminative_views": [[0, 1], [2, 3]]},
      "train": {"regime": "task", "epochs": 3, "T": 6, "train_view_counts": [1, 2, 6]}},
     "e5be7c659cf2e31fd61d12575644efaaec1d7057bfbcd38242566dc11bfeb70f"),
    ({"world": {"kind": "classification", "n_train": 120, "n_val": 60, "n_eval": 80,
                "noise": 0.3},
      "seed": 1, "output_dir": "work",
      "eval": {"T": 2, "task_checkpoint": "task.ckpt", "selector_checkpoint": "selector.ckpt"}},
     "02d4c3dac075bb23c78ba6bb3b3f7b40898f8ab1d993e981bfb2a1fbac638459"),
]


@pytest.mark.parametrize("raw, digest", PINNED_HASHES,
                         ids=["minimal", "detection-every-section", "lists", "cls-cli-eval"])
def test_config_hash_is_pinned(raw, digest):
    assert validate_config(raw).config_hash == digest


def test_world_config_builds_both_kinds():
    cls = validate_config({"world": {"kind": "classification", "n_views": 6,
                                     "n_classes": 4}}).world_config()
    assert cls.n_views == 6
    det = validate_config({"world": {"kind": "detection", "n_cameras": 4}}).world_config()
    assert det.n_cameras == 4


@pytest.mark.parametrize("payload, named", [
    (b"world: {kind: classification, n_views: abc}\n", "world.n_views"),
    (b"world: {kind: detection, grid_h: null}\n", "world.grid_h"),
    (b"world: {kind: classification, discriminative_views: 3}\n", "world.discriminative_views"),
    (b"world: {kind: classification}\nseed: x\n", "seed"),
    (b"world: {kind: classification}\ntrain: {regime: task, epochs: a, T: 2}\n", "train.epochs"),
    ("world: {kind: classification}\noutput_dir: r\xe9sultats\n".encode("latin-1"), "exp.yaml"),
    (b"world: {kind: classification}\neval: {T: abc}\n", "eval.T"),
    (b"world: {kind: classification}\nnetwork: {task_hidden: wide}\n", "network.task_hidden"),
    (b"world: {kind: classification}\nnetwork: {use_camera_branch: 1}\n", "network.use_camera_branch"),
    (b"world: {kind: classification}\n"
     b"network: {use_camera_branch: false, use_feature_branch: false}\n",
     "network.use_camera_branch and network.use_feature_branch are both false"),
    (b"world: {kind: classification}\neval: {T_values: [2, three]}\n", r"eval.T_values\[1\]"),
    (b"world: {kind: classification}\neval: {policies: random}\n", "eval.policies"),
    (b"world: {kind: classification}\nnetwork: {task_hidden: 0}\n", "network.task_hidden"),
    (b"world: {kind: classification}\nnetwork: {selector_hidden: -3}\n", "network.selector_hidden"),
    (b"world: {kind: classification, noise: .nan}\n", "world.noise"),
    (b"world: {kind: classification, margin: .nan}\n", "world.margin"),
    (b"world: {kind: detection, smooth_sigma: .nan}\n", "world.smooth_sigma"),
    (b"world: {kind: detection, meters_per_cell: .inf}\n", "world.meters_per_cell"),
    (b"world: {kind: classification, noise: 1" + b"0" * 400 + b"}\n", "world.noise"),
    (b"world: {kind: classification}\ntrain: {regime: task, epochs: 1, T: 2, task_lr: .inf}\n",
     "train.task_lr"),
    (b"[" * 5000, "YAML"),
    (b"world: {kind: classification}\noutput_dir: 2020-13-45\n", "YAML"),
    (b"world: {kind: classification}\noutput_dir: 2020-01-01\n", "output_dir"),
    (b"world: {kind: classification}\neval: {selector_checkpoints: {1: a, b: c}}\n",
     "eval.selector_checkpoints"),
    (b"world: {kind: classification}\neval: {selector_checkpoints: {'2': 3}}\n",
     "eval.selector_checkpoints.2"),
    *[(b"world: {kind: classification}\neval: {%s: null}\n" % key.encode(), f"eval.{key}")
      for key in ("split", "rank_split", "budget", "k", "n_random")],
    (b"world: {kind: classification}\ntrain: {task_checkpoint: 5}\n", "train.task_checkpoint"),
    *[(b"world: {kind: classification}\neval: {%s}\n" % entry.encode(), named)
      for entry, named in (("T: 0", "eval.T"), ("T: -3", "eval.T"), ("budget: 0", "eval.budget"),
                           ("budget: -5", "eval.budget"), ("k: -1", "eval.k"),
                           ("n_random: -1", "eval.n_random"),
                           ("T_values: [2, 0]", r"eval.T_values\[1\]"))],
    (b"world: {kind: classification}\nseed: -1\n", "seed must be at least 0"),
    (b"world: {kind: detection, seed: -3}\n", "seed must be at least 0"),
    (b"world: {kind: classification}\nnetwork: {selector_seed: -4}\n", "network.selector_seed"),
], ids=["n_views abc", "grid_h null", "discriminative_views 3", "seed x", "epochs a", "not UTF-8",
        "T abc", "task_hidden wide", "use_camera_branch 1", "both branches off",
        "T_values item", "policies scalar",
        "task_hidden 0", "selector_hidden -3", "noise nan", "margin nan", "smooth_sigma nan",
        "meters_per_cell inf", "noise 10**400", "task_lr inf", "deeply nested", "impossible date",
        "output_dir date", "selector_checkpoints mixed keys", "selector_checkpoints int path",
        "split null", "rank_split null", "budget null", "k null", "n_random null",
        "task_checkpoint 5", "T 0", "T -3", "budget 0", "budget -5", "k -1", "n_random -1",
        "T_values item 0", "seed -1", "world seed -3", "selector_seed -4"])
def test_malformed_config_values_name_their_path(tmp_path, payload, named):
    path = tmp_path / "exp.yaml"
    path.write_bytes(payload)
    with pytest.raises(ConfigError, match=named):
        load_config(path)


def test_config_files_larger_than_the_limit_are_refused_before_parsing(tmp_path):
    # libyaml composes nested nodes by C recursion; every level takes a byte,
    # so the size limit keeps a deep file from overflowing the stack
    path = tmp_path / "exp.yaml"
    head = b"world: {kind: classification}\n"
    path.write_bytes(head + b"#" * (MAX_CONFIG_BYTES - len(head) - 1) + b"\n")
    assert load_config(path).raw["world"]["kind"] == "classification"
    path.write_bytes(head + b"#" * (MAX_CONFIG_BYTES - len(head)) + b"\n")
    with pytest.raises(ConfigError, match=f"larger than {MAX_CONFIG_BYTES} bytes"):
        load_config(path)
    # deep enough to overflow an 8 MiB stack in libyaml's composer
    path.write_bytes(b"[" * 30_000 + b"]" * 30_000)
    code = ("import sys\nfrom fewview.config import load_config\nfrom fewview.errors import "
            "ConfigError\ntry:\n    load_config(sys.argv[1])\nexcept ConfigError as exc:\n"
            "    print(exc)\n")
    r = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(Path(fewview.__file__).parents[1])})
    assert r.returncode == 0, r.stderr
    assert "larger than" in r.stdout


def test_null_network_and_eval_values_stay_unset():
    raw = {"world": {"kind": "classification"},
           "network": {"task_hidden": None, "selector_seed": None},
           "eval": {"T": None, "policy": None}}
    cfg = validate_config(raw)
    assert cfg.raw["network"]["task_hidden"] is None
    with pytest.raises(ConfigError, match="missing required key: eval.T"):
        cfg.require("eval.T")


def test_null_network_values_take_the_builder_defaults():
    cfg = validate_config({"world": {"kind": "classification", "n_views": 4, "n_classes": 2,
                                     "n_train": 2, "n_val": 2, "n_eval": 2},
                           "network": {"task_hidden": None, "use_camera_branch": None}})
    world = ClassificationWorld(cfg.world_config())
    task_net = cli._build_task_net(cfg, world, seed=0)
    assert task_net.hidden == training.build_classifier(world).hidden
    q = training.build_selector(world, task_net, **cli._selector_args(cfg, seed=0))
    assert q.use_camera_branch is True and q.use_feature_branch is True


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "ghost.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("[:::")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(scalar)


# ---------------------------------------------------------------------------
# artifacts


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = artifacts.atomic_write_bytes(tmp_path / "deep" / "a.txt", b"hello")
    assert path.read_bytes() == b"hello"
    assert list(path.parent.glob("*.tmp")) == []


def test_content_addressed_names_equal_bytes():
    n1 = artifacts.content_name("report", ".json", b"{}")
    n2 = artifacts.content_name("report", ".json", b"{}")
    n3 = artifacts.content_name("report", ".json", b"{1}")
    assert n1 == n2
    assert n1 != n3
    assert n1 == f"report-{artifacts.sha256_bytes(b'{}')[:12]}.json"


def test_write_run_lists_exactly_its_files_and_writes_the_manifest_last(tmp_path, monkeypatch):
    written, write = [], artifacts.atomic_write_bytes

    def recording_write(path, payload):
        written.append(path.name)
        return write(path, payload)

    monkeypatch.setattr(artifacts, "atomic_write_bytes", recording_write)
    run_dir = tmp_path / "run"
    head = {"command": "train", "config": {}, "config_hash": "x", "seed": 0,
            "timing_seconds": 1.5}
    outputs = artifacts.write_run(run_dir, {"b.txt": b"data", "a.ckpt": b"\x00\x01"}, head)
    assert written[-1] == artifacts.MANIFEST_NAME
    assert sorted(written[:-1]) == ["a.ckpt", "b.txt"]
    loaded = json.loads((run_dir / artifacts.MANIFEST_NAME).read_text())
    assert loaded == {**head, "tool_version": fewview.__version__, "outputs": outputs}
    assert [o["path"] for o in outputs] == ["a.ckpt", "b.txt"]
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "a.ckpt", "b.txt", artifacts.MANIFEST_NAME]
    for entry in outputs:  # hashed as read back from disk
        assert entry["sha256"] == artifacts.sha256_file(run_dir / entry["path"])
    assert outputs[1]["sha256"] == artifacts.sha256_bytes(b"data")


def test_run_directory_collision_semantics(tmp_path):
    root = tmp_path / "runs"
    d1 = artifacts.run_directory(root, "train", "abcdef123456", 0, force=False)
    # only the path: no file, no directory
    assert d1 == root / "train-abcdef123456-s0"
    assert not root.exists()
    artifacts.atomic_write_bytes(d1 / "metrics.jsonl", b"")
    assert d1.is_dir()
    # no manifest yet: re-entry is fine (an interrupted run is resumable)
    d2 = artifacts.run_directory(root, "train", "abcdef123456", 0, force=False)
    assert d1 == d2
    artifacts.write_run(d1, {"metrics.jsonl": b""}, {})
    with pytest.raises(ConfigError, match="--force"):
        artifacts.run_directory(root, "train", "abcdef123456", 0, force=False)
    d3 = artifacts.run_directory(root, "train", "abcdef123456", 0, force=True)
    assert d3 == d1
    assert sorted(p.name for p in d1.iterdir()) == [artifacts.MANIFEST_NAME, "metrics.jsonl"]


def test_jsonl_rows_are_sorted_and_line_delimited():
    text = artifacts.jsonl([{"b": 1, "a": 2}, {"x": 0.5}])
    lines = text.strip().split("\n")
    assert lines[0] == '{"a": 2, "b": 1}'
    assert json.loads(lines[1]) == {"x": 0.5}


def test_output_root_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(artifacts.OUTPUT_ROOT_ENV, raising=False)
    assert artifacts.output_root(None, "cfgdir") == artifacts.Path("cfgdir")
    monkeypatch.setenv(artifacts.OUTPUT_ROOT_ENV, "envdir")
    assert artifacts.output_root(None, "cfgdir") == artifacts.Path("envdir")
    assert artifacts.output_root("flagdir", "cfgdir") == artifacts.Path("flagdir")
