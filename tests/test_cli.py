"""Command-line contract tests: exit codes, artifacts, determinism.

Run as subprocesses against a tiny world so each command finishes in about a
second.
"""

import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from fewview import evaluation
from fewview.artifacts import OUTPUT_ROOT_ENV, sha256_file
from fewview.checkpoint import MAGIC
from fewview.envs import DetectionConfig, DetectionWorld
from fewview.tasknet import MVDetector
from testkit import read_policy_table, table_entries


def base_config(tmp: Path) -> dict:
    return {
        "world": {"kind": "classification", "n_views": 6, "n_classes": 4,
                  "feat_dim": 12, "n_train": 40, "n_val": 24, "n_eval": 24,
                  "seed": 3},
        "train": {"regime": "task", "epochs": 8, "T": 6, "task_lr": 2e-3,
                  "train_view_counts": [1, 2, 3, 6]},
        "eval": {"T": 2, "split": "eval"},
        "output_dir": str(tmp / "runs"),
        "seed": 0,
    }


def write_config(tmp: Path, cfg: dict, name: str = "exp.yaml") -> Path:
    path = tmp / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def cli(*argv, env=None, cwd=Path(__file__).resolve().parents[1]):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "fewview.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=full_env)


def run_dir_of(result) -> Path:
    line = [l for l in result.stdout.splitlines() if l.startswith("run directory: ")]
    assert line, result.stdout + result.stderr
    return Path(line[0].split(": ", 1)[1])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One trained task checkpoint and one trained selector checkpoint."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = base_config(tmp)
    cpath = write_config(tmp, cfg)
    r = cli("train", "--config", str(cpath), "--regime", "task")
    assert r.returncode == 0, r.stderr
    task_ckpt = next(run_dir_of(r).glob("task-*.ckpt"))

    cfg["train"].update({"task_checkpoint": str(task_ckpt), "epochs": 6, "T": 2})
    cpath = write_config(tmp, cfg)
    r = cli("train", "--config", str(cpath), "--regime", "select-fixed")
    assert r.returncode == 0, r.stderr
    selector_ckpt = next(run_dir_of(r).glob("selector-*.ckpt"))

    cfg["eval"].update({"task_checkpoint": str(task_ckpt),
                        "selector_checkpoint": str(selector_ckpt)})
    return {"tmp": tmp, "cfg": cfg, "task_ckpt": task_ckpt,
            "selector_ckpt": selector_ckpt}


# ---------------------------------------------------------------------------
# config validation


def test_missing_required_key_names_the_path(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["world"]["kind"]
    r = cli("train", "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2
    assert "world.kind" in r.stderr


def test_unknown_key_rejected_with_path(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["bogus_knob"] = 1
    r = cli("train", "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2
    assert "unknown key: train.bogus_knob" in r.stderr


def test_unparseable_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("world: [unclosed")
    r = cli("train", "--config", str(path))
    assert r.returncode == 2
    assert "YAML" in r.stderr


def test_missing_config_file(tmp_path):
    r = cli("train", "--config", str(tmp_path / "nope.yaml"))
    assert r.returncode == 2
    assert "not found" in r.stderr


def test_config_path_that_is_a_directory_exits_2_before_any_run_directory(tmp_path):
    r = cli("train", "--config", str(tmp_path), "--out", str(tmp_path / "runs"))
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "runs").exists()
    assert f"config file not found: {tmp_path}" in r.stderr


def test_malformed_value_exits_2_naming_the_path(tmp_path):
    cfg = base_config(tmp_path)
    cfg["world"]["n_views"] = "abc"
    r = cli("train", "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2, r.stderr
    assert "world.n_views" in r.stderr


OUT_OF_RANGE = [
    ("network", "task_hidden", 0), ("network", "task_hidden", -1),
    ("network", "task_feat_dim", 0), ("network", "selector_hidden", 0),
    ("train", "task_lr", 0.0), ("train", "selector_lr", -1.0),
    ("train", "epsilon_start", 3.0), ("train", "epsilon_end", -1.0),
]


# the train section is range-checked also by commands that train nothing
@pytest.mark.parametrize("section, key, value, command", [
    *[pytest.param(s, k, v, ["train"], id=f"{s}-{k}-{v}") for s, k, v in OUT_OF_RANGE],
    *[pytest.param(s, k, v, ["eval", "--policy", "full-views"], id=f"eval-{s}-{k}-{v}")
      for s, k, v in OUT_OF_RANGE if s == "train"],
])
def test_out_of_range_value_exits_2_naming_the_key(tmp_path, section, key, value, command):
    cfg = base_config(tmp_path)
    cfg.setdefault(section, {})[key] = value
    r = cli(*command, "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2, r.stderr
    assert key in r.stderr


def test_train_seed_exits_2_naming_the_key(tmp_path):
    # the run seed (top-level seed or --seed) seeds training, so a train
    # section's own seed would be hashed and then ignored
    cfg = base_config(tmp_path)
    cfg["train"]["seed"] = 99
    r = cli("train", "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2, r.stderr
    assert "train.seed" in r.stderr


def test_malformed_eval_value_exits_2_naming_the_path(tmp_path):
    cfg = base_config(tmp_path)
    cfg["eval"]["T"] = "abc"
    r = cli("eval", "--config", str(write_config(tmp_path, cfg)), "--policy", "mvselect")
    assert r.returncode == 2, r.stderr
    assert "eval.T" in r.stderr


def test_select_fixed_without_task_checkpoint_exits_2(tmp_path):
    cfg = base_config(tmp_path)
    r = cli("train", "--config", str(write_config(tmp_path, cfg)),
            "--regime", "select-fixed")
    assert r.returncode == 2
    assert "train.task_checkpoint" in r.stderr


# ---------------------------------------------------------------------------
# training artifacts


def test_rerun_same_config_and_seed_reproduces_checkpoint_hash(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["epochs"] = 3
    cpath = write_config(tmp_path, cfg)
    r1 = cli("train", "--config", str(cpath), "--out", str(tmp_path / "a"))
    r2 = cli("train", "--config", str(cpath), "--out", str(tmp_path / "b"))
    assert r1.returncode == 0 and r2.returncode == 0
    c1 = next(run_dir_of(r1).glob("task-*.ckpt"))
    c2 = next(run_dir_of(r2).glob("task-*.ckpt"))
    assert c1.name == c2.name  # content-addressed: same bytes, same name
    assert sha256_file(c1) == sha256_file(c2)


# every command's run directory holds exactly the files its manifest lists
@pytest.mark.parametrize("command, updates", [
    (["train", "--regime", "task"], {"train": {"epochs": 2}}),
    (["train", "--regime", "select-fixed"], {"train": {"epochs": 1}}),
    (["train", "--regime", "joint"], {"train": {"epochs": 1}}),
    (["eval", "--policy", "mvselect"], {}),
    (["oracle", "--policy", "instance-oracle"], {}),
    (["study", "sweep-T"], {"train": {"epochs": 1}, "eval": {"T_values": [2, 3]}}),
], ids=["train-task", "train-select-fixed", "train-joint", "eval", "oracle", "sweep-T"])
def test_manifest_lists_every_output_with_matching_hash(workspace, tmp_path, command, updates):
    cfg = dict(workspace["cfg"])
    for section, keys in updates.items():
        cfg[section] = dict(cfg[section], **keys)
    r = cli(*command, "--config", str(write_config(tmp_path, cfg, "manifest.yaml")),
            "--out", str(tmp_path / "manifest-run"))
    assert r.returncode == 0, r.stderr
    run_dir = run_dir_of(r)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    files = sorted(p.name for p in run_dir.iterdir() if p.name != "manifest.json")
    listed = [o["path"] for o in manifest["outputs"]]
    assert listed == files
    for entry in manifest["outputs"]:
        assert sha256_file(run_dir / entry["path"]) == entry["sha256"]
    assert manifest["command"] == "-".join(a for a in command if not a.startswith("--"))
    assert manifest["config_hash"]
    assert manifest["seed"] == 0
    assert manifest["timing_seconds"] > 0


def test_metrics_log_is_line_delimited_json(workspace):
    tmp = workspace["tmp"]
    cfg = dict(workspace["cfg"])
    cpath = write_config(tmp, cfg, "metrics.yaml")
    r = cli("train", "--config", str(cpath), "--regime", "task",
            "--out", str(tmp / "metrics-run"))
    assert r.returncode == 0
    lines = (run_dir_of(r) / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == cfg["train"]["epochs"]
    for i, line in enumerate(lines):
        row = json.loads(line)
        assert row["epoch"] == i
        assert "loss" in row


def test_resume_collision_requires_force(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["epochs"] = 2
    cpath = write_config(tmp_path, cfg)
    out = str(tmp_path / "collide")
    r1 = cli("train", "--config", str(cpath), "--out", out)
    assert r1.returncode == 0
    r2 = cli("train", "--config", str(cpath), "--out", out)
    assert r2.returncode == 2
    assert "--force" in r2.stderr
    r3 = cli("train", "--config", str(cpath), "--out", out, "--force")
    assert r3.returncode == 0


def test_output_root_precedence_flag_env_config(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["epochs"] = 2
    cpath = write_config(tmp_path, cfg)
    env_root = tmp_path / "from-env"
    r = cli("train", "--config", str(cpath), env={OUTPUT_ROOT_ENV: str(env_root)})
    assert r.returncode == 0
    assert run_dir_of(r).parent == env_root
    flag_root = tmp_path / "from-flag"
    r = cli("train", "--config", str(cpath), "--out", str(flag_root),
            env={OUTPUT_ROOT_ENV: str(env_root)})
    assert r.returncode == 0
    assert run_dir_of(r).parent == flag_root


# an output root under an existing file is refused before any training
@pytest.mark.parametrize("source", ["output_dir", "--out", OUTPUT_ROOT_ENV])
def test_output_root_under_a_file_exits_2_and_leaves_nothing(tmp_path, source):
    cfg = base_config(tmp_path)
    cfg["train"]["epochs"] = 1
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    root = blocker if source == "--out" else blocker / "runs"
    if source == "output_dir":
        cfg["output_dir"] = str(root)
    cpath = write_config(tmp_path, cfg)
    before = sorted(tmp_path.rglob("*"))
    r = cli("train", "--config", str(cpath), *(["--out", str(root)] if source == "--out" else []),
            env={OUTPUT_ROOT_ENV: str(root)} if source == OUTPUT_ROOT_ENV else None)
    assert r.returncode == 2, r.stderr
    assert f"output path {blocker} exists and is not a directory" in r.stderr
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# evaluation


def test_full_views_report_flags_T_equals_N_and_unit_cost(workspace, tmp_path):
    # full-views runs every camera, so it needs no eval.T and ignores any T
    cfg = dict(workspace["cfg"])
    without_T = dict(cfg, eval={k: v for k, v in cfg["eval"].items() if k != "T"})
    for name, config, flags in (("eval-T", cfg, []), ("no-eval-T", without_T, []),
                                ("flag-T", cfg, ["--T", "2"])):
        cpath = write_config(tmp_path, config, f"{name}.yaml")
        r = cli("eval", "--config", str(cpath), "--policy", "full-views", *flags,
                "--out", str(tmp_path / name))
        assert r.returncode == 0, r.stderr
        report = json.loads(next(run_dir_of(r).glob("report-*.json")).read_text())
        assert report["T"] == 6
        assert report["cost"]["ratio"] == 1.0
        assert report["frequency"] is None


def test_world_hash_mismatch_exits_3_and_prints_both(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["world"] = dict(cfg["world"], seed=4)  # different world, same checkpoint
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "mismatch.yaml")
    r = cli("eval", "--config", str(cpath), "--policy", "mvselect")
    assert r.returncode == 3
    hashes = re.findall(r"[0-9a-f]{64}", r.stderr)
    assert len(hashes) >= 2 and hashes[0] != hashes[1]


def test_malformed_checkpoint_exits_3(workspace, tmp_path):
    bad = tmp_path / "selector-bad.ckpt"
    bad.write_bytes(workspace["selector_ckpt"].read_bytes()[:12])  # length field cut short
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], selector_checkpoint=str(bad))
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "malformed.yaml")
    r = cli("eval", "--config", str(cpath), "--policy", "mvselect")
    assert r.returncode == 3, r.stderr
    assert "compatibility error" in r.stderr


def test_deeply_nested_checkpoint_header_exits_3(workspace, tmp_path):
    bad = tmp_path / "task-deep.ckpt"
    header = b"[" * 100_000
    bad.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], task_checkpoint=str(bad))
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "deep-ckpt.yaml")
    r = cli("eval", "--config", str(cpath), "--policy", "full-views")
    assert r.returncode == 3, r.stderr
    assert "compatibility error" in r.stderr


def test_deeply_nested_config_exits_2(tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 5000)
    r = cli("eval", "--config", str(path), "--policy", "full-views")
    assert r.returncode == 2, r.stderr
    assert "config error" in r.stderr


def test_nan_world_value_exits_2_naming_the_key(tmp_path):
    cfg = base_config(tmp_path)
    cfg["world"]["noise"] = float("nan")
    r = cli("train", "--config", str(write_config(tmp_path, cfg)))
    assert r.returncode == 2, r.stderr
    assert "world.noise" in r.stderr


# the oracle enumeration is checked before the first computation, so even a
# study that trains a selector first leaves no run directory
@pytest.mark.parametrize("command, updates", [
    (["eval", "--policy", "instance-oracle"], {}),
    (["study", "sweep-T"], {"eval": {"T_values": [2], "policies": ["random", "instance-oracle"]}}),
    (["study", "random-pose"], {"world": {"random_pose": True}}),
], ids=["eval-instance-oracle", "sweep-T-oracle", "random-pose"])
def test_enumeration_budget_exceeded_exits_4(workspace, tmp_path, command, updates):
    cfg = dict(workspace["cfg"])
    for section, keys in updates.items():
        cfg[section] = dict(cfg[section], **keys)
    if cfg["world"].get("random_pose"):  # the pose world needs its own task checkpoint
        r = cli("train", "--config", str(write_config(tmp_path, cfg, "pose.yaml")),
                "--regime", "task", "--out", str(tmp_path / "pose"))
        assert r.returncode == 0, r.stderr
        cfg["eval"] = dict(cfg["eval"],
                           task_checkpoint=str(next(run_dir_of(r).glob("task-*.ckpt"))))
    cfg["eval"] = dict(cfg["eval"], budget=10)
    cfg["output_dir"] = str(tmp_path / "runs")
    r = cli(*command, "--config", str(write_config(tmp_path, cfg, "budget.yaml")))
    assert r.returncode == 4, r.stderr
    assert "budget" in r.stderr
    assert not (tmp_path / "runs").exists()


def test_run_failing_mid_computation_leaves_no_run_directory(tmp_path):
    cfg = base_config(tmp_path)
    cfg["train"]["task_lr"] = 1e300
    r = cli("train", "--config", str(write_config(tmp_path, cfg)), "--regime", "task")
    assert r.returncode == 1, r.stderr
    assert "NonFiniteError" in r.stderr
    assert not (tmp_path / "runs").exists()


def test_eval_reports_are_byte_identical_across_reruns(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "det.yaml")
    r1 = cli("eval", "--config", str(cpath), "--policy", "mvselect",
             "--out", str(tmp_path / "r1"))
    r2 = cli("eval", "--config", str(cpath), "--policy", "mvselect",
             "--out", str(tmp_path / "r2"))
    assert r1.returncode == 0 and r2.returncode == 0
    rep1 = next(run_dir_of(r1).glob("report-*.json"))
    rep2 = next(run_dir_of(r2).glob("report-*.json"))
    assert rep1.name == rep2.name
    assert rep1.read_bytes() == rep2.read_bytes()
    f1 = next(run_dir_of(r1).glob("frequency-*.csv"))
    f2 = next(run_dir_of(r2).glob("frequency-*.csv"))
    assert f1.read_bytes() == f2.read_bytes()


def test_eval_frequency_csv_lists_the_report_frequencies(workspace, tmp_path):
    cfg = dict(workspace["cfg"], output_dir=str(tmp_path / "runs"))
    r = cli("eval", "--config", str(write_config(tmp_path, cfg, "freq.yaml")),
            "--policy", "mvselect")
    assert r.returncode == 0, r.stderr
    freq = json.loads(next(run_dir_of(r).glob("report-*.json")).read_text())["frequency"]
    lines = next(run_dir_of(r).glob("frequency-*.csv")).read_text().split("\n")
    assert lines[0] == "step,initial_view,selected_view,frequency"
    assert lines[-1] == ""  # every line ends with a newline
    # T = 2 on the 6-view world: one step of 6 initial views by 6 cameras
    assert lines[1:-1] == [f"{t + 1},{v0},{a},{value!r}"
                           for t, by_v0 in enumerate(freq) for v0, row in enumerate(by_v0)
                           for a, value in enumerate(row)]
    assert len(lines) - 2 == 6 * 6


def test_missing_eval_T_is_named(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["eval"] = {k: v for k, v in cfg["eval"].items() if k != "T"}
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "noT.yaml")
    r = cli("eval", "--config", str(cpath), "--policy", "mvselect")
    assert r.returncode == 2
    assert "eval.T" in r.stderr


def test_unknown_split_exits_2(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], split="test")
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "split.yaml")
    r = cli("eval", "--config", str(cpath), "--policy", "mvselect")
    assert r.returncode == 2, r.stderr
    assert "split" in r.stderr


# every input is read before the run directory is made
@pytest.mark.parametrize("command, section, keys, named", [
    (["study", "sweep-T"], "eval",
     {"T_values": [2], "policies": ["random", "mvselect", "bogus"]}, "eval.policies[2]"),
    (["eval", "--policy", "random"], "eval", {"split": "test"}, "eval.split"),
    (["eval", "--policy", "random"], "eval", {"split": None}, "eval.split"),
    (["eval", "--policy", "random"], "eval", {"task_checkpoint": "no-such-task.ckpt"},
     "checkpoint not found: no-such-task.ckpt"),
    (["train", "--regime", "select-fixed"], "train", {"task_checkpoint": None},
     "train.task_checkpoint"),
    (["train", "--regime", "select-fixed"], "train", {"task_checkpoint": 5},
     "train.task_checkpoint"),
    # ranges: the key tables check them at load, the commands check T and k
    # against the world they build
    (["eval", "--policy", "random"], "eval", {"T": 0}, "eval.T must be at least 1"),
    (["eval", "--policy", "random"], "eval", {"T": 99}, "T=99 is outside the 6-camera layout"),
    (["eval", "--policy", "random", "--T", "0"], "eval", {}, "T=0 is outside"),
    (["oracle", "--policy", "instance-oracle"], "eval", {"budget": -5}, "eval.budget"),
    (["oracle", "--policy", "instance-oracle"], "eval", {"T": 7}, "T=7 is outside"),
    (["study", "shutoff"], "eval", {"k": -1}, "eval.k"),
    (["study", "shutoff"], "eval", {"k": 5}, "disabling 5 cameras leaves fewer"),
    (["study", "sweep-T"], "eval", {"T_values": [2, 7]}, "T=7 is outside"),
    (["train", "--regime", "select-fixed"], "train", {"T": 7}, "T=7 is outside"),
    # world sizes: every split holds an instance, a detection view a channel
    (["train", "--regime", "task"], "train", {"train_view_counts": []},
     "train_view_counts must name at least one view count"),
    (["train", "--regime", "task"], "world", {"n_train": 0}, "n_train must be at least 1"),
    (["eval", "--policy", "random"], "world", {"n_val": 0}, "n_val must be at least 1"),
    (["eval", "--policy", "random"], "world", {"n_eval": 0}, "n_eval must be at least 1"),
    (["eval", "--policy", "random"], "world", {"n_eval": -1}, "n_eval must be at least 1"),
    (["train", "--regime", "task"], "world", {"kind": "detection", "channels": 0},
     "channels must be at least 1"),
    # seeds: NumPy seeds from no negative number
    (["train", "--regime", "task"], None, {"seed": -1}, "seed must be at least 0, got -1"),
    (["train", "--regime", "task", "--seed", "-2"], "train", {}, "--seed must be at least 0"),
    (["eval", "--policy", "random", "--seed", "-5"], "eval", {}, "--seed must be at least 0"),
    (["train", "--regime", "task"], "world", {"seed": -3}, "seed must be at least 0, got -3"),
    (["train", "--regime", "select-fixed"], "network", {"selector_seed": -4},
     "network.selector_seed must be at least 0"),
    # a checkpoint path must name a file
    (["eval", "--policy", "random"], "eval", {"task_checkpoint": "tests"},
     "checkpoint not found: tests"),
], ids=["sweep-policy", "eval-split", "eval-split-null", "eval-missing-task-checkpoint",
        "select-fixed-no-task-checkpoint", "select-fixed-task-checkpoint-int", "eval-T-0",
        "eval-T-99", "eval-cli-T-0", "oracle-budget-negative", "oracle-T-7", "shutoff-k-negative",
        "shutoff-k-too-many", "sweep-T-7", "select-fixed-T-7", "train-view-counts-empty",
        "world-n-train-0",
        "world-n-val-0", "world-n-eval-0", "world-n-eval-negative", "detection-channels-0",
        "seed-negative", "train-cli-seed-negative", "eval-cli-seed-negative",
        "world-seed-negative", "selector-seed-negative", "eval-task-checkpoint-directory"])
def test_bad_eval_names_exit_2_before_any_run_directory(workspace, tmp_path, command,
                                                       section, keys, named):
    cfg = dict(workspace["cfg"])
    # keys that name a world kind replace the world section; others amend it
    # (a section of None: the top level)
    if section is None:
        cfg.update(keys)
    else:
        cfg[section] = keys if "kind" in keys else dict(cfg.get(section) or {}, **keys)
    cfg["output_dir"] = str(tmp_path / "runs")
    r = cli(*command, "--config", str(write_config(tmp_path, cfg, "names.yaml")))
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "runs").exists()
    assert named in r.stderr


# inputs checked against the built world, also before the run directory
@pytest.mark.parametrize("command, updates, named", [
    (["train", "--regime", "task"], {"train": {"train_view_counts": [1, 2, 7]}},
     "train.train_view_counts entries must lie in [1, 6]"),
    (["study", "random-pose"], {}, "world.random_pose"),
    (["study", "sweep-T"], {"eval": {"T_values": [1, 2]}}, "eval.T_values entry 1"),
    (["study", "random-pose"], {"world": {"random_pose": True}, "eval": {"T": 1}}, "eval.T=1"),
    (["study", "ablation"], {"eval": {"T": 1}}, "eval.T=1"),
    (["study", "sweep-T"], {"train": None, "eval": {"T_values": [3]}},
     "sweep needs a selector for T=3"),
], ids=["train-view-counts-7", "random-pose-without-pose", "sweep-T-trains-at-1",
        "random-pose-T-1", "ablation-T-1", "sweep-T-no-selector"])
def test_world_checks_exit_2_before_any_run_directory(workspace, tmp_path, command, updates,
                                                      named):
    cfg = dict(workspace["cfg"])
    for section, keys in updates.items():
        cfg[section] = None if keys is None else dict(cfg[section], **keys)
    cfg["output_dir"] = str(tmp_path / "runs")
    r = cli(*command, "--config", str(write_config(tmp_path, cfg, "late.yaml")))
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "runs").exists()
    assert named in r.stderr


def test_detection_world_trains_and_evaluates_through_the_cli(tmp_path):
    world = {"kind": "detection", "grid_h": 16, "grid_w": 16, "n_cameras": 6,
             "channels": 4, "ring_radius": 12.0, "view_range": 21.0,
             "n_train": 6, "n_val": 4, "n_eval": 8, "seed": 3}
    cfg = {"world": world, "train": {"regime": "task", "epochs": 2, "T": 6},
           "output_dir": str(tmp_path / "runs"), "seed": 0}
    r = cli("train", "--config", str(write_config(tmp_path, cfg)), "--regime", "task")
    assert r.returncode == 0, r.stderr
    task_ckpt = next(run_dir_of(r).glob("task-*.ckpt"))

    cfg["eval"] = {"task_checkpoint": str(task_ckpt)}
    r = cli("eval", "--config", str(write_config(tmp_path, cfg)), "--policy", "full-views")
    assert r.returncode == 0, r.stderr
    report = json.loads(next(run_dir_of(r).glob("report-*.json")).read_text())
    assert report["mode"] == "detection"
    net, _ = MVDetector.load(task_ckpt)
    det_world = DetectionWorld(DetectionConfig(
        **{k: v for k, v in world.items() if k != "kind"}))
    assert report["cost"] == evaluation.cost_account(det_world, net, None, 6).to_dict()


# ---------------------------------------------------------------------------
# oracle and study commands


def test_oracle_table_round_trips(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "oracle.yaml")
    r = cli("oracle", "--config", str(cpath), "--policy", "dataset-oracle", "--T", "2")
    assert r.returncode == 0, r.stderr
    table_path = next(run_dir_of(r).glob("table-dataset-T2-*.json"))
    table = read_policy_table(table_path.read_text())
    assert table.kind == "dataset" and table.T == 2
    assert table.sets.shape == (1, 6, 2)
    assert set(table_entries(table)) == {str(v0) for v0 in range(6)}


def test_sweep_study_single_full_budget_row(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], T_values=[6], policies=["random", "instance-oracle"])
    cfg["train"] = None  # no selector training needed
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "sweep.yaml")
    r = cli("study", "sweep-T", "--config", str(cpath))
    assert r.returncode == 0, r.stderr
    rows = [json.loads(l) for l in
            next(run_dir_of(r).glob("study-sweep-*.jsonl")).read_text().strip().split("\n")]
    assert len(rows) == 2
    assert {row["cost_ratio"] for row in rows} == {1.0}
    assert len({row["primary"] for row in rows}) == 1  # all equal full-view eval
    csv_text = next(run_dir_of(r).glob("study-sweep-*.csv")).read_text()
    assert csv_text.startswith("T,policy,")


@pytest.mark.parametrize("study, ev, glob", [
    ("sweep-T", {"T_values": [2, 3]}, "study-sweep-*.jsonl"),
    ("ablation", {"T": 2}, "study-ablation-*.json"),
])
def test_study_retrains_selectors_without_train_T(workspace, tmp_path, study, ev, glob):
    # each retrained selector trains at a budget of the study, so train.T is
    # not required, and giving it changes no row
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], **ev)
    written = {}
    for name, train in (("without", {"epochs": 1}), ("with", {"epochs": 1, "T": 2})):
        cfg["train"] = train
        cfg["output_dir"] = str(tmp_path / name)
        r = cli("study", study, "--config", str(write_config(tmp_path, cfg, f"{name}.yaml")))
        assert r.returncode == 0, r.stderr
        written[name] = next(run_dir_of(r).glob(glob)).read_bytes()
    assert written["without"] == written["with"]


@pytest.mark.parametrize("study, train, ev, same, glob", [
    ("sweep-T", {"epochs": 1}, {"T_values": [2, 3]},
     {"selector_seed": 0, "use_camera_branch": True}, "study-sweep-*.jsonl"),
    ("ablation", {"epochs": 1}, {"T": 2},
     {"use_camera_branch": False, "use_feature_branch": True}, "study-ablation-*.json"),
], ids=["sweep-T", "ablation"])
def test_study_selectors_take_the_network_section(workspace, tmp_path, study, train, ev, same,
                                                   glob):
    # every selector a study trains takes network.selector_hidden; the
    # builder's defaults named in the config change no byte, and neither do
    # branch flags in the ablation, whose variants set both flags themselves
    cfg = dict(workspace["cfg"], train=train)
    cfg["eval"] = dict(cfg["eval"], **ev)
    written = {}
    for name, network in (("default", {}), ("same", same), ("small", {"selector_hidden": 8})):
        cfg["network"] = network
        cfg["output_dir"] = str(tmp_path / name)
        r = cli("study", study, "--config", str(write_config(tmp_path, cfg, f"{name}.yaml")))
        assert r.returncode == 0, r.stderr
        written[name] = next(run_dir_of(r).glob(glob)).read_bytes()
    assert written["same"] == written["default"] != written["small"]


def test_shutoff_study_emits_ranked_and_random_rows(workspace, tmp_path):
    cfg = dict(workspace["cfg"])
    cfg["eval"] = dict(cfg["eval"], k=2, n_random=2)
    cfg["output_dir"] = str(tmp_path / "runs")
    cpath = write_config(tmp_path, cfg, "shutoff.yaml")
    r = cli("study", "shutoff", "--config", str(cpath))
    assert r.returncode == 0, r.stderr
    out = json.loads(next(run_dir_of(r).glob("study-shutoff-*.json")).read_text())
    assert out["k"] == 2
    assert len(out["ranked"]["disabled"]) == 2
    assert len(out["random"]) == 2
    assert "primary" in out["baseline"]


def test_unknown_study_name_rejected(workspace, tmp_path):
    cpath = write_config(tmp_path, dict(workspace["cfg"]), "bad.yaml")
    r = cli("study", "not-a-study", "--config", str(cpath))
    assert r.returncode == 2  # argparse rejects the choice


def test_help_exits_zero():
    r = cli("--help")
    assert r.returncode == 0
    for sub in ("train", "eval", "study", "oracle"):
        assert sub in r.stdout
