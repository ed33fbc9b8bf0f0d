"""Check that a change keeps the bytes of every CLI artifact.

Usage: python3 scripts/same_artifacts.py PARENT_REV

Runs one classification pipeline (its task training with a view-count mix)
and one detection pipeline from a copy of PARENT_REV and then from this
checkout: ``train`` in all three regimes, ``eval`` of all five policies, both
``oracle`` exports and the ``study`` commands ``sweep-T``, ``shutoff`` and
``ablation``. A third pipeline trains a task network on a pose-randomized
classification world and runs ``study random-pose`` on it. The parent is
copied with ``git archive`` into a temporary directory, removed on exit.
Both sides write under the same output path, one after the other, because
checkpoint paths enter the config hash that reports carry. Every file
except ``manifest.json`` (it carries wall-clock timing) is compared by
sha256; each difference is printed, and any makes the exit status 1.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
POLICIES = ("mvselect", "random", "dataset-oracle", "instance-oracle", "full-views")

# world, network and training keys of each pipeline; a few instances, so a
# pipeline runs in seconds
PIPELINES = {
    "classification": {
        "world": {"kind": "classification", "n_views": 6, "n_classes": 4, "feat_dim": 12,
                  "n_train": 40, "n_val": 24, "n_eval": 24, "seed": 3},
        "task": {"epochs": 4, "task_lr": 2e-3, "train_view_counts": [1, 2, 3, 6]},
    },
    "detection": {
        "world": {"kind": "detection", "grid_h": 16, "grid_w": 16, "n_cameras": 6,
                  "channels": 4, "ring_radius": 12.0, "view_range": 21.0,
                  "n_train": 6, "n_val": 4, "n_eval": 5, "seed": 3},
        "task": {"epochs": 2},
    },
    # a pose world serves only its study
    "random-pose": {
        "world": {"kind": "classification", "n_views": 6, "n_classes": 4, "feat_dim": 12,
                  "n_train": 40, "n_val": 24, "n_eval": 24, "seed": 5, "random_pose": True},
        "task": {"epochs": 4, "task_lr": 2e-3},
    },
}


def run_pipeline(checkout: Path, name: str, spec: dict, work: Path) -> None:
    """Every command of one pipeline, run with ``checkout``'s source; each
    run directory lands under ``work/out``."""
    env = {k: v for k, v in os.environ.items() if k != "FEWVIEW_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(checkout / "src")
    base = {"world": spec["world"], "network": {"selector_hidden": 16},
            "output_dir": str(work / "out"), "seed": 1}

    def cli(step: str, cfg: dict, *argv) -> Path:
        path = work / "configs" / f"{name}-{step}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(cfg))
        r = subprocess.run([sys.executable, "-m", "fewview.cli", *argv, "--config", str(path)],
                           capture_output=True, text=True, cwd=checkout, env=env)
        if r.returncode != 0:
            sys.exit(f"{checkout}: {name} {' '.join(argv)} exited {r.returncode}:\n{r.stderr}")
        line = next(l for l in r.stdout.splitlines() if l.startswith("run directory: "))
        return Path(line.split(": ", 1)[1])

    n_cams = spec["world"].get("n_views", spec["world"].get("n_cameras"))
    task_dir = cli("task", {**base, "train": {"regime": "task", "T": n_cams, **spec["task"]}},
                   "train")
    task = str(next(task_dir.glob("task-*.ckpt")))
    if spec["world"].get("random_pose"):
        study = {"T": 2, "task_checkpoint": task}
        cli("random-pose", {**base, "train": {"epochs": 2}, "eval": study}, "study", "random-pose")
        return
    selection = {"epochs": 2, "T": 2, "task_checkpoint": task}
    select_dir = cli("select-fixed", {**base, "train": selection}, "train", "--regime",
                     "select-fixed")
    selector = str(next(select_dir.glob("selector-*.ckpt")))
    cli("joint", {**base, "train": selection}, "train", "--regime", "joint")
    evaluation = {"T": 2, "task_checkpoint": task, "selector_checkpoint": selector}
    for policy in POLICIES:
        cli(f"eval-{policy}", {**base, "eval": evaluation}, "eval", "--policy", policy)
    for policy in POLICIES[2:4]:
        cli(f"oracle-{policy}", {**base, "eval": evaluation}, "oracle", "--policy", policy)
    # T = 3 has no checkpoint, so the sweep retrains its selector
    sweep = {"T_values": [2, 3, n_cams], "task_checkpoint": task,
             "selector_checkpoints": {"2": selector}}
    cli("sweep-T", {**base, "train": {"epochs": 1}, "eval": sweep}, "study", "sweep-T")
    cli("shutoff", {**base, "eval": {**evaluation, "k": 2, "n_random": 2}}, "study", "shutoff")
    cli("ablation", {**base, "train": {"epochs": 1}, "eval": {"T": 2, "task_checkpoint": task}},
        "study", "ablation")


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` but the manifests, by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", argv[0]], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        results = {}
        for side, checkout in (("parent", parent), ("change", REPO)):
            for name, spec in PIPELINES.items():
                run_pipeline(checkout, name, spec, tmp)
            results[side] = digests(tmp / "out")
            shutil.move(tmp / "out", tmp / f"out-{side}")
    before, after = results["parent"], results["change"]
    differ = [path for path in sorted(before.keys() | after.keys())
              if before.get(path) != after.get(path)]
    for path in differ:
        print(f"differs: {path} (parent {before.get(path, 'missing')[:12]}, "
              f"change {after.get(path, 'missing')[:12]})")
    print(f"{len(before.keys() | after.keys()) - len(differ)} of "
          f"{len(before.keys() | after.keys())} files equal, manifests aside")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
