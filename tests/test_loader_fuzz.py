"""Fuzz tests for the two input loaders: checkpoints and experiment
configs. No command reads a policy table back, so there is no policy-table
loader to fuzz; evaluation checks every table it is handed, whole, before
it featurizes an instance.

Each loader meets random bytes and mutations of a valid file: truncation,
bit flips, key deletion and type swaps. Every input must load cleanly or
raise the loader's documented error class: CompatibilityError for
checkpoints, ConfigError for configs.
"""

import copy
import json
import struct

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fewview.checkpoint import MAGIC
from fewview.config import load_config
from fewview.errors import CompatibilityError, ConfigError
from fewview.mvselect import QNetwork
from fewview.tasknet import MVClassifier, MVDetector

FUZZ = settings(max_examples=200, deadline=None)

# values a type swap puts in place of a key's value; the integers are small,
# or too large for any array size or float, so that no swapped network
# dimension asks for a large allocation
SWAPS = st.sampled_from([None, True, False, -1, 0, 1, 3, 10**400, 2.5, -0.5, float("nan"),
                         float("inf"), "", "x", [], [1, "a"], {}, {"k": 1}])


def paths(node, prefix=()):
    """Every position in a tree of dicts and lists, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, prefix + (i,))


@st.composite
def mutated_tree(draw, tree):
    """``tree`` with one position deleted or replaced by a swap value."""
    spots = list(paths(tree))
    path = spots[draw(st.integers(0, len(spots) - 1))]
    value = draw(SWAPS)
    if not path:
        return value
    out = copy.deepcopy(tree)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@st.composite
def mutated_bytes(draw, payload: bytes):
    """``payload`` cut short, or with one bit flipped."""
    at = draw(st.integers(0, len(payload) - 1))
    if draw(st.booleans()):
        return payload[:at]
    return payload[:at] + bytes([payload[at] ^ (1 << draw(st.integers(0, 7)))]) + payload[at + 1:]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


# ---------------------------------------------------------------------------
# checkpoints

NETWORKS = {
    QNetwork: QNetwork(n_cameras=3, feat_dim=2, hidden=4, seed=0),
    MVClassifier: MVClassifier(obs_dim=3, feat_dim=2, n_classes=2, hidden=3, seed=0),
    MVDetector: MVDetector(channels=2, feat_dim=2, hidden=3, seed=0),
}
VALID_CKPT = {cls: net.encode("w", {"regime": "task"}) for cls, net in NETWORKS.items()}
_PREFIX = len(MAGIC) + 8


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    return json.loads(raw[_PREFIX : _PREFIX + hlen]), raw[_PREFIX + hlen :]


def framed(header, payload: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(text)) + text + payload


def load_or_compatibility_error(cls, path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        cls.load(path)
    except CompatibilityError:
        pass


networks = st.sampled_from(sorted(NETWORKS, key=lambda cls: cls.kind))


@FUZZ
@given(networks, st.one_of(st.binary(max_size=256), st.binary(max_size=256).map(MAGIC.__add__)))
def test_checkpoint_random_bytes(scratch, cls, raw):
    load_or_compatibility_error(cls, scratch, raw)


@FUZZ
@given(networks, st.data())
def test_checkpoint_truncated_or_bit_flipped(scratch, cls, data):
    load_or_compatibility_error(cls, scratch, data.draw(mutated_bytes(VALID_CKPT[cls])))


@FUZZ
@given(networks, st.data())
def test_checkpoint_header_key_deleted_or_type_swapped(scratch, cls, data):
    header, payload = split_checkpoint(VALID_CKPT[cls])
    load_or_compatibility_error(cls, scratch, framed(data.draw(mutated_tree(header)), payload))


# ---------------------------------------------------------------------------
# experiment configs

VALID_CONFIGS = [
    {"world": {"kind": "classification", "n_views": 6, "n_classes": 4, "feat_dim": 12,
               "noise": 0.1, "discriminative_views": [[0, 1], [2, 3]], "seed": 3},
     "network": {"task_hidden": 16, "selector_seed": 1, "use_camera_branch": True},
     "train": {"regime": "task", "epochs": 2, "T": 2, "task_lr": 2e-3,
               "train_view_counts": [1, 2]},
     "eval": {"T": 2, "split": "eval", "T_values": [2, 3], "policies": ["random"],
              "selector_checkpoints": {"2": "q.ckpt"}},
     "output_dir": "runs", "seed": 0},
    {"world": {"kind": "detection", "n_cameras": 4, "grid_h": 16, "grid_w": 16,
               "smooth_sigma": 1.0, "meters_per_cell": 0.25, "occlusion": False},
     "train": {"regime": "joint", "epochs": 1, "T": 2, "task_checkpoint": "t.ckpt",
               "gamma": 0.9},
     "eval": {"policy": "mvselect", "budget": 100}},
]


def load_config_or_config_error(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load_config(path)
    except ConfigError:
        pass


@FUZZ
@given(st.one_of(st.binary(max_size=256),
                 st.text(alphabet="[]{}:,-? \n\"'!&*.0123456789abcknorwx", max_size=256)
                 .map(str.encode)))
def test_config_random_bytes(scratch, raw):
    load_config_or_config_error(scratch, raw)


@FUZZ
@given(st.sampled_from(VALID_CONFIGS), st.data())
def test_config_truncated_or_bit_flipped(scratch, config, data):
    text = yaml.safe_dump(config).encode("utf-8")
    load_config_or_config_error(scratch, data.draw(mutated_bytes(text)))


@FUZZ
@given(st.sampled_from(VALID_CONFIGS), st.data())
def test_config_key_deleted_or_type_swapped(scratch, config, data):
    text = yaml.safe_dump(data.draw(mutated_tree(config)))
    load_config_or_config_error(scratch, text.encode("utf-8"))
