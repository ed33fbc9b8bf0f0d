"""Round-trip and byte-stability checks for the binary checkpoint format."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from fewview.artifacts import atomic_write_bytes
from fewview.checkpoint import MAGIC, encode_checkpoint, load_checkpoint
from fewview.errors import CompatibilityError, ShapeError
from fewview.mvselect import QNetwork
from fewview.tasknet import MVDetector


def sample_tensors():
    rng = np.random.default_rng(5)
    return {
        "head.layer0.weight": rng.normal(size=(3, 4)),
        "head.layer0.bias": rng.normal(size=3),
        "scalar": np.array(2.5),
    }


def test_round_trip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = sample_tensors()
    meta = {"world_hash": "abc123", "task": "classification"}
    atomic_write_bytes(path, encode_checkpoint(tensors, meta))
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    assert set(loaded) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], np.asarray(tensors[name], dtype=np.float64))
        assert loaded[name].dtype == np.float64


def test_same_content_same_bytes(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    atomic_write_bytes(a, encode_checkpoint(sample_tensors(), {"k": 1}))
    atomic_write_bytes(b, encode_checkpoint(sample_tensors(), {"k": 1}))
    assert a.read_bytes() == b.read_bytes()


def test_saved_checkpoints_are_synced_before_they_appear(tmp_path, monkeypatch):
    # a manifest may list the file as soon as it exists, so its bytes must
    # reach the disk before the rename makes it visible
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        synced.append(sorted(p.name for p in tmp_path.iterdir()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    net = QNetwork(n_cameras=3, feat_dim=2, hidden=4, seed=0)
    atomic_write_bytes(tmp_path / "q.ckpt", net.encode("w"))
    atomic_write_bytes(tmp_path / "t.ckpt", encode_checkpoint(sample_tensors(), {"k": 1}))
    assert synced == [["q.ckpt.tmp"], ["q.ckpt", "t.ckpt.tmp"]]
    assert (tmp_path / "q.ckpt").read_bytes() == net.encode("w")


def test_header_is_little_endian_and_magic_first(tmp_path):
    path = tmp_path / "m.ckpt"
    atomic_write_bytes(path, encode_checkpoint({"t": np.zeros(2)}, {}))
    raw = path.read_bytes()
    assert raw[: len(MAGIC)] == MAGIC
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])
    assert 0 < hlen < len(raw)


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CompatibilityError):
        load_checkpoint(path)


def test_rejects_future_version(tmp_path):
    path = tmp_path / "v.ckpt"
    header = b'{"version":99,"meta":{},"tensors":[]}'
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header)
    with pytest.raises(CompatibilityError):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.ckpt"
    atomic_write_bytes(path, encode_checkpoint({"t": np.arange(8.0)}, {}))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ShapeError):
        load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "x.ckpt"
    atomic_write_bytes(path, encode_checkpoint({"t": np.arange(4.0)}, {}))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ShapeError):
        load_checkpoint(path)


def test_no_tmp_file_left_behind(tmp_path):
    path = tmp_path / "clean.ckpt"
    atomic_write_bytes(path, encode_checkpoint({"t": np.zeros(1)}, {}))
    assert [p.name for p in tmp_path.iterdir()] == ["clean.ckpt"]


def _framed(header: bytes, length: int | None = None) -> bytes:
    return MAGIC + struct.pack("<Q", len(header) if length is None else length) + header


def _checkpoint_bytes(net, **extra_dims) -> bytes:
    dims = {name: getattr(net, name) for name in net.DIMS}
    return encode_checkpoint(dict(net.named_params()),
                             {"kind": net.kind, "world_hash": "w", "dims": {**dims, **extra_dims}})


def _selector_bytes(**extra_dims) -> bytes:
    return _checkpoint_bytes(QNetwork(n_cameras=3, feat_dim=2, hidden=4, seed=0), **extra_dims)


MALFORMED = {
    "one-byte length field": lambda tmp: MAGIC + b"\x01",
    "header length 2**62": lambda tmp: _framed(b"{}", length=2**62),
    "non-JSON header": lambda tmp: _framed(b"{not json"),
    "non-UTF-8 header": lambda tmp: _framed(b'{"version":1,"meta":{"k":"\xff"}}'),
    "header without tensors": lambda tmp: _framed(b'{"version":1,"meta":{}}'),
    "negative shape": lambda tmp: _framed(
        b'{"version":1,"meta":{},"tensors":[{"name":"t","shape":[-1]}]}'),
    "unknown dims key": lambda tmp: _selector_bytes(depth=3),
    "deeply nested header": lambda tmp: _framed(b"[" * 100_000),
    # 10**16 embedding entries: more than any address space holds, so the
    # allocation fails whatever the host's overcommit policy
    "dims past any address space": lambda tmp: _selector_bytes(n_cameras=10**8, feat_dim=10**8),
    "zero cameras": lambda tmp: _selector_bytes(n_cameras=0),
    "truncated payload": lambda tmp: _selector_bytes()[:-8],
    "trailing bytes": lambda tmp: _selector_bytes() + b"\x00",
    # each dim must be an int, or a bool where it is a flag: "false" is truthy
    "string branch flag": lambda tmp: _selector_bytes(use_feature_branch="false"),
    "int branch flag": lambda tmp: _selector_bytes(use_camera_branch=1),
    "float hidden": lambda tmp: _selector_bytes(hidden=4.0),
    "bool seed on a detector": lambda tmp: _checkpoint_bytes(
        MVDetector(channels=2, feat_dim=2, hidden=3, seed=0), seed=True),
}
# the class each case is loaded as: a selector unless named here
LOADERS = {"bool seed on a detector": MVDetector}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_raises_compatibility_error(tmp_path, case):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MALFORMED[case](tmp_path))
    with pytest.raises(CompatibilityError):
        LOADERS.get(case, QNetwork).load(path)


# the child imports, then caps its own address space at what it holds plus
# 512 MB, so a load that built the 3.2 GB embedding before comparing shapes
# fails as MemoryError instead of filling the machine's memory
_CAPPED_LOAD = """
import resource, sys
from fewview.errors import CompatibilityError
from fewview.mvselect import QNetwork
held = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (held + 2**29, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    QNetwork.load(sys.argv[1])
except CompatibilityError as exc:
    print(exc)
"""


def test_dims_the_tensors_do_not_back_are_rejected_before_allocating(tmp_path):
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc to read the child's address space")
    path = tmp_path / "big.ckpt"
    path.write_bytes(_selector_bytes(n_cameras=20000, feat_dim=20000))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    r = subprocess.run([sys.executable, "-c", _CAPPED_LOAD, str(path)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "tensor 'embeddings' has shape (3, 2), expected (20000, 20000)" in r.stdout
