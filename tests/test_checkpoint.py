"""Binary snapshot format: round trips, corruption, version gates."""

import dataclasses
import hashlib
import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokencast import rng
from tokencast.backbone import pretrain_then_freeze
from tokencast.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from tokencast.config import VARIANTS, RunConfig
from tokencast.data import MultivariateSeries, SplitSpec, chronological_split
from tokencast.model import Forecaster


def tiny_cfg(**kw):
    base = dict(lookback=12, horizon=4, dim=8, layers=2, heads=2, ffn_dim=16,
                align_heads=2, rank=2, n_active=3, prompt_buckets=16,
                prompt_max_tokens=8, seed=5)
    base.update(kw)
    return RunConfig(**base)


def trained_model(seed=5, **kw):
    m = Forecaster(tiny_cfg(seed=seed, **kw))
    g = np.random.Generator(np.random.PCG64(77))
    for p in m.trainable().values():
        p.data += g.normal(scale=0.03, size=p.shape)
    return m


def test_round_trip_bit_identical_forward(tmp_path):
    m = trained_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, step=42)
    loaded, meta = load_checkpoint(path)
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 12)) + 2.0
    np.testing.assert_array_equal(m.predict(x), loaded.predict(x))
    assert meta == {"step": 42}


def test_header_with_an_earlier_top_level_seed_loads(tmp_path):
    # earlier builds also wrote the config's seed beside the config; the load ignores it
    m = trained_model()
    header = {"config": dataclasses.asdict(m.cfg), "seed": m.cfg.seed, "step": 3}
    loaded, meta = load_checkpoint(with_header(tmp_path, json.dumps(header).encode()))
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 12))
    np.testing.assert_array_equal(m.predict(x), loaded.predict(x))
    assert meta == {"step": 3}


def test_round_trip_every_tensor_bit_identical(tmp_path):
    m = trained_model(seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    loaded, _ = load_checkpoint(path)
    ours, theirs = m.named_parameters(), loaded.named_parameters()
    assert set(ours) == set(theirs)
    for name in ours:
        np.testing.assert_array_equal(ours[name].data, theirs[name].data)
    # frozen state carried over with the rebuilt backbone
    assert not any(t.requires_grad for t in loaded.backbone.tensors().values())
    assert loaded.backbone.checksum() == m.backbone.checksum()


def test_pretrained_trunk_loads_frozen(tmp_path):
    m = Forecaster(tiny_cfg(pretrain_mode="pretrain_then_freeze"))
    series = MultivariateSeries(name="p", values=np.sin(np.arange(200.0) / 5.0)[:, None])
    view, _, _ = chronological_split(series, SplitSpec(200, 0, 0), lookback=12)
    pretrain_then_freeze(m.backbone, view, lookback=12, horizon=4, steps=2, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    loaded, _ = load_checkpoint(path)
    assert not any(t.requires_grad for t in loaded.backbone.tensors().values())
    assert set(loaded.trainable()) == set(m.trainable())
    assert loaded.parameter_report() == m.parameter_report()


def test_save_is_deterministic(tmp_path):
    m = trained_model()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, m, step=1)
    save_checkpoint(b, m, step=1)
    assert a.read_bytes() == b.read_bytes()


def test_header_inspection(tmp_path):
    m = trained_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m, step=7)
    header = read_header(path)
    assert header["step"] == 7
    assert header["config"]["dim"] == 8
    assert header["config"]["variant"] == "full"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def with_header(tmp_path, header_bytes: bytes):
    """A saved tiny checkpoint whose header JSON is replaced by header_bytes."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, trained_model())
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    edited = tmp_path / "edited.ckpt"
    edited.write_bytes(raw[:8] + struct.pack("<I", len(header_bytes)) + header_bytes
                       + raw[12 + hlen:])
    return edited


def test_corrupt_header_json_rejected(tmp_path):
    path = with_header(tmp_path, b'{"config": {')
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        read_header(path)
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        load_checkpoint(path)


@pytest.mark.parametrize("config_edit, match", [
    ({"bogus": 1}, "bogus"),  # key RunConfig does not have
    ({"heads": 3}, "heads"),  # fails RunConfig.validate()
    ({"frequency": "bogus"}, "frequency"),  # no seasonality, so eval could never run
    # mistyped values pass every bound and fail later: a TypeError in
    # forecast and eval, an IndexError in eval, or "false" read as true
    ({"n_active": 4.0}, "n_active must be of type int"),
    ({"heads": 2.0}, "heads must be of type int"),
    ({"stride": 1.0}, "stride must be of type int"),
    ({"normalize": "false"}, "normalize must be of type bool"),
    # the key of a removed switch, which files of earlier builds hold
    ({"router_activation": "tanh"}, "unexpected keyword argument 'router_activation'"),
], ids=["unknown_key", "heads_not_dividing_dim", "unknown_frequency", "float_n_active",
        "float_heads", "float_stride", "string_normalize", "removed_router_activation"])
def test_invalid_header_config_rejected(tmp_path, config_edit, match):
    header = {"config": {**dataclasses.asdict(tiny_cfg()), **config_edit}, "step": 0}
    path = with_header(tmp_path, json.dumps(header).encode())
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


# The bytes depend only on PCG64 normals and the header JSON, never on BLAS,
# so they pin tensor names, shapes, order and initialization. Version 2
# values: the trunk linears have no bias records, and the header holds
# only the config, with "trunk_dtype": "float64", and the step.
GOLDEN = {
    "full": (2802776, "c96f744680d2839ed698db584d9d2b27b5f8ef4c99374d28723d97529f4fe9e7"),
    "v2_prefix_prompt": (
        2671608, "8c341fa956e787b27feb39037f142f12b916fc2bdaae6601e122d729f95ac2ca"
    ),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_golden_checkpoint_bytes(tmp_path, variant):
    path = tmp_path / "golden.ckpt"
    save_checkpoint(path, Forecaster(RunConfig(variant=variant, seed=0).validate()))
    raw = path.read_bytes()
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == GOLDEN[variant]


@pytest.mark.parametrize("version", [1, VERSION + 1], ids=["v1", "future"])
def test_version_mismatch_rejected(tmp_path, version):
    path = tmp_path / "other.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", version) + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    m = trained_model()
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, m)
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)


def test_unknown_tensor_rejected(tmp_path):
    m = trained_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    raw = bytearray(path.read_bytes())
    # rename the first stored tensor in place; names are sorted so the
    # first record follows magic+version+header+count
    name = sorted(m.named_parameters())[0].encode()
    idx = raw.find(name)
    raw[idx : idx + 2] = b"zz"
    (tmp_path / "renamed.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="unknown tensor|missing tensors"):
        load_checkpoint(tmp_path / "renamed.ckpt")


def test_variant_and_config_survive(tmp_path):
    m = Forecaster(tiny_cfg(variant="v3_static_lora", rank=3))
    path = tmp_path / "v3.ckpt"
    save_checkpoint(path, m)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg.variant == "v3_static_lora"
    assert loaded.cfg.rank == 3
    x = np.random.Generator(np.random.PCG64(1)).normal(size=(2, 2, 12))
    np.testing.assert_array_equal(m.predict(x), loaded.predict(x))


def record_fields(raw: bytes) -> list[dict]:
    """Offsets of each tensor record's fields in a saved checkpoint."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    (count,) = struct.unpack_from("<I", raw, 12 + hlen)
    pos = 12 + hlen + 4
    records = []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        name_at = pos + 2
        ndim = raw[name_at + nlen]
        plen_at = name_at + nlen + 1 + 4 * ndim
        (plen,) = struct.unpack_from("<Q", raw, plen_at)
        records.append({"start": pos, "name_at": name_at, "plen_at": plen_at,
                        "payload_at": plen_at + 8})
        pos = plen_at + 8 + plen
    assert pos == len(raw)
    return records


def framing_offsets(raw: bytes) -> list[int]:
    """Every byte of the binary framing; header JSON and payloads carry no checksum."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    offsets = [*range(12), *range(12 + hlen, 12 + hlen + 4)]  # magic..hlen, count
    for rec in record_fields(raw):
        offsets += range(rec["start"], rec["payload_at"])
    return offsets


@pytest.fixture(scope="module")
def tiny_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "model.ckpt"
    save_checkpoint(path, trained_model())
    return path.read_bytes()


@pytest.fixture(scope="module")
def tiny_f32_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny_f32") / "model.ckpt"
    save_checkpoint(path, trained_model(trunk_dtype="float32"))
    return path.read_bytes()


def test_corrupt_tensor_name_rejected(tmp_path, tiny_bytes):
    raw = bytearray(tiny_bytes)
    raw[record_fields(raw)[0]["name_at"]] = 0xFF  # never valid in UTF-8
    path = tmp_path / "bad_name.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="tensor name"):
        load_checkpoint(path)


@pytest.mark.parametrize("plen", [2**40, 2**64 - 1], ids=["1TiB", "u64_max"])
def test_corrupt_payload_length_rejected_before_reading(tmp_path, tiny_bytes, plen):
    raw = bytearray(tiny_bytes)
    at = record_fields(raw)[0]["plen_at"]
    raw[at : at + 8] = struct.pack("<Q", plen)
    path = tmp_path / "bad_plen.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="payload size mismatch"):
        load_checkpoint(path)


def test_corrupt_header_length_rejected_before_allocating(tmp_path, tiny_bytes):
    raw = bytearray(tiny_bytes)
    raw[8:12] = struct.pack("<I", 0xFFFFFFFF)
    path = tmp_path / "bad_hlen.ckpt"
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            read_header(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def golden_full_bytes(path):
    save_checkpoint(path, Forecaster(RunConfig(variant="full", seed=0).validate()))
    raw = path.read_bytes()
    return len(raw), hashlib.sha256(raw).hexdigest()


def test_no_draws_leaves_generator_untouched():
    gen = rng.generator(3, "probe")
    before = gen.bit_generator.state
    with rng.no_draws():
        out = rng.gaussian(gen, (4, 5), 0.02)
    assert out.shape == (4, 5) and out.dtype == np.float64
    assert gen.bit_generator.state == before
    rng.gaussian(gen, (4, 5), 0.02)
    assert gen.bit_generator.state != before


def test_no_draws_stays_on_its_own_thread(tmp_path):
    got = {}

    def build():
        got["full"] = golden_full_bytes(tmp_path / "thread.ckpt")

    with rng.no_draws():
        worker = threading.Thread(target=build)
        worker.start()
        worker.join(timeout=120)
    assert not worker.is_alive()
    assert got["full"] == GOLDEN["full"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_load_builds_no_generator(tmp_path, monkeypatch, variant):
    m = trained_model(variant=variant)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, m)
    x = np.random.Generator(np.random.PCG64(9)).normal(size=(4, 3, 12))

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load seeded a generator")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "PCG64", refuse)
    loaded, _ = load_checkpoint(path)
    monkeypatch.undo()
    np.testing.assert_array_equal(m.predict(x), loaded.predict(x))
    assert loaded.variant == variant


def test_failed_load_leaves_draws_on(tmp_path):
    # validate() raises inside the load's no-draws block
    header = {"config": {**dataclasses.asdict(tiny_cfg()), "heads": 3}, "step": 0}
    with pytest.raises(CheckpointError):
        load_checkpoint(with_header(tmp_path, json.dumps(header).encode()))
    assert golden_full_bytes(tmp_path / "after.ckpt") == GOLDEN["full"]


@pytest.fixture(scope="module")
def scratch_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edited") / "edited.ckpt"


# Derandomized, so tier-1 runs the same examples every time.
FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)


# Each example edits both tiny files: their record offsets differ, since a
# float32 trunk's payloads are half as long.
@FUZZ
@given(data=st.data())
def test_every_strict_prefix_rejected(tiny_bytes, tiny_f32_bytes, scratch_path, data):
    for dtype, tiny in (("float64", tiny_bytes), ("float32", tiny_f32_bytes)):
        cut = data.draw(st.integers(0, len(tiny) - 1), label=f"{dtype} prefix length")
        scratch_path.write_bytes(tiny[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(scratch_path)


@FUZZ
@given(data=st.data())
def test_every_framing_byte_flip_rejected(tiny_bytes, tiny_f32_bytes, scratch_path, data):
    for dtype, tiny in (("float64", tiny_bytes), ("float32", tiny_f32_bytes)):
        at = data.draw(st.sampled_from(framing_offsets(tiny)), label=f"{dtype} offset")
        flip = data.draw(st.integers(1, 255), label=f"{dtype} xor mask")
        raw = bytearray(tiny)
        raw[at] ^= flip
        scratch_path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(scratch_path)
