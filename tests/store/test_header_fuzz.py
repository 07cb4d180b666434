"""Untrusted store headers: a typed error or a readable store, nothing else.

A QCSTORE1 file's preamble and JSON header are parsed before any block
is touched, so a malformed header must surface as
:class:`~repro.store.StoreFormatError` from :meth:`FeatureStore.open`.
A store that does open must hand out every shard as a ``(rows, p)``
float32 view — or, when the bytes fail their CRC, raise the typed
:class:`~repro.store.StoreBlockCorrupt` — and ``verify()`` must walk
the block table without crashing.  The named cases below pin the
header shapes that once escaped as ``KeyError``/``ValueError`` or were
accepted; the seeded property test mutates the header JSON and the
preamble of a real store at random.
"""

from __future__ import annotations

import itertools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.store import FeatureStore, StoreBlockCorrupt, StoreFormatError, build_store
from repro.store.format import pack_preamble

_PREAMBLE = struct.Struct("<8sII")
_FILES = itertools.count()


@pytest.fixture(scope="module")
def workspace():
    with tempfile.TemporaryDirectory() as directory:
        yield Path(directory)


@pytest.fixture(scope="module")
def original(workspace):
    """``(header payload, data bytes)`` of a 3-shard store with companions."""
    rng = np.random.default_rng(5)
    path = build_store(
        rng.normal(size=(90, 6)),
        workspace / "original.qcs",
        n_shards=3,
        coarse_dims=2,
        labels=np.arange(90) % 3,
    )
    raw = path.read_bytes()
    _, _, header_len = _PREAMBLE.unpack_from(raw, 0)
    header = raw[_PREAMBLE.size : _PREAMBLE.size + header_len]
    data_start = len(pack_preamble(header))
    return json.loads(header), raw[data_start:]


def write_store(workspace: Path, payload, data: bytes) -> Path:
    """A store file with ``payload`` as its header over the original data.

    Block offsets are relative to the first data byte, so the data
    still lines up when the rewritten header changes length.
    """
    path = workspace / f"mutant-{next(_FILES)}.qcs"
    header = json.dumps(payload, sort_keys=True).encode("utf-8")
    path.write_bytes(pack_preamble(header) + data)
    return path


def assert_typed(path: Path) -> bool:
    """The contract; returns whether the store opened."""
    try:
        store = FeatureStore.open(path)
    except StoreFormatError:
        return False
    for index in range(store.n_shards):
        try:
            shard = store.shard(index)
        except StoreBlockCorrupt:
            continue
        rows = store.row_offsets[index + 1] - store.row_offsets[index]
        assert shard.shape == (rows, store.dimension)
        assert shard.dtype == np.float32
    assert set(store.verify()) == {entry.name for entry in store.header.blocks}
    return True


def block_named(payload, name):
    return next(entry for entry in payload["blocks"] if entry["name"] == name)


def drop_shard(payload):
    payload["blocks"] = [e for e in payload["blocks"] if e["name"] != "shard/0001"]


def empty_table(payload):
    payload["blocks"] = []


def negative_offset(payload):
    block_named(payload, "shard/0000")["offset"] = -64


def unparsable_dtype(payload):
    block_named(payload, "coarse/mean")["dtype"] = "zz"


def negative_nbytes(payload):
    block_named(payload, "labels")["nbytes"] = -8


def wrong_nbytes(payload):
    block_named(payload, "coarse/components")["nbytes"] += 4


def wrong_shard_dtype(payload):
    entry = block_named(payload, "shard/0002")
    entry["dtype"] = "<i4"  # same itemsize, so the size still matches


def infinite_offset(payload):
    block_named(payload, "labels")["offset"] = float("inf")


class TestNamedMalformations:
    @pytest.mark.parametrize(
        "mutate",
        [
            drop_shard,
            empty_table,
            negative_offset,
            unparsable_dtype,
            negative_nbytes,
            wrong_nbytes,
            wrong_shard_dtype,
            infinite_offset,
        ],
    )
    def test_open_raises_store_format_error(self, workspace, original, mutate):
        payload, data = original
        payload = json.loads(json.dumps(payload))
        mutate(payload)
        with pytest.raises(StoreFormatError):
            FeatureStore.open(write_store(workspace, payload, data))

    def test_the_unmutated_store_opens(self, workspace, original):
        payload, data = original
        assert assert_typed(write_store(workspace, payload, data))


JSON_VALUES = hst.one_of(
    hst.none(),
    hst.booleans(),
    hst.integers(-(2**70), 2**70),
    hst.integers(-130, 130),
    hst.floats(allow_nan=True, allow_infinity=True),
    hst.text(max_size=6),
    hst.sampled_from(["<f4", "<f8", "<i8", ">f4", "|u1", "O", "V8", "zz", "U3"]),
    hst.lists(hst.integers(-3, 200), max_size=3),
    hst.dictionaries(hst.text(max_size=3), hst.integers(), max_size=2),
)
TOP_KEYS = ["epoch", "n", "dimension", "dtype", "row_offsets", "coarse_dims",
            "content_hash", "blocks"]
BLOCK_FIELDS = ["name", "dtype", "shape", "offset", "nbytes", "crc32"]
DELETE = object()


@hst.composite
def mutations(draw):
    kind = draw(hst.sampled_from(["top", "block", "drop", "preamble", "header"]))
    if kind == "top":
        return kind, draw(hst.sampled_from(TOP_KEYS)), draw(
            hst.one_of(JSON_VALUES, hst.just(DELETE))
        )
    if kind == "block":
        return kind, (draw(hst.integers(0, 9)), draw(hst.sampled_from(BLOCK_FIELDS))), draw(
            hst.one_of(JSON_VALUES, hst.just(DELETE))
        )
    if kind == "drop":
        return kind, draw(hst.integers(0, 9)), None
    # Raw byte flips: the 16-byte preamble, or anywhere in the JSON.
    return kind, draw(hst.integers(0, 4095)), draw(hst.integers(1, 255))


def apply(workspace, original, mutation_list) -> Path:
    payload, data = original
    payload = json.loads(json.dumps(payload))
    flips = []
    for kind, where, value in mutation_list:
        blocks = payload.get("blocks") if isinstance(payload, dict) else None
        if kind == "top":
            if value is DELETE:
                payload.pop(where, None)
            else:
                payload[where] = value
        elif kind in ("block", "drop") and isinstance(blocks, list) and blocks:
            index = (where[0] if kind == "block" else where) % len(blocks)
            if kind == "drop":
                del blocks[index]
            elif not isinstance(blocks[index], dict):
                continue
            elif value is DELETE:
                blocks[index].pop(where[1], None)
            else:
                blocks[index][where[1]] = value
        elif kind in ("preamble", "header"):
            flips.append((kind, where, value))
    path = write_store(workspace, payload, data)
    if flips:
        raw = bytearray(path.read_bytes())
        _, _, header_len = _PREAMBLE.unpack_from(raw, 0)
        for kind, where, value in flips:
            span = _PREAMBLE.size if kind == "preamble" else header_len
            base = 0 if kind == "preamble" else _PREAMBLE.size
            raw[base + where % span] ^= value
        path.write_bytes(bytes(raw))
    return path


class TestHeaderFuzz:
    @seed(8)
    @given(hst.lists(mutations(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_open_returns_a_readable_store_or_a_typed_error(
        self, workspace, original, mutation_list
    ):
        assert_typed(apply(workspace, original, mutation_list))
