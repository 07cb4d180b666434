"""The on-disk layout of a Qcluster feature store.

A store file is, in order:

1. a fixed 16-byte preamble: the 8-byte magic ``b"QCSTORE1"``, a
   ``<I`` format version, and the ``<I`` byte length of the JSON
   header that follows;
2. the UTF-8 JSON header (padded with spaces to a 64-byte boundary)
   describing the dataset (``n``, ``dimension``, ``dtype``, ``epoch``),
   the shard partition, and a *block table*;
3. the data blocks themselves, each 64-byte aligned.

Every block-table entry records the block's name, shape, byte length,
byte offset **relative to the first data byte** (so the header's own
length never feeds back into the offsets it describes), and a
``zlib.crc32`` over the block's raw bytes — the same per-payload CRC
discipline the session checkpoints use, so torn writes and bit rot are
caught at read time, block by block.  The header additionally carries a
``content_hash``: a blake2b digest over every block's bytes in table
order.  ``content_hash:epoch`` is the store's *fingerprint* — the salt
the service mixes into result-cache and kernel-cache keys so two
stores (or two epochs of one store) can never alias each other's
cached pages.

Block names are paths in a tiny namespace:

* ``shard/0000`` … — the float32 C-contiguous ``(rows, p)`` feature
  shards, in row order (shard ``i`` holds global rows
  ``[row_offsets[i], row_offsets[i+1])``);
* ``coarse/0000`` … — optional float32 ``(rows, d)`` PCA-prefix
  companions of each shard (written and verified; no scan reads them);
* ``coarse/mean``, ``coarse/components`` — the PCA projection that
  produced them (so a reader can project queries into the same basis);
* ``labels`` — optional int64 category labels.

Integrity checks are *verify-on-first-access*: opening a store reads
only the preamble and header; a block's CRC is checked the first time
that block is handed out (and by ``verify()``, which walks all of
them).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ALIGNMENT",
    "StoreFormatError",
    "BlockEntry",
    "StoreHeader",
    "block_crc",
    "content_hash_of",
    "pack_preamble",
    "read_preamble",
    "align_up",
]

#: File magic: 8 bytes at offset 0.
MAGIC = b"QCSTORE1"

#: On-disk format version (bump on any incompatible layout change).
FORMAT_VERSION = 1

#: Every data block starts on a multiple of this many bytes, so mmap'd
#: float32 views are safely (over-)aligned for vectorized kernels.
ALIGNMENT = 64

#: Element type of every ``shard/NNNN`` block.
SHARD_DTYPE = "<f4"

_PREAMBLE = struct.Struct("<8sII")  # magic, version, header byte length


class StoreFormatError(ValueError):
    """The file is not a store, or its header is malformed/corrupt."""


def align_up(offset: int) -> int:
    """``offset`` rounded up to the next :data:`ALIGNMENT` boundary."""
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def block_crc(data: bytes) -> int:
    """``zlib.crc32`` of a block's raw bytes (unsigned)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def content_hash_of(block_bytes: List[bytes]) -> str:
    """Blake2b digest over every block's bytes, in block-table order."""
    digest = hashlib.blake2b(digest_size=16)
    for data in block_bytes:
        digest.update(data)
    return digest.hexdigest()


@dataclass(frozen=True)
class BlockEntry:
    """One data block in the table.

    Attributes:
        name: namespace path (``shard/0000``, ``coarse/mean``, ...).
        dtype: NumPy dtype string (``"<f4"``, ``"<i8"``).
        shape: the array shape the bytes reassemble into.
        offset: byte offset of the block **relative to data_start**.
        nbytes: exact byte length of the block.
        crc32: ``zlib.crc32`` over the block's bytes.
    """

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    crc32: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    def validate(self) -> None:
        """The entry must describe a readable, aligned numeric array."""
        try:
            dtype = np.dtype(self.dtype)
        except (TypeError, ValueError, OverflowError) as error:
            raise StoreFormatError(
                f"block {self.name} dtype {self.dtype!r} is not a NumPy dtype"
            ) from error
        if dtype.kind not in "biuf":
            raise StoreFormatError(f"block {self.name} dtype {self.dtype!r} is not numeric")
        if self.offset < 0 or self.nbytes < 0 or min(self.shape, default=0) < 0:
            raise StoreFormatError(f"block {self.name} has a negative offset, size or extent")
        if self.offset % ALIGNMENT:
            raise StoreFormatError(
                f"block {self.name} offset {self.offset} is not {ALIGNMENT}-byte aligned"
            )
        size = int(np.prod(self.shape, dtype=object)) * dtype.itemsize
        if size != self.nbytes:
            raise StoreFormatError(f"block {self.name} nbytes {self.nbytes} != shape size {size}")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlockEntry":
        try:
            return cls(
                name=str(data["name"]),
                dtype=str(data["dtype"]),
                shape=tuple(int(s) for s in data["shape"]),
                offset=int(data["offset"]),
                nbytes=int(data["nbytes"]),
                crc32=int(data["crc32"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise StoreFormatError(f"malformed block entry: {data!r}") from error


@dataclass(frozen=True)
class StoreHeader:
    """The JSON header: dataset identity plus the block table.

    Attributes:
        epoch: monotonically bumped by rebuilds of the same logical
            dataset; part of the store fingerprint.
        n: total rows across all shards.
        dimension: feature dimensionality ``p``.
        dtype: element type of the feature shards (``"<f4"``).
        row_offsets: length ``n_shards + 1`` global-row bounds; shard
            ``i`` holds rows ``[row_offsets[i], row_offsets[i+1])``.
        coarse_dims: PCA-prefix width of the coarse blocks (0 = none).
        blocks: the block table, in on-disk order.
        content_hash: blake2b over all block bytes in table order.
    """

    epoch: int
    n: int
    dimension: int
    dtype: str
    row_offsets: Tuple[int, ...]
    coarse_dims: int
    blocks: Tuple[BlockEntry, ...]
    content_hash: str

    @property
    def n_shards(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def fingerprint(self) -> str:
        """``content_hash:epoch`` — the cache-salt identity of this store."""
        return f"{self.content_hash}:{self.epoch}"

    def block(self, name: str) -> BlockEntry:
        for entry in self.blocks:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def has_block(self, name: str) -> bool:
        return any(entry.name == name for entry in self.blocks)

    def to_json(self) -> bytes:
        payload = {
            "epoch": self.epoch,
            "n": self.n,
            "dimension": self.dimension,
            "dtype": self.dtype,
            "row_offsets": list(self.row_offsets),
            "coarse_dims": self.coarse_dims,
            "content_hash": self.content_hash,
            "blocks": [entry.to_dict() for entry in self.blocks],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "StoreHeader":
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreFormatError("store header is not valid JSON") from error
        try:
            header = cls(
                epoch=int(payload["epoch"]),
                n=int(payload["n"]),
                dimension=int(payload["dimension"]),
                dtype=str(payload["dtype"]),
                row_offsets=tuple(int(b) for b in payload["row_offsets"]),
                coarse_dims=int(payload["coarse_dims"]),
                blocks=tuple(
                    BlockEntry.from_dict(entry) for entry in payload["blocks"]
                ),
                content_hash=str(payload["content_hash"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            if isinstance(error, StoreFormatError):
                raise
            raise StoreFormatError("store header is missing required fields") from error
        header.validate()
        return header

    def validate(self) -> None:
        """Structural sanity: bounds, shapes and offsets must cohere."""
        if self.n < 1 or self.dimension < 1:
            raise StoreFormatError(
                f"store must be non-empty, got n={self.n}, p={self.dimension}"
            )
        if len(self.row_offsets) < 2 or self.row_offsets[0] != 0 or self.row_offsets[-1] != self.n:
            raise StoreFormatError(f"bad row offsets {self.row_offsets} for n={self.n}")
        if any(b > a for a, b in zip(self.row_offsets[1:], self.row_offsets)):
            raise StoreFormatError(f"row offsets must be non-decreasing: {self.row_offsets}")
        if self.coarse_dims < 0 or self.coarse_dims > self.dimension:
            raise StoreFormatError(
                f"coarse_dims {self.coarse_dims} out of range for p={self.dimension}"
            )
        for entry in self.blocks:
            entry.validate()
        for i in range(self.n_shards):
            rows = self.row_offsets[i + 1] - self.row_offsets[i]
            name = f"shard/{i:04d}"
            if not self.has_block(name):
                raise StoreFormatError(f"block table has no entry for {name}")
            entry = self.block(name)
            expected = (rows, self.dimension)
            if entry.shape != expected:
                raise StoreFormatError(
                    f"block {entry.name} shape {entry.shape} != expected {expected}"
                )
            if entry.dtype != SHARD_DTYPE:
                raise StoreFormatError(
                    f"block {entry.name} dtype {entry.dtype!r} != {SHARD_DTYPE!r}"
                )


def pack_preamble(header_json: bytes) -> bytes:
    """The fixed preamble plus the space-padded JSON header.

    The returned bytes end exactly at ``data_start`` — the first
    64-byte boundary after the header — so block offsets (relative to
    ``data_start``) can be computed before the header is serialized.
    """
    raw = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_json)) + header_json
    return raw + b" " * (align_up(len(raw)) - len(raw))


def read_preamble(data: bytes) -> Tuple[StoreHeader, int]:
    """Parse ``(header, data_start)`` from the head of a store file."""
    if len(data) < _PREAMBLE.size:
        raise StoreFormatError("file too short to be a feature store")
    magic, version, header_len = _PREAMBLE.unpack_from(data, 0)
    if magic != MAGIC:
        raise StoreFormatError(f"bad magic {magic!r}; not a feature store")
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"unsupported store format version {version} (expected {FORMAT_VERSION})"
        )
    end = _PREAMBLE.size + header_len
    if len(data) < end:
        raise StoreFormatError("store header is truncated")
    header = StoreHeader.from_json(data[_PREAMBLE.size : end])
    return header, align_up(end)
