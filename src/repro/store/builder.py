"""Build a feature store from any :mod:`repro.datasets` dataset.

The builder is the *only* place features are converted: whatever the
source (raw array, ``FeatureDatabase``, ``GaussianSample``), the
vectors pass through :func:`~repro.datasets.matrix.as_feature_matrix`
exactly once and land on disk as float32 C-contiguous shard blocks.
Optional PCA-prefix coarse companions (``coarse_dims`` leading
principal components per shard, plus the projection itself) are
written and CRC-protected like every block; no scan reads them.

Writes are atomic: the store is assembled in a ``.tmp`` sibling and
renamed into place, so a crashed build never leaves a half-written
store where a reader expects one.  Rebuilding over an existing store
bumps the on-disk ``epoch`` (unless the caller pins one), which moves
the store fingerprint and with it every derived cache key.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..core.pca import PCA
from ..datasets.matrix import FEATURE_DTYPE, as_feature_matrix
from .format import (
    BlockEntry,
    StoreHeader,
    align_up,
    block_crc,
    content_hash_of,
    pack_preamble,
    read_preamble,
)

__all__ = ["build_store", "shard_bounds"]

#: Default shard sizing floor — matches the service's thread-scan floor
#: so one shard maps to one worker task of useful size.
_MIN_SHARD_ROWS = 1024


def shard_bounds(n: int, n_shards: int) -> List[int]:
    """Equal-split global-row bounds (length ``n_shards + 1``)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    if n_shards > n:
        raise ValueError(f"cannot cut {n} rows into {n_shards} shards")
    return [int(b) for b in np.linspace(0, n, n_shards + 1, dtype=int)]


def _existing_epoch(path: Path) -> int:
    """The epoch of the store currently at ``path`` (-1 if none)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(1 << 20)
        header, _ = read_preamble(head)
    except (OSError, ValueError):
        return -1
    return header.epoch


def build_store(
    source,
    path: Union[str, Path],
    *,
    n_shards: Optional[int] = None,
    coarse_dims: int = 0,
    labels=None,
    epoch: Optional[int] = None,
) -> Path:
    """Write ``source``'s features to a store file at ``path``.

    Args:
        source: a raw ``(n, p)`` array, a ``FeatureDatabase`` or a
            ``GaussianSample`` — anything
            :func:`~repro.datasets.matrix.as_feature_matrix` accepts.
        path: target file; written atomically via a ``.tmp`` sibling.
        n_shards: shard count; default sizes shards to at least 1024
            rows, capped at 8.
        coarse_dims: width of the PCA-prefix companion blocks
            (0 disables them).
        labels: optional per-row integer labels; defaults to the
            source's own ``labels`` attribute when it has one.
        epoch: pin the store epoch; default is one past the epoch of
            any store already at ``path`` (0 for a fresh path), so a
            rebuild always moves the fingerprint.

    Returns:
        The path written.
    """
    path = Path(path)
    matrix = as_feature_matrix(source)
    n, dimension = matrix.shape
    if n_shards is None:
        n_shards = max(1, min(8, n // _MIN_SHARD_ROWS))
    bounds = shard_bounds(n, n_shards)
    if labels is None:
        labels = getattr(source, "labels", None)
    if epoch is None:
        epoch = _existing_epoch(path) + 1
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    if coarse_dims < 0 or coarse_dims > dimension:
        raise ValueError(f"coarse_dims {coarse_dims} out of range for p={dimension}")

    arrays = []  # (name, C-contiguous array) in on-disk order
    for i in range(n_shards):
        arrays.append((f"shard/{i:04d}", matrix[bounds[i] : bounds[i + 1]]))
    if coarse_dims:
        pca = PCA(n_components=coarse_dims).fit(matrix)
        projected = np.ascontiguousarray(pca.transform(matrix), dtype=FEATURE_DTYPE)
        for i in range(n_shards):
            arrays.append((f"coarse/{i:04d}", projected[bounds[i] : bounds[i + 1]]))
        arrays.append(
            ("coarse/mean", np.ascontiguousarray(pca.mean_, dtype=FEATURE_DTYPE))
        )
        arrays.append(
            (
                "coarse/components",
                np.ascontiguousarray(pca.components_, dtype=FEATURE_DTYPE),
            )
        )
    if labels is not None:
        label_array = np.ascontiguousarray(np.asarray(labels), dtype="<i8")
        if label_array.shape != (n,):
            raise ValueError(
                f"labels must have shape ({n},), got {label_array.shape}"
            )
        arrays.append(("labels", label_array))

    entries = []
    block_bytes = []
    offset = 0
    for name, array in arrays:
        data = array.tobytes()  # C-order snapshot of exactly this block
        entries.append(
            BlockEntry(
                name=name,
                dtype=array.dtype.newbyteorder("<").str,
                shape=tuple(int(s) for s in array.shape),
                offset=offset,
                nbytes=len(data),
                crc32=block_crc(data),
            )
        )
        block_bytes.append(data)
        offset = align_up(offset + len(data))

    header = StoreHeader(
        epoch=int(epoch),
        n=n,
        dimension=dimension,
        dtype=FEATURE_DTYPE.str,
        row_offsets=tuple(bounds),
        coarse_dims=int(coarse_dims),
        blocks=tuple(entries),
        content_hash=content_hash_of(block_bytes),
    )
    header.validate()

    tmp = path.with_suffix(path.suffix + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "wb") as handle:
        handle.write(pack_preamble(header.to_json()))
        position = 0
        for entry, data in zip(entries, block_bytes):
            if entry.offset > position:
                handle.write(b"\x00" * (entry.offset - position))
            handle.write(data)
            position = entry.offset + entry.nbytes
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path
