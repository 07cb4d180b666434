"""Process-parallel shard scanning over a mmap'd feature store."""

from .workers import (
    ShardWorkerPool,
    decode_query,
    encode_query,
    scan_shard_topk,
    scan_shard_topk_batch,
)

__all__ = [
    "ShardWorkerPool",
    "encode_query",
    "decode_query",
    "scan_shard_topk",
    "scan_shard_topk_batch",
]
