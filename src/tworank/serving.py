"""Batch serving: export all user/item embeddings from a frozen model to
keyed binary files, load them into an in-memory table, and score pairs by
stored-vector inner product. The context tower never participates here.

File format ("EMB1", little-endian): magic, u8 kind (0 user / 1 item),
u32 dim, u64 count, then per record u64 id + dim float32 values.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .autodiff import no_grad
from .model import (ModelParams, TitleEmbedder, batch_histories, content_embed_batch,
                    item_tower_forward_batch, user_tower_forward_batch)
from .types import UserHistory

EMB_MAGIC = b"EMB1"
KIND_USER = 0
KIND_ITEM = 1
_KIND_NAMES = {KIND_USER: "user", KIND_ITEM: "item"}


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


class EmbeddingTable:
    """Immutable id -> unit-norm vector map backed by a hash table."""

    def __init__(self, kind: int, dim: int, ids: np.ndarray, vectors: np.ndarray):
        self.kind = kind
        self.dim = dim
        self.ids = np.asarray(ids, dtype=np.uint64)
        self.vectors = np.asarray(vectors, dtype=np.float32)
        self._index = dict(zip(self.ids.tolist(), range(len(self.ids))))
        if len(self._index) != len(self.ids):
            raise ValueError("duplicate ids in embedding table")

    def __len__(self):
        return len(self.ids)

    def __contains__(self, entity_id: int) -> bool:
        return int(entity_id) in self._index

    def vector(self, entity_id: int) -> np.ndarray:
        row = self._index.get(int(entity_id))
        if row is None:
            raise KeyError(f"unknown {_KIND_NAMES[self.kind]} id {entity_id}")
        return self.vectors[row]

    def save(self, path) -> None:
        records = np.empty(len(self.ids), dtype=_record_dtype(self.dim))
        records["id"], records["vec"] = self.ids, self.vectors
        with open(path, "wb") as fh:
            fh.write(EMB_MAGIC)
            fh.write(struct.pack("<BIQ", self.kind, self.dim, len(self.ids)))
            records.tofile(fh)

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        with open(path, "rb") as fh:
            if fh.read(4) != EMB_MAGIC:
                raise ValueError(f"{path}: not an embedding file (bad magic)")
            kind, dim, count = struct.unpack("<BIQ", fh.read(13))
            record = _record_dtype(dim)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if count * record.itemsize != size:
                raise ValueError(f"{path}: {size} bytes hold no {count} records of dim {dim}")
            records = np.fromfile(fh, dtype=record, count=count)
        return cls(kind, dim, records["id"], records["vec"])


def export_embeddings(params: ModelParams, user_histories: dict[int, UserHistory],
                      titles: dict[int, str], tokenize_fn,
                      batch_size: int = 64) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Compute every user and item embedding with the frozen model.

    Histories must already obey the serving delay rule (the exporter does
    not re-filter). Deterministic given checkpoint and inputs.
    """
    cfg = params.config
    user_ids = sorted(user_histories)
    user_vecs = np.empty((len(user_ids), cfg.d), dtype=np.float32)
    with no_grad():
        for lo in range(0, len(user_ids), batch_size):
            chunk = user_ids[lo: lo + batch_size]
            histories = [user_histories[u].truncated(cfg.max_history) for u in chunk]
            hb = batch_histories(histories, tokenize_fn, cfg)
            user_vecs[lo: lo + len(chunk)] = user_tower_forward_batch(hb, params).data

        item_ids = sorted(titles)
        embedder = TitleEmbedder(titles, tokenize_fn)
        item_vecs = np.empty((len(item_ids), cfg.d), dtype=np.float32)
        # a title is one event's text, so a batch of batch_size * max_history
        # titles holds no more tokens than a full user batch
        item_batch = batch_size * cfg.max_history
        for lo in range(0, len(item_ids), item_batch):
            chunk = item_ids[lo: lo + item_batch]
            content = content_embed_batch(*embedder.batch(chunk), params)
            item_vecs[lo: lo + len(chunk)] = item_tower_forward_batch(content, params).data

    users = EmbeddingTable(KIND_USER, cfg.d, np.array(user_ids), user_vecs)
    items = EmbeddingTable(KIND_ITEM, cfg.d, np.array(item_ids), item_vecs)
    return users, items


def score(user_id: int, item_ids, users: EmbeddingTable, items: EmbeddingTable):
    """Inner products of stored vectors, in input order.

    Returns a list of (item_id, score-or-None, error-or-None); missing ids
    produce an error entry without aborting the batch.
    """
    u = users.vector(user_id).astype(np.float64)
    out = []
    for item_id in item_ids:
        try:
            v = items.vector(item_id).astype(np.float64)
        except KeyError as exc:
            out.append((item_id, None, str(exc)))
            continue
        out.append((item_id, float(u @ v), None))
    return out
