"""Batch serving: export all user/item embeddings from a frozen model to
keyed binary files, load them into an in-memory table, and score pairs by
stored-vector inner product. The context tower never participates here.

File format ("EMB1", little-endian): magic, u8 kind (0 user / 1 item), u32
dim, u64 count, then by strictly increasing id: u64 id + dim float32 values.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .autodiff import no_grad
from .model import (EMBED_BATCH, ModelParams, batch_histories, content_embed_batch,
                    item_tower_forward_batch, pad_tokens, user_tower_forward_batch)
from .types import UserHistory

EMB_MAGIC = b"EMB1"
KIND_USER = 0
KIND_ITEM = 1
KIND_NAMES = {KIND_USER: "user", KIND_ITEM: "item"}


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


class EmbeddingTable:
    """Immutable id -> unit-norm vector map; ids strictly increase."""

    def __init__(self, kind: int, dim: int, ids: np.ndarray, vectors: np.ndarray):
        if kind not in KIND_NAMES:
            raise ValueError(f"kind {kind} is neither {KIND_USER} (user) nor {KIND_ITEM} (item)")
        if dim < 1:
            raise ValueError(f"dim {dim} holds no vector; a table's dim is at least 1")
        self.kind = kind
        self.dim = dim
        # contiguous, so that searchsorted reads it without a copy per lookup
        self.ids = np.ascontiguousarray(ids, dtype=np.uint64)
        self.vectors = np.asarray(vectors, dtype=np.float32)
        if self.vectors.shape != (len(self.ids), dim):
            raise ValueError(f"vectors of shape {self.vectors.shape} do not hold "
                             f"{len(self.ids)} ids of dim {dim}")
        if not (self.ids[1:] > self.ids[:-1]).all():
            raise ValueError("ids are not strictly increasing")
        if not np.isfinite(self.vectors).all():
            raise ValueError("a vector holds a NaN or infinite value")

    def __len__(self):
        return len(self.ids)

    def __contains__(self, entity_id: int) -> bool:
        return bool(self._rows([entity_id])[0] >= 0)

    def _rows(self, keys) -> np.ndarray:
        """Row of each id in `keys` by binary search, -1 where the table holds none."""
        q = np.asarray(keys)
        # no ids, or ids no int64 or uint64 array holds: compare them as Python ints
        q = q if q.dtype.kind in "iu" else np.asarray(keys, dtype=object)
        held = (q >= 0) & (q < 1 << 64)
        q = np.where(held, q, 0).astype(np.uint64)
        pos = np.searchsorted(self.ids, q)
        held &= pos < len(self.ids)
        held[held] = self.ids[pos[held]] == q[held]
        return np.where(held, pos, -1)

    def _missing(self, entity_id) -> str:
        return f"unknown {KIND_NAMES[self.kind]} id {entity_id}"

    def vector(self, entity_id: int) -> np.ndarray:
        row = self._rows([entity_id])[0]
        if row < 0:
            raise KeyError(self._missing(entity_id))
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
            try:
                if fh.read(4) != EMB_MAGIC:
                    raise ValueError("not an embedding file (bad magic)")
                header = fh.read(13)
                if len(header) != 13:
                    raise ValueError(f"cut short in the header ({len(header)} of 13 bytes)")
                kind, dim, count = struct.unpack("<BIQ", header)
                record = _record_dtype(dim)
                size = os.fstat(fh.fileno()).st_size - fh.tell()
                if count * record.itemsize != size:
                    raise ValueError(f"{size} bytes hold no {count} records of dim {dim}")
                records = np.fromfile(fh, dtype=record, count=count)
                return cls(kind, dim, records["id"], records["vec"])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def export_embeddings(params: ModelParams, user_histories: dict[int, UserHistory],
                      titles: list[str],
                      tokenize_fn) -> tuple[EmbeddingTable, EmbeddingTable]:
    """Compute every user and item embedding with the frozen model; item i's
    title is titles[i], and the items are 0 .. len(titles) - 1.

    Histories must already obey the serving delay rule (the exporter does
    not re-filter). Deterministic given checkpoint and inputs.
    """
    cfg = params.config
    user_ids = sorted(user_histories)
    user_vecs = np.empty((len(user_ids), cfg.d), dtype=np.float32)
    with no_grad():
        for lo in range(0, len(user_ids), EMBED_BATCH):
            chunk = user_ids[lo: lo + EMBED_BATCH]
            hb = batch_histories([user_histories[u] for u in chunk], tokenize_fn, cfg)
            user_vecs[lo: lo + len(chunk)] = user_tower_forward_batch(hb, params).data

        item_vecs = np.empty((len(titles), cfg.d), dtype=np.float32)
        # a title is one event's text, so a batch of EMBED_BATCH * max_history
        # titles holds no more tokens than a full user batch
        item_batch = EMBED_BATCH * cfg.max_history
        for lo in range(0, len(titles), item_batch):
            chunk = range(lo, min(lo + item_batch, len(titles)))
            ids, mask = pad_tokens([tokenize_fn(titles[i]) for i in chunk])
            content = content_embed_batch(ids, mask, params)
            item_vecs[lo: lo + len(chunk)] = item_tower_forward_batch(content, params).data

    users = EmbeddingTable(KIND_USER, cfg.d, np.array(user_ids), user_vecs)
    items = EmbeddingTable(KIND_ITEM, cfg.d, np.arange(len(titles)), item_vecs)
    return users, items


def score(user_id: int, item_ids, users: EmbeddingTable, items: EmbeddingTable):
    """Inner products of stored vectors, in input order.

    Returns a list of (item_id, score-or-None, error-or-None); missing ids
    produce an error entry without aborting the batch.
    """
    u = users.vector(user_id).astype(np.float64)
    rows = items._rows(item_ids)
    known = rows >= 0
    values = np.zeros(len(rows))
    values[known] = items.vectors[rows[known]].astype(np.float64) @ u
    return [(item_id, value, None) if k else (item_id, None, items._missing(item_id))
            for item_id, value, k in zip(item_ids, values.tolist(), known.tolist())]
