"""Two-tower model: featurization, item tower, user tower, context tower, similarity.

Parameters live in a flat name -> Tensor map partitioned into four named
groups (embeddings, transformer, candidate_tower, loss_params). Forward
passes are batched; a single sample is a batch of one.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .types import EVENT_TYPE_IDS, SIGNALS, UserHistory, check_least

CHECKPOINT_MAGIC = b"TT2R"
CHECKPOINT_VERSION = 2

GROUP_NAMES = ("embeddings", "transformer", "candidate_tower", "loss_params")
EMBED_BATCH = 64  # chunk size of the no-grad embedding passes of scoring and export

# the calibrated logits w_r * r + w_ctx * r_ctx + b, one vector (w_r, w_ctx, b)
# each, loss_params.calib.<k>; continuous fine-tuning freezes the vectors
CALIBRATED = ("pointwise", *SIGNALS)
FROZEN_IN_CONTINUOUS = "loss_params.calib."


@dataclass
class TowerConfig:
    """Shape of both towers, with desk-scale defaults. The item tower is d
    wide, and the user tower keeps max_history + 1 position rows."""

    d: int = 32
    user_layers: int = 2
    user_heads: int = 2
    user_ffn_hidden: int = 0  # 0 -> 4*d
    item_layers: int = 2
    max_history: int = 64
    vocab_size: int = 2048
    n_surfaces: int = 4
    n_devices: int = 2

    def __post_init__(self):
        # 0 layers is a tower: the user tower reads the [CLS] embedding and the
        # item tower the l2-normalized CBOW title
        check_least(vars(self), (("d", 2), ("user_heads", 1), ("max_history", 1),
                                 ("vocab_size", 1), ("user_ffn_hidden", 0), ("user_layers", 0),
                                 ("item_layers", 0)))
        if self.user_ffn_hidden == 0:
            self.user_ffn_hidden = 4 * self.d
        if self.d % self.user_heads != 0:
            raise ValueError("d must be divisible by user_heads")


@dataclass
class ModelParams:
    """All learnable parameters with their group partition."""

    config: TowerConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def group_of(self, name: str) -> str:
        head = name.split(".", 1)[0]
        if head not in GROUP_NAMES:
            raise KeyError(f"parameter {name} outside known groups")
        return head

    def copy(self) -> "ModelParams":
        out = ModelParams(self.config)
        for n, t in self.tensors.items():
            c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out.tensors[n] = c
        return out

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        nonfinite = [n for n, t in self.tensors.items() if not np.isfinite(t.data).all()]
        if nonfinite:
            raise ValueError(f"{path}: refusing to save non-finite values in {nonfinite}")
        buf = io.BytesIO()
        buf.write(CHECKPOINT_MAGIC)
        buf.write(struct.pack("<I", CHECKPOINT_VERSION))
        cfg = json.dumps(asdict(self.config), sort_keys=True).encode("utf-8")
        buf.write(struct.pack("<I", len(cfg)))
        buf.write(cfg)
        buf.write(struct.pack("<I", len(self.tensors)))
        for name, t in self.tensors.items():
            nb = name.encode("utf-8")
            buf.write(struct.pack("<H", len(nb)))
            buf.write(nb)
            buf.write(struct.pack("<B", t.data.ndim))
            for extent in t.data.shape:
                buf.write(struct.pack("<I", extent))
            buf.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read a checkpoint of this version or of version 1, its tensors in
        param_layout order. Any fault, a cut file or bytes after the last
        tensor among them, raises ValueError naming `path`."""
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            return cls._from_bytes(raw)
        except ValueError as exc:  # undecodable names and config blocks too
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def _from_bytes(cls, raw: bytes) -> "ModelParams":
        buf = io.BytesIO(raw)

        def read(n: int) -> bytes:
            if buf.tell() + n > len(raw):
                raise ValueError(f"cut short: {len(raw)} bytes end inside a {n}-byte field "
                                 f"at byte {buf.tell()}")
            return buf.read(n)

        def unpack(fmt: str):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if buf.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        (version,) = unpack("<I")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        (cfg_len,) = unpack("<I")
        block = read(cfg_len)
        try:
            block = dict(json.loads(block.decode("utf-8")))
            # version-1 blocks may name the item width and the position rows
            # too; each must hold the one value the tower takes
            old = {k: block.pop(k) for k in ("item_hidden", "max_positions")
                   if version == 1 and k in block}
            cfg = TowerConfig(**block)
            for key, value in (("item_hidden", cfg.d), ("max_positions", cfg.max_history + 1)):
                if old.get(key, value) != value:
                    raise ValueError(f"{key} = {old[key]!r}, but the tower takes {value}")
        except (TypeError, ValueError) as exc:  # unknown, mistyped or misvalued keys
            raise ValueError(f"bad model config block: {exc}") from None
        (count,) = unpack("<I")
        params = cls(cfg)
        for _ in range(count):
            (nlen,) = unpack("<H")
            name = read(nlen).decode("utf-8")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            data = np.frombuffer(read(4 * math.prod(shape)), dtype="<f4").reshape(shape)
            params.tensors[name] = Tensor(data.astype(np.float64), requires_grad=True)
        if buf.tell() != len(raw):
            raise ValueError(f"{len(raw) - buf.tell()} bytes after the last tensor")
        if version == 1:
            params.tensors = _upgrade_v1(params.tensors)
        layout = {n: shape for n, shape, _init in param_layout(cfg)}
        shapes = {n: t.shape for n, t in params.tensors.items()}
        misfits = sorted(n for n in layout.keys() | shapes.keys() if layout.get(n) != shapes.get(n))
        if misfits:
            raise ValueError(f"tensors {misfits} are missing, unexpected or misshapen for the "
                             "checkpoint's model config")
        nonfinite = [n for n, t in params.tensors.items() if not np.isfinite(t.data).all()]
        if nonfinite:
            raise ValueError(f"non-finite values in {nonfinite}")
        params.tensors = {n: params.tensors[n] for n in layout}
        return params


# version 1 held each calibrated logit as its three scalars, and a key bias
# in each user layer
_V1_SCALARS = {"pointwise": ("alpha_cl", "alpha_ctx", "beta_cl"),
               **{k: (f"gamma.{k}", f"gamma_ctx.{k}", f"beta.{k}") for k in SIGNALS}}


def _upgrade_v1(tensors: dict[str, Tensor]) -> dict[str, Tensor]:
    """A version-1 tensor map as version 2: each logit's three scalars
    stacked into its calibration vector, and no key bias, which the softmax
    cancels whatever its value. A logit missing a scalar keeps the others,
    for the layout check to name."""
    for k, olds in _V1_SCALARS.items():
        if all(f"loss_params.{o}" in tensors for o in olds):
            tensors[f"loss_params.calib.{k}"] = Tensor(np.hstack(
                [tensors.pop(f"loss_params.{o}").data for o in olds]), requires_grad=True)
    return {n: t for n, t in tensors.items() if not n.endswith(".bk")}


NORMAL = "normal"  # a Normal(0, 0.02) draw; any other init is a constant fill


def param_layout(config: TowerConfig) -> list[tuple[str, tuple[int, ...], float | tuple | str]]:
    """Every parameter as (name, shape, init), in the order init_params
    fills them: Normal(0, 0.02) embeddings and linears, identity layer
    norms, identity-like calibration vectors."""
    d, ffn = config.d, config.user_ffn_hidden
    layout = [("embeddings.content", (config.vocab_size, d), NORMAL),
              ("embeddings.position", (config.max_history + 1, d), NORMAL),
              ("embeddings.event_type", (len(EVENT_TYPE_IDS), d), NORMAL),
              ("embeddings.cls", (d,), NORMAL),
              ("embeddings.pre_ln_gain", (d,), 1.0),
              ("embeddings.pre_ln_bias", (d,), 0.0)]

    for i in range(config.user_layers):
        pre = f"transformer.L{i}."
        layout += [(pre + w, (d, d), NORMAL) for w in ("wq", "wk", "wv", "wo")]
        # no key bias: the softmax cancels the q . bk it adds to a query's logits
        layout += [(pre + b, (d,), 0.0) for b in ("bq", "bv", "bo")]
        layout += [(pre + "ln1_gain", (d,), 1.0), (pre + "ln1_bias", (d,), 0.0),
                   (pre + "ffn_w1", (d, ffn), NORMAL), (pre + "ffn_b1", (ffn,), 0.0),
                   (pre + "ffn_w2", (ffn, d), NORMAL), (pre + "ffn_b2", (d,), 0.0),
                   (pre + "ln2_gain", (d,), 1.0), (pre + "ln2_bias", (d,), 0.0)]

    for i in range(config.item_layers):
        pre = f"candidate_tower.L{i}."
        layout += [(pre + "w", (d, d), NORMAL), (pre + "b", (d,), 0.0),
                   (pre + "ln_gain", (d,), 1.0), (pre + "ln_bias", (d,), 0.0)]

    # softplus(tau_raw) = 10 at init
    layout.append(("loss_params.tau_raw", (), float(np.log(np.expm1(10.0)))))
    # every logit starts as r + r_ctx: context weights at 1 with zero tables
    # leave initial predictions unchanged but let gradients reach the tables
    layout += [(f"loss_params.calib.{k}", (3,), (1.0, 1.0, 0.0)) for k in CALIBRATED]
    # +1 row: reserved UNKNOWN id (last)
    layout += [("loss_params.ctx_surface", (config.n_surfaces + 1, 1), 0.0),
               ("loss_params.ctx_device", (config.n_devices + 1, 1), 0.0)]
    return layout


def init_params(config: TowerConfig, seed: int = 0) -> ModelParams:
    """Fill param_layout(config) in order, drawing from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    p = ModelParams(config)
    for name, shape, init in param_layout(config):
        value = rng.normal(0.0, 0.02, size=shape) if init == NORMAL else np.full(shape, init)
        p.tensors[name] = Tensor(value, requires_grad=True)
    return p


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def pad_tokens(token_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token id lists -> (N, L) int64 ids, PAD=0 padded, and their float
    mask (1 for real tokens); L is the longest list, at least 1."""
    lengths = np.array([len(t) for t in token_lists], dtype=np.int64)
    real = np.arange(max(lengths.max(initial=0), 1)) < lengths[:, None]
    ids = np.zeros(real.shape, dtype=np.int64)
    ids[real] = [tok for toks in token_lists for tok in toks]
    return ids, real.astype(np.float64)


def content_embed_batch(ids: np.ndarray, mask: np.ndarray, params: ModelParams) -> Tensor:
    """(..., L) padded token ids -> (..., d) CBOW sums of content rows: the
    one content representation of item titles and history events."""
    rows = ad.gather(params["embeddings.content"], ids)
    rows = ad.mul(rows, Tensor(mask[..., None]))
    return ad.tsum(rows, axis=ids.ndim - 1)


@dataclass
class HistoryBatch:
    """Padded numpy feature arrays for a batch of user histories. Each
    distinct event text is tokenized and padded once, as one row of
    text_ids; text_rows names the row each event slot reads."""

    text_ids: np.ndarray    # (U, L) int64, PAD=0 padded, distinct texts in first-appearance order
    text_mask: np.ndarray   # (U, L) float, 1 for real tokens
    text_rows: np.ndarray   # (B, T) int64, row of text_ids per slot; 0 on padding slots
    pos_ids: np.ndarray     # (B, T) int64, reversed chronology (latest = 0)
    type_ids: np.ndarray    # (B, T) int64
    event_mask: np.ndarray  # (B, T) float, 1 for real events


def batch_histories(histories: list[UserHistory], tokenize_fn: Callable[[str], list[int]],
                    config: TowerConfig) -> HistoryBatch:
    """Keep each history's most recent max_history events, tokenize each
    distinct event text once and pad the histories into dense arrays."""
    windows = [h.events[-config.max_history:] for h in histories]
    lengths = np.array([len(w) for w in windows], dtype=np.int64)
    events = [e for w in windows for e in w]
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(e.text, len(row_of)) for e in events]
    # with no events, one all-PAD row still gives the padding slots a row to read
    text_ids, text_mask = pad_tokens([tokenize_fn(t) for t in row_of] or [[]])
    slots = np.arange(max(lengths.max(initial=0), 1))
    real = slots < lengths[:, None]  # (B, T), events fill each row from the left
    text_rows = np.zeros(real.shape, dtype=np.int64)
    text_rows[real] = rows
    pos_ids = np.where(real, lengths[:, None] - 1 - slots, 0)  # latest event gets 0
    type_ids = np.zeros(real.shape, dtype=np.int64)
    type_ids[real] = [EVENT_TYPE_IDS[e.event_type] for e in events]
    return HistoryBatch(text_ids, text_mask, text_rows, pos_ids, type_ids,
                        real.astype(np.float64))


# ---------------------------------------------------------------------------
# item tower
# ---------------------------------------------------------------------------


def item_tower_forward_batch(title_embeddings: Tensor, params: ModelParams) -> Tensor:
    """Residual-layernorm blocks over CBOW title embeddings (B, d), then
    l2 normalization: x <- LayerNorm(ReLU(Linear(x)) + x)."""
    x = title_embeddings
    for i in range(params.config.item_layers):
        pre = f"candidate_tower.L{i}."
        h = ad.relu(ad.matmul(x, params[pre + "w"], params[pre + "b"]))
        x = ad.layer_norm(h + x, params[pre + "ln_gain"], params[pre + "ln_bias"])
    return ad.l2_normalize(x)


# ---------------------------------------------------------------------------
# user tower
# ---------------------------------------------------------------------------


def encode_events_batch(batch: HistoryBatch, params: ModelParams):
    """Per-event content + position + event-type embeddings, layer-normed;
    [CLS] (not layer-normed) prepended. Returns ((B, T+1, d) tensor,
    (B, T+1) key mask)."""
    B = batch.text_rows.shape[0]
    d = params.config.d
    texts = content_embed_batch(batch.text_ids, batch.text_mask, params)  # (U, d)
    content = ad.gather(texts, batch.text_rows)  # (B, T, d)
    pos = ad.gather(params["embeddings.position"], batch.pos_ids)
    typ = ad.gather(params["embeddings.event_type"], batch.type_ids)
    ev = content + pos + typ
    ev = ad.layer_norm(ev, params["embeddings.pre_ln_gain"], params["embeddings.pre_ln_bias"])
    # zero out padding rows so they cannot leak through attention values
    ev = ad.mul(ev, Tensor(batch.event_mask[..., None]))
    cls = ad.reshape(params["embeddings.cls"], (1, 1, d)) + Tensor(np.zeros((B, 1, d)))
    seq = ad.concat([cls, ev], axis=1)
    mask = np.concatenate([np.ones((B, 1)), batch.event_mask], axis=1)
    return seq, mask


def _split_heads(x: Tensor, B: int, S: int, H: int, dh: int) -> Tensor:
    return ad.transpose(ad.reshape(x, (B, S, H, dh)), (0, 2, 1, 3))


def _cls_rows(x: Tensor) -> Tensor:
    """(B, S, d) -> (B, d): row 0 of each sequence."""
    B, S, d = x.shape
    return ad.gather(ad.reshape(x, (B * S, d)), np.arange(B) * S)


def user_tower_forward_batch(batch: HistoryBatch, params: ModelParams) -> Tensor:
    """Post-norm bidirectional encoder over the event sequence; the
    contextualized [CLS] output, l2-normalized, is the user embedding.

    Only the [CLS] row of the last layer is read out, and within a layer a
    row depends on the other rows only through the keys and values. So the
    last layer keeps keys and values from all S positions but queries from
    the [CLS] row alone and runs its output projection, layer norms and FFN
    on that row: the same embedding as the full layer's row 0, without the
    S - 1 rows nothing reads."""
    cfg = params.config
    seq, mask = encode_events_batch(batch, params)
    B, S = mask.shape
    H, dh = cfg.user_heads, cfg.d // cfg.user_heads
    x = seq
    for i in range(cfg.user_layers):
        pre = f"transformer.L{i}."
        k = _split_heads(ad.matmul(x, params[pre + "wk"]), B, S, H, dh)
        v = _split_heads(ad.matmul(x, params[pre + "wv"], params[pre + "bv"]), B, S, H, dh)
        if i < cfg.user_layers - 1:
            q = _split_heads(ad.matmul(x, params[pre + "wq"], params[pre + "bq"]), B, S, H, dh)
            att = ad.attention(q, k, v, mask=mask)
            att = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (B, S, cfg.d))
        else:
            x = _cls_rows(x)  # (B, d)
            q = ad.reshape(ad.matmul(x, params[pre + "wq"], params[pre + "bq"]), (B, H, 1, dh))
            att = ad.reshape(ad.attention(q, k, v, mask=mask), (B, cfg.d))
        att = ad.matmul(att, params[pre + "wo"], params[pre + "bo"])
        x = ad.layer_norm(x + att, params[pre + "ln1_gain"], params[pre + "ln1_bias"])
        ffn = ad.relu(ad.matmul(x, params[pre + "ffn_w1"], params[pre + "ffn_b1"]))
        ffn = ad.matmul(ffn, params[pre + "ffn_w2"], params[pre + "ffn_b2"])
        x = ad.layer_norm(x + ffn, params[pre + "ln2_gain"], params[pre + "ln2_bias"])
    if cfg.user_layers == 0:
        x = _cls_rows(x)
    return ad.l2_normalize(x)


# ---------------------------------------------------------------------------
# context tower & similarity
# ---------------------------------------------------------------------------


def context_score(surface_ids, device_ids, params: ModelParams) -> Tensor:
    """(N,) sums of two learned scalars, one per surface and one per device.
    An id outside the known ones, negative ones included, takes the reserved
    last (unknown) row."""
    def rows(ids, n_known):
        ids = np.asarray(ids, dtype=np.int64)
        return np.where((ids >= 0) & (ids < n_known), ids, n_known)

    cfg = params.config
    s = ad.gather(params["loss_params.ctx_surface"], rows(surface_ids, cfg.n_surfaces))
    t = ad.gather(params["loss_params.ctx_device"], rows(device_ids, cfg.n_devices))
    return ad.reshape(s + t, (-1,))


def item_context(groups, owner, params: ModelParams, use_context: bool) -> Tensor:
    """(N,) context term of N items, item n shown in groups[owner[n]]: the
    context_score of that group's surface and device, or zeros without the
    context term."""
    if not use_context:
        return Tensor(np.zeros(len(owner)))
    return context_score(np.array([g.surface_id for g in groups])[owner],
                         np.array([g.device_id for g in groups])[owner], params)


def similarity_matrix(users: Tensor, items: Tensor) -> Tensor:
    """(B_u, d) x (B_i, d) -> (B_u, B_i) cosine similarities."""
    return ad.matmul(users, ad.transpose(items, (1, 0)))

