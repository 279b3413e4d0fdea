"""Two-tower model: item tower, user tower, context tower, similarity.

Parameters live in a flat name -> Tensor map partitioned into four named
groups (embeddings, transformer, candidate_tower, loss_params). Forward
passes are batched; single-sample wrappers exist for the unit contracts.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .types import EVENT_TYPE_IDS, ContextFeatures, UserHistory

CHECKPOINT_MAGIC = b"TT2R"
CHECKPOINT_VERSION = 1

GROUP_NAMES = ("embeddings", "transformer", "candidate_tower", "loss_params")

# calibration scalars frozen during continuous fine-tuning (sigmoid inner
# parameters of the pointwise and pairwise losses)
FROZEN_IN_CONTINUOUS = ("loss_params.alpha", "loss_params.beta", "loss_params.gamma")


@dataclass
class TowerConfig:
    """Shape of both towers. Desk-scale defaults; the production-scale
    reference configuration is available via `TowerConfig.paper()`."""

    d: int = 32
    user_layers: int = 2
    user_heads: int = 2
    user_ffn_hidden: int = 0  # 0 -> 4*d
    item_layers: int = 2
    item_hidden: int = 0  # 0 -> d; residual blocks require width d
    max_history: int = 64
    max_positions: int = 0  # 0 -> max_history + 1
    vocab_size: int = 2048
    n_surfaces: int = 4
    n_devices: int = 2

    def __post_init__(self):
        if self.user_ffn_hidden == 0:
            self.user_ffn_hidden = 4 * self.d
        if self.item_hidden == 0:
            self.item_hidden = self.d
        if self.max_positions == 0:
            self.max_positions = self.max_history + 1
        if self.d % self.user_heads != 0:
            raise ValueError("d must be divisible by user_heads")
        if self.item_hidden != self.d:
            raise ValueError("item tower residual blocks require item_hidden == d")
        if self.max_positions < self.max_history + 1:
            raise ValueError("max_positions must be >= max_history + 1")

    @classmethod
    def paper(cls) -> "TowerConfig":
        """Reference configuration at production scale: 4-layer encoder,
        hidden size 256, 4 heads; 4-layer candidate tower; 1024-event
        histories."""
        return cls(d=256, user_layers=4, user_heads=4, item_layers=4,
                   max_history=1024, vocab_size=103295)


@dataclass
class ModelParams:
    """All learnable parameters with their group partition."""

    config: TowerConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def group_of(self, name: str) -> str:
        head = name.split(".", 1)[0]
        if head not in GROUP_NAMES:
            raise KeyError(f"parameter {name} outside known groups")
        return head

    def group(self, group_name: str) -> dict[str, Tensor]:
        return {n: t for n, t in self.tensors.items() if self.group_of(n) == group_name}

    def copy(self) -> "ModelParams":
        out = ModelParams(self.config)
        for n, t in self.tensors.items():
            c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
            out.tensors[n] = c
        return out

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
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
    def load(cls, path, dtype=np.float64) -> "ModelParams":
        with open(path, "rb") as fh:
            raw = fh.read()
        buf = io.BytesIO(raw)
        if buf.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", buf.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", buf.read(4))
        cfg = TowerConfig(**json.loads(buf.read(cfg_len).decode("utf-8")))
        (count,) = struct.unpack("<I", buf.read(4))
        params = cls(cfg)
        for _ in range(count):
            (nlen,) = struct.unpack("<H", buf.read(2))
            name = buf.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", buf.read(1))
            shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(buf.read(4 * n), dtype="<f4").reshape(shape)
            params.tensors[name] = Tensor(data.astype(dtype), requires_grad=True)
        return params


def init_params(config: TowerConfig, seed: int = 0, dtype=np.float64) -> ModelParams:
    """Normal(0, 0.02) embeddings and linears, identity layer norms,
    identity-like calibration scalars."""
    rng = np.random.default_rng(seed)
    p = ModelParams(config)
    d = config.d

    def par(name, value):
        p.tensors[name] = Tensor(np.asarray(value, dtype=dtype), requires_grad=True)

    def normal(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    par("embeddings.content", normal(config.vocab_size, d))
    par("embeddings.position", normal(config.max_positions, d))
    par("embeddings.event_type", normal(len(EVENT_TYPE_IDS), d))
    par("embeddings.cls", normal(d))
    par("embeddings.pre_ln_gain", np.ones(d))
    par("embeddings.pre_ln_bias", np.zeros(d))

    for i in range(config.user_layers):
        pre = f"transformer.L{i}."
        for w in ("wq", "wk", "wv", "wo"):
            par(pre + w, normal(d, d))
        for b in ("bq", "bk", "bv", "bo"):
            par(pre + b, np.zeros(d))
        par(pre + "ln1_gain", np.ones(d))
        par(pre + "ln1_bias", np.zeros(d))
        par(pre + "ffn_w1", normal(d, config.user_ffn_hidden))
        par(pre + "ffn_b1", np.zeros(config.user_ffn_hidden))
        par(pre + "ffn_w2", normal(config.user_ffn_hidden, d))
        par(pre + "ffn_b2", np.zeros(d))
        par(pre + "ln2_gain", np.ones(d))
        par(pre + "ln2_bias", np.zeros(d))

    for i in range(config.item_layers):
        pre = f"candidate_tower.L{i}."
        par(pre + "w", normal(d, d))
        par(pre + "b", np.zeros(d))
        par(pre + "ln_gain", np.ones(d))
        par(pre + "ln_bias", np.zeros(d))

    # softplus(tau_raw) = 10 at init
    par("loss_params.tau_raw", np.log(np.expm1(10.0)))
    for k in ("click", "cart", "fvrt", "prch"):
        par(f"loss_params.gamma.{k}", 1.0)
        par(f"loss_params.gamma_ctx.{k}", 1.0)
        par(f"loss_params.beta.{k}", 0.0)
    par("loss_params.alpha_cl", 1.0)
    # context multipliers start at 1 with zero tables: initial predictions
    # are unchanged but gradients can reach the context tables
    par("loss_params.alpha_ctx", 1.0)
    par("loss_params.beta_cl", 0.0)
    # +1 row: reserved UNKNOWN id (last)
    par("loss_params.ctx_surface", np.zeros((config.n_surfaces + 1, 1)))
    par("loss_params.ctx_device", np.zeros((config.n_devices + 1, 1)))
    return p


# ---------------------------------------------------------------------------
# item tower
# ---------------------------------------------------------------------------


def item_tower_forward_batch(title_embeddings: Tensor, params: ModelParams) -> Tensor:
    """Residual-layernorm blocks over CBOW title embeddings (B, d), then
    l2 normalization: x <- LayerNorm(ReLU(Linear(x)) + x)."""
    x = title_embeddings
    for i in range(params.config.item_layers):
        pre = f"candidate_tower.L{i}."
        h = ad.relu(ad.matmul(x, params[pre + "w"]) + params[pre + "b"])
        x = ad.layer_norm(h + x, params[pre + "ln_gain"], params[pre + "ln_bias"])
    return ad.l2_normalize(x)


def item_tower_forward(title_embedding: Tensor, params: ModelParams) -> Tensor:
    out = item_tower_forward_batch(ad.reshape(title_embedding, (1, params.config.d)), params)
    return ad.reshape(out, (params.config.d,))


# ---------------------------------------------------------------------------
# user tower
# ---------------------------------------------------------------------------


@dataclass
class HistoryBatch:
    """Padded numpy feature arrays for a batch of user histories."""

    token_ids: np.ndarray   # (B, T, L) int64, PAD=0 padded
    token_mask: np.ndarray  # (B, T, L) float, 1 for real tokens
    pos_ids: np.ndarray     # (B, T) int64, reversed chronology (latest = 0)
    type_ids: np.ndarray    # (B, T) int64
    event_mask: np.ndarray  # (B, T) float, 1 for real events

    @property
    def batch_size(self):
        return self.token_ids.shape[0]


def batch_histories(histories: list[UserHistory], tokenize_fn: Callable[[str], list[int]],
                    config: TowerConfig) -> HistoryBatch:
    """Tokenize and pad histories into dense arrays. Histories longer than
    max_history are rejected; truncation is the caller's job."""
    for h in histories:
        if len(h.events) > config.max_history:
            raise ValueError(
                f"history of user {h.user_id} has {len(h.events)} events"
                f" > max_history {config.max_history}"
            )
    token_lists = [[tokenize_fn(e.text) for e in h.events] for h in histories]
    B = len(histories)
    T = max((len(h.events) for h in histories), default=0)
    T = max(T, 1)
    L = max((len(t) for lists in token_lists for t in lists), default=0)
    L = max(L, 1)
    token_ids = np.zeros((B, T, L), dtype=np.int64)
    token_mask = np.zeros((B, T, L))
    pos_ids = np.zeros((B, T), dtype=np.int64)
    type_ids = np.zeros((B, T), dtype=np.int64)
    event_mask = np.zeros((B, T))
    for bi, h in enumerate(histories):
        n = len(h.events)
        for ei, ev in enumerate(h.events):
            toks = token_lists[bi][ei]
            token_ids[bi, ei, : len(toks)] = toks
            token_mask[bi, ei, : len(toks)] = 1.0
            pos_ids[bi, ei] = n - 1 - ei  # latest event gets position 0
            type_ids[bi, ei] = EVENT_TYPE_IDS[ev.event_type]
            event_mask[bi, ei] = 1.0
    return HistoryBatch(token_ids, token_mask, pos_ids, type_ids, event_mask)


def encode_events_batch(batch: HistoryBatch, params: ModelParams):
    """Per-event content + position + event-type embeddings, layer-normed;
    [CLS] (not layer-normed) prepended. Returns ((B, T+1, d) tensor,
    (B, T+1) key mask)."""
    cfg = params.config
    B, T, L = batch.token_ids.shape
    d = cfg.d
    content_rows = ad.gather(params["embeddings.content"], batch.token_ids.reshape(-1))
    content = ad.reshape(content_rows, (B, T, L, d))
    content = ad.mul(content, Tensor(batch.token_mask[..., None]))
    content = ad.tsum(content, axis=2)  # (B, T, d) CBOW sums
    pos = ad.reshape(ad.gather(params["embeddings.position"], batch.pos_ids.reshape(-1)), (B, T, d))
    typ = ad.reshape(ad.gather(params["embeddings.event_type"], batch.type_ids.reshape(-1)), (B, T, d))
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


def user_tower_forward_batch(batch: HistoryBatch, params: ModelParams) -> Tensor:
    """Post-norm bidirectional encoder over the event sequence; the
    contextualized [CLS] output, l2-normalized, is the user embedding."""
    cfg = params.config
    seq, mask = encode_events_batch(batch, params)
    B = batch.batch_size
    S = seq.shape[1]
    H, dh = cfg.user_heads, cfg.d // cfg.user_heads
    x = seq
    for i in range(cfg.user_layers):
        pre = f"transformer.L{i}."
        q = _split_heads(ad.matmul(x, params[pre + "wq"]) + params[pre + "bq"], B, S, H, dh)
        k = _split_heads(ad.matmul(x, params[pre + "wk"]) + params[pre + "bk"], B, S, H, dh)
        v = _split_heads(ad.matmul(x, params[pre + "wv"]) + params[pre + "bv"], B, S, H, dh)
        att = ad.attention(q, k, v, mask=mask)
        att = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (B, S, cfg.d))
        att = ad.matmul(att, params[pre + "wo"]) + params[pre + "bo"]
        x = ad.layer_norm(x + att, params[pre + "ln1_gain"], params[pre + "ln1_bias"])
        ffn = ad.relu(ad.matmul(x, params[pre + "ffn_w1"]) + params[pre + "ffn_b1"])
        ffn = ad.matmul(ffn, params[pre + "ffn_w2"]) + params[pre + "ffn_b2"]
        x = ad.layer_norm(x + ffn, params[pre + "ln2_gain"], params[pre + "ln2_bias"])
    flat = ad.reshape(x, (B * S, cfg.d))
    cls_out = ad.gather(flat, np.arange(B) * S)
    return ad.l2_normalize(cls_out)


def user_tower_forward(history: UserHistory, params: ModelParams,
                       tokenize_fn: Callable[[str], list[int]]) -> Tensor:
    batch = batch_histories([history], tokenize_fn, params.config)
    out = user_tower_forward_batch(batch, params)
    return ad.reshape(out, (params.config.d,))


# ---------------------------------------------------------------------------
# context tower & similarity
# ---------------------------------------------------------------------------


def context_unknown_ids(config: TowerConfig) -> ContextFeatures:
    return ContextFeatures(surface_id=config.n_surfaces, device_id=config.n_devices)


def context_score(ctx: ContextFeatures, params: ModelParams) -> Tensor:
    """Sum of two learned scalars, one per surface and one per device."""
    cfg = params.config
    sid = min(max(ctx.surface_id, 0), cfg.n_surfaces)
    did = min(max(ctx.device_id, 0), cfg.n_devices)
    s = ad.gather(params["loss_params.ctx_surface"], np.array([sid]))
    t = ad.gather(params["loss_params.ctx_device"], np.array([did]))
    return ad.reshape(s + t, ())


def similarity(v_u: Tensor, v_i: Tensor) -> Tensor:
    """Inner product of unit-norm embeddings (cosine similarity)."""
    return ad.tsum(ad.mul(v_u, v_i))


def similarity_matrix(users: Tensor, items: Tensor) -> Tensor:
    """(B_u, d) x (B_i, d) -> (B_u, B_i) cosine similarities."""
    return ad.matmul(users, ad.transpose(items, (1, 0)))


def similarity_rows(users: Tensor, items: Tensor) -> Tensor:
    """Row-aligned similarities: (B, d), (B, d) -> (B,)."""
    return ad.tsum(ad.mul(users, items), axis=1)
