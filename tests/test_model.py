"""Featurization, tower forward passes, parameter bookkeeping, and
checkpointing."""

import struct
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tworank import autodiff as ad
from tworank.autodiff import Tensor
from tworank.model import (CALIBRATED, FROZEN_IN_CONTINUOUS, GROUP_NAMES, ModelParams,
                           TowerConfig, batch_histories, content_embed_batch,
                           context_score, encode_events_batch, init_params,
                           item_tower_forward_batch, pad_tokens, param_layout,
                           similarity_matrix, user_tower_forward_batch)
from tworank.train import item_embeddings_for
from tworank.types import EVENT_TYPE_IDS, Event, EventType, UserHistory

from conftest import params_digest, save_v1_checkpoint
from oracles import content_embed, similarity


def _history(user=0, n=3):
    events = [Event(day, EventType.CLICK, f"item number {day}", day) for day in range(n)]
    return UserHistory(user, events)


def _user_vector(history, params, tokenize_fn):
    """One history through the user tower, as a batch of one: (1, d)."""
    return user_tower_forward_batch(batch_histories([history], tokenize_fn, params.config),
                                    params)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_fill_in():
    cfg = TowerConfig(d=32)
    assert cfg.user_ffn_hidden == 128


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        TowerConfig(d=10, user_heads=4)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


# taken when the calibration scalars became vectors and the key bias went;
# every Normal draw kept its bytes, and filling the layout table must draw
# the same numbers in the same order
INIT_DIGESTS = {
    ("tiny", 0): "0c05ed978bda2a489704242f6d1fb6c24a4983838f810cea0b2ac6adc46a7cf6",
    ("tiny", 3): "e1b56919e261aaccaa9d534ed3ac7f0e7089a9ab81fac2a0c2c7e4a06b49d89d",
    ("default", 0): "b8c7709eac6efadba9fc9698ccdcddb8b0a5b73dbb33d6ae8d02cc9886312bb9",
    ("default", 3): "77237246ff9e6b4c694ef5f135495ea706d48c3502652af8a2b889d3da249efe",
}


@pytest.mark.parametrize("name, seed", sorted(INIT_DIGESTS))
def test_init_params_values_are_pinned(tiny_config, name, seed):
    cfg = tiny_config if name == "tiny" else TowerConfig()
    params = init_params(cfg, seed=seed)
    assert params_digest(params) == INIT_DIGESTS[name, seed]
    assert [(n, t.shape) for n, t in params.tensors.items()] == \
        [(n, shape) for n, shape, _init in param_layout(cfg)]
    assert params["embeddings.position"].shape == (cfg.max_history + 1, cfg.d)


def test_init_deterministic(tiny_config):
    a = init_params(tiny_config, seed=5)
    b = init_params(tiny_config, seed=5)
    assert a.names() == b.names()
    for n in a.names():
        assert np.array_equal(a[n].data, b[n].data)


def test_every_param_belongs_to_a_group(tiny_params):
    for name in tiny_params.names():
        assert tiny_params.group_of(name) in GROUP_NAMES
    for g in GROUP_NAMES:
        assert any(tiny_params.group_of(n) == g for n in tiny_params.names()), \
            f"group {g} is empty"


def test_frozen_prefixes_exist(tiny_params):
    """Continuous fine-tuning freezes the five calibration vectors, 15
    numbers, and nothing else."""
    frozen = [n for n in tiny_params.names() if n.startswith(FROZEN_IN_CONTINUOUS)]
    assert frozen == [f"loss_params.calib.{k}" for k in CALIBRATED]
    assert sum(tiny_params[n].data.size for n in frozen) == 15


def test_calibration_init_values(tiny_params):
    for key in CALIBRATED:  # every logit starts as r + r_ctx
        assert tiny_params[f"loss_params.calib.{key}"].data.tolist() == [1.0, 1.0, 0.0]
    # softplus(tau_raw) == 10 at init
    raw = float(tiny_params["loss_params.tau_raw"].data)
    assert np.log1p(np.exp(raw)) == pytest.approx(10.0, abs=1e-9)
    assert np.all(tiny_params["loss_params.ctx_surface"].data == 0.0)


def test_copy_is_deep(tiny_params):
    clone = tiny_params.copy()
    clone["embeddings.cls"].data[:] = 99.0
    assert not np.any(tiny_params["embeddings.cls"].data == 99.0)


def test_checkpoint_roundtrip(tiny_params, tmp_path):
    path = tmp_path / "model.ckpt"
    tiny_params.save(path)
    loaded = ModelParams.load(path)
    assert loaded.config == tiny_params.config
    assert loaded.names() == tiny_params.names()
    for n in tiny_params.names():
        # storage is float32
        assert np.allclose(loaded[n].data, tiny_params[n].data, atol=1e-6)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        ModelParams.load(path)


def test_checkpoint_load_draws_no_random_numbers(tiny_params, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    tiny_params.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("ModelParams.load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    assert ModelParams.load(path).names() == tiny_params.names()


def test_checkpoint_cut_at_every_byte_names_its_file(tmp_path):
    """A checkpoint cut anywhere, or with bytes after its last tensor, is a
    ValueError naming the file, never a bare struct or reshape error."""
    path = tmp_path / "tiny.ckpt"
    tower = TowerConfig(d=2, user_layers=1, user_heads=1, user_ffn_hidden=2, item_layers=1,
                        max_history=1, vocab_size=4, n_surfaces=1, n_devices=1)
    init_params(tower, seed=0).save(path)
    raw = path.read_bytes()
    for cut in [raw[:k] for k in range(len(raw))] + [raw + b"\x00"]:
        path.write_bytes(cut)
        with pytest.raises(ValueError) as info:
            ModelParams.load(path)
        assert str(info.value).startswith(f"{path}: "), (len(cut), info.value)
    assert "1 bytes after the last tensor" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_save_refuses_non_finite(tiny_params, tmp_path, bad):
    path = tmp_path / "model.ckpt"
    tiny_params["loss_params.calib.click"].data[2] = bad
    tiny_params["embeddings.cls"].data[3] = bad
    with pytest.raises(ValueError, match="embeddings.cls.*loss_params.calib.click"):
        tiny_params.save(path)
    assert not path.exists()


def _distinct_calibration(params):
    """Each calibration entry its own value, exact in float32, so that a
    reader that moves one shows."""
    for i, key in enumerate(CALIBRATED):
        params[f"loss_params.calib.{key}"].data = np.array([2.0 + i, -0.5 - i, 0.125 * i + 0.25])
    return params


def test_version_1_checkpoint_loads_into_the_layout(tiny_params, tmp_path):
    """A version-1 file loads with each logit's three scalars stacked into
    its vector in order and no key bias left, non-zero though it is; every
    other tensor is byte-equal to the version-2 file's, and all come in
    param_layout order."""
    params = _distinct_calibration(tiny_params)
    params.save(tmp_path / "v2.ckpt")
    save_v1_checkpoint(params, tmp_path / "v1.ckpt", key_bias=0.7)
    raw = (tmp_path / "v1.ckpt").read_bytes()
    assert raw[4:8] == struct.pack("<I", 1)
    assert b"transformer.L0.bk" in raw and b"loss_params.gamma_ctx.prch" in raw
    v1, v2 = ModelParams.load(tmp_path / "v1.ckpt"), ModelParams.load(tmp_path / "v2.ckpt")
    assert v1.names() == v2.names() == [n for n, _shape, _init in param_layout(params.config)]
    for n in v2.names():
        assert v1[n].data.tobytes() == v2[n].data.tobytes(), n
    for key in CALIBRATED:
        name = f"loss_params.calib.{key}"
        assert v1[name].data.tolist() == params[name].data.tolist(), name


@pytest.mark.parametrize("dropped", ["loss_params.beta_cl", "loss_params.gamma.prch"])
def test_version_1_checkpoint_missing_a_scalar_names_its_file(tiny_params, tmp_path, dropped):
    path = tmp_path / "v1.ckpt"
    save_v1_checkpoint(tiny_params, path, drop=(dropped,))
    with pytest.raises(ValueError, match="missing, unexpected or misshapen") as info:
        ModelParams.load(path)
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# item tower
# ---------------------------------------------------------------------------


def test_item_tower_zero_weights_reduces_to_layer_norm(tiny_config):
    params = init_params(tiny_config, seed=0)
    for i in range(tiny_config.item_layers):
        params[f"candidate_tower.L{i}.w"].data[:] = 0.0
        params[f"candidate_tower.L{i}.b"].data[:] = 0.0
    x = np.random.default_rng(0).normal(size=(2, tiny_config.d))
    out = item_tower_forward_batch(Tensor(x), params).data
    # relu(0)+x = x, so each block is plain layer norm; then l2 normalize
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    expect = (x - mu) * inv
    expect /= np.linalg.norm(expect, axis=-1, keepdims=True)
    assert np.allclose(out, expect, atol=1e-10)


def test_item_tower_output_unit_norm(tiny_params, tiny_config):
    x = np.random.default_rng(1).normal(size=(5, tiny_config.d))
    out = item_tower_forward_batch(Tensor(x), tiny_params).data
    assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-9)


def test_item_tower_single_matches_batch(tiny_params, tiny_config):
    x = np.random.default_rng(2).normal(size=(3, tiny_config.d))
    batched = item_tower_forward_batch(Tensor(x), tiny_params).data
    for r in range(len(x)):
        single = item_tower_forward_batch(Tensor(x[r: r + 1]), tiny_params).data[0]
        assert np.allclose(single, batched[r], atol=1e-12)


# ---------------------------------------------------------------------------
# history batching and user tower
# ---------------------------------------------------------------------------


def test_position_ids_reverse_chronological(tiny_config, word_tokenizer):
    hb = batch_histories([_history(n=3)], word_tokenizer, tiny_config)
    assert list(hb.pos_ids[0]) == [2, 1, 0]  # latest event gets position 0
    assert np.all(hb.event_mask[0] == 1.0)


def test_empty_history_encodes(tiny_params, tiny_config, word_tokenizer):
    out = _user_vector(UserHistory(0, []), tiny_params, word_tokenizer)
    assert out.shape == (1, tiny_config.d)
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-9)


def test_user_embedding_invariant_to_batch_padding(tiny_params, word_tokenizer):
    """Batching a short history next to a longer one must not change its
    embedding (padding is fully masked)."""
    short = _history(user=0, n=2)
    long = _history(user=1, n=4)
    alone = user_tower_forward_batch(
        batch_histories([short], word_tokenizer, tiny_params.config), tiny_params).data[0]
    padded = user_tower_forward_batch(
        batch_histories([short, long], word_tokenizer, tiny_params.config), tiny_params).data[0]
    assert np.allclose(alone, padded, atol=1e-10)


def test_user_embedding_unit_norm(tiny_params, word_tokenizer):
    out = user_tower_forward_batch(
        batch_histories([_history(n=3), _history(user=1, n=1)],
                        word_tokenizer, tiny_params.config), tiny_params).data
    assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-9)


def test_user_embedding_depends_on_event_type(tiny_params, word_tokenizer):
    click = UserHistory(0, [Event(0, EventType.CLICK, "red anchor", 7)])
    prch = UserHistory(0, [Event(0, EventType.PURCHASE, "red anchor", 7)])
    a = _user_vector(click, tiny_params, word_tokenizer).data
    b = _user_vector(prch, tiny_params, word_tokenizer).data
    assert not np.allclose(a, b)


def test_web_query_event_encodes(tiny_params, word_tokenizer):
    h = UserHistory(0, [Event(0, EventType.WEB_QUERY, "red anchor")])
    out = _user_vector(h, tiny_params, word_tokenizer)
    assert np.linalg.norm(out.data) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# featurization against the per-row padding loops it replaced
# ---------------------------------------------------------------------------

ORACLE_CONFIG = TowerConfig(d=8, user_layers=1, user_heads=2, item_layers=1,
                            max_history=4, vocab_size=32)
ORACLE_PARAMS = init_params(ORACLE_CONFIG, seed=0)


def _word_ids(text):
    """The `word_tokenizer` fixture's rule: one id in [3, 32) per word."""
    return [3 + (sum(map(ord, w)) % 29) for w in text.lower().split()]


def _loop_batch_histories(histories, tokenize_fn):
    """Per-event padding loops, the reference for `batch_histories`: the
    (B, T, L) token layout, one padded token row per event slot."""
    token_lists = [[tokenize_fn(e.text) for e in h.events] for h in histories]
    B = len(histories)
    T = max(max((len(h.events) for h in histories), default=0), 1)
    L = max(max((len(t) for lists in token_lists for t in lists), default=0), 1)
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
            pos_ids[bi, ei] = n - 1 - ei
            type_ids[bi, ei] = EVENT_TYPE_IDS[ev.event_type]
            event_mask[bi, ei] = 1.0
    return SimpleNamespace(token_ids=token_ids, token_mask=token_mask, pos_ids=pos_ids,
                           type_ids=type_ids, event_mask=event_mask)


def _token_layout_encode(ref, params):
    """`encode_events_batch` over the (B, T, L) token layout, one CBOW per
    event slot: the reference for the distinct-text layout."""
    B, T, _L = ref.token_ids.shape
    d = params.config.d
    content = content_embed_batch(ref.token_ids, ref.token_mask, params)
    pos = ad.reshape(ad.gather(params["embeddings.position"], ref.pos_ids.reshape(-1)), (B, T, d))
    typ = ad.reshape(ad.gather(params["embeddings.event_type"], ref.type_ids.reshape(-1)),
                     (B, T, d))
    ev = ad.layer_norm(content + pos + typ, params["embeddings.pre_ln_gain"],
                       params["embeddings.pre_ln_bias"])
    ev = ad.mul(ev, Tensor(ref.event_mask[..., None]))
    cls = ad.reshape(params["embeddings.cls"], (1, 1, d)) + Tensor(np.zeros((B, 1, d)))
    return ad.concat([cls, ev], axis=1), np.concatenate([np.ones((B, 1)), ref.event_mask], axis=1)


def _loop_pad_titles(token_lists):
    """Per-row padding loop, the reference for the title padding of
    `item_embeddings_for`."""
    L = max(max((len(t) for t in token_lists), default=1), 1)
    ids = np.zeros((len(token_lists), L), dtype=np.int64)
    mask = np.zeros((len(token_lists), L))
    for r, t in enumerate(token_lists):
        ids[r, : len(t)] = t
        mask[r, : len(t)] = 1.0
    return ids, mask


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


_WORDS = st.sampled_from(["red", "anchor", "cobalt", "drum", "new", "pro", "x"])
_QUERY = st.lists(_WORDS, max_size=5).map(" ".join)  # may be empty: zero tokens
_TITLE = st.lists(_WORDS, min_size=1, max_size=5).map(" ".join)


@st.composite
def _history_batches(draw, max_events=ORACLE_CONFIG.max_history):
    """1-4 histories of 0..max_events day-ordered events of every type."""
    batch = []
    for user in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, max_events))
        days = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        events = []
        for day in days:
            kind = draw(st.sampled_from(list(EventType)))
            if kind is EventType.WEB_QUERY:
                events.append(Event(day, kind, draw(_QUERY)))
            else:
                events.append(Event(day, kind, draw(_TITLE), item_id=day))
        batch.append(UserHistory(user, events))
    return batch


_EMPTY_AND_MIXED = [
    [UserHistory(0, [])],
    [UserHistory(0, []), UserHistory(1, [])],
    [UserHistory(0, []), UserHistory(1, [Event(3, EventType.WEB_QUERY, "")])],
    [UserHistory(0, [Event(2, EventType.CLICK, "red anchor", 2)]), UserHistory(1, []),
     UserHistory(2, [Event(1, EventType.WEB_QUERY, "red anchor"),
                     Event(4, EventType.ADD_TO_CART, "drum", 4)])],
]


def _with_examples(cases):
    def deco(test):
        for case in cases:
            test = example(case)(test)
        return test
    return deco


@settings(max_examples=80, deadline=None)
@given(_history_batches())
@_with_examples(_EMPTY_AND_MIXED)
def test_batch_histories_matches_padding_loops(histories):
    got = batch_histories(histories, _word_ids, ORACLE_CONFIG)
    want = _loop_batch_histories(histories, _word_ids)
    for name in ("pos_ids", "type_ids", "event_mask"):
        _assert_same_arrays(getattr(got, name), getattr(want, name))
    # every real slot reads its own event's padded tokens from the text rows
    real = want.event_mask > 0
    assert got.text_rows.shape == real.shape and got.text_rows.dtype == np.int64
    _assert_same_arrays(got.text_ids[got.text_rows][real], want.token_ids[real])
    _assert_same_arrays(got.text_mask[got.text_rows][real], want.token_mask[real])
    # one row per distinct text in first-appearance order, one all-PAD row when none
    texts = list(dict.fromkeys(e.text for h in histories for e in h.events))
    want_ids, want_mask = _loop_pad_titles([_word_ids(t) for t in texts] or [[]])
    _assert_same_arrays(got.text_ids, want_ids)
    _assert_same_arrays(got.text_mask, want_mask)
    # CBOW over the text rows: each real event's row sum
    cbow = content_embed_batch(got.text_ids, got.text_mask, ORACLE_PARAMS).data[got.text_rows]
    matrix = ORACLE_PARAMS["embeddings.content"]
    for b, h in enumerate(histories):
        for t, ev in enumerate(h.events):
            assert np.allclose(cbow[b, t], content_embed(_word_ids(ev.text), matrix).data,
                               rtol=0.0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(_history_batches(max_events=ORACLE_CONFIG.max_history + 3))
@example([_history(n=ORACLE_CONFIG.max_history + 3), UserHistory(1, [])])
def test_batch_histories_keeps_the_most_recent_window(histories):
    """A history longer than max_history is batched as its most recent
    max_history events."""
    T = ORACLE_CONFIG.max_history
    got = batch_histories(histories, _word_ids, ORACLE_CONFIG)
    want = batch_histories([UserHistory(h.user_id, h.events[-T:]) for h in histories],
                           _word_ids, ORACLE_CONFIG)
    assert got.event_mask.shape[1] <= T
    for f in fields(got):
        _assert_same_arrays(getattr(got, f.name), getattr(want, f.name))


@settings(max_examples=40, deadline=None)
@given(_history_batches())
@_with_examples(_EMPTY_AND_MIXED)
def test_batch_histories_tokenizes_each_distinct_text_once(histories):
    calls = Counter()

    def counting(text):
        calls[text] += 1
        return _word_ids(text)

    batch_histories(histories + histories, counting, ORACLE_CONFIG)
    assert calls == Counter({e.text for h in histories for e in h.events})


@settings(max_examples=60, deadline=None)
@given(_history_batches())
@_with_examples(_EMPTY_AND_MIXED)
def test_encode_events_batch_matches_token_layout(histories):
    """The distinct-text layout gives the same event sequence, byte for
    byte, as one CBOW per event slot, and the same content-table gradient
    up to summation order."""
    got_seq, got_mask = encode_events_batch(
        batch_histories(histories, _word_ids, ORACLE_CONFIG), ORACLE_PARAMS)
    want_seq, want_mask = _token_layout_encode(
        _loop_batch_histories(histories, _word_ids), ORACLE_PARAMS)
    _assert_same_arrays(got_mask, want_mask)
    _assert_same_arrays(got_seq.data, want_seq.data)
    # padding rows are zeros on both sides, of either sign; real rows match bit for bit
    real = want_mask > 0
    assert got_seq.data[real].tobytes() == want_seq.data[real].tobytes()
    weights = Tensor(np.random.default_rng(0).normal(size=want_seq.shape))
    table = ORACLE_PARAMS["embeddings.content"]
    got_grad = ad.backward(ad.tsum(ad.mul(got_seq, weights)), [table])[table]
    want_grad = ad.backward(ad.tsum(ad.mul(want_seq, weights)), [table])[table]
    assert np.allclose(got_grad, want_grad, rtol=0.0, atol=1e-12)


def _full_sequence_tower(batch, params):
    """The user tower as it ran before the last layer became [CLS]-only:
    every layer over all S positions, then row 0 of each sequence."""
    cfg = params.config
    seq, mask = encode_events_batch(batch, params)
    B, S = mask.shape
    H, dh = cfg.user_heads, cfg.d // cfg.user_heads

    def heads(t):
        return ad.transpose(ad.reshape(t, (B, S, H, dh)), (0, 2, 1, 3))

    x = seq
    for i in range(cfg.user_layers):
        pre = f"transformer.L{i}."
        q, v = (heads(ad.matmul(x, params[pre + "w" + n]) + params[pre + "b" + n])
                for n in "qv")
        k = heads(ad.matmul(x, params[pre + "wk"]))
        att = ad.attention(q, k, v, mask=mask)
        att = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (B, S, cfg.d))
        att = ad.matmul(att, params[pre + "wo"]) + params[pre + "bo"]
        x = ad.layer_norm(x + att, params[pre + "ln1_gain"], params[pre + "ln1_bias"])
        ffn = ad.relu(ad.matmul(x, params[pre + "ffn_w1"]) + params[pre + "ffn_b1"])
        ffn = ad.matmul(ffn, params[pre + "ffn_w2"]) + params[pre + "ffn_b2"]
        x = ad.layer_norm(x + ffn, params[pre + "ln2_gain"], params[pre + "ln2_bias"])
    return ad.l2_normalize(ad.gather(ad.reshape(x, (B * S, cfg.d)), np.arange(B) * S))


@settings(max_examples=60, deadline=None)
@given(_history_batches(), st.integers(0, 3), st.sampled_from([1, 2, 4]), st.integers(0, 2**16))
@example([UserHistory(0, []), UserHistory(1, [])], 2, 2, 0)
@example(_EMPTY_AND_MIXED[-1], 3, 4, 1)
def test_user_tower_matches_full_sequence_layers(histories, layers, heads, seed):
    """Querying the last layer from [CLS] alone gives the full-sequence
    tower's output and every parameter gradient, up to summation order.
    The bound is absolute below 1, so that entries near 0 compare by
    their size."""
    cfg = TowerConfig(d=8, user_layers=layers, user_heads=heads, item_layers=0,
                      max_history=ORACLE_CONFIG.max_history, vocab_size=32)
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for t in params.tensors.values():  # move off the near-uniform attention of init
        t.data = t.data + rng.normal(0.0, 0.3, size=t.shape)
    batch = batch_histories(histories, _word_ids, cfg)
    weights = Tensor(rng.normal(size=(len(histories), cfg.d)))
    tensors = list(params.tensors.values())
    got = user_tower_forward_batch(batch, params)
    want = _full_sequence_tower(batch, params)
    got_grads = ad.backward(ad.tsum(ad.mul(got, weights)), tensors)
    want_grads = ad.backward(ad.tsum(ad.mul(want, weights)), tensors)

    def close(a, ref):
        bound = 1e-12 * max(1.0, np.max(np.abs(ref), initial=0.0))
        return np.max(np.abs(a - ref), initial=0.0) <= bound

    assert got.shape == want.shape == (len(histories), cfg.d)
    assert close(got.data, want.data)
    for name, t in params.tensors.items():
        assert close(got_grads[t], want_grads[t]), name


@settings(max_examples=80, deadline=None)
@given(st.lists(_QUERY, max_size=5), st.randoms(use_true_random=False))
@example([], None)
@example([""], None)
def test_title_embedder_matches_padding_loop(texts, random):
    titles = dict(enumerate(texts))
    order = list(titles)
    if random is not None:
        random.shuffle(order)  # batches need not follow catalog order
    got = item_embeddings_for(order, titles, _word_ids, ORACLE_PARAMS).data
    want_ids, want_mask = _loop_pad_titles([_word_ids(titles[i]) for i in order])
    ids, mask = pad_tokens([_word_ids(titles[i]) for i in order])
    _assert_same_arrays(ids, want_ids)
    _assert_same_arrays(mask, want_mask)
    cbow = content_embed_batch(want_ids, want_mask, ORACLE_PARAMS)
    want = item_tower_forward_batch(cbow, ORACLE_PARAMS).data
    assert got.tobytes() == want.tobytes()
    for r, i in enumerate(order):
        row = content_embed(_word_ids(titles[i]), ORACLE_PARAMS["embeddings.content"]).data
        assert np.allclose(cbow.data[r], row, rtol=0.0, atol=1e-15)


def test_content_embed_batch_gradient_is_masked_scatter(tiny_params, tiny_config):
    """Each real token slot adds its event's output gradient to its row of
    the content table; PAD slots add nothing."""
    rng = np.random.default_rng(7)
    d = tiny_config.d
    mask = (rng.random((3, 4, 5)) < 0.6).astype(float)
    ids = np.where(mask > 0, rng.integers(1, 6, size=mask.shape), 0)  # 5 rows: many repeats
    weights = rng.normal(size=(3, 4, d))
    table = tiny_params["embeddings.content"]
    out = content_embed_batch(ids, mask, tiny_params)
    assert out.data.tobytes() == (table.data[ids] * mask[..., None]).sum(axis=2).tobytes()
    grads = ad.backward(ad.tsum(ad.mul(out, Tensor(weights))), [table])
    want = np.zeros_like(table.data)
    np.add.at(want, ids.reshape(-1), (weights[:, :, None, :] * mask[..., None]).reshape(-1, d))
    assert grads[table].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# context tower and similarity
# ---------------------------------------------------------------------------


def test_context_score_is_table_sum(tiny_params):
    tiny_params["loss_params.ctx_surface"].data[:, 0] = [0.7, 0.1, 0.0, 0.0]
    tiny_params["loss_params.ctx_device"].data[:, 0] = [-0.2, 0.3, 0.0]
    out = context_score(np.array([1, 0, 1]), np.array([0, 1, 1]), tiny_params)
    assert out.shape == (3,)
    assert np.allclose(out.data, [-0.1, 1.0, 0.4], rtol=0.0, atol=1e-12)


def test_context_unknown_ids_clamp(tiny_params, tiny_config):
    tiny_params["loss_params.ctx_surface"].data[tiny_config.n_surfaces, 0] = 42.0
    tiny_params["loss_params.ctx_device"].data[tiny_config.n_devices, 0] = 1.0
    tiny_params["loss_params.ctx_surface"].data[0, 0] = 5.0
    # ids outside the tables, negative ones included, take the reserved last row
    out = context_score([999, tiny_config.n_surfaces, -3, 0], [999, 999, 0, -1], tiny_params)
    assert np.allclose(out.data, [43.0, 43.0, 42.0, 6.0], rtol=0.0, atol=1e-12)


def test_similarity_analytic_value():
    u = Tensor(np.array([1.0, 0.0]))
    v = Tensor(np.array([np.sqrt(0.5), np.sqrt(0.5)]))
    assert float(similarity(u, v).data) == pytest.approx(0.70710678, abs=1e-8)


def test_similarity_matrix_shape_and_values():
    users = Tensor(np.eye(3, 4))
    items = Tensor(np.eye(2, 4))
    out = similarity_matrix(users, items).data
    assert out.shape == (3, 2)
    assert out[0, 0] == 1.0 and out[1, 1] == 1.0 and out[2, 0] == 0.0


def test_gradient_reaches_every_group(tiny_params, word_tokenizer):
    """End to end, d(similarity)/d(params) touches embeddings, transformer,
    and candidate tower."""
    h = _history(n=2)
    user = _user_vector(h, tiny_params, word_tokenizer)
    content = Tensor(np.random.default_rng(3).normal(size=(1, tiny_params.config.d)))
    item = item_tower_forward_batch(content, tiny_params)
    grads = ad.backward(similarity(user, item), list(tiny_params.tensors.values()))
    touched = {tiny_params.group_of(n)
               for n in tiny_params.names()
               if np.any(grads[tiny_params[n]])}
    assert {"embeddings", "transformer", "candidate_tower"} <= touched

