"""Embedding export, the binary table format, and pair scoring."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tworank.model import batch_histories, init_params, user_tower_forward_batch
from tworank.serving import (EmbeddingTable, KIND_ITEM, KIND_USER,
                             export_embeddings, score)
from tworank.train import item_embeddings_for
from tworank.types import Event, EventType, UserHistory


@pytest.fixture
def tables(tiny_config, word_tokenizer):
    params = init_params(tiny_config, seed=2)
    histories = {
        u: UserHistory(u, [Event(d, EventType.CLICK, f"thing {u} {d}", d)
                           for d in range(u % 3 + 1)])
        for u in range(7)
    }
    titles = {i: f"item number {i}" for i in range(11)}
    users, items = export_embeddings(params, histories, titles, word_tokenizer)
    return params, histories, titles, users, items


def test_export_covers_all_entities(tables):
    _, histories, titles, users, items = tables
    assert len(users) == len(histories)
    assert len(items) == len(titles)
    assert users.kind == KIND_USER and items.kind == KIND_ITEM


def test_exported_vectors_unit_norm(tables):
    _, _, _, users, items = tables
    for table in (users, items):
        norms = np.linalg.norm(table.vectors.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)


def test_export_matches_direct_forward(tables, word_tokenizer):
    """Stored float32 vectors reproduce the float64 forward pass."""
    params, histories, titles, users, items = tables
    for u in (0, 3, 6):
        hb = batch_histories([histories[u]], word_tokenizer, params.config)
        direct = user_tower_forward_batch(hb, params).data[0]
        assert np.allclose(users.vector(u), direct, atol=1e-6)
    direct_items = item_embeddings_for(sorted(titles), titles, word_tokenizer, params).data
    assert np.allclose(items.vectors, direct_items, atol=1e-6)


def test_table_roundtrip(tables, tmp_path):
    _, _, _, users, items = tables
    for name, table in (("users.emb", users), ("items.emb", items)):
        path = tmp_path / name
        table.save(path)
        loaded = EmbeddingTable.load(path)
        assert loaded.kind == table.kind and loaded.dim == table.dim
        assert np.array_equal(loaded.ids, table.ids)
        assert np.array_equal(loaded.vectors, table.vectors)


def test_table_file_layout(tables, tmp_path):
    _, _, _, users, _ = tables
    path = tmp_path / "users.emb"
    users.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    assert raw[4] == KIND_USER
    # magic + kind/dim/count header + count * (id + dim floats)
    assert len(raw) == 4 + 13 + len(users) * (8 + 4 * users.dim)


def test_table_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + b"\x00" * 13)
    with pytest.raises(ValueError):
        EmbeddingTable.load(path)


def _count_raised(raw: bytes, count: int) -> bytes:
    """`raw` with the header's u64 record count replaced by `count`."""
    return raw[:9] + struct.pack("<Q", count) + raw[17:]


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:-1],                            # one byte short
    lambda raw: raw + b"\x00",                       # one byte long
    lambda raw: _count_raised(raw, 8),               # one record more than stored
    lambda raw: _count_raised(raw, 1 << 62),         # would ask for exabytes
], ids=["short", "long", "count+1", "huge-count"])
def test_table_rejects_size_mismatch(tables, tmp_path, corrupt):
    _, _, _, users, _ = tables
    path = tmp_path / "users.emb"
    users.save(path)
    assert len(users) == 7
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match="bytes hold no"):
        EmbeddingTable.load(path)


def test_table_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="strictly increasing"):
        EmbeddingTable(KIND_USER, 2, np.array([1, 1]), np.zeros((2, 2)))


@pytest.mark.parametrize("ids", [[2, 1], [0, 5, 3]], ids=["descending", "unsorted"])
def test_table_rejects_unsorted_ids(ids):
    with pytest.raises(ValueError, match="strictly increasing"):
        EmbeddingTable(KIND_USER, 2, np.array(ids), np.zeros((len(ids), 2)))


@pytest.mark.parametrize("width", [1, 8])
def test_table_rejects_vectors_of_another_width(width):
    with pytest.raises(ValueError, match=rf"shape \(3, {width}\) do not hold 3 ids of dim 4"):
        EmbeddingTable(KIND_USER, 4, np.arange(3), np.zeros((3, width)))


@pytest.mark.parametrize("ids", [[], [1, 4]], ids=["empty", "two-ids"])
def test_table_rejects_dim_0(ids):
    """A table of dim 0 holds no vector: every score would read 0."""
    with pytest.raises(ValueError, match="dim 0 holds no vector"):
        EmbeddingTable(KIND_USER, 0, np.array(ids), np.zeros((len(ids), 0)))


@pytest.mark.parametrize("kind", [2, 7, 255])
def test_table_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"kind {kind}"):
        EmbeddingTable(kind, 2, np.array([1]), np.zeros((1, 2)))


def _records(raw: bytes) -> tuple[bytes, list[bytes]]:
    """The header and the records of an EMB file."""
    (dim,) = struct.unpack("<I", raw[5:9])
    size = 8 + 4 * dim
    return raw[:17], [raw[i: i + size] for i in range(17, len(raw), size)]


def _first_records_swapped(raw: bytes) -> bytes:
    head, recs = _records(raw)
    return head + recs[1] + recs[0] + b"".join(recs[2:])


def _first_id_repeated(raw: bytes) -> bytes:
    head, recs = _records(raw)
    return head + recs[0] + recs[0][:8] + recs[1][8:] + b"".join(recs[2:])


def _value_set(raw: bytes, value: float) -> bytes:
    """`raw` with the first float of its first record set to `value`."""
    return raw[:25] + struct.pack("<f", value) + raw[29:]


@pytest.mark.parametrize("corrupt, match", [
    (_first_records_swapped, "strictly increasing"),
    (_first_id_repeated, "strictly increasing"),
    (lambda raw: raw[:4] + b"\x07" + raw[5:], "kind 7"),
    (lambda raw: _value_set(raw, float("nan")), "NaN or infinite"),
    (lambda raw: _value_set(raw, float("-inf")), "NaN or infinite"),
], ids=["out-of-order", "duplicate", "kind-7", "nan", "inf"])
def test_table_file_rejects_bad_records(tables, tmp_path, corrupt, match):
    _, _, _, users, _ = tables
    path = tmp_path / "users.emb"
    users.save(path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as info:
        EmbeddingTable.load(path)
    assert str(path) in str(info.value)


def test_table_file_cut_at_every_byte_names_its_file(tables, tmp_path):
    _, _, _, users, _ = tables
    path = tmp_path / "users.emb"
    users.save(path)
    raw = path.read_bytes()
    for k in range(len(raw)):
        path.write_bytes(raw[:k])
        with pytest.raises(ValueError) as info:
            EmbeddingTable.load(path)
        assert str(info.value).startswith(f"{path}: "), (k, info.value)


def test_missing_id_raises(tables):
    _, _, _, users, _ = tables
    with pytest.raises(KeyError):
        users.vector(999)


def test_score_preserves_input_order(tables):
    _, _, _, users, items = tables
    ids = [5, 2, 9, 0]
    out = score(3, ids, users, items)
    assert [item for item, _, _ in out] == ids
    assert all(err is None for _, _, err in out)


def test_score_partial_success(tables):
    _, _, _, users, items = tables
    out = score(0, [1, 999, 2], users, items)
    assert out[0][2] is None and out[2][2] is None
    assert out[1][1] is None and out[1][2] == "unknown item id 999"


def test_score_matches_inner_product(tables):
    _, _, _, users, items = tables
    (item_id, value, _), = score(4, [7], users, items)
    expect = float(users.vector(4).astype(np.float64) @ items.vector(7).astype(np.float64))
    assert value == pytest.approx(expect, abs=1e-12)


def test_score_unknown_user_raises(tables):
    _, _, _, users, items = tables
    with pytest.raises(KeyError):
        score(999, [1], users, items)


def _dict_score(user_id, item_ids, users, items):
    """Reference scorer: a dict from id to row and one dot per candidate."""
    row_of = {i: r for r, i in enumerate(items.ids.tolist())}
    u = users.vector(user_id).astype(np.float64)
    return [(i, None, f"unknown item id {i}") if i not in row_of
            else (i, float(items.vectors[row_of[i]].astype(np.float64) @ u), None)
            for i in item_ids]


_U64 = st.integers(0, 2**64 - 1)


@st.composite
def _tables_and_requests(draw):
    """A user table, a sorted item table (possibly empty, ids small or near
    2**64) and a request of known, unknown, negative and huge ids, with
    repeats."""
    dim = draw(st.integers(1, 5))
    unit = st.floats(-1, 1, width=32)
    item_ids = sorted(draw(st.sets(st.one_of(st.integers(0, 40), _U64), max_size=12)))
    items = EmbeddingTable(KIND_ITEM, dim, np.array(item_ids, dtype=np.uint64),
                           draw(arrays(np.float32, (len(item_ids), dim), elements=unit)))
    users = EmbeddingTable(KIND_USER, dim, np.arange(3),
                           draw(arrays(np.float32, (3, dim), elements=unit)))
    candidate = st.one_of(st.sampled_from(item_ids) if item_ids else st.nothing(),
                          st.integers(0, 40), st.integers(-2**70, -1),
                          st.integers(2**63, 2**70))
    request = draw(st.lists(candidate, max_size=10))
    request += draw(st.lists(st.sampled_from(request), max_size=3)) if request else []
    return draw(st.integers(0, 2)), request, users, items


@settings(max_examples=300, deadline=None)
@given(_tables_and_requests())
def test_score_matches_dict_reference(case):
    user_id, request, users, items = case
    got = score(user_id, request, users, items)
    want = _dict_score(user_id, request, users, items)
    assert [(i, err) for i, _, err in got] == [(i, err) for i, _, err in want]
    for (_, value, _), (_, expect, _) in zip(got, want):
        assert (value is None) == (expect is None)
        assert value is None or abs(value - expect) <= 1e-12
    row_of = {i: r for r, i in enumerate(items.ids.tolist())}
    for i in request:
        assert (i in items) == (i in row_of)
        if i in row_of:
            assert np.array_equal(items.vector(i), items.vectors[row_of[i]])
        else:
            with pytest.raises(KeyError):
                items.vector(i)
