"""Generative world: determinism, latent structure, bias injection, log
serialization."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tworank.synth import (_ADJECTIVES, _NOUNS, EventRecord, SynthConfig, _title_draws,
                           generate_world, make_balanced_eval_groups, read_logs,
                           simulate_logs, write_logs)
from tworank.types import SIGNALS, Event, EventType, ImpressionGroup, signal_of

from oracles import title_draws_per_item, world_items_per_item, world_per_item


def test_world_generation_deterministic(small_world):
    again = generate_world(small_world.config)
    assert np.array_equal(again.item_latents, small_world.item_latents)
    assert again.titles == small_world.titles
    assert np.array_equal(again.user_switch_day, small_world.user_switch_day)


# shared category words (n_categories > 12), categories without items, and
# several latent widths
PER_ITEM_CONFIGS = [
    dict(n_items=60, n_users=20, n_categories=4, days=10, seed=0),
    dict(n_items=300, n_users=30, n_categories=20, days=8, seed=3),
    dict(n_items=10, n_users=12, n_categories=30, days=6, seed=5),
    dict(n_items=200, n_users=15, latent_dim=2, days=6, seed=7),
    dict(n_items=200, n_users=15, latent_dim=16, days=6, seed=11),
    dict(n_items=3000, n_users=40, n_categories=12, latent_dim=33, days=10, seed=4049),
]


@pytest.mark.parametrize("kw", PER_ITEM_CONFIGS, ids=["small", "shared-words",
                                                     "empty-categories", "m2", "m16", "m33"])
def test_world_items_match_the_per_item_loop(kw):
    """The batched latents are bit-equal to a per-item np.mean and
    np.linalg.norm, and the titles equal, over the same draws."""
    world = generate_world(SynthConfig(**kw))
    latents, titles = world_items_per_item(world.config)
    assert world.item_latents.tobytes() == latents.tobytes()
    assert world.titles == titles


@pytest.mark.parametrize("kw", PER_ITEM_CONFIGS, ids=["small", "shared-words",
                                                     "empty-categories", "m2", "m16", "m33"])
def test_world_matches_the_per_item_loop(kw):
    """Every drawn array of the world, the users' drawn after the titles
    included, equals the per-item loop's."""
    world = generate_world(SynthConfig(**kw))
    for name, want in world_per_item(world.config).items():
        got = getattr(world, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


def test_catalog_world_is_pinned():
    """The 100k-item world, digest taken at commit af0c7b8 (numpy 2.4.6),
    where the titles were drawn by a per-item rng.choice/rng.integers loop."""
    world = generate_world(SynthConfig(n_items=100_000, n_users=100, days=24,
                                       impressions_per_day=0.35, seed=4049))
    h = hashlib.sha256()
    for name in ("category_centers", "item_categories", "item_latents", "user_base",
                 "user_primary", "user_secondary", "user_switch_day", "user_device",
                 "bias_table"):
        h.update(getattr(world, name).tobytes())
    h.update(json.dumps([world.titles, world.category_words]).encode())
    assert h.hexdigest() == "598e8f80ac404f8b86a27bd12aae03eb24c252e79570466c00206c31ff6ae476"


_N_WORDS = len(set(_ADJECTIVES) | set(_NOUNS))


@given(n_items=st.integers(1, 400), n_categories=st.integers(2, 60),
       seed=st.integers(0, 2**63), prior=st.integers(0, 1))
@example(n_items=4096 * 2 + 5, n_categories=8, seed=4049, prior=0)
@example(n_items=4096 * 2 + 5, n_categories=8, seed=4049, prior=1)
@example(n_items=4096, n_categories=8, seed=4049, prior=0)
@example(n_items=4097, n_categories=8, seed=4049, prior=1)
@settings(max_examples=80, deadline=None)
def test_title_draws_match_the_per_item_loop(n_items, n_categories, seed, prior):
    """Picks, common words and the generator's state afterwards equal the
    per-item loop's, with the 32-bit buffer empty or full on entry, and
    across the helper's passes of 4096 items."""
    per_cat = max(4, _N_WORDS // n_categories)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, slow):
        for _ in range(prior):
            rng.integers(0, 2**31)
    picks, common = _title_draws(fast, per_cat, n_items)
    want_picks, want_common = title_draws_per_item(slow, per_cat, n_items)
    assert np.array_equal(picks, want_picks) and np.array_equal(common, want_common)
    assert fast.bit_generator.state == slow.bit_generator.state


# numpy's PCG64 steps its 128-bit state s to s * M + inc and outputs the
# XSL-RR of the new state, (hi ^ lo) rotated right by hi >> 58
_PCG_M = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state_with(inc, position, value, rng):
    """A PCG64 state whose 32-bit stream (low half of each output first)
    holds `value` at `position`."""
    hi = int(rng.integers(0, 2**58))  # rotation 0, so the output is hi ^ lo
    other = int(rng.integers(0, 2**32))
    out = (other << 32 | value) if position % 2 == 0 else (value << 32 | other)
    s = hi << 64 | (out ^ hi)
    m_inv = pow(_PCG_M, -1, 1 << 128)
    for _ in range(position // 2 + 1):
        s = (s - inc) * m_inv % (1 << 128)
    return s


@pytest.mark.parametrize("per_cat", [12, 24])
@pytest.mark.parametrize("buffered", [False, True], ids=["empty-buffer", "full-buffer"])
@pytest.mark.parametrize("item", [0, 5])
@pytest.mark.parametrize("slot", range(6))
def test_title_draws_redraw_like_the_loop(slot, item, buffered, per_cat):
    """A 32-bit value of 0 in one item's draw slot is rejected (0 * n mod
    2**32 is below 2**32 mod n) and drawn again, except in the shuffle's
    draw over two values, where 2**32 mod 2 is 0. The redraw takes the next
    value of the stream, so every later round reads the stream one place on,
    as in the per-item loop. A full buffer holds 0 too, which rejects item
    0's first draw, so every later draw reads the raw stream one place on:
    the forced value sits at the same raw index."""
    n_items, rng = 12, np.random.default_rng([slot, item, per_cat])
    inc = np.random.default_rng(per_cat).bit_generator.state["state"]["inc"]
    first = buffered and item == slot == 0  # the buffer already rejects this draw
    raw_index = 6 * item + slot
    value = int(rng.integers(1, 2**32)) if first else 0
    state = {"bit_generator": "PCG64",
             "state": {"state": _pcg64_state_with(inc, raw_index, value, rng), "inc": inc},
             "has_uint32": int(buffered), "uinteger": 0}
    raw = np.random.PCG64()
    raw.state = state
    assert raw.random_raw(3 * n_items).view("<u4")[raw_index] == value

    fast, slow = np.random.default_rng(), np.random.default_rng()
    fast.bit_generator.state = slow.bit_generator.state = state
    picks, common = _title_draws(fast, per_cat, n_items)
    want_picks, want_common = title_draws_per_item(slow, per_cat, n_items)
    assert np.array_equal(picks, want_picks) and np.array_equal(common, want_common)
    assert fast.bit_generator.state == slow.bit_generator.state

    # the rounds take 6 values each, plus one per redraw
    end = slow.bit_generator.state
    raw.state = state
    outputs = 0
    while raw.state["state"] != end["state"]:
        raw.advance(1)
        outputs += 1
    taken = buffered + 2 * outputs - end["has_uint32"]
    assert taken == 6 * n_items + (slot != 4 and not first) + buffered


# SHA-256 of write_logs' bytes and of the eval groups at commit 2424dfa
# (numpy 2.4.6), before the world and logs were built without per-item
# Python. A change that moves one draw or one latent bit moves them.
PINNED_LOGS = [
    (dict(n_items=60, n_users=20, n_categories=4, days=10, organic_rate=0.8,
          impressions_per_day=0.5, query_rate=0.4, seed=0),
     "0c3845d398fce623e233d27b722aa9c8a24c7a54b5fefd134393acb84c888683",
     "0f0cda46f511915e92217dc9097f291c093cb44cff263a488884dd3a29fdd492"),
    (dict(n_items=300, n_users=30, n_categories=20, days=8, seed=3),
     "16d18bad38dc1451e79106497dc12e384e380b0799b63ac63380ffb4969f0c7f",
     "f804f6f328f88519eb8b74a769b59151f8f777f880767608cc8ba8ec1cd229da"),
]


@pytest.mark.parametrize("kw, logs_sha, groups_sha", PINNED_LOGS, ids=["small", "shared-words"])
def test_logs_and_eval_groups_are_pinned(kw, logs_sha, groups_sha, tmp_path):
    cfg = SynthConfig(**kw)
    world = generate_world(cfg)
    path = tmp_path / "logs.ndjson"
    write_logs(world, simulate_logs(world), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == logs_sha
    groups = make_balanced_eval_groups(world, cfg.days // 2, cfg.days)
    rows = [[g.user_id, g.day, g.surface_id, g.device_id, g.item_ids, g.labels] for g in groups]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == groups_sha


def test_item_latents_unit_norm(small_world):
    norms = np.linalg.norm(small_world.item_latents, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_user_latent_changes_at_switch(small_world):
    w = small_world
    moved = 0
    for u in range(w.config.n_users):
        sd = int(w.user_switch_day[u])
        before = w.user_category(u, sd - 1)
        after = w.user_category(u, sd)
        assert before == int(w.user_primary[u])
        assert after == int(w.user_secondary[u])
        if before != after:
            moved += 1
    assert moved == w.config.n_users  # secondary always differs


def test_bias_table_shape_and_scaling():
    cfg = SynthConfig(n_items=40, n_users=5, days=4, bias_strength=2.0)
    world = generate_world(cfg)
    assert world.bias_table.shape == (cfg.n_surfaces, cfg.n_devices)
    # surface 0 carries the strong positive bias, surface 1 the negative one
    assert world.bias_table[0].mean() == pytest.approx(2.0 * 1.8, abs=1e-9)
    assert world.bias_table[1].mean() == pytest.approx(2.0 * -0.6, abs=1e-9)


def test_titles_share_category_words(small_world):
    w = small_world
    for i in range(10):
        words = set(w.titles[i].split()[:3])
        assert words <= set(w.category_words[int(w.item_categories[i])])


def test_config_validation():
    with pytest.raises(ValueError):
        generate_world(SynthConfig(n_categories=1))
    with pytest.raises(ValueError):
        generate_world(SynthConfig(n_surfaces=1))


# ---------------------------------------------------------------------------
# log simulation
# ---------------------------------------------------------------------------


def test_simulation_deterministic(small_world, small_logs):
    again = simulate_logs(small_world)
    assert len(again) == len(small_logs)
    for a, b in zip(again[:200], small_logs[:200]):
        assert type(a) is type(b)
        if isinstance(a, EventRecord):
            assert a.event == b.event
        else:
            assert a.item_ids == b.item_ids and a.labels == b.labels


def test_days_ordered_and_in_range(small_world, small_logs):
    last = 0
    for rec in small_logs:
        day = rec.event.day if isinstance(rec, EventRecord) else rec.day
        assert last <= day < small_world.config.days
        last = day


def test_funnel_signals_are_consistent(small_logs):
    """Raw impression labels already respect the funnel: purchase implies
    cart, cart and favorite imply click."""
    for rec in small_logs:
        if not isinstance(rec, ImpressionGroup):
            continue
        for i in range(len(rec.item_ids)):
            if rec.labels["prch"][i]:
                assert rec.labels["cart"][i]
            if rec.labels["cart"][i] or rec.labels["fvrt"][i]:
                assert rec.labels["click"][i]


def test_click_events_follow_impression_labels(small_logs):
    """Every impressed click label has matching click events in the stream
    on the same day for the same user and item."""
    clicks = {(r.user_id, r.event.day, r.event.item_id)
              for r in small_logs
              if isinstance(r, EventRecord) and r.event.event_type is EventType.CLICK}
    for rec in small_logs:
        if isinstance(rec, ImpressionGroup):
            for item, y in zip(rec.item_ids, rec.labels["click"]):
                if y:
                    assert (rec.user_id, rec.day, item) in clicks


@given(n_items=st.integers(1, 80), n_users=st.integers(1, 20), n_categories=st.integers(2, 20),
       days=st.integers(2, 12), impressions_per_day=st.sampled_from([0.5, 1.0, 3.0]),
       group_size=st.integers(2, 8), seed=st.integers(0, 2**31))
@settings(max_examples=18, deadline=None)
def test_impression_labels_are_the_funnel_events_before_them(**kw):
    """An impression group's positive labels are the (item, signal) pairs of
    the run of surface-carrying events logged just before it: its clicks'
    funnels. A slate may repeat an item, so the pairs are counted."""
    run = Counter()
    for rec in simulate_logs(generate_world(SynthConfig(**kw))):
        if isinstance(rec, ImpressionGroup):
            assert run == Counter((rec.item_ids[pos], s) for s in SIGNALS
                                  for pos, y in enumerate(rec.labels[s]) if y)
            run = Counter()
        elif rec.event.surface_id is None:
            run = Counter()
        else:
            run[rec.event.item_id, signal_of(rec.event.event_type)] += 1


def test_web_queries_anticipate_interest(small_world, small_logs):
    """Query words are drawn from the category pool active a few days
    ahead, so queries just before a switch use the post-switch pool."""
    cfg = small_world.config
    hits = total = 0
    for rec in small_logs:
        if not (isinstance(rec, EventRecord) and rec.event.event_type is EventType.WEB_QUERY):
            continue
        day = rec.event.day
        future_day = min(day + cfg.query_lead_days, cfg.days - 1)
        future_cat = small_world.user_category(rec.user_id, future_day)
        pool = set(small_world.category_words[future_cat])
        total += 1
        if set(rec.event.text.split()) <= pool:
            hits += 1
    assert total > 0
    assert hits == total


# ---------------------------------------------------------------------------
# balanced evaluation groups
# ---------------------------------------------------------------------------


def test_balanced_groups_have_positives(small_world):
    groups = make_balanced_eval_groups(small_world, 5, 10, seed=3)
    assert groups
    for g in groups:
        assert g.has_positive()
        assert 5 <= g.day < 10
        assert len(g.item_ids) == small_world.config.group_size


def test_balanced_groups_cover_switch_days(small_world):
    start, end = 5, 10
    groups = make_balanced_eval_groups(small_world, start, end, seed=3)
    days_by_user = {}
    for g in groups:
        days_by_user.setdefault(g.user_id, []).append(g.day)
    for u in range(small_world.config.n_users):
        sd = int(small_world.user_switch_day[u])
        if start <= sd < end and u in days_by_user:
            assert sd in days_by_user[u]


def test_balanced_groups_deterministic(small_world):
    a = make_balanced_eval_groups(small_world, 5, 10, seed=3)
    b = make_balanced_eval_groups(small_world, 5, 10, seed=3)
    assert [(g.user_id, g.day, g.item_ids, g.labels) for g in a] == \
           [(g.user_id, g.day, g.item_ids, g.labels) for g in b]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_log_roundtrip(small_world, small_logs, tmp_path):
    path = tmp_path / "logs.ndjson"
    write_logs(small_world, small_logs, path)
    records = read_logs(path, small_world)
    assert len(records) == len(small_logs)
    for a, b in zip(records, small_logs):
        if isinstance(b, EventRecord):
            assert isinstance(a, EventRecord)
            assert a.event == b.event and a.user_id == b.user_id
        else:
            assert isinstance(a, ImpressionGroup)
            assert a.item_ids == b.item_ids and a.labels == b.labels


def _funnel_closed(labels) -> bool:
    """Purchase implies cart, and cart and favorite imply click, at each position."""
    return all(p <= a <= c and f <= c for c, a, f, p in
               zip(labels["click"], labels["cart"], labels["fvrt"], labels["prch"]))


@given(n_items=st.integers(1, 30), n_users=st.integers(1, 8), n_categories=st.integers(2, 20),
       days=st.integers(2, 8), organic_rate=st.sampled_from([0.0, 4.0]),
       impressions_per_day=st.sampled_from([0.0, 4.0]), query_rate=st.sampled_from([0.0, 2.0]),
       group_size=st.integers(2, 8), seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_read_logs_accepts_what_the_simulator_writes(tmp_path_factory, **kw):
    """Every line of simulated logs passes the log door, funnel rule and all,
    and reads back as the simulated records; evaluation labels are
    funnel-closed too. Worlds may have fewer items than categories."""
    world = generate_world(SynthConfig(**kw))
    records = simulate_logs(world)
    path = tmp_path_factory.mktemp("logs") / "logs.ndjson"
    write_logs(world, records, path)
    assert read_logs(path, world) == records
    assert all(_funnel_closed(r.labels) for r in records if isinstance(r, ImpressionGroup))
    for g in make_balanced_eval_groups(world, 0, world.config.days):
        assert _funnel_closed(g.labels)


def test_read_logs_rejects_unknown_record(small_world, tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type": "mystery"}\n')
    with pytest.raises(ValueError):
        read_logs(path, small_world)


def _item_line(world, i):
    return json.dumps({"type": "item", "id": i, "title": world.titles[i],
                       "category": int(world.item_categories[i])})


def _impression(items, drop=None, extra=None, surface=0, device=0, **set_signals):
    signals = {s: [0] * len(items) for s in SIGNALS if s != drop}
    if extra:
        signals[extra] = [0] * len(items)
    signals.update(set_signals)
    return json.dumps({"type": "impression", "day": 1, "user": 2, "surface": surface,
                       "device": device, "items": items, "signals": signals})


@pytest.mark.parametrize("line, message", [
    ('{"type": "impression", "day": 1, "user": 2, "surface": 0, "device": 0, "items": [1]}',
     r"impression line lacks or mistypes field\(s\) \['signals'\]"),
    ('{"type": "event", "day": "1", "user": 2, "event": "click", "text": "a", "item": 1,'
     ' "surface": 0}', r"event line lacks or mistypes field\(s\) \['day'\]"),
    ('{"type": "event", "day": 1, "user": true, "event": "click", "text": "a", "item": 1,'
     ' "surface": 0}', r"event line lacks or mistypes field\(s\) \['user'\]"),
    ('{"type": "item", "id": 0, "title": "a", "category": null}',
     r"item line lacks or mistypes field\(s\) \['category'\]"),
    ('["type", "item"]', "unknown log record type None"),
    ('{"type": ["event"]}', r"unknown log record type \['event'\]"),
    ('{"type": "event", "day": 1', ""),  # the message is json's
    (_impression([1, "2"]), "impression items must be integer ids"),
    (_impression([1, True]), "impression items must be integer ids"),
    (_impression([1, 2], drop="prch"), r"impression signals \['cart', 'click', 'fvrt'\] are not"),
    (_impression([1, 2], extra="view"), r"impression signals \[.*'view'\] are not"),
    (_impression([1, 2], click=[1]), "impression signal 'click' must be 2 0/1 ints"),
    (_impression([1, 2], click=[1, 2]), "impression signal 'click' must be 2 0/1 ints"),
    (_impression([1, 2], click=[1, True]), "impression signal 'click' must be 2 0/1 ints"),
    (_impression([1, 2], click="10"), "impression signal 'click' must be 2 0/1 ints"),
    (_impression([1, 2], surface=-3), r"impression line has negative context id\(s\) \['surface'"),
    (_impression([1, 2], device=-1), r"impression line has negative context id\(s\) \['device'"),
    (_impression([1, 2], cart=[0, 1]),
     "impression signal 'cart' is positive at position 1 without 'click'; labels must be "
     "funnel-closed"),
    (_impression([1, 2], click=[0, 1], fvrt=[1, 1]),
     "impression signal 'fvrt' is positive at position 0 without 'click'"),
    (_impression([1, 2], click=[1, 0], prch=[1, 0]),
     "impression signal 'prch' is positive at position 0 without 'cart'"),
    ('{"type": "event", "day": 1, "user": 2, "event": "click", "text": "a", "item": 1,'
     ' "surface": -2}', r"event line has negative context id\(s\) \['surface'\]"),
    # written as byte 0xff; the message is the codec's
    ('{"type": "item", "id": 1, "title": "\udcff", "category": 0}', ""),
    ('{"type": "event", "day": 1, "user": 2, "event": "click", "text": "a", "item": null,'
     ' "surface": 0}', "click events need item_id and title"),
    ('{"type": "event", "day": 1, "user": 2, "event": "purchase", "text": "", "item": 1,'
     ' "surface": 0}', "purchase events need item_id and title"),
    ('{"type": "event", "day": 1, "user": 2, "event": "web_query", "text": "a", "item": 1,'
     ' "surface": null}', "web_query events carry no item_id"),
], ids=["missing", "string-day", "bool-user", "null-category", "not-object", "list-type",
        "not-json", "string-item", "bool-item", "signal-missing", "signal-extra",
        "signal-short", "signal-not-binary", "signal-bool", "signal-not-list",
        "negative-surface", "negative-device", "cart-without-click", "fvrt-without-click",
        "prch-without-cart", "negative-event-surface", "not-utf8",
        "click-no-item", "purchase-no-title", "web-query-item"])
def test_read_logs_names_the_bad_line(small_world, tmp_path, line, message):
    path = tmp_path / "bad.ndjson"
    path.write_text(_item_line(small_world, 0) + "\n" + line + "\n",
                    encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError, match=rf"bad.ndjson line 2: {message}"):
        read_logs(path, small_world)


def test_read_logs_loads_a_web_query_without_text(small_world, tmp_path):
    """Only item events need a title: a web query's text may be empty."""
    path = tmp_path / "logs.ndjson"
    path.write_text("".join(_item_line(small_world, i) + "\n"
                            for i in range(small_world.config.n_items))
                    + json.dumps({"type": "event", "day": 1, "user": 2, "event": "web_query",
                                  "text": "", "item": None, "surface": None}) + "\n")
    [rec] = read_logs(path, small_world)
    assert rec.user_id == 2 and rec.event == Event(1, EventType.WEB_QUERY, "")


def _event(user=2, day=1, item=1):
    return json.dumps({"type": "event", "day": day, "user": user, "event": "click",
                       "text": "a", "item": item, "surface": None})


# the world is small_world: seed 0, 60 items, 20 users
@pytest.mark.parametrize("lines, lineno, message", [
    ([json.dumps({"type": "item", "id": 1, "title": "a b", "category": 0})], 2,
     r"logged item 1 is \('a b', 0\), but the \[world\] config \(seed 0\) makes it \("),
    ([json.dumps({"type": "item", "id": 60, "title": "a b", "category": 0})], 2,
     r"logged item 60 is .* makes it None"),
    ([_event(item=60)], 2, r"the logs name item 60, outside the catalog's 60 items"),
    ([_event(item=-1)], 2, r"the logs name item -1,"),
    ([_impression([1, 60])], 2, r"the logs name item 60,"),
    ([_impression([-1, 1])], 2, r"the logs name item -1,"),
    ([_event(user=20)], 2, r"logged user 20 is outside the \[world\] config's n_users of 20"),
    ([_event(user=-1)], 2, r"logged user -1 is outside"),
    ([_impression([1, 2]).replace('"user": 2', '"user": 20')], 2, r"logged user 20 is outside"),
    ([_event(day=5), _event(user=3, day=1), _impression([1, 2]), _event(day=4)], 5,
     r"user 2's events go back from day 5 to day 4; logs must be in day order per user"),
    ([_event(day=9), _event(day=10)], 3,
     r"logged day 10 is outside the \[world\] config's days of 10"),
    ([_impression([1, 2]).replace('"day": 1', '"day": -1')], 2, r"logged day -1 is outside"),
], ids=["item-of-another-world", "item-past-catalog", "event-item-past-catalog",
        "event-item-negative", "impression-item-past-catalog", "impression-item-negative",
        "event-user-outside", "event-user-negative", "impression-user-outside",
        "day-goes-back", "event-day-at-days", "impression-day-negative"])
def test_read_logs_holds_the_logs_to_the_world(small_world, tmp_path, lines, lineno, message):
    path = tmp_path / "bad.ndjson"
    path.write_text("\n".join([_item_line(small_world, 0)] + lines) + "\n")
    with pytest.raises(ValueError, match=rf"bad.ndjson line {lineno}: {message}"):
        read_logs(path, small_world)


def test_read_logs_names_a_missing_item(small_world, small_logs, tmp_path):
    path = tmp_path / "logs.ndjson"
    write_logs(small_world, small_logs, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))
    with pytest.raises(ValueError, match=r"logs.ndjson: the logs lack item 5, which the "
                                         r"\[world\] config \(seed 0\) makes \("):
        read_logs(path, small_world)
