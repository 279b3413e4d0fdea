"""Ground-truth generative simulator of an e-commerce platform.

A world holds latent user/item vectors with category structure, a
context-bias table over (surface, device), and templated titles that make
bag-of-subwords content embeddings informative. Logs interleave organic
events, web queries, and impression groups with injected context bias;
the stored latents and bias table let evaluation remove the bias again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .types import SIGNALS, Event, EventType, ImpressionGroup, check_least, signal_of

_ADJECTIVES = [
    "alpha", "bravo", "cobalt", "delta", "ember", "frost", "glint", "harbor",
    "ivory", "jade", "keen", "lunar", "mellow", "noble", "ochre", "prime",
    "quartz", "rustic", "slate", "tidal", "umber", "vivid", "willow", "zephyr",
]
_NOUNS = [
    "anchor", "beacon", "cedar", "drum", "engine", "fiber", "grove", "helix",
    "ingot", "jumper", "kettle", "lantern", "mantle", "needle", "orbit", "panel",
    "quiver", "ridge", "spool", "thicket", "urn", "vessel", "wicker", "yoke",
]
_COMMON = ["classic", "new", "pro", "mini", "set"]


@dataclass
class SynthConfig:
    n_items: int = 2000
    n_users: int = 500
    n_categories: int = 8
    latent_dim: int = 8
    n_surfaces: int = 4
    n_devices: int = 2
    days: int = 60
    bias_strength: float = 1.0
    relevance_scale: float = 7.0
    click_offset: float = -1.0
    organic_rate: float = 1.2       # expected organic funnels per user-day
    impressions_per_day: float = 1.0
    group_size: int = 6
    query_rate: float = 0.5         # web queries per user-day
    query_lead_days: int = 4        # queries anticipate interest this early
    seed: int = 0

    def __post_init__(self):
        # a rate or strength of 0 is a world without that effect; a slate
        # of one item has nothing to rank
        check_least(vars(self), (
            ("n_items", 1), ("n_users", 1), ("n_categories", 2), ("latent_dim", 2),
            ("n_surfaces", 2), ("n_devices", 2), ("days", 2), ("bias_strength", 0),
            ("relevance_scale", 0), ("click_offset", -math.inf), ("organic_rate", 0),
            ("impressions_per_day", 0), ("group_size", 2), ("query_rate", 0),
            ("query_lead_days", 0), ("seed", 0)))


@dataclass
class EventRecord:
    user_id: int
    event: Event


LogRecord = EventRecord | ImpressionGroup


@dataclass
class SynthWorld:
    config: SynthConfig
    item_latents: np.ndarray          # (n_items, m)
    item_categories: np.ndarray       # (n_items,) int
    titles: list[str]
    category_words: list[list[str]]
    user_base: np.ndarray             # (n_users, m) personal noise
    user_primary: np.ndarray          # (n_users,) first interest category
    user_secondary: np.ndarray        # (n_users,) post-switch category
    user_switch_day: np.ndarray       # (n_users,) int
    user_device: np.ndarray           # (n_users,) int
    category_centers: np.ndarray      # (n_categories, m)
    bias_table: np.ndarray            # (n_surfaces, n_devices)

    def user_latent(self, user: int, day: int) -> np.ndarray:
        z = self.category_centers[self.user_category(user, day)] + self.user_base[user]
        return z / np.linalg.norm(z)

    def user_category(self, user: int, day: int) -> int:
        return int(self.user_primary[user] if day < self.user_switch_day[user]
                   else self.user_secondary[user])

    def title_corpus(self) -> list[str]:
        lines = list(self.titles)
        for words in self.category_words:
            lines.append(" ".join(words))
        return lines


def _title_draws(rng: np.random.Generator, per_cat: int,
                 n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Each item's three word picks and `_COMMON` index, equal to `n_items`
    rounds of `rng.choice(per_cat, 3, replace=False)` then
    `rng.integers(0, len(_COMMON))`, with `rng` left where those calls leave it.

    A round is six bounded draws, made in this order by one `rng.integers`
    call with a bound per column, by the same rule and from the same 32-bit
    stream as those calls: Floyd's three draws over [0, j],
    j = per_cat-3 .. per_cat-1 (a value already drawn becomes j), the swaps of
    a 3-element shuffle at i = 2 and i = 1, then the common word. The dtype
    must stay 32 or 64 bits wide: `np.uint8` and `np.uint16` draw another
    stream."""
    bounds = [per_cat - 2, per_cat - 1, per_cat, 3, 2, len(_COMMON)]
    picks = np.empty((n_items, 3), dtype=np.intp)
    common = np.empty(n_items, dtype=np.intp)
    # passes of at most 4096 rounds keep the temporaries, and so the resident
    # memory of set-up, small
    for lo in range(0, n_items, 4096):
        d = rng.integers(0, bounds, size=(min(n_items - lo, 4096), 6), dtype=np.uint32)
        p = picks[lo:lo + len(d)]
        p[:] = d[:, :3]
        p[p[:, 1] == p[:, 0], 1] = per_cat - 2
        p[(p[:, 2] == p[:, 0]) | (p[:, 2] == p[:, 1]), 2] = per_cat - 1
        rows = np.arange(len(d))
        for i, j in ((2, d[:, 3]), (1, d[:, 4])):
            p[rows, i], p[rows, j] = p[rows, j], p[:, i].copy()
        common[lo:lo + len(d)] = d[:, 5]
    return picks, common


def generate_world(config: SynthConfig) -> SynthWorld:
    """Deterministic world construction from config.seed."""
    rng = np.random.default_rng(config.seed)
    m, C = config.latent_dim, config.n_categories

    centers = rng.normal(size=(C, m))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    item_categories = rng.integers(0, C, size=config.n_items)

    # category word templates: each category owns a small pool so items in
    # one category share title words
    flat = sorted(set(_ADJECTIVES + _NOUNS))
    perm = rng.permutation(len(flat))
    per_cat = max(4, len(flat) // C)
    category_words = []
    for c in range(C):
        lo = (c * per_cat) % len(flat)
        idx = [perm[(lo + i) % len(flat)] for i in range(per_cat)]
        category_words.append([flat[i] for i in idx])

    # every category word carries its own latent direction near the
    # category center; an item's latent is the normalized mean of its
    # title words' vectors, so relevance is learnable from titles down to
    # the within-category level
    word_vectors: dict[str, np.ndarray] = {}
    for c in range(C):
        for w in category_words[c]:
            v = centers[c] + 1.0 * rng.normal(size=m)
            word_vectors[w] = v / np.linalg.norm(v)

    # the titles' draws are those of a per-item rng.choice/rng.integers loop,
    # value for value, made by one bounded rng.integers call per pass; should
    # numpy's draws change, the loop reference in
    # test_world_items_match_the_per_item_loop fails
    picks, common = _title_draws(rng, per_cat, config.n_items)
    titles = []
    for i, (c, p0, p1, p2, k) in enumerate(zip(item_categories.tolist(), *picks.T.tolist(),
                                               common.tolist())):
        words = category_words[c]
        titles.append(f"{words[p0]} {words[p1]} {words[p2]} {_COMMON[k]} sku{i % 97}")

    # categories may share words (n_categories > 12); a word's vector is its
    # last draw. The steps are np.mean's and the per-row np.linalg.norm's, so
    # the latents are bit-equal to a per-item loop.
    table = np.array([[word_vectors[w] for w in words] for words in category_words])
    item_latents = table[item_categories, picks[:, 0]]
    item_latents += table[item_categories, picks[:, 1]]
    item_latents += table[item_categories, picks[:, 2]]
    item_latents /= 3
    item_latents /= np.sqrt(np.matmul(item_latents[:, None, :], item_latents[:, :, None])[:, 0])

    user_primary = rng.integers(0, C, size=config.n_users)
    shift = rng.integers(1, C, size=config.n_users)
    user_secondary = (user_primary + shift) % C
    lo, hi = int(config.days * 0.3), max(int(config.days * 0.95), int(config.days * 0.3) + 1)
    user_switch_day = rng.integers(lo, hi, size=config.n_users)
    user_base = 0.25 * rng.normal(size=(config.n_users, m))
    user_device = rng.integers(0, config.n_devices, size=config.n_users)

    # one surface gets a strong positive bias, one a negative one; the rest
    # scale down smoothly. The log simulator reads it from the world.
    surface_pattern = np.zeros(config.n_surfaces)
    surface_pattern[0] = 1.8
    surface_pattern[1] = -0.6
    for s in range(2, config.n_surfaces):
        surface_pattern[s] = 0.3 * ((-1) ** s)
    device_pattern = np.linspace(-0.2, 0.2, config.n_devices)
    bias_table = config.bias_strength * (surface_pattern[:, None] + device_pattern[None, :])

    return SynthWorld(
        config=config,
        item_latents=item_latents,
        item_categories=item_categories,
        titles=titles,
        category_words=category_words,
        user_base=user_base,
        user_primary=user_primary,
        user_secondary=user_secondary,
        user_switch_day=user_switch_day,
        user_device=user_device,
        category_centers=centers,
        bias_table=bias_table,
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _query_text(world: SynthWorld, user: int, day: int, rng) -> str:
    cat = world.user_category(user, min(day + world.config.query_lead_days,
                                        world.config.days - 1))
    words = world.category_words[cat]
    k = 2 if rng.random() < 0.7 else 1
    picks = rng.choice(len(words), size=k, replace=False)
    return " ".join(words[j] for j in picks)


def _category_items(world: SynthWorld) -> list[np.ndarray]:
    """Each category's item ids, ascending."""
    return [np.nonzero(world.item_categories == c)[0]
            for c in range(world.config.n_categories)]


def _slate(world: SynthWorld, in_cat: np.ndarray, rng) -> tuple[list[int], dict[str, list[int]]]:
    """An impression group's items (up to group_size - 2 distinct ones from
    `in_cat`, one category's items, the rest uniform over the catalog) and
    all-zero labels."""
    cfg = world.config
    k_rel = max(cfg.group_size - 2, 1)
    rel = rng.choice(in_cat, size=min(k_rel, len(in_cat)), replace=False)
    rest = rng.integers(0, cfg.n_items, size=cfg.group_size - len(rel))
    items = [int(i) for i in np.concatenate([rel, rest])]
    return items, {s: [0] * len(items) for s in SIGNALS}


# a click's chance to go on to favorites, to the cart, and from the cart to a purchase
P_FVRT, P_CART, P_PRCH = 0.12, 0.3, 0.35
# the funnel as labels: each (signal, the signal it needs at the same position)
_FUNNEL_NEEDS = (("cart", "click"), ("fvrt", "click"), ("prch", "cart"))


def _funnel_events(day: int, item: int, title: str, surface, rng) -> list[Event]:
    """Click plus optional deeper funnel steps, in funnel order."""
    events = [Event(day, EventType.CLICK, title, int(item), surface)]
    if rng.random() < P_FVRT:
        events.append(Event(day, EventType.ADD_TO_FAVORITES, title, int(item), surface))
    if rng.random() < P_CART:
        events.append(Event(day, EventType.ADD_TO_CART, title, int(item), surface))
        if rng.random() < P_PRCH:
            events.append(Event(day, EventType.PURCHASE, title, int(item), surface))
    return events


def simulate_logs(world: SynthWorld) -> list[LogRecord]:
    """Day-ordered stream of organic events, web queries, and impressions."""
    cfg = world.config
    rng = np.random.default_rng(cfg.seed + 1)
    by_category = _category_items(world)
    records: list[LogRecord] = []
    for day in range(cfg.days):
        for user in range(cfg.n_users):
            z_u = world.user_latent(user, day)
            cat = world.user_category(user, day)
            device = int(world.user_device[user])

            # web queries anticipating (near-)future interest
            if rng.random() < cfg.query_rate:
                records.append(EventRecord(user, Event(
                    day, EventType.WEB_QUERY, _query_text(world, user, day, rng))))

            # organic engagement, mostly within the current category
            n_organic = rng.poisson(cfg.organic_rate)
            for _ in range(n_organic):
                # a category with no item (a small catalog) draws from all items
                if rng.random() < 0.8 and len(cand := by_category[cat]):
                    item = int(cand[rng.integers(0, len(cand))])
                else:
                    item = int(rng.integers(0, cfg.n_items))
                records.extend(EventRecord(user, e) for e in
                               _funnel_events(day, item, world.titles[item], None, rng))

            # impressions with context bias in the labels
            n_imp = rng.poisson(cfg.impressions_per_day)
            for _ in range(n_imp):
                # surfaces correlate with the interest category (category
                # hubs), so label bias is confounded with content unless a
                # model carries an explicit context term
                if rng.random() < 0.7:
                    surface = cat % cfg.n_surfaces
                else:
                    surface = int(rng.integers(0, cfg.n_surfaces))
                b_ctx = float(world.bias_table[surface, device])
                items, labels = _slate(world, by_category[cat], rng)
                for pos, item in enumerate(items):
                    p_click = _sigmoid(cfg.relevance_scale * float(z_u @ world.item_latents[item])
                                       + b_ctx + cfg.click_offset)
                    if rng.random() < p_click:
                        for e in _funnel_events(day, item, world.titles[item], surface, rng):
                            records.append(EventRecord(user, e))
                            labels[signal_of(e.event_type)][pos] = 1
                records.append(ImpressionGroup(
                    user_id=user, day=day, surface_id=surface, device_id=device,
                    item_ids=items, labels=labels))
    return records


def make_balanced_eval_groups(world: SynthWorld, start_day: int, end_day: int,
                              seed: int = 99, groups_per_user: int = 2) -> list[ImpressionGroup]:
    """Context-balanced impression groups for evaluation: labels are drawn
    with the stored bias removed, surfaces assigned round-robin."""
    cfg = world.config
    rng = np.random.default_rng(seed)
    by_category = _category_items(world)
    out: list[ImpressionGroup] = []
    for user in range(cfg.n_users):
        switch = int(world.user_switch_day[user])
        for g in range(groups_per_user):
            if g == 0 and start_day <= switch < end_day:
                # evaluate switching users right at their interest change:
                # their new category is still undiscovered there
                day = switch
            else:
                day = int(rng.integers(start_day, end_day))
            z_u = world.user_latent(user, day)
            cat = world.user_category(user, day)
            surface = (user + g) % cfg.n_surfaces
            device = int(world.user_device[user])
            items, labels = _slate(world, by_category[cat], rng)
            for pos, item in enumerate(items):
                p = _sigmoid(cfg.relevance_scale * float(z_u @ world.item_latents[item])
                             + cfg.click_offset)
                if rng.random() < p:
                    labels["click"][pos] = 1
                    if rng.random() < 0.3:
                        labels["cart"][pos] = 1
            grp = ImpressionGroup(user_id=user, day=day, surface_id=surface,
                                  device_id=device, item_ids=items, labels=labels)
            if grp.has_positive():
                out.append(grp)
    return out


# ---------------------------------------------------------------------------
# log (de)serialization: newline-delimited JSON
# ---------------------------------------------------------------------------


# json.dumps' own string encoder, so that each line has the bytes json.dumps
# gives its fields
_json_str = json.encoder.encode_basestring_ascii


def _json_ints(values) -> str:
    return "[" + ", ".join(map(str, values)) + "]"


def write_logs(world: SynthWorld, records: list[LogRecord], path) -> None:
    """One JSON line per catalog item, then one per record, each line
    built directly with json.dumps' separators and string encoding."""
    s = _json_str
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"type": "item", "id": {i}, "title": {s(title)}, "category": {c}}}\n'
                      for i, (title, c) in enumerate(zip(world.titles,
                                                         world.item_categories.tolist())))
        for rec in records:
            if isinstance(rec, EventRecord):
                e = rec.event
                item = "null" if e.item_id is None else e.item_id
                surface = "null" if e.surface_id is None else e.surface_id
                fh.write(f'{{"type": "event", "day": {e.day}, "user": {rec.user_id}, '
                         f'"event": {s(e.event_type.value)}, "text": {s(e.text)}, '
                         f'"item": {item}, "surface": {surface}}}\n')
            else:
                signals = ", ".join(f"{s(k)}: {_json_ints(v)}" for k, v in rec.labels.items())
                fh.write(f'{{"type": "impression", "day": {rec.day}, "user": {rec.user_id}, '
                         f'"surface": {rec.surface_id}, "device": {rec.device_id}, '
                         f'"items": {_json_ints(rec.item_ids)}, "signals": {{{signals}}}}}\n')


_OPT_INT = (int, type(None))
# the JSON type of each field of each log line type, as write_logs writes them
_LOG_FIELDS = {
    "item": dict(id=int, title=str, category=int),
    "event": dict(day=int, user=int, event=str, text=str, item=_OPT_INT, surface=_OPT_INT),
    "impression": dict(day=int, user=int, surface=int, device=int, items=list, signals=dict),
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_impression(items: list, signals: dict) -> None:
    """Item ids are ints; `signals` holds one 0/1 int list per signal, as
    long as `items`, closed under the funnel of `_funnel_events`."""
    if not all(_is_int(i) for i in items):
        raise ValueError("impression items must be integer ids")
    if set(signals) != set(SIGNALS):
        raise ValueError(f"impression signals {sorted(signals)} are not {sorted(SIGNALS)}")
    for name, ys in signals.items():
        if (not isinstance(ys, list) or len(ys) != len(items)
                or not all(_is_int(y) and y in (0, 1) for y in ys)):
            raise ValueError(f"impression signal {name!r} must be {len(items)} 0/1 ints")
    for name, need in _FUNNEL_NEEDS:
        if 1 in signals[name]:  # most slates hold no positive of a deeper step
            pos = next((p for p, (y, z) in enumerate(zip(signals[name], signals[need]))
                        if y > z), None)
            if pos is not None:
                raise ValueError(f"impression signal {name!r} is positive at position {pos} "
                                 f"without {need!r}; labels must be funnel-closed")


def _made_item(world: SynthWorld, i: int) -> tuple[str, int]:
    """Item `i`'s (title, category), as an item line logs them."""
    return world.titles[i], int(world.item_categories[i])


def read_logs(path, world: SynthWorld) -> list[LogRecord]:
    """The records of the logs at `path`, which must come from `world`. A
    line that is not UTF-8 JSON with write_logs' fields and types, or that
    breaks a rule of `world` or of day order, raises ValueError naming it."""
    cfg = world.config
    seen = [False] * cfg.n_items
    last_day: dict[int, int] = {}
    records: list[LogRecord] = []
    with open(path, "rb") as fh:  # decoded line by line, so that an error names its line
        for lineno, line in enumerate(fh, 1):
            try:
                obj = json.loads(line.decode("utf-8"))
                kind = obj.get("type") if isinstance(obj, dict) else None
                if not isinstance(kind, str) or kind not in _LOG_FIELDS:
                    raise ValueError(f"unknown log record type {kind!r}")
                bad = [k for k, t in _LOG_FIELDS[kind].items() if k not in obj
                       or not isinstance(obj[k], t) or isinstance(obj[k], bool)]
                if bad:
                    raise ValueError(f"{kind} line lacks or mistypes field(s) {bad}")
                negative = [k for k in ("surface", "device") if (obj.get(k) or 0) < 0]
                if negative:
                    raise ValueError(f"{kind} line has negative context id(s) {negative}")
                if kind == "item":
                    # the towers read titles from the world, so the logs must come from it
                    i, logged = obj["id"], (obj["title"], obj["category"])
                    made = _made_item(world, i) if 0 <= i < cfg.n_items else None
                    if logged != made:
                        raise ValueError(f"logged item {i} is {logged}, but the [world] "
                                         f"config (seed {cfg.seed}) makes it {made}")
                    seen[i] = True
                    continue
                user, day = obj["user"], obj["day"]
                if not 0 <= user < cfg.n_users:
                    raise ValueError(f"logged user {user} is outside the [world] "
                                     f"config's n_users of {cfg.n_users}")
                if not 0 <= day < cfg.days:
                    raise ValueError(f"logged day {day} is outside the [world] "
                                     f"config's days of {cfg.days}")
                if kind == "event":
                    if day < last_day.get(user, day):
                        raise ValueError(f"user {user}'s events go back from day {last_day[user]} "
                                         f"to day {day}; logs must be in day order per user")
                    last_day[user] = day
                    event_type, item = EventType(obj["event"]), obj["item"]
                    if event_type is EventType.WEB_QUERY:
                        if item is not None:
                            raise ValueError("web_query events carry no item_id")
                    elif item is None or not obj["text"]:
                        raise ValueError(f"{event_type.value} events need item_id and title")
                    items = [] if item is None else [item]
                    rec = EventRecord(user, Event(day, event_type, obj["text"], item,
                                                  obj["surface"]))
                else:
                    items = obj["items"]
                    _check_impression(items, obj["signals"])
                    rec = ImpressionGroup(user_id=user, day=day, surface_id=obj["surface"],
                                          device_id=obj["device"], item_ids=items,
                                          labels=obj["signals"])
                outside = [i for i in items if not 0 <= i < cfg.n_items]
                if outside:
                    raise ValueError(f"the logs name item {outside[0]}, outside the "
                                     f"catalog's {cfg.n_items} items")
                records.append(rec)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not all(seen):
        i = seen.index(False)
        raise ValueError(f"{path}: the logs lack item {i}, which the [world] config "
                         f"(seed {cfg.seed}) makes {_made_item(world, i)}")
    return records
