"""Relational pipelines over the TPC-H-ish tables.

The reference's tabular surface (result folding / filtering / grouped
means, ``/root/reference/scripts/data_reader.py``,
``scripts/plot/paper_plots/plot_figures.py:214-320``) generalizes to
these operators: filtered grouped aggregates, broadcast joins against
dimension tables, top-k, and ordered per-key window logic
(sessionization).  Each pipeline has a matching ANSI-SQL oracle in
``__ray_entry__.oracle_sql``.

Join strategy: dimension tables (customer/part/supplier/...) are the
small side → broadcast via ``ray.put`` + vectorized numpy lookup inside
``map_batches`` (no shuffle).  Fact-fact joins would use
``Dataset.join`` (hash-partitioned) — not needed by these pipelines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hedonic_ray.context import configure_context


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    configure_context()
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _collect_columns(ds, cols: list[str]) -> dict[str, np.ndarray]:
    out = {c: [] for c in cols}
    for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for c in cols:
            out[c].append(b.column(c).to_numpy(zero_copy_only=False))
    return {c: np.concatenate(v) for c, v in out.items()}


def scale_to_int(ds, spec: dict[str, tuple[str, float]]):
    """Replace float columns with scaled BIGINTs: out_name = round(col *
    factor).  Float aggregates differ across engines at the last ulp
    (summation order), so rounded floats are NOT hash-stable; scaled
    integers are — the SQL oracles apply the identical
    CAST(ROUND(x * factor) AS BIGINT)."""

    def f(t: pa.Table) -> pa.Table:
        for out_name, (col, factor) in spec.items():
            scaled = pc.round(pc.multiply(t.column(col), pa.scalar(factor)))
            t = t.drop_columns([col]).append_column(
                out_name, pc.cast(scaled, pa.int64()))
        return t

    return ds.map_batches(f, batch_format="pyarrow")


def broadcast_lookup(keys_ref):
    """Returns a per-batch vectorized mapper: key array → value array
    via a broadcast sorted (keys, values) pair."""
    import ray

    sorted_keys, values = ray.get(keys_ref)

    def lookup(arr: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_keys, arr)
        pos = np.clip(pos, 0, len(sorted_keys) - 1)
        ok = sorted_keys[pos] == arr
        return values[pos], ok

    return lookup


# ---------------------------------------------------------------- pipelines


def pricing_summary(sf_dir: str):
    """Q1-style: filtered grouped sums over lineitem (one shuffle after
    vectorized per-batch derivation)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"),
                                   pa.scalar(np.datetime64("1998-09-02", "us"))))
        disc = pc.multiply(t.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return t.append_column("disc_price", disc)

    out = (ds.map_batches(derive, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("l_quantity", alias_name="sum_qty"),
                      Sum("l_extendedprice", alias_name="sum_base_price"),
                      Sum("disc_price", alias_name="sum_disc_price"),
                      Count(alias_name="count_order")))

    def finalize(t: pa.Table) -> pa.Table:
        # sums of exact-decimal values scaled to native precision (2dp
        # prices, 4dp discounted products) round to stable integers;
        # averages derive from those integers with FLOOR (identical
        # doubles on both engines → identical floor, no tie rule issues)
        sum_qty_c = pc.cast(pc.round(pc.multiply(t.column("sum_qty"), 100.0)),
                            pa.int64())
        avg = pc.floor(pc.divide(
            pc.multiply(pc.cast(sum_qty_c, pa.float64()), 1e4),
            pc.cast(t.column("count_order"), pa.float64())))
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "sum_qty_c": sum_qty_c,
            "sum_base_price_c": pc.cast(pc.round(pc.multiply(
                t.column("sum_base_price"), 100.0)), pa.int64()),
            "sum_disc_price_c4": pc.cast(pc.round(pc.multiply(
                t.column("sum_disc_price"), 1e4)), pa.int64()),
            "avg_qty_micro": pc.cast(avg, pa.int64()),
            "count_order": t.column("count_order"),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def top_revenue_orders(sf_dir: str, segment: str = "BUILDING", k: int = 10,
                       num_partitions: int = 8):
    """Q3-style: customer is the legitimate broadcast side (dimension);
    orders is filtered DISTRIBUTED against the broadcast custkey set,
    and the qualifying orderkeys semi-join lineitem via a
    hash-partitioned ``Dataset.join`` — no fact table ever lands on the
    driver."""
    import ray
    from ray.data.aggregate import Sum

    cust = _collect_columns(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        ["c_custkey", "c_mktsegment"])
    keep_cust = np.sort(cust["c_custkey"][cust["c_mktsegment"] == segment])
    ref = ray.put(keep_cust)

    def filt_orders(t: pa.Table) -> pa.Table:
        kc = ray.get(ref)
        keys = t.column("o_custkey").to_numpy()
        p = np.clip(np.searchsorted(kc, keys), 0, max(0, len(kc) - 1))
        mask = (kc[p] == keys) if len(kc) else np.zeros(len(keys), bool)
        return t.filter(pa.array(mask)).select(["o_orderkey"])

    from hedonic_ray.context import drop_empty_blocks

    qual = drop_empty_blocks(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(filt_orders, batch_format="pyarrow"),
        pa.schema([("o_orderkey", pa.int64())]))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    j = li.join(qual, "inner", num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def derive(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return pa.table({"o_orderkey": t.column("l_orderkey"), "revenue": rev})

    grouped = (j.map_batches(derive, batch_format="pyarrow")
               .groupby("o_orderkey").aggregate(Sum("revenue", alias_name="revenue")))
    top = grouped.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(k)
    return scale_to_int(top, {"revenue_c4": ("revenue", 1e4)})


def order_priority_count(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("o_orderstatus"), "O")),
        batch_format="pyarrow")
    return ds.groupby("o_orderpriority").aggregate(Count(alias_name="n_orders"))


def events_hourly(sf_dir: str):
    """Tumbling-window aggregate: (event_type, hour bucket) → count/sum."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64())
        hour = pc.floor(pc.divide(pc.cast(us, pa.float64()), 3_600_000_000.0))
        return pa.table({"event_type": t.column("event_type"),
                         "hour": pc.cast(hour, pa.int64()),
                         "value": t.column("value")})

    _out = (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby(["event_type", "hour"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("value", alias_name="sum_value")))
    return scale_to_int(_out, {"sum_value_micro": ("sum_value", 1e6)})


def asof_orders_for_events(sf_dir: str):
    """Backward as-of join: each event matched to the user's most
    recent order at-or-before the event timestamp (ties → smallest
    orderkey).  One hash exchange; per-key vectorized searchsorted
    (`relational/asof.py`).  Unmatched events keep -1 sentinels so the
    result is one NULL-free row per event."""
    from hedonic_ray.relational.asof import asof_backward

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    od = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    out = asof_backward(ev, od, left_key="user_id", right_key="o_custkey",
                        left_time="ts", right_time="o_orderdate",
                        left_id="event_id", right_id="o_orderkey",
                        right_val="o_totalprice")

    def finalize(t: pa.Table) -> pa.Table:
        r = t.column("r").to_numpy().astype(np.int64)
        # both engines compute the identical double o_totalprice*100
        # and floor it — no tie risk (same rule as quality_scores e9)
        e2 = np.floor(t.column("rv").to_numpy() * 100.0).astype(np.int64)
        return pa.table({"event_id": t.column("l"),
                         "asof_orderkey": pa.array(r),
                         "asof_price_e2": pa.array(np.where(r >= 0, e2, -1))})

    return out.map_batches(finalize, batch_format="pyarrow").sort("event_id")


def _topk_per_key(key: np.ndarray, val: np.ndarray, rid: np.ndarray, k: int):
    """Row indices of the top-k rows per key (val DESC, id ASC ties),
    plus each kept row's 1-based rank — one lexsort, no Python loop."""
    order = np.lexsort((rid, -val, key))
    kk = key[order]
    starts = np.flatnonzero(np.concatenate(([True], kk[1:] != kk[:-1])))
    rank = np.arange(len(kk)) - np.repeat(starts, np.diff(
        np.concatenate((starts, [len(kk)]))))
    keep = rank < k
    return order[keep], (rank[keep] + 1).astype(np.int64)


def grouped_topk(ds, *, key_col: str, val_col: str, id_col: str, k: int):
    """Distributed grouped top-k: per-batch partial top-k per key (a
    valid combiner — any global top-k row is a batch top-k row), so
    the ONE ``groupby(key)`` exchange carries ≤ k rows per key per
    input batch instead of the whole table; the per-group finalizer
    re-runs the same kernel.  Deterministic ties: val DESC, id ASC.
    Emits (key, id, val, rnk 1..k)."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        idx, _ = _topk_per_key(
            t.column(key_col).to_numpy(zero_copy_only=False),
            t.column(val_col).to_numpy(), t.column(id_col).to_numpy(), k)
        return t.take(pa.array(np.sort(idx)))

    def final(g: dict) -> dict:
        idx, rnk = _topk_per_key(g[key_col], g[val_col], g[id_col], k)
        return {key_col: g[key_col][idx], id_col: g[id_col][idx],
                val_col: g[val_col][idx], "rnk": rnk}

    return (ds.select_columns([key_col, id_col, val_col])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(key_col).map_groups(final, batch_format="numpy"))


def top_parts_per_brand(sf_dir: str, k: int = 3):
    """Grouped top-k: the k highest-priced parts per brand (ties →
    smallest partkey), via the combiner-shaped `grouped_topk`."""
    ds = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])
    out = grouped_topk(ds, key_col="p_brand", val_col="p_retailprice",
                       id_col="p_partkey", k=k)

    def finalize(t: pa.Table) -> pa.Table:
        e2 = np.floor(t.column("p_retailprice").to_numpy() * 100.0)
        return pa.table({"p_brand": t.column("p_brand"),
                         "p_partkey": t.column("p_partkey"),
                         "price_e2": pa.array(e2.astype(np.int64)),
                         "rnk": t.column("rnk")})

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort(["p_brand", "rnk"]))


def customers_without_events(sf_dir: str, num_partitions: int = 8,
                             method: str = "auto"):
    """Anti-join (TPC-H Q22 shape): per market segment, the count and
    exact integer-cent account-balance sum of customers with NO click
    events.  Uses Ray Data's native ``left_anti`` hash join; the
    events side is pre-shrunk by a per-batch ``np.unique`` combiner
    (only distinct user ids per batch enter the exchange — at scale
    that is |users| keys, not |events| rows).

    ``method="bloom"`` (auto under force_scale — the 100-TB shape):
    a broadcast Bloom filter of the key side splits the big side
    INSIDE each map task — bloom-miss rows are definitely anti-matches
    and bypass the join entirely; only bloom-hit rows (true matches +
    ≈0.6 % false positives) enter the hash-join exchange, which then
    decides them exactly.  No false negatives ⇒ identical output,
    exchange volume |matches| + ε·|big| instead of |big|."""
    return _customers_events_join(sf_dir, num_partitions, method,
                                  semi=False)


def customers_with_events(sf_dir: str, num_partitions: int = 8,
                          method: str = "auto"):
    """SEMI-join complement of :func:`customers_without_events`: per
    market segment, count + exact cent sum of customers with at least
    one click event.  Same machinery, ``left_semi`` join; under the
    Bloom method the bloom-MISS rows are definite non-matches and are
    DROPPED before the exchange (the mirror of the anti-join's
    bypass)."""
    return _customers_events_join(sf_dir, num_partitions, method,
                                  semi=True)


def _customers_events_join(sf_dir: str, num_partitions: int,
                           method: str, semi: bool):
    from ray.data.aggregate import Count, Sum
    from hedonic_ray.context import drop_empty_blocks, force_scale

    if method == "auto":
        method = "bloom" if force_scale() else "join"
    if method not in ("join", "bloom"):
        raise ValueError(f"unknown customers event-join method "
                         f"{method!r}")
    join_type = "left_semi" if semi else "left_anti"

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"])

    def distinct_keys(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": pa.array(
            np.unique(t.column("user_id").to_numpy()))})

    evk = drop_empty_blocks(
        _read(sf_dir, "events", ["user_id"])
        .map_batches(distinct_keys, batch_format="pyarrow"),
        pa.schema([("user_id", pa.int64())]))

    if method == "bloom":
        import ray
        from hedonic_ray.ops.bloom import build_bloom, bloom_maybe_contains

        keys = np.unique(np.concatenate(
            [b.column("user_id").to_numpy()
             for b in evk.iter_batches(batch_size=65536,
                                       batch_format="pyarrow")]
            or [np.empty(0, np.int64)]))
        bloom_ref = ray.put(build_bloom(keys))

        def split(t: pa.Table) -> pa.Table:
            hit = bloom_maybe_contains(
                ray.get(bloom_ref), t.column("c_custkey").to_numpy())
            return t.append_column("_hit", pa.array(hit))

        tagged = cust.map_batches(split, batch_format="pyarrow")
        misses = tagged.filter(expr="_hit == False").drop_columns(["_hit"])
        hits = tagged.filter(expr="_hit == True").drop_columns(["_hit"])
        schema = pa.schema([("c_custkey", pa.int64()),
                            ("c_mktsegment", pa.string()),
                            ("c_acctbal", pa.float64())])
        joined_hits = drop_empty_blocks(hits, schema).join(
            evk, join_type, num_partitions,
            on=("c_custkey",), right_on=("user_id",))
        # semi: misses are definite non-matches — dropped;
        # anti: misses are definite matches — bypass the exchange
        anti = joined_hits if semi else misses.union(joined_hits)
    else:
        anti = cust.join(evk, join_type, num_partitions,
                         on=("c_custkey",), right_on=("user_id",))

    def to_e2(t: pa.Table) -> pa.Table:
        e2 = np.floor(t.column("c_acctbal").to_numpy() * 100.0)
        return pa.table({"c_mktsegment": t.column("c_mktsegment"),
                         "acctbal_e2": pa.array(e2.astype(np.int64))})

    return (anti.map_batches(to_e2, batch_format="pyarrow")
            .groupby("c_mktsegment")
            .aggregate(Count(alias_name="n_customers"),
                       Sum("acctbal_e2", alias_name="sum_acctbal_e2")))


def json_props_stats(sf_dir: str):
    """Typed field extraction from the JSON ``props`` column, fully
    vectorized: one ``pc.extract_regex`` Arrow kernel per batch (no
    per-row parse), then a grouped count/sum/max of the extracted
    integer.  The semi-structured-column pattern for webtext corpora
    where per-document metadata rides as JSON strings."""
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def ext(t: pa.Table) -> pa.Table:
        s = pc.extract_regex(t.column("props"),
                             pattern=r'"k":\s*(?P<k>-?\d+)')
        return pa.table({"event_type": t.column("event_type"),
                         "k": pc.cast(pc.struct_field(s, "k"), pa.int64())})

    return (ds.map_batches(ext, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Count(alias_name="n_events"),
                       Sum("k", alias_name="sum_k"),
                       Max("k", alias_name="max_k")))


def distinct_users_per_type(sf_dir: str):
    """Grouped distinct count: distinct users per event type via the
    per-batch factorize/unique combiner (`ops/sketch.py` — duplicate
    pairs inside a batch never enter the exchange).  The same entry
    point's ``method="hll"`` swaps in mergeable HyperLogLog register
    partials (exchange volume independent of the event count — the
    100 TB shape; pytest-gated, estimates aren't SQL-reproducible)."""
    from hedonic_ray.ops.sketch import grouped_distinct_count

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return grouped_distinct_count(
        ds, key_col="event_type", val_col="user_id").sort("event_type")


def order_range_density(sf_dir: str, range_days: int = 90):
    """Trailing range-join aggregate (self-join): per order, the count
    and exact integer-cent price sum of the SAME customer's orders
    dated within the trailing ``range_days`` window
    ``[o_orderdate - range, o_orderdate]`` (inclusive — so every order
    counts itself and n_orders ≥ 1).  One hash exchange + a per-key
    searchsorted/prefix-sum kernel
    (`relational/asof.py:range_agg_backward`) — no pairwise join rows
    ever materialize, so window width doesn't change the cost."""
    from hedonic_ray.relational.asof import range_agg_backward

    od = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    out = range_agg_backward(
        od, od, left_key="o_custkey", right_key="o_custkey",
        left_time="o_orderdate", right_time="o_orderdate",
        left_id="o_orderkey", right_val="o_totalprice",
        span=int(range_days) * 86_400_000_000, scale=100.0)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t.column("l"),
                         "n_orders": t.column("n"),
                         "sum_price_e2": t.column("sv")})

    return out.map_batches(finalize, batch_format="pyarrow").sort("o_orderkey")


def sliding_window_hourly(sf_dir: str, window_hours: int = 3):
    """Sliding (trailing) window aggregate: for every (event_type,
    window-end hour) with at least one event in the trailing
    ``window_hours`` hours, the event count and value sum over that
    window.  Streaming shape: each event expands into the
    ``window_hours`` window ends it contributes to (map_batches
    fan-out — no per-window state), then ONE groupby.  Values are
    floored to integer µ-units BEFORE summing, so the sum is
    order-independent and bit-exact against SQL (float summation
    order is engine-defined; integer summation is not)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    w = int(window_hours)

    def expand(t: pa.Table) -> pa.Table:
        us = t.column("ts").cast(pa.int64()).to_numpy()
        hour = us // 3_600_000_000
        v_micro = np.floor(t.column("value").to_numpy() * 1e6).astype(np.int64)
        et = t.column("event_type")
        n = t.num_rows
        idx = pa.array(np.repeat(np.arange(n), w))
        return pa.table({
            "event_type": et.take(idx),
            "window_end_hour": pa.array(np.repeat(hour, w)
                                        + np.tile(np.arange(w), n)),
            "v_micro": pa.array(np.repeat(v_micro, w)),
        })

    return (ds.map_batches(expand, batch_format="pyarrow")
            .groupby(["event_type", "window_end_hour"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("v_micro", alias_name="sum_value_micro")))


def sessions_per_user(sf_dir: str, gap_minutes: int = 30):
    """Sessionization: per-user ordered gap-islands inside
    ``groupby(user).map_groups`` (the streaming-shaped pattern — state
    stays within one key's ordered group)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sess(group: dict) -> dict:
        ts = np.sort(group["ts"].astype("datetime64[us]").astype(np.int64))
        gaps = np.diff(ts) > gap_minutes * 60_000_000
        return {"user_id": group["user_id"][:1].astype(np.int64),
                "n_sessions": np.array([1 + int(gaps.sum())], dtype=np.int64),
                "n_events": np.array([len(ts)], dtype=np.int64)}

    return ds.groupby("user_id").map_groups(sess, batch_format="numpy")


def sessionize(sf_dir: str, gap_minutes: int = 30):
    """Full session TABLE (one row per gap-island), not just the
    per-user counts of :func:`sessions_per_user`:
    ``(user_id, session_seq, n_events, start_us, dur_us)`` with
    sessions split wherever consecutive events of one user are more
    than ``gap_minutes`` apart.  Ordering inside a user is
    ``(ts, event_id)`` so simultaneous events are deterministic.

    Scale shape: ONE hash exchange (``groupby(user)``); each group is
    segmented with vectorized numpy (sort → diff → boundary flags →
    ``reduceat``).  The single partitioning assumption — one user's
    history fits a worker — is the standard sessionization contract
    (same as ``graph/nav.py``).  Generalizes the reference's
    per-key ordered folding (``scripts/data_reader.py``)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = np.int64(gap_minutes) * 60_000_000

    def sess(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((group["event_id"], ts))
        ts = ts[order]
        new = np.ones(len(ts), dtype=bool)
        new[1:] = np.diff(ts) > gap_us
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(ts)) - 1
        return {
            "user_id": np.broadcast_to(group["user_id"][:1].astype(np.int64),
                                       len(starts)).copy(),
            "session_seq": np.arange(1, len(starts) + 1, dtype=np.int64),
            "n_events": (ends - starts + 1).astype(np.int64),
            "start_us": ts[starts],
            "dur_us": ts[ends] - ts[starts],
        }

    return ds.groupby("user_id").map_groups(sess, batch_format="numpy")


def brand_mode_type(sf_dir: str):
    """Grouped MODE with a deterministic tie-break: per brand, the most
    frequent ``p_type`` (ties → lexicographically smallest type) and
    its count.  Two stages: a (brand, type) count — pre-combined per
    batch with Arrow hash group_by so the exchange carries the distinct
    grid, not the fact rows — then an argmax inside
    ``groupby(brand).map_groups`` over the tiny per-brand grid."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"p_brand": t.column("p_brand"),
                      "p_type": t.column("p_type"),
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by(["p_brand", "p_type"]).aggregate(
            [("n", "sum")]).rename_columns(["p_brand", "p_type", "n"])

    counts = (_read(sf_dir, "part", ["p_brand", "p_type"])
              .map_batches(partial, batch_format="pyarrow")
              .groupby(["p_brand", "p_type"])
              .aggregate(Sum("n", alias_name="n")))

    def argmax(g: pa.Table) -> pa.Table:
        n = g.column("n").to_numpy()
        typ = g.column("p_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((typ, -n))  # max count, then smallest type
        i = order[0]
        return pa.table({"p_brand": g.column("p_brand").slice(0, 1),
                         "mode_type": pa.array([typ[i]], pa.string()),
                         "mode_count": pa.array([n[i]], pa.int64())})

    return counts.groupby("p_brand").map_groups(argmax,
                                                batch_format="pyarrow")


def brand_price_stats(sf_dir: str):
    """lineitem ⋈ part (broadcast dimension join) → per-brand stats."""
    import ray
    from ray.data.aggregate import Count, Sum

    part = _collect_columns(_read(sf_dir, "part", ["p_partkey", "p_brand"]),
                            ["p_partkey", "p_brand"])
    order = np.argsort(part["p_partkey"])
    ref = ray.put((part["p_partkey"][order], part["p_brand"][order]))

    def join(t: pa.Table) -> pa.Table:
        keys, brands = ray.get(ref)
        pk = t.column("l_partkey").to_numpy()
        pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
        ok = keys[pos] == pk
        return pa.table({
            "p_brand": pa.array(brands[pos][ok]),
            "l_extendedprice": t.column("l_extendedprice").filter(pa.array(ok)),
            "l_quantity": t.column("l_quantity").filter(pa.array(ok)),
        })

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_quantity"])
    _out = (li.map_batches(join, batch_format="pyarrow")
            .groupby("p_brand")
            .aggregate(Sum("l_extendedprice", alias_name="sum_price"),
                       Sum("l_quantity", alias_name="sum_qty"),
                       Count(alias_name="n_items")))

    def finalize(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n_items"), pa.float64())

        def avg_micro(col):
            cents = pc.round(pc.multiply(t.column(col), 100.0))
            return pc.cast(pc.floor(pc.divide(pc.multiply(cents, 1e4), n)),
                           pa.int64())

        return pa.table({"p_brand": t.column("p_brand"),
                         "avg_price_micro": avg_micro("sum_price"),
                         "avg_qty_micro": avg_micro("sum_qty"),
                         "n_items": t.column("n_items")})

    return _out.map_batches(finalize, batch_format="pyarrow")


def price_percentiles(sf_dir: str, qs_e2=(50, 90, 99)) -> pa.Table:
    """(q_e2, value_e2) — exact distributed percentiles (k = ⌈q·N⌉-th
    smallest, a real dataset element) of ``l_extendedprice`` via the
    multi-pass histogram-narrowing selection in ``ops/quantiles.py``;
    the picked double is floored to integer cents for the gate."""
    from hedonic_ray.ops.quantiles import exact_quantiles

    t = exact_quantiles(_read(sf_dir, "lineitem", ["l_extendedprice"]),
                        "l_extendedprice", list(qs_e2))
    val_e2 = np.floor(t.column("value").to_numpy() * 100.0).astype(np.int64)
    return pa.table({"q_e2": t.column("q_e2"),
                     "value_e2": pa.array(val_e2, pa.int64())})


def brand_container_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP(p_brand, p_type) over part: count + retail price
    (floored to integer cents BEFORE summing — order-free) at three
    grouping levels, rolled-up dimensions as the 'ALL' sentinel (the
    gate hashes values, sentinels beat NULL-sort ambiguity).

    Rollup the classic way: ONE distributed pre-aggregate per batch
    (Arrow hash group_by — the combiner) → one small
    ``groupby().aggregate`` to the finest (brand, container) level →
    the coarser levels derive from the finest grid with numpy, no
    second scan of the fact table."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.multiply(t.column("p_retailprice"),
                                             100.0)), pa.int64())
        g = pa.table({"p_brand": t.column("p_brand"),
                      "p_type": t.column("p_type"),
                      "price_e2": cents,
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by(["p_brand", "p_type"]).aggregate(
            [("price_e2", "sum"), ("n", "sum")]).rename_columns(
            ["p_brand", "p_type", "price_e2", "n"])

    fine = (_read(sf_dir, "part",
                  ["p_brand", "p_type", "p_retailprice"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["p_brand", "p_type"])
            .aggregate(Sum("price_e2", alias_name="sum_price_e2"),
                       Sum("n", alias_name="n_parts")))

    # the finest grid is |brands|×|types| rows — tiny by
    # construction; derive the coarser levels driver-side
    import pandas as pd

    df = fine.to_pandas()
    return _grouping_sets(df, with_type_margin=False)


def _grouping_sets(df, *, with_type_margin: bool) -> pa.Table:
    """Derive the ROLLUP (and optionally the CUBE's (ALL, type)
    margin) levels from the finest (brand, type) grid — numpy/pandas
    over ≤ |brands|×|types| rows, no second fact scan."""
    import pandas as pd

    lv2 = df.groupby(["p_brand", "p_type"], as_index=False).sum()
    lv1 = df.groupby(["p_brand"], as_index=False)[
        ["sum_price_e2", "n_parts"]].sum()
    lv1["p_type"] = "ALL"
    levels = [lv2, lv1]
    if with_type_margin:
        lvt = df.groupby(["p_type"], as_index=False)[
            ["sum_price_e2", "n_parts"]].sum()
        lvt["p_brand"] = "ALL"
        levels.append(lvt)
    lv0 = pd.DataFrame({"p_brand": ["ALL"], "p_type": ["ALL"],
                        "sum_price_e2": [df["sum_price_e2"].sum()],
                        "n_parts": [df["n_parts"].sum()]})
    out = pd.concat(levels + [lv0], ignore_index=True)
    out = out[["p_brand", "p_type", "n_parts", "sum_price_e2"]]
    return pa.Table.from_pandas(out.astype(
        {"n_parts": "int64", "sum_price_e2": "int64"}), preserve_index=False)


def brand_container_cube(sf_dir: str) -> pa.Table:
    """CUBE(p_brand, p_type): the ROLLUP levels plus the (ALL, type)
    column margin — same one-fact-scan shape, every grouping set
    derived from the finest distributed grid."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.multiply(t.column("p_retailprice"),
                                             100.0)), pa.int64())
        g = pa.table({"p_brand": t.column("p_brand"),
                      "p_type": t.column("p_type"),
                      "price_e2": cents,
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by(["p_brand", "p_type"]).aggregate(
            [("price_e2", "sum"), ("n", "sum")]).rename_columns(
            ["p_brand", "p_type", "price_e2", "n"])

    fine = (_read(sf_dir, "part",
                  ["p_brand", "p_type", "p_retailprice"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["p_brand", "p_type"])
            .aggregate(Sum("price_e2", alias_name="sum_price_e2"),
                       Sum("n", alias_name="n_parts")))
    return _grouping_sets(fine.to_pandas(), with_type_margin=True)


def event_type_pivot(sf_dir: str):
    """PIVOT: one row per user with the event-type counts spread into
    columns (plus the row total) — the wide-table shape feature
    pipelines feed to trainers.  The type domain is the table's own
    closed vocabulary (events.event_type is categorical by
    construction; an unexpected type raises rather than being silently
    dropped).

    Scale shape: the pivot happens INSIDE ``map_batches`` (per-batch
    Arrow group_by over user × indicator columns), so the one hash
    exchange carries at most one row per (user, batch) — never the
    fact rows.  Generalizes the reference's pivoted grouped means
    (``scripts/plot/paper_plots/plot_figures.py:214-320``)."""
    from ray.data.aggregate import Sum

    types = ("click", "error", "purchase", "signup", "view")
    cols = [f"n_{t}" for t in types]

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        seen = pc.unique(et).to_pylist()
        unknown = set(seen) - set(types)
        if unknown:
            raise ValueError(f"unexpected event_type values: {unknown}")
        g = {"user_id": t.column("user_id")}
        for ty, c in zip(types, cols):
            g[c] = pc.cast(pc.equal(et, pa.scalar(ty)), pa.int64())
        g["n_total"] = pa.array(np.ones(t.num_rows, np.int64))
        tt = pa.table(g)
        return tt.group_by(["user_id"]).aggregate(
            [(c, "sum") for c in (*cols, "n_total")]).rename_columns(
            ["user_id", *cols, "n_total"])

    return (_read(sf_dir, "events", ["user_id", "event_type"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(*[Sum(c, alias_name=c) for c in (*cols, "n_total")]))


def user_interarrival(sf_dir: str):
    """LEAD/LAG window logic: per-user inter-event gap statistics
    (count, min, max, sum in µs) over the ``(ts, event_id)`` order —
    users with fewer than two events emit nothing (their gap set is
    empty, mirroring the SQL ``HAVING count(prev) > 0``).

    Scale shape: ONE ``groupby(user)`` exchange, vectorized numpy
    diff per group (same partitioning contract as :func:`sessionize`:
    one user's history fits a worker)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def gaps(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        if len(ts) < 2:
            return {"user_id": np.empty(0, np.int64),
                    "n_gaps": np.empty(0, np.int64),
                    "min_gap_us": np.empty(0, np.int64),
                    "max_gap_us": np.empty(0, np.int64),
                    "sum_gap_us": np.empty(0, np.int64)}
        order = np.lexsort((group["event_id"], ts))
        d = np.diff(ts[order])
        u = group["user_id"][:1].astype(np.int64)
        return {"user_id": u,
                "n_gaps": np.array([len(d)], np.int64),
                "min_gap_us": np.array([d.min()], np.int64),
                "max_gap_us": np.array([d.max()], np.int64),
                "sum_gap_us": np.array([d.sum()], np.int64)}

    return ds.groupby("user_id").map_groups(gaps, batch_format="numpy")


def brand_price_size_cov(sf_dir: str):
    """Grouped COVARIANCE via a sufficient-statistics combiner: per
    brand, the population covariance of (retail price in cents,
    p_size), reported as exact integers — the raw sufficient stats
    (n, Σx, Σy, Σxy) plus ``cov_e4 = trunc((n·Σxy − Σx·Σy)·10⁴ / n²)``
    (truncation toward zero to match SQL integer division; all
    arithmetic int64, no float summation anywhere, so the result is
    hash-stable against the oracle).

    Scale shape: each batch collapses to one partial-stats row per
    brand inside ``map_batches``; the global exchange carries only
    the per-brand stat rows."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(pc.multiply(t.column("p_retailprice"),
                                         pa.scalar(100.0))), pa.int64())
        y = pc.cast(t.column("p_size"), pa.int64())
        g = pa.table({"p_brand": t.column("p_brand"),
                      "n": pa.array(np.ones(t.num_rows, np.int64)),
                      "sx": x, "sy": y, "sxy": pc.multiply(x, y)})
        return g.group_by(["p_brand"]).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum")]).rename_columns(
            ["p_brand", "n", "sx", "sy", "sxy"])

    stats = (_read(sf_dir, "part", ["p_brand", "p_size", "p_retailprice"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("p_brand")
             .aggregate(Sum("n", alias_name="n"),
                        Sum("sx", alias_name="sx"),
                        Sum("sy", alias_name="sy"),
                        Sum("sxy", alias_name="sxy")))

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy()
        sx = t.column("sx").to_numpy()
        sy = t.column("sy").to_numpy()
        sxy = t.column("sxy").to_numpy()
        num = (n * sxy - sx * sy) * np.int64(10_000)
        den = n * n
        cov = np.sign(num) * (np.abs(num) // den)  # SQL // truncates
        return pa.table({"p_brand": t.column("p_brand"),
                         "n": pa.array(n), "sx": pa.array(sx),
                         "sy": pa.array(sy), "sxy": pa.array(sxy),
                         "cov_e4": pa.array(cov.astype(np.int64))})

    return stats.map_batches(finalize, batch_format="pyarrow")


def acctbal_deciles(sf_dir: str):
    """Distributed QUANTILE BUCKETING: customers are assigned to
    deciles of ``c_acctbal`` by comparing against the nine exact
    decile cut values (k = ⌈q·N⌉-th order statistics from the
    histogram-narrowing selector — each cut is a real column element),
    then per-bucket count/min/max are aggregated.  Ties sit in the
    LOWER bucket (``bucket = 1 + |{cut : cut < v}|``), so membership
    is deterministic with no row-numbering shuffle — the scale win
    over NTILE, which needs a global sort.  Min/max are floored to
    cents per row before aggregation (floor is monotone, so
    floor-then-min ≡ min-then-floor)."""
    from ray.data.aggregate import Count, Max, Min
    from hedonic_ray.ops.quantiles import exact_quantiles

    ds = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    cuts_t = exact_quantiles(ds, "c_acctbal",
                             [10, 20, 30, 40, 50, 60, 70, 80, 90])
    cuts = np.sort(cuts_t.column("value").to_numpy())

    def assign(t: pa.Table) -> pa.Table:
        v = t.column("c_acctbal").to_numpy()
        bucket = 1 + np.searchsorted(cuts, v, side="left")
        return pa.table({
            "bucket": pa.array(bucket.astype(np.int64)),
            "bal_e2": pa.array(np.floor(v * 100.0).astype(np.int64)),
        })

    return (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(Count(alias_name="n_customers"),
                       Min("bal_e2", alias_name="min_e2"),
                       Max("bal_e2", alias_name="max_e2")))


def user_running_total(sf_dir: str):
    """Windowed PREFIX SCAN: per user, the cumulative sum of the event
    ``value`` (in exact cents) over the ``(ts, event_id)`` order —
    the running-total shape of CDC / feature-backfill pipelines.
    One ``groupby(user)`` exchange, vectorized ``np.cumsum`` per
    group; values are scaled to int64 cents per row first, so the
    running sums are bit-stable."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def scan(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((group["event_id"], ts))
        v_e2 = np.rint(group["value"][order] * 100.0).astype(np.int64)
        return {"user_id": group["user_id"].astype(np.int64)[order],
                "event_id": group["event_id"].astype(np.int64)[order],
                "cum_value_e2": np.cumsum(v_e2)}

    return ds.groupby("user_id").map_groups(scan, batch_format="numpy")


def latest_event_per_type(sf_dir: str):
    """Per-key LATEST-record compaction (the CDC "keep the newest
    version" dedup): for every (user_id, event_type), the most recent
    event by ``(ts, event_id)``.  One grouped exchange, vectorized
    argmax per group — no global sort."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def latest(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        i = np.lexsort((group["event_id"], ts))[-1]
        return {"user_id": group["user_id"][i:i + 1].astype(np.int64),
                "event_type": group["event_type"][i:i + 1],
                "event_id": group["event_id"][i:i + 1].astype(np.int64),
                "ts_us": ts[i:i + 1]}

    return ds.groupby(["user_id", "event_type"]).map_groups(
        latest, batch_format="numpy")


def cdc_upsert_compaction(sf_dir: str):
    """CDC MERGE WITH TOMBSTONES — the op-log compaction every
    incremental ingest runs: the event stream is an upsert log keyed
    by ``user_id`` (version order ``(ts, event_id)``), where an
    ``'error'`` event is the key's DELETE tombstone; output = the
    live keys with their current version.  Differs from
    `latest_event_per_type` (pure latest-record) in the delete
    semantics AND the shape: a per-batch vectorized pre-compaction
    (lexsort + last-of-run — the combiner) shrinks the stream to at
    most one row per (batch, key) BEFORE the single grouped exchange,
    so the shuffle moves compacted versions, never raw log rows.
    Columns: user_id, event_id, event_type, ts_us."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def partial(group: dict) -> dict:
        u = group["user_id"].astype(np.int64)
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        eid = group["event_id"].astype(np.int64)
        order = np.lexsort((eid, ts, u))
        last = np.concatenate(
            [np.flatnonzero(np.diff(u[order]) != 0), [len(u) - 1]]) \
            if len(u) else np.empty(0, np.int64)
        keep = order[last]
        return {"user_id": u[keep], "ts_us": ts[keep],
                "event_id": eid[keep], "event_type": group["event_type"][keep]}

    comp = ds.map_batches(partial, batch_format="numpy")

    def merge(group: dict) -> dict:
        i = np.lexsort((group["event_id"], group["ts_us"]))[-1]
        sl = slice(i, i + 1) if group["event_type"][i] != "error" \
            else slice(0, 0)
        return {"user_id": group["user_id"][sl].astype(np.int64),
                "event_id": group["event_id"][sl].astype(np.int64),
                "event_type": group["event_type"][sl],
                "ts_us": group["ts_us"][sl].astype(np.int64)}

    return comp.groupby("user_id").map_groups(merge, batch_format="numpy")


def daily_orders_vs_shipments(sf_dir: str, num_partitions: int = 8):
    """FULL OUTER fact-fact join: per-day order stats (count, total
    price in cents) against per-day shipment stats (count, total
    quantity ×100) on the epoch-day key.  Ship dates trail order dates
    by months, so BOTH exclusive sides are non-empty — the operator
    under test is Ray Data's hash-partitioned ``full_outer`` join.

    Both facts are pre-aggregated to their small per-day grids inside
    ``map_batches`` (combiner) + one grouped exchange each BEFORE the
    join, so the join moves day rows, never fact rows.  Nulls from the
    outer sides are filled with 0 / presence flags (the gate hashes
    values — NaN is not hash-stable)."""
    from ray.data.aggregate import Sum

    def day_partial(t: pa.Table, date_col: str, val_col: str,
                    n_name: str, v_name: str) -> pa.Table:
        d = (t.column(date_col).to_numpy()
             .astype("datetime64[D]").astype(np.int64))
        v = np.rint(t.column(val_col).to_numpy() * 100.0).astype(np.int64)
        g = pa.table({"day": pa.array(d),
                      n_name: pa.array(np.ones(len(d), np.int64)),
                      v_name: pa.array(v)})
        return g.group_by(["day"]).aggregate(
            [(n_name, "sum"), (v_name, "sum")]).rename_columns(
            ["day", n_name, v_name])

    orders = (_read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
              .map_batches(lambda t: day_partial(
                  t, "o_orderdate", "o_totalprice", "n_orders", "price_e2"),
                  batch_format="pyarrow")
              .groupby("day")
              .aggregate(Sum("n_orders", alias_name="n_orders"),
                         Sum("price_e2", alias_name="price_e2")))
    ships = (_read(sf_dir, "lineitem", ["l_shipdate", "l_quantity"])
             .map_batches(lambda t: day_partial(
                 t, "l_shipdate", "l_quantity", "n_items", "qty_e2"),
                 batch_format="pyarrow")
             .groupby("day")
             .aggregate(Sum("n_items", alias_name="n_items"),
                        Sum("qty_e2", alias_name="qty_e2")))

    j = orders.join(ships, "full_outer", num_partitions,
                    on=("day",), right_suffix="_r")

    def finish(t: pa.Table) -> pa.Table:
        cols = {c: t.column(c) for c in t.column_names}
        day_l = cols["day"].to_numpy(zero_copy_only=False)
        day_r = cols.get("day_r", cols["day"]).to_numpy(zero_copy_only=False)
        day = np.where(np.isnan(day_l.astype(np.float64)), day_r, day_l)

        def fill(name):
            a = cols[name].to_numpy(zero_copy_only=False).astype(np.float64)
            return np.where(np.isnan(a), 0, a).astype(np.int64)

        n_orders = fill("n_orders")
        n_items = fill("n_items")
        return pa.table({
            "day": pa.array(day.astype(np.int64)),
            "n_orders": pa.array(n_orders),
            "price_e2": pa.array(fill("price_e2")),
            "n_items": pa.array(n_items),
            "qty_e2": pa.array(fill("qty_e2")),
            "has_orders": pa.array((n_orders > 0).astype(np.int64)),
            "has_items": pa.array((n_items > 0).astype(np.int64)),
        })

    return j.map_batches(finish, batch_format="pyarrow")


def user_event_sequence(sf_dir: str, head: int = 10):
    """Ordered grouped STRING FOLD: per user, the '>'-joined
    event-type path of the first ``head`` events in ``(ts, event_id)``
    order plus the total count — the behavioral-sequence feature shape
    (session-path mining).  One grouped exchange; the fold is a bounded
    ``str.join`` per group."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])

    def fold(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((group["event_id"], ts))[:head]
        path = ">".join(group["event_type"][order].tolist())
        return {"user_id": group["user_id"][:1].astype(np.int64),
                "n_events": np.array([len(ts)], np.int64),
                "path": np.array([path], dtype=object)}

    return ds.groupby("user_id").map_groups(fold, batch_format="numpy")


def user_set_ops(sf_dir: str):
    """SET OPERATIONS over derived key sets: the click/purchase user
    Venn — |clicked ∩ purchased|, |clicked ∖ purchased|,
    |purchased ∖ clicked|, |clicked ∪ purchased| — as four labeled
    rows.  Per-batch indicator partials collapse to one row per
    (user, batch); one grouped exchange ORs them; the four counts are
    a tiny driver fold of per-batch partial sums."""
    from ray.data.aggregate import Max

    def partial(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        g = pa.table({
            "user_id": t.column("user_id"),
            "clicked": pc.cast(pc.equal(et, pa.scalar("click")), pa.int64()),
            "purchased": pc.cast(pc.equal(et, pa.scalar("purchase")),
                                 pa.int64()),
        })
        return g.group_by(["user_id"]).aggregate(
            [("clicked", "max"), ("purchased", "max")]).rename_columns(
            ["user_id", "clicked", "purchased"])

    flags = (_read(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("user_id")
             .aggregate(Max("clicked", alias_name="clicked"),
                        Max("purchased", alias_name="purchased")))

    def counts(t: pa.Table) -> pa.Table:
        c = t.column("clicked").to_numpy().astype(bool)
        p = t.column("purchased").to_numpy().astype(bool)
        return pa.table({
            "n_intersect": pa.array([int((c & p).sum())], pa.int64()),
            "n_click_only": pa.array([int((c & ~p).sum())], pa.int64()),
            "n_purchase_only": pa.array([int((~c & p).sum())], pa.int64()),
            "n_union": pa.array([int((c | p).sum())], pa.int64()),
        })

    parts = flags.map_batches(counts, batch_format="pyarrow").take_all()
    agg = {k: sum(int(r[k]) for r in parts) for k in
           ("n_intersect", "n_click_only", "n_purchase_only", "n_union")}
    return pa.table({
        "op": pa.array(["intersect", "click_only", "purchase_only",
                        "union"], pa.string()),
        "n_users": pa.array([agg["n_intersect"], agg["n_click_only"],
                             agg["n_purchase_only"], agg["n_union"]],
                            pa.int64()),
    })


def brand_median_price(sf_dir: str):
    """Grouped EXACT MEDIAN (lower median, k = ⌈n/2⌉-th smallest of the
    integer cents): per brand, (n_parts, median_e2).  One grouped
    exchange, an O(n) ``np.partition`` selection per group — no global
    sort, no row numbering."""
    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice"])

    def med(group: dict) -> dict:
        x = np.rint(group["p_retailprice"] * 100.0).astype(np.int64)
        k = (len(x) + 1) // 2 - 1
        return {"p_brand": group["p_brand"][:1],
                "n_parts": np.array([len(x)], np.int64),
                "median_e2": np.array([np.partition(x, k)[k]], np.int64)}

    return ds.groupby("p_brand").map_groups(med, batch_format="numpy")


def event_value_histogram(sf_dir: str, bin_e2: int = 1000):
    """Fixed-width HISTOGRAM per event type: values bucketed into
    ``bin_e2``-cent bins (floor division of the exact integer cents),
    one (type, bin) grid row with count + exact cent sum.  Per-batch
    Arrow group_by combiner, one grouped exchange — the grid, never
    the events, crosses the wire."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        b = np.floor_divide(v, np.int64(bin_e2))
        g = pa.table({"event_type": t.column("event_type"),
                      "bin": pa.array(b),
                      "n": pa.array(np.ones(len(b), np.int64)),
                      "sum_value_e2": pa.array(v)})
        return g.group_by(["event_type", "bin"]).aggregate(
            [("n", "sum"), ("sum_value_e2", "sum")]).rename_columns(
            ["event_type", "bin", "n", "sum_value_e2"])

    return (_read(sf_dir, "events", ["event_type", "value"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "bin"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_value_e2", alias_name="sum_value_e2")))


def event_funnel(sf_dir: str, steps=("view", "click", "purchase"),
                 window_s: int = 3600):
    """ANCHORED conversion FUNNEL: per step k, how many users reached
    it — step 1 anchors at the user's FIRST ``steps[0]`` event, each
    later step at the first ``steps[k]`` event strictly after the
    previous anchor and within ``window_s`` seconds of it (the
    standard first-touch funnel convention; anchoring makes the
    semantics deterministic and SQL-mirrorable, unlike
    exists-any-subsequence-with-windows).  One grouped exchange; per
    user a few ``searchsorted`` probes over the (ts, event_id)-sorted
    history."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id",
                                  "event_type"])
    steps = tuple(steps)
    win_us = np.int64(window_s) * 1_000_000

    def depth(group: dict) -> dict:
        ts = group["ts"].astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((group["event_id"], ts))
        ts = ts[order]
        et = group["event_type"][order]
        k = 0
        pos = -1  # index of the current anchor
        for step in steps:
            cand = np.flatnonzero(et == step)
            cand = cand[cand > pos]
            if k > 0 and len(cand):
                cand = cand[ts[cand] <= ts[pos] + win_us]
            if not len(cand):
                break
            pos = int(cand[0])
            k += 1
        return {"user_id": group["user_id"][:1].astype(np.int64),
                "depth": np.array([k], np.int64)}

    depths = ds.groupby("user_id").map_groups(depth, batch_format="numpy")

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("depth").to_numpy()
        counts = np.array([(d >= k).sum() for k in range(1, len(steps) + 1)],
                          dtype=np.int64)
        return pa.table({"step": pa.array(np.arange(1, len(steps) + 1)),
                         "n_users": pa.array(counts)})

    rows = depths.map_batches(partial, batch_format="pyarrow").take_all()
    agg = np.zeros(len(steps), dtype=np.int64)
    for r in rows:
        agg[int(r["step"]) - 1] += int(r["n_users"])
    return pa.table({
        "step": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
        "event_type": pa.array(list(steps), pa.string()),
        "n_users": pa.array(agg),
    })


def cohort_retention(sf_dir: str, max_offset: int = 7):
    """Classic COHORT-RETENTION matrix: users are cohorted by their
    FIRST active day; for each (cohort_day, day_offset ≤ max_offset)
    cell, how many of that cohort's users were active again exactly
    offset days later.  Per user: distinct active days → min day →
    offset rows; the (user, day) grid is pre-distincted per batch so
    only it crosses the one grouped exchange, then the cell counts
    are a second tiny grid aggregate."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def user_days(t: pa.Table) -> pa.Table:
        # post-epoch timestamps: integer-divide truncation == floor
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"user_id": t.column("user_id"), "day": day})
        return g.group_by(["user_id", "day"]).aggregate([])

    def offsets(group: dict) -> dict:
        days = np.unique(group["day"])
        offs = days - days[0]
        offs = offs[offs <= max_offset]
        return {"cohort_day": np.full(len(offs), days[0], np.int64),
                "day_offset": offs.astype(np.int64),
                "n_users": np.ones(len(offs), np.int64)}

    cells = (ds.map_batches(user_days, batch_format="pyarrow")
             .groupby("user_id").map_groups(offsets, batch_format="numpy")
             .groupby(["cohort_day", "day_offset"])
             .aggregate(Sum("n_users", alias_name="n_users")))

    def to_date(t: pa.Table) -> pa.Table:
        d = t.column("cohort_day").to_numpy().astype("datetime64[D]")
        return pa.table({
            "cohort_day": pa.array(np.datetime_as_string(d).astype(object),
                                   pa.string()),
            "day_offset": t.column("day_offset"),
            "n_users": t.column("n_users")})

    return (cells.map_batches(to_date, batch_format="pyarrow")
            .sort(["cohort_day", "day_offset"]))


def user_moving_avg(sf_dir: str, window: int = 3):
    """Trailing MOVING AVERAGE per user (ROWS frame, last ``window``
    events by (ts, event_id)): exact integers — v_e2 = round(value
    ·100) cents, mavg_e2 = window_sum // window_count (values are
    non-negative, so floor == the SQL ``//`` truncation).  One
    grouped exchange; per group a cumsum-difference, no Python per
    row."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])
    w = int(window)

    def roll(group: dict) -> dict:
        ts_ = group["ts"].astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((group["event_id"], ts_))
        v = np.rint(group["value"][order] * 100.0).astype(np.int64)
        n = len(v)
        c = np.cumsum(v)
        s = c.copy()
        if n > w:
            s[w:] = c[w:] - c[:-w]
        cnt = np.minimum(np.arange(n, dtype=np.int64) + 1, w)
        return {"user_id": group["user_id"][order].astype(np.int64),
                "event_id": group["event_id"][order].astype(np.int64),
                "mavg_e2": np.floor_divide(s, cnt)}

    return (ds.groupby("user_id").map_groups(roll, batch_format="numpy")
            .sort(["user_id", "event_id"]))


def linestatus_weighted_avg(sf_dir: str):
    """Quantity-WEIGHTED grouped mean price per (returnflag,
    linestatus): wavg_e2 = Σ(price_c2·qty) // Σqty — exact integers
    end-to-end (quantities are integral, prices 2dp).  Per-batch
    int64 sufficient-stat combiner, one tiny grouped exchange."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        pc2 = np.rint(t.column("l_extendedprice").to_numpy()
                      * 100.0).astype(np.int64)
        g = pa.table({"l_returnflag": t.column("l_returnflag"),
                      "l_linestatus": t.column("l_linestatus"),
                      "num": pa.array(pc2 * qty), "den": pa.array(qty)})
        return g.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("num", "sum"), ("den", "sum")]).rename_columns(
            ["l_returnflag", "l_linestatus", "num", "den"])

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("num", alias_name="num"),
                      Sum("den", alias_name="den")))

    def finish(t: pa.Table) -> pa.Table:
        num = t.column("num").to_numpy()
        den = t.column("den").to_numpy()
        return pa.table({"l_returnflag": t.column("l_returnflag"),
                         "l_linestatus": t.column("l_linestatus"),
                         "sum_qty": pa.array(den),
                         "wavg_price_e2": pa.array(
                             np.floor_divide(num, den))})

    return (agg.map_batches(finish, batch_format="pyarrow")
            .sort(["l_returnflag", "l_linestatus"]))


def event_value_skewness(sf_dir: str):
    """Grouped SKEWNESS per event type from exact integer moment
    sums (n, Σv, Σv², Σv³ on cents, Python-int exact), finished as
    g₁ = M3d / (M2d·√M2d) with M2 = n·s2 − s1², M3 = n²·s3 − 3n·s1·s2
    + 2·s1³ — every float op (int→double cast, ×, ÷, √) is IEEE
    correctly-rounded, so FLOOR(1000·g₁) is engine-stable without any
    float summation."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "n": pa.array(np.ones(len(v), np.int64)),
                      "s1": pa.array(v), "s2": pa.array(v * v),
                      "s3": pa.array(v * v * v)})
        return g.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum"),
             ("s3", "sum")]).rename_columns(
            ["event_type", "n", "s1", "s2", "s3"])

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"), Sum("s1", alias_name="s1"),
                      Sum("s2", alias_name="s2"),
                      Sum("s3", alias_name="s3")))
    rows = agg.take_all()
    rows.sort(key=lambda r: r["event_type"])
    types, ns, skews = [], [], []
    for r in rows:
        n, s1, s2, s3 = (int(r["n"]), int(r["s1"]), int(r["s2"]),
                         int(r["s3"]))
        m2 = n * s2 - s1 * s1                  # = n·Σ(v−μ)²   (exact int)
        m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3  # = n²·Σ(v−μ)³
        # g₁ = (Σ(v−μ)³/n) / (Σ(v−μ)²/n)^1.5 simplifies to M3/M2^1.5
        if m2 > 0:
            m2d = float(m2)
            g1 = float(m3) / (m2d * np.sqrt(m2d))
        else:
            g1 = 0.0
        types.append(r["event_type"])
        ns.append(n)
        skews.append(int(np.floor(1000.0 * g1)))
    return pa.table({"event_type": pa.array(types, pa.string()),
                     "n": pa.array(ns, pa.int64()),
                     "skew_e3": pa.array(skews, pa.int64())})


def rank_ties_per_brand(sf_dir: str, k: int = 3):
    """Grouped top-k WITH TIES (RANK semantics, vs
    :func:`top_parts_per_brand`'s row_number): every part whose
    competition rank by integer-cent price is ≤ k — tied prices share
    a rank and all survive, so groups can exceed k rows."""
    ds = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])

    def ranks(group: dict) -> dict:
        e2 = np.floor(group["p_retailprice"] * 100.0).astype(np.int64)
        key = group["p_partkey"].astype(np.int64)
        order = np.lexsort((key, -e2))
        e2, key = e2[order], key[order]
        starts = np.flatnonzero(np.concatenate(([True], e2[1:] != e2[:-1])))
        rnk = np.repeat(starts, np.diff(np.append(starts, len(e2)))) + 1
        m = rnk <= k
        return {"p_brand": group["p_brand"][order][m],
                "p_partkey": key[m], "price_e2": e2[m],
                "rnk": rnk[m].astype(np.int64)}

    return (ds.groupby("p_brand").map_groups(ranks, batch_format="numpy")
            .sort(["p_brand", "rnk", "p_partkey"]))


def qty_price_correlation(sf_dir: str):
    """Grouped PEARSON CORRELATION between quantity and price per
    returnflag, from exact integer sufficient stats (n, Σx, Σy, Σx²,
    Σy², Σxy — int64 per batch, Python-int exact at the finish) —
    r = M11 / (√M2x·√M2y) with M11 = n·Σxy−ΣxΣy, M2• = n·Σ•²−(Σ•)².
    Each float op is IEEE correctly-rounded (cast, ×, ÷, √ — note the
    separate square roots, so no HUGEINT-overflowing M2x·M2y product
    exists on either engine), making FLOOR(10⁶·r) engine-stable."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        y = np.rint(t.column("l_extendedprice").to_numpy()
                    * 100.0).astype(np.int64)
        g = pa.table({"l_returnflag": t.column("l_returnflag"),
                      "n": pa.array(np.ones(len(x), np.int64)),
                      "sx": pa.array(x), "sy": pa.array(y),
                      "sxx": pa.array(x * x), "syy": pa.array(y * y),
                      "sxy": pa.array(x * y)})
        return g.group_by(["l_returnflag"]).aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]
        ).rename_columns(["l_returnflag", "n", "sx", "sy", "sxx",
                          "syy", "sxy"])

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("l_returnflag")
           .aggregate(*[Sum(c, alias_name=c)
                        for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]))
    rows = sorted(agg.take_all(), key=lambda r: r["l_returnflag"])
    flags, ns, res = [], [], []
    for r in rows:
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        m11 = n * int(r["sxy"]) - sx * sy
        m2x = n * int(r["sxx"]) - sx * sx
        m2y = n * int(r["syy"]) - sy * sy
        if m2x > 0 and m2y > 0:
            rr = float(m11) / (np.sqrt(float(m2x)) * np.sqrt(float(m2y)))
        else:
            rr = 0.0
        flags.append(r["l_returnflag"])
        ns.append(n)
        res.append(int(np.floor(1_000_000.0 * rr)))
    return pa.table({"l_returnflag": pa.array(flags, pa.string()),
                     "n": pa.array(ns, pa.int64()),
                     "corr_e6": pa.array(res, pa.int64())})


def event_value_gini(sf_dir: str):
    """GINI COEFFICIENT of the value distribution per event type —
    all-integer closed form on the per-group ascending sort:
    gini_e6 = (2·Σ i·vᵢ − (n+1)·Σv) · 10⁶ // (n·Σv), 1-based ranks
    (tied values contribute identically under any tie order, so the
    formula is tie-safe).  One grouped exchange; per group a sort +
    two integer dot products."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def gini(group: dict) -> dict:
        v = np.sort(np.rint(group["value"] * 100.0).astype(np.int64))
        n = len(v)
        s = int(v.sum())
        if n == 0 or s == 0:
            g = 0
        else:
            sw = int((np.arange(1, n + 1, dtype=np.int64) * v).sum())
            g = (2 * sw - (n + 1) * s) * 1_000_000 // (n * s)
        return {"event_type": group["event_type"][:1],
                "n": np.array([n], np.int64),
                "gini_e6": np.array([g], np.int64)}

    return (ds.groupby("event_type").map_groups(gini, batch_format="numpy")
            .sort("event_type"))


def active_users(sf_dir: str, window_days: int = 7):
    """DAU + trailing WAU per day: the (user, day) grid is distincted
    per batch, then each grid row FANS OUT to the ``window_days``
    target days it keeps the user active for; one distinct exchange
    per metric — no per-day rescan, no driver state.  Only days with
    actual activity are reported (wau counts users active in
    [day−6, day])."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def user_days(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"user_id": t.column("user_id"), "day": day})
        return g.group_by(["user_id", "day"]).aggregate([])

    # per-batch distinct is only a combiner — a user's events can
    # straddle batches, so the grid needs one global distinct
    grid = (ds.map_batches(user_days, batch_format="pyarrow")
            .groupby(["user_id", "day"])
            .aggregate(Count(alias_name="_c")).drop_columns(["_c"])
            .materialize())
    dau = grid.groupby("day").aggregate(Count(alias_name="dau"))

    def fan(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy()
        d = t.column("day").to_numpy()
        w = np.int64(window_days)
        tu = np.repeat(u, w)
        td = np.repeat(d, w) + np.tile(np.arange(w, dtype=np.int64),
                                       len(d))
        g = pa.table({"user_id": pa.array(tu), "day": pa.array(td)})
        return g.group_by(["user_id", "day"]).aggregate([])

    wau = (grid.map_batches(fan, batch_format="pyarrow")
           .groupby(["user_id", "day"])                 # global distinct
           .aggregate(Count(alias_name="_c")).drop_columns(["_c"])
           .groupby("day").aggregate(Count(alias_name="wau")))

    d_rows = {int(r["day"]): int(r["dau"]) for r in dau.take_all()}
    w_rows = {int(r["day"]): int(r["wau"]) for r in wau.take_all()}
    days = sorted(d_rows)  # only days with actual activity
    dd = np.array(days, np.int64)
    date = np.datetime_as_string(dd.astype("datetime64[D]")).astype(object)
    return pa.table({
        "day": pa.array(date, pa.string()),
        "dau": pa.array([d_rows[d] for d in days], pa.int64()),
        "wau": pa.array([w_rows[d] for d in days], pa.int64()),
    })


def part_unpivot_stats(sf_dir: str):
    """UNPIVOT (melt) + grouped aggregate: the part table's two
    numeric attributes go long as (attr, value_e2) rows — size in
    exact hundredths, price in exact cents — then one tiny grouped
    aggregate per attribute.  The melt is a per-batch column
    restack (zero-copy concat), not a row loop."""
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "part", ["p_size", "p_retailprice"])

    def melt(t: pa.Table) -> pa.Table:
        size_e2 = t.column("p_size").to_numpy().astype(np.int64) * 100
        price_e2 = np.rint(t.column("p_retailprice").to_numpy()
                           * 100.0).astype(np.int64)
        n = t.num_rows
        return pa.table({
            "attr": pa.array(["p_size"] * n + ["p_retailprice"] * n,
                             pa.string()),
            "value_e2": pa.array(np.concatenate([size_e2, price_e2])),
        })

    return (ds.map_batches(melt, batch_format="pyarrow")
            .groupby("attr")
            .aggregate(Count(alias_name="n"),
                       Sum("value_e2", alias_name="sum_value_e2"),
                       Max("value_e2", alias_name="max_value_e2"))
            .sort("attr"))


def event_dow_profile(sf_dir: str):
    """Day-of-week activity profile per event type (seasonality
    audit): counts + exact cent sums keyed by ISO-ish dow (0 =
    Monday; epoch day 0 was a Thursday, hence the +3 shift).  One
    per-batch combiner + a tiny grouped exchange."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        day = (pc.divide(pc.cast(t.column("ts"), pa.int64()),
                         pa.scalar(86_400_000_000, pa.int64()))
               .to_numpy())
        dow = (day + 3) % 7
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "dow": pa.array(dow.astype(np.int64)),
                      "n": pa.array(np.ones(len(dow), np.int64)),
                      "sum_value_e2": pa.array(v)})
        return g.group_by(["event_type", "dow"]).aggregate(
            [("n", "sum"), ("sum_value_e2", "sum")]).rename_columns(
            ["event_type", "dow", "n", "sum_value_e2"])

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "dow"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_value_e2", alias_name="sum_value_e2"))
            .sort(["event_type", "dow"]))


def brand_container_chi2(sf_dir: str):
    """CHI-SQUARE independence statistic for the brand × type
    contingency table, deterministic by construction: per cell,
    chi2_cell_e6 = (n·O − r·c)²·10⁶ // (n·r·c) — exact integer
    arithmetic (Python ints at the finish; the total is the sum of
    the floored cells, documented as the engine's definition so no
    float summation order exists anywhere).  One grouped count
    exchange; margins and cells finish on ≤ |brands|·|containers|
    rows."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "part", ["p_brand", "p_type"])
    cells = (ds.groupby(["p_brand", "p_type"])
             .aggregate(Count(alias_name="o")).take_all())
    n = sum(int(r["o"]) for r in cells)
    row = {}
    col = {}
    for r in cells:
        row[r["p_brand"]] = row.get(r["p_brand"], 0) + int(r["o"])
        col[r["p_type"]] = col.get(r["p_type"], 0) + int(r["o"])
    # zero-count cells contribute (0 - rc/n)^2/(rc/n) = rc/n: include
    # the full grid so the statistic is the real chi-square
    obs = {(r["p_brand"], r["p_type"]): int(r["o"]) for r in cells}
    total = 0
    for b, rb in row.items():
        for c, cc in col.items():
            o = obs.get((b, c), 0)
            num = (n * o - rb * cc) ** 2 * 1_000_000
            total += num // (n * rb * cc)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "n_brands": pa.array([len(row)], pa.int64()),
        "n_types": pa.array([len(col)], pa.int64()),
        "chi2_e6": pa.array([total], pa.int64()),
    })


def cumulative_users(sf_dir: str):
    """EXPANDING-WINDOW DISTINCT: per active day, the cumulative
    number of distinct users seen so far.  Expanding distinct counts
    don't need a rescan: cumulative(d) = Σ cohort sizes ≤ d, so the
    pipeline is first-seen-day per user (one grouped min) → cohort
    sizes → a tiny driver cumsum over the day grid."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def user_days(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t.column("ts"), pa.int64()),
                        pa.scalar(86_400_000_000, pa.int64()))
        g = pa.table({"user_id": t.column("user_id"), "day": day})
        return g.group_by(["user_id"]).aggregate([("day", "min")]) \
            .rename_columns(["user_id", "day"])

    first = (ds.map_batches(user_days, batch_format="pyarrow")
             .groupby("user_id").aggregate(Min("day", alias_name="day")))
    sizes = first.groupby("day").aggregate(Count(alias_name="n"))
    rows = sorted((int(r["day"]), int(r["n"])) for r in sizes.take_all())
    days = [d for d, _ in rows]
    cum = np.cumsum([n for _, n in rows]).astype(np.int64)
    date = np.datetime_as_string(
        np.array(days, np.int64).astype("datetime64[D]")).astype(object)
    return pa.table({"day": pa.array(date, pa.string()),
                     "new_users": pa.array([n for _, n in rows],
                                           pa.int64()),
                     "cum_users": pa.array(cum)})


def event_type_projection(sf_dir: str):
    """BIPARTITE PROJECTION of the user × event-type graph onto event
    types: for each unordered type pair, the number of DISTINCT users
    engaging in both (the co-engagement graph).  Per-user type-set →
    vectorized pair decode (one grouped exchange); the pair grid is
    |types|² rows."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def distinct_ut(t: pa.Table) -> pa.Table:
        return (pa.table({"user_id": t.column("user_id"),
                          "event_type": t.column("event_type")})
                .group_by(["user_id", "event_type"]).aggregate([]))

    def pairs(group: dict) -> dict:
        types = np.unique(group["event_type"].astype(str))
        if len(types) < 2:
            return {"t1": np.array([], object), "t2": np.array([], object),
                    "n": np.array([], np.int64)}
        iu = np.triu_indices(len(types), k=1)
        return {"t1": types[iu[0]].astype(object),
                "t2": types[iu[1]].astype(object),
                "n": np.ones(len(iu[0]), np.int64)}

    return (ds.map_batches(distinct_ut, batch_format="pyarrow")
            .groupby("user_id").map_groups(pairs, batch_format="numpy")
            .groupby(["t1", "t2"]).aggregate(Sum("n", alias_name="n_users"))
            .sort(["t1", "t2"]))


def ship_delay_histogram(sf_dir: str, num_partitions: int = 8):
    """FACT-FACT join + derived-column histogram: lineitem ⋈ orders by
    orderkey (both fact tables — Ray's hash-partitioned join, no
    broadcast side), delay = l_shipdate − o_orderdate in whole days,
    histogrammed per order priority.  The join output never
    materializes anywhere: the histogram combiner runs per joined
    batch."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    j = li.join(orders, "inner", num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        ship = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
                // 86_400_000_000)
        od = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
              // 86_400_000_000)
        delay = ship - od
        g = pa.table({"o_orderpriority": t.column("o_orderpriority"),
                      "delay_days": pa.array(delay.astype(np.int64)),
                      "n": pa.array(np.ones(len(delay), np.int64))})
        return g.group_by(["o_orderpriority", "delay_days"]).aggregate(
            [("n", "sum")]).rename_columns(
            ["o_orderpriority", "delay_days", "n"])

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby(["o_orderpriority", "delay_days"])
            .aggregate(Sum("n", alias_name="n"))
            .sort(["o_orderpriority", "delay_days"]))


def order_size_histogram(sf_dir: str):
    """TWO-LEVEL aggregation: lines per order (first groupby), then
    the distribution of order sizes (second, tiny groupby) — the
    classic fan-in histogram."""
    from ray.data.aggregate import Count

    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    sizes = li.groupby("l_orderkey").aggregate(Count(alias_name="sz"))
    hist = sizes.groupby("sz").aggregate(Count(alias_name="n_orders"))

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["order_size", "n_orders"])

    return hist.map_batches(rename, batch_format="pyarrow") \
        .sort("order_size")


def event_value_outliers(sf_dir: str, z2_e6_min: int = 9_000_000):
    """Z-SCORE OUTLIER DETECTION per event type with exact integer
    arithmetic: with dev = n·v − Σv and M2 = n·Σv² − (Σv)², the
    squared z-score is exactly dev²/M2, so the flag is the integer
    test 10⁶·dev² ≥ z2_e6_min·M2 (Python-int exact on the few
    float-prefiltered candidates).  Two passes: one moment reduction,
    then a flag scan against the broadcast per-type moments; emits
    (event_type, n_outliers, min/max outlier event ids) so the
    output stays tiny at any scale."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "event_id", "value"])

    def moments(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        g = pa.table({"event_type": t.column("event_type"),
                      "n": pa.array(np.ones(len(v), np.int64)),
                      "s1": pa.array(v), "s2": pa.array(v * v)})
        return g.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("s1", "sum"), ("s2", "sum")]).rename_columns(
            ["event_type", "n", "s1", "s2"])

    mom = (ds.map_batches(moments, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"), Sum("s1", alias_name="s1"),
                      Sum("s2", alias_name="s2"))).take_all()
    stats = {r["event_type"]: (int(r["n"]), int(r["s1"]), int(r["s2"]))
             for r in mom}
    stats_ref = ray.put(stats)

    def flags(t: pa.Table) -> pa.Table:
        st = ray.get(stats_ref)
        et = np.asarray(t.column("event_type").to_numpy(
            zero_copy_only=False))
        eid = t.column("event_id").to_numpy()
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        out_t, out_id = [], []
        for typ in np.unique(et):
            n, s1, s2 = st[str(typ)]
            m2 = n * s2 - s1 * s1
            if m2 <= 0:
                continue
            idx = np.flatnonzero(et == typ)
            dev = (np.int64(n) * v[idx] - np.int64(s1)).astype(np.float64)
            # loose float pre-filter, then exact Python-int verdicts
            cand = idx[dev * dev >= (z2_e6_min / 1e6 - 1.0) * m2]
            keep = [i for i in cand
                    if 1_000_000 * (n * int(v[i]) - s1) ** 2
                    >= z2_e6_min * m2]
            out_t.extend([str(typ)] * len(keep))
            out_id.extend(int(eid[i]) for i in keep)
        return pa.table({"event_type": pa.array(out_t, pa.string()),
                         "event_id": pa.array(out_id, pa.int64())})

    rows = (ds.map_batches(flags, batch_format="pyarrow")
            .groupby("event_type")
            .map_groups(lambda g: {
                "event_type": g["event_type"][:1],
                "n_outliers": np.array([len(g["event_id"])], np.int64),
                "min_event": np.array([g["event_id"].min()], np.int64),
                "max_event": np.array([g["event_id"].max()], np.int64),
            }, batch_format="numpy"))
    return rows.sort("event_type")


def benford_first_digit(sf_dir: str):
    """BENFORD first-digit audit of the value column per event type
    (the classic fraud/data-quality screen): counts of the leading
    digit of the positive integer-cent values.  Leading digit by
    repeated floor-division (≤ 7 vectorized passes — no float log,
    no string conversion); one combiner + a 9-row-per-type
    exchange."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = np.rint(t.column("value").to_numpy() * 100.0).astype(np.int64)
        m = v > 0
        v = v[m]
        et = t.column("event_type").filter(pa.array(m))
        while (v >= 10).any():
            v = np.where(v >= 10, v // 10, v)
        g = pa.table({"event_type": et, "digit": pa.array(v),
                      "n": pa.array(np.ones(len(v), np.int64))})
        return g.group_by(["event_type", "digit"]).aggregate(
            [("n", "sum")]).rename_columns(["event_type", "digit", "n"])

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "digit"])
            .aggregate(Sum("n", alias_name="n"))
            .sort(["event_type", "digit"]))


def daily_ohlc(sf_dir: str):
    """OHLC BARS — the classic time-series compaction: per (event
    type, day), the Open (first value by (ts, event_id)), High, Low
    and Close (last) in exact integer cents, plus the tick count.
    One grouped exchange; per group an argmin/argmax over the
    already-loaded columns."""
    ds = _read(sf_dir, "events", ["event_type", "event_id", "ts", "value"])

    def bars(group: dict) -> dict:
        ts_ = group["ts"].astype("datetime64[us]").astype(np.int64)
        day = ts_ // 86_400_000_000
        v = np.rint(group["value"] * 100.0).astype(np.int64)
        eid = group["event_id"]
        out = {k: [] for k in ("event_type", "day", "open_e2", "high_e2",
                               "low_e2", "close_e2", "n")}
        for d in np.unique(day):
            m = day == d
            order = np.lexsort((eid[m], ts_[m]))
            vv = v[m][order]
            out["event_type"].append(group["event_type"][0])
            out["day"].append(int(d))
            out["open_e2"].append(int(vv[0]))
            out["high_e2"].append(int(vv.max()))
            out["low_e2"].append(int(vv.min()))
            out["close_e2"].append(int(vv[-1]))
            out["n"].append(int(len(vv)))
        date = np.datetime_as_string(np.array(out["day"], np.int64)
                                     .astype("datetime64[D]")).astype(object)
        return {"event_type": np.array(out["event_type"], object),
                "day": date,
                "open_e2": np.array(out["open_e2"], np.int64),
                "high_e2": np.array(out["high_e2"], np.int64),
                "low_e2": np.array(out["low_e2"], np.int64),
                "close_e2": np.array(out["close_e2"], np.int64),
                "n": np.array(out["n"], np.int64)}

    return (ds.groupby("event_type").map_groups(bars, batch_format="numpy")
            .sort(["event_type", "day"]))


def copurchase_pairs(sf_dir: str, k: int = 20):
    """MARKET-BASKET co-occurrence (A-Priori at itemset size 2): the
    top-k part pairs by the number of distinct orders containing
    both, ties → (a, b) ascending.  Pair emission per order (distinct
    parts first, so multi-line duplicates of a part count once) →
    the sort-based packed pair-count exchange → a driver top-k over
    the count grid."""
    from hedonic_ray.ops.dedup import _packed_pair_counts

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs(group: dict) -> dict:
        parts = np.unique(group["l_partkey"].astype(np.int64))
        if len(parts) < 2:
            return {"a": np.empty(0, np.int64), "b": np.empty(0, np.int64)}
        iu = np.triu_indices(len(parts), k=1)
        return {"a": parts[iu[0]], "b": parts[iu[1]]}

    counts = _packed_pair_counts(
        ds.groupby("l_orderkey").map_groups(pairs, batch_format="numpy"))

    def local_topk(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        c = t.column("i").to_numpy()
        order = np.lexsort((b, a, -c))[:k]
        return pa.table({"a": pa.array(a[order]), "b": pa.array(b[order]),
                         "n_orders": pa.array(c[order])})

    rows = counts.map_batches(local_topk, batch_format="pyarrow").take_all()
    a = np.array([r["a"] for r in rows], np.int64)
    b = np.array([r["b"] for r in rows], np.int64)
    c = np.array([r["n_orders"] for r in rows], np.int64)
    order = np.lexsort((b, a, -c))[:k]
    return pa.table({"a": pa.array(a[order]), "b": pa.array(b[order]),
                     "n_orders": pa.array(c[order])})


def brand_type_hhi(sf_dir: str):
    """HERFINDAHL–HIRSCHMAN concentration index of part types per
    brand, as an exact scaled integer:
    ``hhi_e8 = (1e8 · Σ cᵢ²) // N²`` over the per-(brand, type)
    counts cᵢ (N = Σ cᵢ) — the standard market-concentration audit,
    all-integer so the gate hash is engine-stable.  Same two-stage
    shape as `brand_mode_type`: per-batch Arrow group_by pre-combine
    (the exchange carries the distinct (brand, type) grid, not the
    fact rows), then an integer finish inside
    ``groupby(brand).map_groups`` using Python ints (no 2^63 ceiling
    on the squared sums)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = pa.table({"p_brand": t.column("p_brand"),
                      "p_type": t.column("p_type"),
                      "n": pa.array(np.ones(t.num_rows, np.int64))})
        return g.group_by(["p_brand", "p_type"]).aggregate(
            [("n", "sum")]).rename_columns(["p_brand", "p_type", "n"])

    counts = (_read(sf_dir, "part", ["p_brand", "p_type"])
              .map_batches(partial, batch_format="pyarrow")
              .groupby(["p_brand", "p_type"])
              .aggregate(Sum("n", alias_name="n")))

    def finish(g: pa.Table) -> pa.Table:
        c = [int(x) for x in g.column("n").to_pylist()]
        tot = sum(c)
        hhi = (100000000 * sum(x * x for x in c)) // (tot * tot)
        return pa.table({"p_brand": g.column("p_brand").slice(0, 1),
                         "n_parts": pa.array([tot], pa.int64()),
                         "n_types": pa.array([len(c)], pa.int64()),
                         "hhi_e8": pa.array([hhi], pa.int64())})

    return counts.groupby("p_brand").map_groups(finish,
                                                batch_format="pyarrow")


def late_events(sf_dir: str, *, delay_us: int = 300_000_000,
                n_buckets: int = 64):
    """WATERMARK LATE-EVENT AUDIT — the streaming-ingestion health
    check (Flink/Beam allowed-lateness semantics, batch-replayed):
    events ARRIVE in a deterministic locally-shuffled order (arrival
    key = ts + md5-derived ±1h jitter — the fixture's event_id order
    is exactly ts order, so a surrogate arrival permutation is the
    FIXTURES.md discipline, same as dedup_url's variants); the
    watermark after each arrival is the max event-time seen so far
    minus ``delay_us``; an event is LATE if it arrives below the
    current watermark.  Output per event-time hour: n_events, n_late.

    DISTRIBUTED PREFIX SCAN shape: arrivals are range-bucketed on the
    arrival key; pass 1 computes per-bucket max event-time (grid
    exchange), the driver folds the O(n_buckets) EXCLUSIVE prefix
    maxima, and pass 2 re-scans each bucket independently
    (groupby(bucket).map_groups: within-bucket running max seeded by
    the broadcast prefix) — no global sort materialization, driver
    state O(n_buckets).  This is the generic scan primitive (cumsum /
    cummax over a distributed order) that window functions need at
    corpus scale."""
    import ray
    from ray.data.aggregate import Max, Sum

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def arrivals(t: pa.Table) -> pa.Table:
        import hashlib

        ids = t.column("event_id").to_numpy()
        ts = t.column("ts").cast(pa.int64()).to_numpy()
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:16],
                            "little") for i in ids),
            dtype=np.uint64, count=len(ids))
        arr = ts + (h % np.uint64(7_200_000_000)).astype(np.int64) \
            - 3_600_000_000
        return pa.table({"event_id": pa.array(ids), "t": pa.array(ts),
                         "a": pa.array(arr)})

    # the md5 arrival stage runs ONCE: materialize, then one combined
    # Min+Max aggregate (review finding: lineage recompute ran the
    # per-event hash loop four times)
    ev = ds.map_batches(arrivals, batch_format="pyarrow").materialize()
    from ray.data.aggregate import Min
    bounds = ev.aggregate(Min("a"), Max("a"))
    lo, hi = int(bounds["min(a)"]), int(bounds["max(a)"])
    width = max(1, (hi - lo + n_buckets) // n_buckets)

    def add_bucket(t: pa.Table) -> pa.Table:
        b = (t.column("a").to_numpy() - lo) // width
        return t.append_column("b", pa.array(b))

    evb = ev.map_batches(add_bucket, batch_format="pyarrow")

    def bmax(t: pa.Table) -> pa.Table:
        g = t.select(["b", "t"])
        return g.group_by("b").aggregate([("t", "max")]) \
            .rename_columns(["b", "t"])

    grid = (evb.map_batches(bmax, batch_format="pyarrow")
            .groupby("b").aggregate(Max("t", alias_name="mx")).take_all())
    neg_inf = np.iinfo(np.int64).min
    bm = {int(r["b"]): int(r["mx"]) for r in grid}
    pref: dict[int, int] = {}
    run = neg_inf
    for b in sorted(bm):
        pref[b] = run
        run = max(run, bm[b])
    p_ref = ray.put(pref)

    def per_bucket(g: pa.Table) -> pa.Table:
        pm0 = ray.get(p_ref)[int(g.column("b")[0].as_py())]
        ids = g.column("event_id").to_numpy()
        a = g.column("a").to_numpy()
        t = g.column("t").to_numpy()
        order = np.lexsort((ids, a))
        t = t[order]
        runmax = np.maximum.accumulate(t)
        pm = np.empty(len(t), np.int64)
        pm[0] = pm0
        pm[1:] = np.maximum(runmax[:-1], pm0)
        valid = pm > neg_inf // 2
        late = valid & (t < pm - delay_us)
        out = pa.table({"hour": pa.array(t // 3_600_000_000),
                        "ne": pa.array(np.ones(len(t), np.int64)),
                        "nl": pa.array(late.astype(np.int64))})
        return (out.group_by("hour")
                .aggregate([("ne", "sum"), ("nl", "sum")])
                .rename_columns(["hour", "ne", "nl"]))

    return (evb.groupby("b").map_groups(per_bucket, batch_format="pyarrow")
            .groupby("hour")
            .aggregate(Sum("ne", alias_name="n_events"),
                       Sum("nl", alias_name="n_late")))


def user_ema(sf_dir: str):
    """INTEGER EXPONENTIAL MOVING AVERAGE per user over the event
    stream (α = 1/4 with a FLOOR at every step:
    ``ema₀ = v₀; emaₙ = (3·emaₙ₋₁ + vₙ) // 4`` on exact cents) — the
    classic streaming smoother, made engine-stable by keeping the
    whole recurrence in integers (a float EMA's rounding drifts by
    evaluation order; the floored integer recurrence has exactly one
    value).  Values are non-negative so ``//`` truncation == floor on
    both engines.  One groupby(user) exchange; the recurrence is
    inherently sequential PER KEY (a per-group scan over its own
    events — the standard keyed-stream shape), all keys in
    parallel.  Columns: user_id, event_id, ema_e2."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def ema_group(g: pa.Table) -> pa.Table:
        ts = g.column("ts").cast(pa.int64()).to_numpy()
        eid = g.column("event_id").to_numpy()
        cents = pc.cast(pc.round(pc.multiply(g.column("value"), 100.0)),
                        pa.int64()).to_numpy()
        order = np.lexsort((eid, ts))
        v = cents[order]
        ema = np.empty(len(v), np.int64)
        acc = int(v[0])
        ema[0] = acc
        for i in range(1, len(v)):
            acc = (3 * acc + int(v[i])) // 4
            ema[i] = acc
        uid = np.full(len(v), g.column("user_id")[0].as_py(), np.int64)
        return pa.table({"user_id": pa.array(uid),
                         "event_id": pa.array(eid[order]),
                         "ema_e2": pa.array(ema)})

    return ds.groupby("user_id").map_groups(ema_group,
                                            batch_format="pyarrow")


def daily_revenue_autocorr(sf_dir: str):
    """LAG-1 AUTOCORRELATION of the daily order-revenue series — the
    time-series seasonality probe, with the `qty_price_correlation`
    exactness recipe: the DISTRIBUTED part is the per-day revenue
    aggregation (per-batch (day, cents) grids → one groupby; the
    result is O(days), legitimately driver-small); consecutive-day
    pairs (both days present) feed exact Python-int sufficient stats,
    finished as M11/(√M2x·√M2y) with separate square roots, so
    FLOOR(1e6·r) is engine-stable.  One row: n_pairs, corr_e6."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.rint(t.column("o_totalprice").to_numpy()
                        * 100.0).astype(np.int64)
        g = pa.table({"day": pa.array(day), "rev": pa.array(cents)})
        return (g.group_by("day").aggregate([("rev", "sum")])
                .rename_columns(["day", "rev"]))

    rows = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("day").aggregate(Sum("rev", alias_name="rev"))
            .take_all())
    by_day = {int(r["day"]): int(r["rev"]) for r in rows}
    pairs = [(by_day[d], by_day[d + 1])
             for d in sorted(by_day) if d + 1 in by_day]
    n = len(pairs)
    sx = sum(p[0] for p in pairs)
    sy = sum(p[1] for p in pairs)
    sxx = sum(p[0] * p[0] for p in pairs)
    syy = sum(p[1] * p[1] for p in pairs)
    sxy = sum(p[0] * p[1] for p in pairs)
    m11 = n * sxy - sx * sy
    m2x = n * sxx - sx * sx
    m2y = n * syy - sy * sy
    if n and m2x > 0 and m2y > 0:
        r = float(m11) / (np.sqrt(float(m2x)) * np.sqrt(float(m2y)))
        corr = int(np.floor(1_000_000.0 * r))
    else:
        corr = 0
    return pa.table({"n_pairs": pa.array([n], pa.int64()),
                     "corr_e6": pa.array([corr], pa.int64())})


def top_unshipped_orders(sf_dir: str, *, segment: str = "BUILDING",
                         cutoff_day: int = 10227, k: int = 10,
                         num_partitions: int = 8):
    """TPC-H Q3 SHAPE — the classic 3-way dim+fact+fact pipeline: top
    unshipped orders by revenue for one customer segment (orders
    placed before the cutoff whose lineitems ship after it;
    cutoff_day 10227 = 1998-01-01 in epoch days).  Revenue in exact
    e4 units: Σ cents(extprice) · (100 − pct(discount)).

    Shape: the CUSTOMER dimension filter is a broadcast key set
    (`ray.put` once, one is_in per orders batch); ORDERS⋈LINEITEM is
    the hash-partitioned fact-fact join (`ship_delay_histogram`
    posture); revenue pre-combines per joined batch; one grouped
    exchange + top-k.  Columns: l_orderkey, o_day, revenue_e4."""
    import ray
    from ray.data.aggregate import Sum

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("c_mktsegment"), segment)
        return t.filter(m).select(["c_custkey"])

    keys = np.sort(np.concatenate(
        [b.column("c_custkey").to_numpy() for b in
         cust.map_batches(seg_keys, batch_format="pyarrow")
         .iter_batches(batch_size=65536, batch_format="pyarrow")]
        or [np.empty(0, np.int64)]))
    keys_ref = ray.put(keys)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilter(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "o_day": pa.array([], pa.int64())})
        if len(ks) == 0:
            return empty
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        ck = t.column("o_custkey").to_numpy()
        i = np.searchsorted(ks, ck)
        i[i == len(ks)] = 0
        m = (day < cutoff_day) & (ks[i] == ck)
        return pa.table({"o_orderkey": t.column("o_orderkey").filter(
            pa.array(m)), "o_day": pa.array(day[m])})

    of = orders.map_batches(ofilter, batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def lfilter(t: pa.Table) -> pa.Table:
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = day > cutoff_day
        cents = np.rint(t.column("l_extendedprice").to_numpy()[m]
                        * 100.0).astype(np.int64)
        pct = np.rint(t.column("l_discount").to_numpy()[m]
                      * 100.0).astype(np.int64)
        return pa.table({"l_orderkey": t.column("l_orderkey").filter(
            pa.array(m)), "rev": pa.array(cents * (100 - pct))})

    lf = li.map_batches(lfilter, batch_format="pyarrow")
    j = lf.join(of, "inner", num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["l_orderkey", "o_day", "rev"])
        return (g.group_by(["l_orderkey", "o_day"])
                .aggregate([("rev", "sum")])
                .rename_columns(["l_orderkey", "o_day", "rev"]))

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby(["l_orderkey", "o_day"])
           .aggregate(Sum("rev", alias_name="revenue_e4")))
    rows = (agg.sort(["revenue_e4", "l_orderkey"],
                     descending=[True, False]).limit(k).take_all())
    return pa.table({
        "l_orderkey": pa.array([r["l_orderkey"] for r in rows],
                               pa.int64()),
        "o_day": pa.array([r["o_day"] for r in rows], pa.int64()),
        "revenue_e4": pa.array([r["revenue_e4"] for r in rows],
                               pa.int64())})


def local_supplier_volume(sf_dir: str, *, day_lo: int = 9131,
                          day_hi: int = 10227, num_partitions: int = 8):
    """TPC-H Q5 SHAPE — the classic 6-table join: revenue where the
    CUSTOMER and the SUPPLIER sit in the SAME nation, per (region,
    nation), for orders placed in [1995-01-01, 1998-01-01) (epoch
    days 9131 ≤ d < 10227).  Revenue in exact e4 units:
    Σ cents(extprice) · (100 − pct(discount)).

    Shape: nation⋈region resolve driver-side (25 rows); the SUPPLIER
    and CUSTOMER key→nationkey maps broadcast once (`ray.put` sorted
    arrays + one searchsorted per batch — the Q3 dimension posture;
    TPC-H dimensions stay small relative to the facts at every SF);
    ORDERS (date-filtered, customer-nation attached) ⋈ LINEITEM
    (supplier-nation + revenue attached) is the hash-partitioned
    fact-fact join; the same-nation filter and a per-batch grouped
    partial run inside the join output before ONE small
    groupby(nation) exchange.  Columns: r_name, n_name, revenue_e4
    sorted by (revenue_e4 desc, n_name)."""
    import ray
    from ray.data.aggregate import Sum

    nat = _collect_columns(_read(sf_dir, "nation",
                                 ["n_nationkey", "n_name", "n_regionkey"]),
                           ["n_nationkey", "n_name", "n_regionkey"])
    reg = _collect_columns(_read(sf_dir, "region",
                                 ["r_regionkey", "r_name"]),
                           ["r_regionkey", "r_name"])
    rname_by_key = dict(zip(reg["r_regionkey"].astype(np.int64),
                            reg["r_name"]))
    n_keys = nat["n_nationkey"].astype(np.int64)
    n_name = dict(zip(n_keys, nat["n_name"]))
    n_region = dict(zip(n_keys, nat["n_regionkey"].astype(np.int64)))

    def key_map(table: str, key: str, val: str):
        cols = _collect_columns(_read(sf_dir, table, [key, val]),
                                [key, val])
        order = np.argsort(cols[key].astype(np.int64))
        return (cols[key].astype(np.int64)[order],
                cols[val].astype(np.int64)[order])

    sup_ref = ray.put(key_map("supplier", "s_suppkey", "s_nationkey"))
    cust_ref = ray.put(key_map("customer", "c_custkey", "c_nationkey"))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ofilter(t: pa.Table) -> pa.Table:
        ck_keys, ck_nat = ray.get(cust_ref)
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = (day >= day_lo) & (day < day_hi)
        ck = t.column("o_custkey").to_numpy()[m]
        i = np.searchsorted(ck_keys, ck)
        assert len(ck) == 0 or (ck_keys[i] == ck).all(), \
            "orders reference a missing customer key"
        return pa.table({
            "o_orderkey": t.column("o_orderkey").filter(pa.array(m)),
            "c_nat": pa.array(ck_nat[i], pa.int64())})

    of = orders.map_batches(ofilter, batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        sk_keys, sk_nat = ray.get(sup_ref)
        sk = t.column("l_suppkey").to_numpy()
        i = np.searchsorted(sk_keys, sk)
        assert len(sk) == 0 or (sk_keys[i] == sk).all(), \
            "lineitems reference a missing supplier key"
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)
        pct = np.rint(t.column("l_discount").to_numpy()
                      * 100.0).astype(np.int64)
        return pa.table({"l_orderkey": t.column("l_orderkey"),
                         "s_nat": pa.array(sk_nat[i], pa.int64()),
                         "rev": pa.array(cents * (100 - pct))})

    lf = li.map_batches(lmap, batch_format="pyarrow")
    j = lf.join(of, "inner", num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("c_nat"), t.column("s_nat"))
        g = t.filter(m).select(["s_nat", "rev"])
        return (g.group_by(["s_nat"]).aggregate([("rev", "sum")])
                .rename_columns(["s_nat", "rev"]))

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby("s_nat").aggregate(Sum("rev", alias_name="revenue_e4"))
            .take_all())
    names = np.array([str(n_name[int(r["s_nat"])]) for r in rows])
    regions = np.array([str(rname_by_key[n_region[int(r["s_nat"])]])
                        for r in rows])
    rev = np.array([int(r["revenue_e4"]) for r in rows], dtype=np.int64)
    order = np.lexsort((names, -rev))
    return pa.table({
        "r_name": pa.array(regions[order] if len(rows) else [],
                           pa.string()),
        "n_name": pa.array(names[order] if len(rows) else [], pa.string()),
        "revenue_e4": pa.array(rev[order], pa.int64())})


def event_validity_intervals(sf_dir: str):
    """SCD-TYPE-2 INTERVAL RECONSTRUCTION from the event stream — the
    CDC-compaction complement of `latest_event_per_type`: per
    (user, type), each event becomes a validity interval
    [ts, next ts) closed by the NEXT event of the same key (−1 =
    still current).  One grouped exchange; per group a sort + one
    shifted-array subtract (no Python loop).  Columns: user_id,
    event_type, event_id, valid_from_us, valid_to_us."""
    ds = _read(sf_dir, "events",
               ["user_id", "event_type", "event_id", "ts"])

    def intervals(g: pa.Table) -> pa.Table:
        ts = g.column("ts").cast(pa.int64()).to_numpy()
        eid = g.column("event_id").to_numpy()
        order = np.lexsort((eid, ts))
        ts, eid = ts[order], eid[order]
        vto = np.empty(len(ts), np.int64)
        vto[:-1] = ts[1:]
        vto[-1] = -1
        n = len(ts)
        return pa.table({
            "user_id": pa.array(np.full(
                n, g.column("user_id")[0].as_py(), np.int64)),
            "event_type": pa.array(
                [g.column("event_type")[0].as_py()] * n, pa.string()),
            "event_id": pa.array(eid),
            "valid_from_us": pa.array(ts),
            "valid_to_us": pa.array(vto)})

    return ds.groupby(["user_id", "event_type"]).map_groups(
        intervals, batch_format="pyarrow")


def quantity_percentile_cont(sf_dir: str, qs_e2=(25, 50, 75, 90)):
    """PERCENTILE_CONT parity with EXACT integer interpolation, via
    HISTOGRAM INVERSION on the small-domain ``l_quantity`` column:
    one ``map_batches`` bincount-partial pass (domain ≤ 51 values)
    reduces to an O(domain) driver histogram; the interpolated
    percentile at q is v_lo·(100−frac) + v_hi·frac with
    idx100 = (n−1)·q, lo = idx100 // 100, frac = idx100 % 100 — all
    integers, reported ×100 (``value_x100``).  The discrete-domain
    complement of `price_percentiles`' histogram-narrowing selection
    (which returns exact dataset ELEMENTS, not interpolations)."""
    ds = _read(sf_dir, "lineitem", ["l_quantity"])
    dom = 64

    def partial(t: pa.Table) -> pa.Table:
        x = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        assert (x >= 0).all() and (x < dom).all()
        h = np.bincount(x, minlength=dom)
        return pa.table({"v": pa.array(np.arange(dom, dtype=np.int64)),
                         "c": pa.array(h)})

    hist = np.zeros(dom, np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow") \
            .iter_batches(batch_size=65536, batch_format="pyarrow"):
        if b.num_rows:
            np.add.at(hist, b.column("v").to_numpy(),
                      b.column("c").to_numpy())
    n = int(hist.sum())
    cum = np.cumsum(hist)
    vals = np.flatnonzero(hist)

    def kth(k: int) -> int:  # 1-based rank over the sorted multiset
        return int(np.searchsorted(cum, k))

    out_q, out_v = [], []
    for q in qs_e2:
        idx100 = (n - 1) * int(q)
        lo_rank = idx100 // 100 + 1
        hi_rank = min(lo_rank + 1, n)
        frac = idx100 % 100
        vlo, vhi = kth(lo_rank), kth(hi_rank)
        out_q.append(int(q))
        out_v.append(vlo * (100 - frac) + vhi * frac)
    return pa.table({"q_e2": pa.array(out_q, pa.int64()),
                     "value_x100": pa.array(out_v, pa.int64())})


def large_quantity_orders(sf_dir: str, *, qty_min: int = 200,
                          k: int = 100):
    """TPC-H Q18 SHAPE — large-volume orders: customers whose order's
    total lineitem quantity reaches ``qty_min``, top-``k`` by
    (o_totalprice desc, o_orderkey asc).  Quantities and prices ride
    as exact integers (qty is integral in the fixture; price ×100
    cents).

    Shape: ONE lineitem groupby(l_orderkey) with per-batch partial
    sums (the combiner — shuffle volume is the per-batch distinct
    order keys); the HAVING filter runs before any join; the
    surviving ≤ |large orders| keys join ORDERS via a hash join and
    the customer name attaches from a broadcast key→(name) map (the
    Q3/Q5 dimension posture)."""
    import ray
    from ray.data.aggregate import Sum

    from hedonic_ray.context import drop_empty_blocks

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qpartial(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy().astype(np.int64)
        q = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        uk, inv = np.unique(ok, return_inverse=True)
        acc = np.zeros(len(uk), np.int64)
        np.add.at(acc, inv, q)
        return pa.table({"l_orderkey": pa.array(uk, pa.int64()),
                         "q_partial": pa.array(acc, pa.int64())})

    sums = (li.map_batches(qpartial, batch_format="pyarrow")
            .groupby("l_orderkey")
            .aggregate(Sum("q_partial", alias_name="sum_qty"))
            .filter(expr=f"sum_qty >= {qty_min}"))

    cust = _collect_columns(_read(sf_dir, "customer",
                                  ["c_custkey", "c_name"]),
                            ["c_custkey", "c_name"])
    order_ck = np.argsort(cust["c_custkey"].astype(np.int64))
    cref = ray.put((cust["c_custkey"].astype(np.int64)[order_ck],
                    cust["c_name"][order_ck]))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice",
                    "o_orderdate"])

    def omap(t: pa.Table) -> pa.Table:
        ck_keys, ck_name = ray.get(cref)
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        i = np.searchsorted(ck_keys, ck)
        assert len(ck) == 0 or (ck_keys[i] == ck).all(), \
            "orders reference a missing customer key"
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.rint(t.column("o_totalprice").to_numpy()
                        * 100.0).astype(np.int64)
        return pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "c_custkey": pa.array(ck, pa.int64()),
            "c_name": pa.array(ck_name[i].astype(object), pa.string()),
            "o_day": pa.array(day, pa.int64()),
            "total_cents": pa.array(cents, pa.int64())})

    om = orders.map_batches(omap, batch_format="pyarrow")
    s_s = pa.schema([("l_orderkey", pa.int64()), ("sum_qty", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64()), ("c_custkey", pa.int64()),
                     ("c_name", pa.string()), ("o_day", pa.int64()),
                     ("total_cents", pa.int64())])
    j = drop_empty_blocks(sums, s_s).join(
        drop_empty_blocks(om, s_o), "inner", 8,
        on=("l_orderkey",), right_on=("o_orderkey",))
    t = pa.concat_tables(
        b.select(["c_name", "c_custkey", "l_orderkey", "o_day",
                  "total_cents", "sum_qty"])
        for b in j.iter_batches(batch_size=65536, batch_format="pyarrow"))
    import pyarrow.compute as pc

    idx = pc.sort_indices(t, sort_keys=[("total_cents", "descending"),
                                        ("l_orderkey", "ascending")])
    return t.take(idx[:k])


def min_cost_supplier(sf_dir: str):
    """TPC-H Q2 SHAPE — min-cost supplier per part, from the lineitem
    facts (this fixture has no partsupp): unit price as the exact
    integer ``unitp_e2 = cents(l_extendedprice) // qty``, argmin per
    part with ties → lowest s_suppkey via ONE packed-key Min groupby
    (``unitp_e2 · 2²⁰ + suppkey`` — the MST partial-argmin idiom,
    asserted against the 2⁶³ bound).  Supplier name attaches from the
    broadcast dimension map.  Columns: p_partkey, unitp_e2, s_suppkey,
    s_name sorted by p_partkey."""
    import ray
    from ray.data.aggregate import Min

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice",
                "l_quantity"])
    sup = _collect_columns(_read(sf_dir, "supplier",
                                 ["s_suppkey", "s_name"]),
                           ["s_suppkey", "s_name"])
    so = np.argsort(sup["s_suppkey"].astype(np.int64))
    sref = ray.put((sup["s_suppkey"].astype(np.int64)[so],
                    sup["s_name"][so]))
    smax = int(sup["s_suppkey"].astype(np.int64).max())
    pack = np.int64(1 << 20)
    assert smax < (1 << 20), "packed argmin key needs suppkey < 2^20"

    def lpartial(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        sk = t.column("l_suppkey").to_numpy().astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        unitp = cents // np.maximum(qty, 1)
        assert unitp.size == 0 or int(unitp.max()) < (1 << 42), \
            "packed argmin key overflows int64"
        key = unitp * pack + sk
        uk, inv = np.unique(pk, return_inverse=True)
        best = np.full(len(uk), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(best, inv, key)
        return pa.table({"p_partkey": pa.array(uk, pa.int64()),
                         "k_partial": pa.array(best, pa.int64())})

    best = (li.map_batches(lpartial, batch_format="pyarrow")
            .groupby("p_partkey")
            .aggregate(Min("k_partial", alias_name="k")))

    def unpackf(t: pa.Table) -> pa.Table:
        sk_keys, sk_name = ray.get(sref)
        k = t.column("k").to_numpy().astype(np.int64)
        unitp = k // pack
        sk = k % pack
        i = np.searchsorted(sk_keys, sk)
        return pa.table({
            "p_partkey": t.column("p_partkey"),
            "unitp_e2": pa.array(unitp, pa.int64()),
            "s_suppkey": pa.array(sk, pa.int64()),
            "s_name": pa.array(sk_name[i].astype(object), pa.string())})

    return best.map_batches(unpackf,
                            batch_format="pyarrow").sort("p_partkey")


def basket_rules(sf_dir: str, k: int = 20, min_orders: int = 2):
    """ASSOCIATION RULES from the top co-purchase pairs: for each
    directed rule a→b over the top-k pairs of :func:`copurchase_pairs`
    (both directions), support = orders containing both, and the exact
    integer rationals

        confidence_e6 = n_ab·10⁶ // n_a
        lift_e6       = n_ab·N·10⁶ // (n_a·n_b)

    (N = distinct orders with ≥1 lineitem).  Per-item order counts
    come from ONE distinct-pair exchange (order, part) → part count;
    the rule table itself is 2k rows joined driver-side against that
    count grid (parts dimension ≪ facts) — the A-Priori scoring stage
    after the pair mining.  Columns: ante, cons, n_both, n_ante,
    conf_e6, lift_e6 sorted by (ante, cons)."""
    from ray.data.aggregate import Count

    top = copurchase_pairs(sf_dir, k=k)
    a = top.column("a").to_numpy().astype(np.int64)
    b = top.column("b").to_numpy().astype(np.int64)
    nb = top.column("n_orders").to_numpy().astype(np.int64)
    keep = nb >= min_orders
    a, b, nb = a[keep], b[keep], nb[keep]

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def dpairs(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy().astype(np.int64)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        key = np.unique(ok * np.int64(1 << 31) + pk)
        return pa.table({"o": pa.array(key >> 31, pa.int64()),
                         "p": pa.array(key & ((1 << 31) - 1), pa.int64())})

    grid = (ds.map_batches(dpairs, batch_format="pyarrow")
            .groupby(["o", "p"])
            .aggregate(Count(alias_name="_c")).drop_columns(["_c"]))
    item = grid.groupby("p").aggregate(Count(alias_name="n_item"))
    n_orders_total = grid.groupby("o").aggregate(
        Count(alias_name="_c")).count()
    need = set(np.concatenate([a, b]).tolist()) if len(a) else set()
    cnt = {int(r["p"]): int(r["n_item"]) for r in item.take_all()
           if int(r["p"]) in need}

    ante = np.concatenate([a, b])
    cons = np.concatenate([b, a])
    both = np.concatenate([nb, nb])
    n_a = np.array([cnt[int(x)] for x in ante], np.int64)
    n_c = np.array([cnt[int(x)] for x in cons], np.int64)
    assert int(n_orders_total) < 3_000_000, \
        "lift numerator n_both*N*1e6 needs N < 3e6 in int64: rescale"
    conf = both * np.int64(1_000_000) // n_a
    lift = both * np.int64(n_orders_total) * np.int64(1_000_000) \
        // (n_a * n_c)
    order = np.lexsort((cons, ante))
    return pa.table({
        "ante": pa.array(ante[order], pa.int64()),
        "cons": pa.array(cons[order], pa.int64()),
        "n_both": pa.array(both[order], pa.int64()),
        "n_ante": pa.array(n_a[order], pa.int64()),
        "conf_e6": pa.array(conf[order], pa.int64()),
        "lift_e6": pa.array(lift[order], pa.int64())})


def order_day_islands(sf_dir: str):
    """GAPS-AND-ISLANDS over the distinct order-day axis: contiguous
    runs of days with ≥1 order, as ``(island_seq, start_day, end_day,
    n_days, n_orders)``.  The calendar-continuity audit every
    event-warehouse runs (sessionize's global-axis twin).

    Shape: per-batch distinct-day + count partials → ONE
    groupby(day) exchange (the day axis is bounded by the calendar,
    thousands of rows per decade) → the island segmentation is a
    vectorized diff on the collected day axis."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def dpartial(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u, pa.int64()),
                         "n_p": pa.array(c.astype(np.int64))})

    rows = (ds.map_batches(dpartial, batch_format="pyarrow")
            .groupby("day").aggregate(Sum("n_p", alias_name="n"))
            .sort("day").take_all())
    day = np.array([r["day"] for r in rows], np.int64)
    n = np.array([r["n"] for r in rows], np.int64)
    if len(day) == 0:
        e = pa.array([], pa.int64())
        return pa.table({"island_seq": e, "start_day": e, "end_day": e,
                         "n_days": e, "n_orders": e})
    new = np.ones(len(day), bool)
    new[1:] = np.diff(day) > 1
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(day)) - 1
    cum = np.concatenate([[0], np.cumsum(n)])
    return pa.table({
        "island_seq": pa.array(np.arange(1, len(starts) + 1,
                                         dtype=np.int64)),
        "start_day": pa.array(day[starts], pa.int64()),
        "end_day": pa.array(day[ends], pa.int64()),
        "n_days": pa.array(day[ends] - day[starts] + 1, pa.int64()),
        "n_orders": pa.array(cum[ends + 1] - cum[starts], pa.int64()),
    })


def rfm_scores(sf_dir: str):
    """RFM SEGMENTATION of purchasers: per user, Recency (last
    purchase day), Frequency (purchase count), Monetary (exact cents),
    each scored into quintiles by the explicit rank formula
    ``score = 1 + (rank−1)·5 // n`` over the (metric, user_id)
    composite ascending order (NOT SQL NTILE — its remainder
    distribution is engine-specific; this formula is bit-identical on
    both sides), plus the composite ``rfm = 100·r + 10·f + m``.

    Shape: one groupby(user) aggregate; the scoring ranks run over
    the users DIMENSION (bounded; at corpus scale the rank becomes
    the distributed-sort `rel_deciles` shape).  Columns: user_id,
    r_day, f_n, m_cents, r_score, f_score, m_score, rfm."""
    from ray.data.aggregate import Count, Max, Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])

    def purchases(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("event_type"), "purchase")
        t = t.filter(m)
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.rint(t.column("value").to_numpy() * 100.0) \
            .astype(np.int64)
        return pa.table({"user_id": t.column("user_id"),
                         "day": pa.array(day, pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    rows = (ds.map_batches(purchases, batch_format="pyarrow")
            .groupby("user_id")
            .aggregate(Max("day", alias_name="r_day"),
                       Count(alias_name="f_n"),
                       Sum("cents", alias_name="m_cents"))
            .take_all())
    uid = np.array([r["user_id"] for r in rows], np.int64)
    rd_ = np.array([r["r_day"] for r in rows], np.int64)
    fn = np.array([r["f_n"] for r in rows], np.int64)
    mc = np.array([r["m_cents"] for r in rows], np.int64)
    n = len(uid)

    def quint(metric: np.ndarray) -> np.ndarray:
        order = np.lexsort((uid, metric))
        rank = np.empty(n, np.int64)
        rank[order] = np.arange(1, n + 1)
        return 1 + (rank - 1) * 5 // max(n, 1)

    rs, fs, ms = quint(rd_), quint(fn), quint(mc)
    order = np.argsort(uid)
    return pa.table({
        "user_id": pa.array(uid[order], pa.int64()),
        "r_day": pa.array(rd_[order], pa.int64()),
        "f_n": pa.array(fn[order], pa.int64()),
        "m_cents": pa.array(mc[order], pa.int64()),
        "r_score": pa.array(rs[order], pa.int64()),
        "f_score": pa.array(fs[order], pa.int64()),
        "m_score": pa.array(ms[order], pa.int64()),
        "rfm": pa.array((100 * rs + 10 * fs + ms)[order], pa.int64()),
    })


def forecast_revenue(sf_dir: str, *, day_lo: int = 9496,
                     day_hi: int = 9862, disc_lo: int = 3,
                     disc_hi: int = 7, qty_max: int = 24):
    """TPC-H Q6 SHAPE — forecasting revenue change: the revenue uplift
    of dropping discounts ``disc_lo..disc_hi`` (e2 units) on small
    orders (qty < ``qty_max``) shipped inside one year, as the exact
    integer ``SUM(cents(extendedprice) * disc_e2)`` (e4 units).

    The canonical filter-then-sum scan: every predicate is a numpy
    mask inside ONE ``map_batches`` pass that emits a single partial
    row per batch; the combine is a scalar sum — no groupby shuffle at
    any scale."""
    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        disc = np.rint(t.column("l_discount").to_numpy()
                       * 100.0).astype(np.int64)
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)
        m = ((day >= day_lo) & (day < day_hi)
             & (disc >= disc_lo) & (disc <= disc_hi)
             & (qty < qty_max))
        return pa.table({
            "rev": pa.array([int((cents[m] * disc[m]).sum())], pa.int64()),
            "n": pa.array([int(m.sum())], pa.int64())})

    p = li.map_batches(partial, batch_format="pyarrow")
    rev = int(p.sum("rev"))
    n = int(p.sum("n"))
    return pa.table({"revenue_e4": pa.array([rev], pa.int64()),
                     "n_rows": pa.array([n], pa.int64())})


def customer_distribution(sf_dir: str, *,
                          excluded_priority: str = "4-NOT SPECIFIED"):
    """TPC-H Q13 SHAPE — customer order-count distribution including
    zero-order customers: orders (minus one excluded priority class)
    count per customer, then a histogram of those counts; the
    c_count = 0 bucket is ``|customer| - |customers with orders|``
    computed from two scalar counts, NOT a materialized outer join.

    Shape: per-batch partial counts → groupby(custkey) [shuffle 1,
    |customers| keys] → groupby(c_count) [shuffle 2, ≤ max-orders
    keys]; the driver only ever holds the final histogram."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t.column("o_orderpriority"),
                            pa.scalar(excluded_priority))
        ck = t.filter(keep).column("o_custkey").to_numpy() \
            .astype(np.int64)
        uk, cnt = np.unique(ck, return_counts=True)
        return pa.table({"o_custkey": pa.array(uk, pa.int64()),
                         "c_partial": pa.array(cnt, pa.int64())})

    per_cust = (orders.map_batches(partial, batch_format="pyarrow")
                .groupby("o_custkey")
                .aggregate(Sum("c_partial", alias_name="c_count")))
    hist = (per_cust.groupby("c_count")
            .aggregate(Count(alias_name="custdist"))
            .take_all())
    n_customers = _read(sf_dir, "customer", ["c_custkey"]).count()
    n_with = sum(r["custdist"] for r in hist)
    rows = [(int(r["c_count"]), int(r["custdist"])) for r in hist]
    if n_customers - n_with > 0:
        rows.append((0, n_customers - n_with))
    rows.sort(key=lambda r: (-r[1], -r[0]))
    return pa.table({
        "c_count": pa.array([r[0] for r in rows], pa.int64()),
        "custdist": pa.array([r[1] for r in rows], pa.int64())})


def promo_revenue(sf_dir: str, *, day_lo: int = 9740,
                  day_hi: int = 9770, promo_type: str = "PROMO"):
    """TPC-H Q14 SHAPE — promotion effect: share of one month's
    discounted revenue earned by promo-type parts.  Revenue rides as
    the exact e4 integer ``cents(extendedprice) * (100 - disc_e2)``;
    the final percentage is computed on the driver with PYTHON ints
    (``100e6 * promo // total`` needs > 63 bits at warehouse scale)
    and floor semantics on both sides.

    The part dimension broadcasts as a sorted (partkey, is_promo)
    pair (``ray.put`` once, searchsorted per batch) — the Q3/Q5/Q18
    dimension posture; lineitem streams in one pass."""
    import ray

    part = _collect_columns(_read(sf_dir, "part",
                                  ["p_partkey", "p_type"]),
                            ["p_partkey", "p_type"])
    order = np.argsort(part["p_partkey"].astype(np.int64))
    pk_sorted = part["p_partkey"].astype(np.int64)[order]
    is_promo = (part["p_type"][order].astype(str)
                == promo_type)
    pref = ray.put((pk_sorted, is_promo))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        keys, promo = ray.get(pref)
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = (day >= day_lo) & (day < day_hi)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)[m]
        i = np.searchsorted(keys, pk)
        assert len(pk) == 0 or (keys[i] == pk).all(), \
            "lineitem references a missing part key"
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)[m]
        disc = np.rint(t.column("l_discount").to_numpy()
                       * 100.0).astype(np.int64)[m]
        rev = cents * (100 - disc)
        pm = promo[i]
        return pa.table({
            "promo": pa.array([int(rev[pm].sum())], pa.int64()),
            "total": pa.array([int(rev.sum())], pa.int64())})

    p = li.map_batches(partial, batch_format="pyarrow")
    promo_e4 = int(p.sum("promo"))
    total_e4 = int(p.sum("total"))
    pct_e6 = (100_000_000 * promo_e4) // total_e4 if total_e4 else 0
    return pa.table({
        "promo_e4": pa.array([promo_e4], pa.int64()),
        "total_e4": pa.array([total_e4], pa.int64()),
        "promo_pct_e6": pa.array([pct_e6], pa.int64())})


def small_quantity_revenue(sf_dir: str, *, brand: str = "Brand#23"):
    """TPC-H Q17 SHAPE — small-quantity-order revenue for one brand:
    lineitems whose quantity is below 20 % of their part's average
    order quantity.  The correlated-average predicate is EXACT in
    integers: ``qty < sum/(5·cnt)  ⇔  5·qty·cnt < sum`` — no float
    average is ever formed.

    Two passes over the brand-pruned lineitem stream: pass 1 is a
    per-part (sum, count) groupby; pass 2 re-scans with the per-part
    stats broadcast (bounded by the brand's share of the part
    dimension) and the integer cross-multiplication as the filter."""
    import ray
    from ray.data.aggregate import Count, Sum

    part = _collect_columns(_read(sf_dir, "part",
                                  ["p_partkey", "p_brand"]),
                            ["p_partkey", "p_brand"])
    bk = np.sort(part["p_partkey"].astype(np.int64)[
        part["p_brand"].astype(str) == brand])
    bref = ray.put(bk)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def prune(t: pa.Table) -> pa.Table:
        keys = ray.get(bref)
        pk = t.column("l_partkey").to_numpy().astype(np.int64)
        pos = np.searchsorted(keys, pk)
        pos = np.clip(pos, 0, max(len(keys) - 1, 0))
        m = (keys[pos] == pk) if len(keys) else np.zeros(len(pk), bool)
        qty = np.rint(t.column("l_quantity").to_numpy()) \
            .astype(np.int64)[m]
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)[m]
        return pa.table({"pk": pa.array(pk[m], pa.int64()),
                         "qty": pa.array(qty, pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    pruned = li.map_batches(prune, batch_format="pyarrow")
    stats = (pruned.select_columns(["pk", "qty"])
             .groupby("pk")
             .aggregate(Sum("qty", alias_name="sum_qty"),
                        Count(alias_name="n_li"))
             .take_all())
    sk = np.array([r["pk"] for r in stats], np.int64)
    so = np.argsort(sk)
    sref = ray.put((sk[so],
                    np.array([r["sum_qty"] for r in stats],
                             np.int64)[so],
                    np.array([r["n_li"] for r in stats], np.int64)[so]))

    def small(t: pa.Table) -> pa.Table:
        keys, sums, cnts = ray.get(sref)
        pk = t.column("pk").to_numpy()
        i = np.searchsorted(keys, pk)
        qty = t.column("qty").to_numpy()
        cents = t.column("cents").to_numpy()
        m = 5 * qty * cnts[i] < sums[i]
        return pa.table({
            "cents": pa.array([int(cents[m].sum())], pa.int64()),
            "n": pa.array([int(m.sum())], pa.int64())})

    p = pruned.map_batches(small, batch_format="pyarrow")
    total_cents = int(p.sum("cents"))
    n_small = int(p.sum("n"))
    return pa.table({
        "total_cents": pa.array([total_cents], pa.int64()),
        "n_small": pa.array([n_small], pa.int64()),
        "avg_yearly_e2": pa.array([total_cents // 7], pa.int64())})


def late_supplier_ranking(sf_dir: str, *, k: int = 100,
                          num_partitions: int = 8):
    """TPC-H Q21 SHAPE (adapted — the fixture has no commit/receipt
    dates): suppliers who were the LATEST shipper on finished
    multi-supplier orders.  Per order, the unique argmax supplier by
    (last shipday, then suppkey) rides as ONE packed Max key
    ``shipday·2²⁰ + suppkey`` (the Q2/MST partial-argmin idiom,
    bound-asserted); orders with a single supplier are dropped.

    Shape: groupby(orderkey, suppkey) Max → groupby(orderkey)
    {Count, Max packed} → inner join against status-'F' order keys →
    groupby(suppkey) Count; supplier names attach from the broadcast
    dimension.  Three shuffles, every one over per-order keys, never
    raw lineitem rows."""
    import ray
    from ray.data.aggregate import Count, Max
    from hedonic_ray.context import drop_empty_blocks

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy().astype(np.int64)
        sk = t.column("l_suppkey").to_numpy().astype(np.int64)
        assert len(sk) == 0 or int(sk.max()) < (1 << 20), \
            "packed argmax key needs suppkey < 2^20"
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        key = ok * (1 << 20) + sk
        uk, inv = np.unique(key, return_inverse=True)
        mx = np.full(len(uk), -1, np.int64)
        np.maximum.at(mx, inv, day)
        return pa.table({"o_s": pa.array(uk, pa.int64()),
                         "day": pa.array(mx, pa.int64())})

    per_pair = (li.map_batches(partial, batch_format="pyarrow")
                .groupby("o_s")
                .aggregate(Max("day", alias_name="last_day")))

    def repack(t: pa.Table) -> pa.Table:
        os_ = t.column("o_s").to_numpy()
        day = t.column("last_day").to_numpy()
        ok = os_ >> 20
        sk = os_ & ((1 << 20) - 1)
        assert len(day) == 0 or int(day.max()) < (1 << 42), \
            "packed day·2^20+suppkey key overflows int64"
        return pa.table({"l_orderkey": pa.array(ok, pa.int64()),
                         "packed": pa.array(day * (1 << 20) + sk,
                                            pa.int64())})

    per_order = (per_pair.map_batches(repack, batch_format="pyarrow")
                 .groupby("l_orderkey")
                 .aggregate(Count(alias_name="n_supp"),
                            Max("packed", alias_name="latest"))
                 .filter(expr="n_supp >= 2"))

    fkeys = (_read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
             .filter(expr="o_orderstatus == 'F'")
             .select_columns(["o_orderkey"]))
    s_l = pa.schema([("l_orderkey", pa.int64()), ("n_supp", pa.int64()),
                     ("latest", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64())])
    j = drop_empty_blocks(per_order, s_l).join(
        drop_empty_blocks(fkeys, s_o), "inner", num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def to_supp(t: pa.Table) -> pa.Table:
        sk = t.column("latest").to_numpy() & ((1 << 20) - 1)
        return pa.table({"s_suppkey": pa.array(sk, pa.int64())})

    counts = (j.map_batches(to_supp, batch_format="pyarrow")
              .groupby("s_suppkey")
              .aggregate(Count(alias_name="numwait"))
              .take_all())
    sup = _collect_columns(_read(sf_dir, "supplier",
                                 ["s_suppkey", "s_name"]),
                           ["s_suppkey", "s_name"])
    so = np.argsort(sup["s_suppkey"].astype(np.int64))
    skeys, snames = sup["s_suppkey"].astype(np.int64)[so], \
        sup["s_name"][so]
    sk = np.array([r["s_suppkey"] for r in counts], np.int64)
    nw = np.array([r["numwait"] for r in counts], np.int64)
    i = np.searchsorted(skeys, sk)
    order = np.lexsort((sk, -nw))[:k]
    return pa.table({
        "s_suppkey": pa.array(sk[order], pa.int64()),
        "s_name": pa.array(snames[i][order].astype(object),
                           pa.string()),
        "numwait": pa.array(nw[order], pa.int64())})


def idle_customers(sf_dir: str, *,
                   nations=(1, 3, 5, 7, 9, 11, 13),
                   recent_day: int = 11323, num_partitions: int = 8):
    """TPC-H Q22 SHAPE — global sales opportunity: per selected
    nation, the count and exact cent sum of customers whose balance
    exceeds the selected-subset positive average AND who have no
    RECENT order (none on/after epoch day ``recent_day`` —
    every fixture customer has SOME order, so the canonical
    no-orders-at-all predicate would be vacuous).  The average
    predicate is exact in integers (``cents·cnt > sum_cents``); the
    idleness test is Ray Data's native ``left_anti`` hash join
    against per-batch-deduped recent-order custkeys (the
    rel_anti_join posture).

    /root/reference has no relational surface; shape parity is with
    TPC-H Q22 itself."""
    from ray.data.aggregate import Count, Sum
    from hedonic_ray.context import drop_empty_blocks

    nat = np.sort(np.array(sorted(set(int(n) for n in nations)),
                           np.int64))

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def to_cents(t: pa.Table) -> pa.Table:
        nk = t.column("c_nationkey").to_numpy().astype(np.int64)
        m = np.isin(nk, nat)
        e2 = np.rint(t.column("c_acctbal").to_numpy()[m] * 100.0) \
            .astype(np.int64)
        return pa.table({
            "c_custkey": pa.array(
                t.column("c_custkey").to_numpy().astype(np.int64)[m],
                pa.int64()),
            "c_nationkey": pa.array(nk[m], pa.int64()),
            "acctbal_e2": pa.array(e2, pa.int64())})

    cents = cust.map_batches(to_cents, batch_format="pyarrow")

    def pos_partial(t: pa.Table) -> pa.Table:
        e2 = t.column("acctbal_e2").to_numpy()
        p = e2[e2 > 0]
        return pa.table({"s": pa.array([int(p.sum())], pa.int64()),
                         "n": pa.array([int(len(p))], pa.int64())})

    pp = cents.map_batches(pos_partial, batch_format="pyarrow")
    sum_pos = int(pp.sum("s"))
    n_pos = int(pp.sum("n"))

    def above_avg(t: pa.Table) -> pa.Table:
        e2 = t.column("acctbal_e2").to_numpy()
        return t.filter(pa.array(e2 * n_pos > sum_pos))

    rich = cents.map_batches(above_avg, batch_format="pyarrow")

    def distinct_recent_keys(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        ck = t.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({"o_custkey": pa.array(
            np.unique(ck[day >= recent_day]), pa.int64())})

    ok = drop_empty_blocks(
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
        .map_batches(distinct_recent_keys, batch_format="pyarrow"),
        pa.schema([("o_custkey", pa.int64())]))
    s_c = pa.schema([("c_custkey", pa.int64()),
                     ("c_nationkey", pa.int64()),
                     ("acctbal_e2", pa.int64())])
    anti = drop_empty_blocks(rich, s_c).join(
        ok, "left_anti", num_partitions,
        on=("c_custkey",), right_on=("o_custkey",))
    return (anti.select_columns(["c_nationkey", "acctbal_e2"])
            .groupby("c_nationkey")
            .aggregate(Count(alias_name="numcust"),
                       Sum("acctbal_e2", alias_name="totacctbal_e2"))
            .sort("c_nationkey"))


# --- the remaining classic TPC-H shapes (Q7-Q12, Q15, Q16, Q19, Q20),
# adapted to the fixture schema (no partsupp / shipmode / commit dates;
# nation-pair predicates widened to REGION level so they bite at every
# SF — the fixture plants only ~10 suppliers at sf0.001).  Together
# with Q1-Q6, Q13/Q14, Q17/Q18, Q21/Q22 above this completes all 22
# TPC-H query shapes as gate queries.

_YEAR_STARTS = np.array([9131, 9496, 9862, 10227, 10592, 10957, 11323,
                         11688], dtype=np.int64)  # 1995-01-01 .. 2002


def _year_of_day(day: np.ndarray) -> np.ndarray:
    """Calendar year of an epoch day, exact over the fixture's
    1995-2001 span (boundaries precomputed; 1996/2000 leap)."""
    assert day.size == 0 or (day >= _YEAR_STARTS[0]).all() and \
        (day < _YEAR_STARTS[-1]).all()
    return 1995 + (np.searchsorted(_YEAR_STARTS, day, side="right")
                   - 1).astype(np.int64)


def _sorted_key_map(sf_dir: str, table: str, key: str, val: str):
    """(sorted keys, values) int64 pair for a broadcast dimension
    lookup (the Q5 posture — TPC-H dimensions stay small relative to
    the facts at every SF)."""
    cols = _collect_columns(_read(sf_dir, table, [key, val]), [key, val])
    order = np.argsort(cols[key].astype(np.int64))
    return (cols[key].astype(np.int64)[order],
            cols[val].astype(np.int64)[order])


def _region_of_nation(sf_dir: str):
    """nationkey → regionkey dense int64 array (25 rows, driver)."""
    nat = _collect_columns(_read(sf_dir, "nation",
                                 ["n_nationkey", "n_regionkey"]),
                           ["n_nationkey", "n_regionkey"])
    k = nat["n_nationkey"].astype(np.int64)
    out = np.full(int(k.max()) + 1, -1, np.int64)
    out[k] = nat["n_regionkey"].astype(np.int64)
    return out


def _region_names(sf_dir: str) -> dict:
    reg = _collect_columns(_read(sf_dir, "region",
                                 ["r_regionkey", "r_name"]),
                           ["r_regionkey", "r_name"])
    return dict(zip(reg["r_regionkey"].astype(np.int64), reg["r_name"]))


def _rev_e4(t: pa.Table) -> np.ndarray:
    """Exact e4 revenue units: cents(extprice) · (100 − pct(disc))."""
    cents = np.rint(t.column("l_extendedprice").to_numpy()
                    * 100.0).astype(np.int64)
    pct = np.rint(t.column("l_discount").to_numpy()
                  * 100.0).astype(np.int64)
    return cents * (100 - pct)


def volume_shipping(sf_dir: str, *, region_a: int = 0, region_b: int = 1,
                    day_lo: int = 9131, day_hi: int = 9862,
                    num_partitions: int = 8):
    """TPC-H Q7 SHAPE — volume shipping between two trading REGIONS
    (nation pair widened to regions; see module note): revenue of
    lineitems shipped in [1995-01-01, 1997-01-01) where the supplier
    sits in one region and the customer in the OTHER, per
    (supp_region, cust_region, ship year).

    Shape: supplier→region and customer→region ride as broadcast
    sorted-key maps; LINEITEM (filtered+revenue) ⋈ ORDERS (customer
    region attached) is the one hash-partitioned fact-fact join; the
    cross-region filter and a grouped partial run inside the join
    output before one tiny groupby exchange.  Columns: supp_region,
    cust_region, l_year, revenue_e4."""
    import ray
    from ray.data.aggregate import Sum

    from hedonic_ray.context import drop_empty_blocks

    n2r = _region_of_nation(sf_dir)
    rnames = _region_names(sf_dir)
    sup_ref = ray.put((*_sorted_key_map(sf_dir, "supplier", "s_suppkey",
                                        "s_nationkey"), n2r))
    cust_ref = ray.put((*_sorted_key_map(sf_dir, "customer", "c_custkey",
                                         "c_nationkey"), n2r))
    pair = (region_a, region_b)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        sk_keys, sk_nat, reg = ray.get(sup_ref)
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        sk = t.column("l_suppkey").to_numpy()
        i = np.searchsorted(sk_keys, sk)
        assert len(sk) == 0 or (sk_keys[i] == sk).all()
        s_reg = reg[sk_nat[i]]
        m = (day >= day_lo) & (day < day_hi) & np.isin(s_reg, pair)
        return pa.table({
            "l_orderkey": t.column("l_orderkey").filter(pa.array(m)),
            "s_reg": pa.array(s_reg[m], pa.int64()),
            "l_year": pa.array(_year_of_day(day[m])),
            "rev": pa.array(_rev_e4(t)[m])})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def omap(t: pa.Table) -> pa.Table:
        ck_keys, ck_nat, reg = ray.get(cust_ref)
        ck = t.column("o_custkey").to_numpy()
        i = np.searchsorted(ck_keys, ck)
        assert len(ck) == 0 or (ck_keys[i] == ck).all()
        c_reg = reg[ck_nat[i]]
        m = np.isin(c_reg, pair)
        return pa.table({
            "o_orderkey": t.column("o_orderkey").filter(pa.array(m)),
            "c_reg": pa.array(c_reg[m], pa.int64())})

    s_l = pa.schema([("l_orderkey", pa.int64()), ("s_reg", pa.int64()),
                     ("l_year", pa.int64()), ("rev", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64()), ("c_reg", pa.int64())])
    j = drop_empty_blocks(
        li.map_batches(lmap, batch_format="pyarrow"), s_l).join(
        drop_empty_blocks(orders.map_batches(omap, batch_format="pyarrow"),
                          s_o),
        "inner", num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        m = pc.invert(pc.equal(t.column("s_reg"), t.column("c_reg")))
        g = t.filter(m).select(["s_reg", "c_reg", "l_year", "rev"])
        return (g.group_by(["s_reg", "c_reg", "l_year"])
                .aggregate([("rev", "sum")])
                .rename_columns(["s_reg", "c_reg", "l_year", "rev"]))

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby(["s_reg", "c_reg", "l_year"])
            .aggregate(Sum("rev", alias_name="revenue_e4"))
            .take_all())
    sr = np.array([str(rnames[int(r["s_reg"])]) for r in rows])
    cr = np.array([str(rnames[int(r["c_reg"])]) for r in rows])
    yr = np.array([int(r["l_year"]) for r in rows], np.int64)
    rev = np.array([int(r["revenue_e4"]) for r in rows], np.int64)
    order = np.lexsort((yr, cr, sr))
    return pa.table({
        "supp_region": pa.array(sr[order] if len(rows) else [],
                                pa.string()),
        "cust_region": pa.array(cr[order] if len(rows) else [],
                                pa.string()),
        "l_year": pa.array(yr[order], pa.int64()),
        "revenue_e4": pa.array(rev[order], pa.int64())})


def national_market_share(sf_dir: str, *, supp_region: int = 3,
                          cust_region: int = 2,
                          part_type: str = "STANDARD",
                          day_lo: int = 9131, day_hi: int = 9862,
                          num_partitions: int = 8):
    """TPC-H Q8 SHAPE — national market share (nation widened to
    region): within the market of orders placed in [1995-01-01,
    1997-01-01) by region-``cust_region`` customers for parts of one
    type, the share of revenue supplied by region-``supp_region``
    suppliers, per order year.  The share is the truncating integer
    ratio ×1e6 computed with Python ints driver-side (2 rows; sums
    are HUGEINT-scale in the oracle).

    Shape: part-type keep set and supplier→region map broadcast;
    LINEITEM ⋈ ORDERS (date+customer-region filtered, year attached)
    is the fact-fact join; per-batch grouped partials → one 2-row
    groupby.  Columns: o_year, total_e4, share_e4, mkt_share_e6."""
    import ray
    from ray.data.aggregate import Sum

    from hedonic_ray.context import drop_empty_blocks

    n2r = _region_of_nation(sf_dir)
    part = _collect_columns(_read(sf_dir, "part", ["p_partkey", "p_type"]),
                            ["p_partkey", "p_type"])
    pkeys = np.sort(part["p_partkey"].astype(np.int64)[
        part["p_type"] == part_type])
    pref = ray.put(pkeys)
    sup_ref = ray.put((*_sorted_key_map(sf_dir, "supplier", "s_suppkey",
                                        "s_nationkey"), n2r))
    cust_ref = ray.put((*_sorted_key_map(sf_dir, "customer", "c_custkey",
                                         "c_nationkey"), n2r))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        pk_set = ray.get(pref)
        sk_keys, sk_nat, reg = ray.get(sup_ref)
        pk = t.column("l_partkey").to_numpy()
        i = np.searchsorted(pk_set, pk)
        i[i == len(pk_set)] = 0
        m = len(pk_set) > 0 and (pk_set[i] == pk)
        if isinstance(m, bool):  # empty keep set
            m = np.zeros(len(pk), bool)
        sk = t.column("l_suppkey").to_numpy()
        si = np.searchsorted(sk_keys, sk)
        assert len(sk) == 0 or (sk_keys[si] == sk).all()
        is_target = (reg[sk_nat[si]] == supp_region) & m
        rev = _rev_e4(t)
        return pa.table({
            "l_orderkey": t.column("l_orderkey").filter(pa.array(m)),
            "rev": pa.array(rev[m]),
            "trev": pa.array(np.where(is_target[m], rev[m], 0))})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def omap(t: pa.Table) -> pa.Table:
        ck_keys, ck_nat, reg = ray.get(cust_ref)
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        ck = t.column("o_custkey").to_numpy()
        i = np.searchsorted(ck_keys, ck)
        assert len(ck) == 0 or (ck_keys[i] == ck).all()
        m = ((day >= day_lo) & (day < day_hi)
             & (reg[ck_nat[i]] == cust_region))
        return pa.table({
            "o_orderkey": t.column("o_orderkey").filter(pa.array(m)),
            "o_year": pa.array(_year_of_day(day[m]))})

    s_l = pa.schema([("l_orderkey", pa.int64()), ("rev", pa.int64()),
                     ("trev", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64()), ("o_year", pa.int64())])
    j = drop_empty_blocks(
        li.map_batches(lmap, batch_format="pyarrow"), s_l).join(
        drop_empty_blocks(orders.map_batches(omap, batch_format="pyarrow"),
                          s_o),
        "inner", num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["o_year", "rev", "trev"])
        return (g.group_by(["o_year"])
                .aggregate([("rev", "sum"), ("trev", "sum")])
                .rename_columns(["o_year", "rev", "trev"]))

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby("o_year")
            .aggregate(Sum("rev", alias_name="total_e4"),
                       Sum("trev", alias_name="share_e4"))
            .take_all())
    rows.sort(key=lambda r: int(r["o_year"]))
    yr = [int(r["o_year"]) for r in rows]
    tot = [int(r["total_e4"]) for r in rows]
    sh = [int(r["share_e4"]) for r in rows]
    mk = [0 if t_ == 0 else (1_000_000 * s_) // t_
          for s_, t_ in zip(sh, tot)]  # Python ints: no int64 overflow
    return pa.table({"o_year": pa.array(yr, pa.int64()),
                     "total_e4": pa.array(tot, pa.int64()),
                     "share_e4": pa.array(sh, pa.int64()),
                     "mkt_share_e6": pa.array(mk, pa.int64())})


def product_type_profit(sf_dir: str, *, name_word: str = "widget",
                        num_partitions: int = 8):
    """TPC-H Q9 SHAPE — product-type profit (adapted: the fixture has
    no partsupp, so unit cost is the part's RETAIL price; profit may
    be negative): for parts whose name ends in ``name_word``, profit
    per (supplier nation, ship year) in exact e4 units:
    Σ [cents(extprice)·(100−pct(disc)) − qty·cents(retail)·100].

    Shape: one lineitem pass — part (cost + name filter) and
    supplier→nation maps broadcast, year from l_shipdate (no join);
    per-batch grouped partials → one small groupby.  Columns:
    n_name, l_year, profit_e4."""
    import ray
    from ray.data.aggregate import Sum

    part = _collect_columns(
        _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]),
        ["p_partkey", "p_name", "p_retailprice"])
    keep = np.array([n.endswith(" " + name_word) for n in part["p_name"]])
    order = np.argsort(part["p_partkey"].astype(np.int64)[keep])
    pk_keys = part["p_partkey"].astype(np.int64)[keep][order]
    pk_cost = np.rint(part["p_retailprice"][keep][order]
                      * 100.0).astype(np.int64)
    pref = ray.put((pk_keys, pk_cost))
    sup_ref = ray.put(_sorted_key_map(sf_dir, "supplier", "s_suppkey",
                                      "s_nationkey"))
    nat = _collect_columns(_read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"]),
                           ["n_nationkey", "n_name"])
    n_name = dict(zip(nat["n_nationkey"].astype(np.int64), nat["n_name"]))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate",
                "l_extendedprice", "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        pk_keys, pk_cost = ray.get(pref)
        sk_keys, sk_nat = ray.get(sup_ref)
        pk = t.column("l_partkey").to_numpy()
        i = np.searchsorted(pk_keys, pk)
        i[i == len(pk_keys)] = 0
        m = (pk_keys[i] == pk) if len(pk_keys) else np.zeros(len(pk), bool)
        sk = t.column("l_suppkey").to_numpy()
        si = np.searchsorted(sk_keys, sk)
        assert len(sk) == 0 or (sk_keys[si] == sk).all()
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        profit = _rev_e4(t)[m] - qty[m] * pk_cost[i[m]] * 100
        g = pa.table({"n_nat": pa.array(sk_nat[si][m], pa.int64()),
                      "l_year": pa.array(_year_of_day(day[m])),
                      "profit": pa.array(profit)})
        return (g.group_by(["n_nat", "l_year"])
                .aggregate([("profit", "sum")])
                .rename_columns(["n_nat", "l_year", "profit"]))

    rows = (li.map_batches(lmap, batch_format="pyarrow")
            .groupby(["n_nat", "l_year"])
            .aggregate(Sum("profit", alias_name="profit_e4"))
            .take_all())
    nm = np.array([str(n_name[int(r["n_nat"])]) for r in rows])
    yr = np.array([int(r["l_year"]) for r in rows], np.int64)
    pr = np.array([int(r["profit_e4"]) for r in rows], np.int64)
    order = np.lexsort((-yr, nm))
    return pa.table({
        "n_name": pa.array(nm[order] if len(rows) else [], pa.string()),
        "l_year": pa.array(yr[order], pa.int64()),
        "profit_e4": pa.array(pr[order], pa.int64())})


def returned_item_revenue(sf_dir: str, *, day_lo: int = 9404,
                          day_hi: int = 9496, k: int = 20,
                          num_partitions: int = 8):
    """TPC-H Q10 SHAPE — returned-item reporting: lost revenue per
    customer from RETURNED ('R') lineitems of orders placed in
    [1995-10-01, 1996-01-01), top-``k`` by (revenue desc, custkey
    asc), with the customer's name, nation and balance attached.

    Shape: ORDERS (quarter filter) ⋈ LINEITEM (returnflag filter,
    revenue attached) hash join; per-batch grouped partials → one
    groupby(custkey) bounded by quarter-active customers; name/
    nation/balance attach from broadcast maps at the top-k finish.
    Columns: c_custkey, c_name, n_name, acctbal_e2, revenue_e4."""
    import ray
    from ray.data.aggregate import Sum

    from hedonic_ray.context import drop_empty_blocks

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("l_returnflag"), "R").to_numpy(
            zero_copy_only=False)
        return pa.table({
            "l_orderkey": t.column("l_orderkey").filter(pa.array(m)),
            "rev": pa.array(_rev_e4(t)[m])})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def omap(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = (day >= day_lo) & (day < day_hi)
        return pa.table({
            "o_orderkey": t.column("o_orderkey").filter(pa.array(m)),
            "o_custkey": t.column("o_custkey").filter(pa.array(m))})

    s_l = pa.schema([("l_orderkey", pa.int64()), ("rev", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())])
    j = drop_empty_blocks(
        li.map_batches(lmap, batch_format="pyarrow"), s_l).join(
        drop_empty_blocks(orders.map_batches(omap, batch_format="pyarrow"),
                          s_o),
        "inner", num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["o_custkey", "rev"])
        return (g.group_by(["o_custkey"]).aggregate([("rev", "sum")])
                .rename_columns(["o_custkey", "rev"]))

    rows = (j.map_batches(partial, batch_format="pyarrow")
            .groupby("o_custkey")
            .aggregate(Sum("rev", alias_name="revenue_e4"))
            .take_all())
    cust = _collect_columns(
        _read(sf_dir, "customer",
              ["c_custkey", "c_name", "c_nationkey", "c_acctbal"]),
        ["c_custkey", "c_name", "c_nationkey", "c_acctbal"])
    order_ck = np.argsort(cust["c_custkey"].astype(np.int64))
    ck_keys = cust["c_custkey"].astype(np.int64)[order_ck]
    ck_name = cust["c_name"][order_ck]
    ck_nat = cust["c_nationkey"].astype(np.int64)[order_ck]
    ck_bal = np.rint(cust["c_acctbal"][order_ck] * 100.0).astype(np.int64)
    nat = _collect_columns(_read(sf_dir, "nation",
                                 ["n_nationkey", "n_name"]),
                           ["n_nationkey", "n_name"])
    n_name = dict(zip(nat["n_nationkey"].astype(np.int64), nat["n_name"]))

    ck = np.array([int(r["o_custkey"]) for r in rows], np.int64)
    rev = np.array([int(r["revenue_e4"]) for r in rows], np.int64)
    sel = np.lexsort((ck, -rev))[:k]
    ck, rev = ck[sel], rev[sel]
    i = np.searchsorted(ck_keys, ck)
    assert len(ck) == 0 or (ck_keys[i] == ck).all()
    return pa.table({
        "c_custkey": pa.array(ck, pa.int64()),
        "c_name": pa.array(ck_name[i].astype(object) if len(ck) else [],
                           pa.string()),
        "n_name": pa.array([str(n_name[n]) for n in ck_nat[i]],
                           pa.string()),
        "acctbal_e2": pa.array(ck_bal[i] if len(ck) else [], pa.int64()),
        "revenue_e4": pa.array(rev, pa.int64())})


def important_part_value(sf_dir: str, *, supp_region: int = 3):
    """TPC-H Q11 SHAPE — important stock (adapted: no partsupp, so a
    part's "stock value" is the shipped value Σ qty·cents(extprice)
    over lineitems supplied from region ``supp_region``; the HAVING
    fraction is ABOVE-AVERAGE so the threshold self-scales with SF):
    parts whose value strictly exceeds the mean part value, by
    (value desc, partkey).

    Shape: one lineitem pass with a broadcast supplier→region map and
    per-batch grouped partials → groupby(partkey); the scalar (total,
    n_parts) pair folds on the driver from the grouped result (its
    size is bounded by the part dimension); exact integer threshold
    value·n > total.  Columns: l_partkey, value_e2."""
    import ray
    from ray.data.aggregate import Sum

    n2r = _region_of_nation(sf_dir)
    sup_ref = ray.put((*_sorted_key_map(sf_dir, "supplier", "s_suppkey",
                                        "s_nationkey"), n2r))
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice"])

    def lmap(t: pa.Table) -> pa.Table:
        sk_keys, sk_nat, reg = ray.get(sup_ref)
        sk = t.column("l_suppkey").to_numpy()
        i = np.searchsorted(sk_keys, sk)
        assert len(sk) == 0 or (sk_keys[i] == sk).all()
        m = reg[sk_nat[i]] == supp_region
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        cents = np.rint(t.column("l_extendedprice").to_numpy()
                        * 100.0).astype(np.int64)
        g = pa.table({"l_partkey": t.column("l_partkey").filter(
            pa.array(m)), "v": pa.array((qty * cents)[m])})
        return (g.group_by(["l_partkey"]).aggregate([("v", "sum")])
                .rename_columns(["l_partkey", "v"]))

    rows = (li.map_batches(lmap, batch_format="pyarrow")
            .groupby("l_partkey").aggregate(Sum("v", alias_name="value_e2"))
            .take_all())
    pk = np.array([int(r["l_partkey"]) for r in rows], np.int64)
    v = np.array([int(r["value_e2"]) for r in rows], np.int64)
    total, n = int(v.sum()), len(v)
    assert v.size == 0 or int(v.max()) * n < 2**63, \
        "value*n exceeds int64 — switch the threshold compare to " \
        "Python ints (the Q8 mkt_share posture)"
    keep = v * n > total  # exact integer above-average threshold
    pk, v = pk[keep], v[keep]
    order = np.lexsort((pk, -v))
    return pa.table({"l_partkey": pa.array(pk[order], pa.int64()),
                     "value_e2": pa.array(v[order], pa.int64())})


def shipping_delay_priority(sf_dir: str, *, day_lo: int = 9496,
                            day_hi: int = 9862,
                            num_partitions: int = 8):
    """TPC-H Q12 SHAPE — shipping modes & order priority (adapted:
    the fixture has no shipmode/commit/receipt dates, so the
    "mode" axis is the SHIP-DELAY BUCKET l_shipdate − o_orderdate:
    UNDER_30 / D30_TO_89 / D90_PLUS): for lineitems shipped in
    [1996-01-01, 1997-01-01), the count of high-priority (1-URGENT /
    2-HIGH) vs lower-priority order lines per bucket.

    Shape: ORDERS (day + priority class) ⋈ LINEITEM (window filter)
    hash join; the bucket CASE and a grouped partial run inside the
    join output; one 3-row groupby.  Columns: delay_bucket,
    high_line_count, low_line_count."""
    import ray  # noqa: F401  (posture parity with the sibling shapes)
    from ray.data.aggregate import Sum

    from hedonic_ray.context import drop_empty_blocks

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def lmap(t: pa.Table) -> pa.Table:
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = (day >= day_lo) & (day < day_hi)
        return pa.table({
            "l_orderkey": t.column("l_orderkey").filter(pa.array(m)),
            "l_day": pa.array(day[m])})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def omap(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        prio = t.column("o_orderpriority").to_numpy(zero_copy_only=False)
        high = ((prio == "1-URGENT") | (prio == "2-HIGH")).astype(np.int64)
        return pa.table({"o_orderkey": t.column("o_orderkey"),
                         "o_day": pa.array(day),
                         "is_high": pa.array(high)})

    s_l = pa.schema([("l_orderkey", pa.int64()), ("l_day", pa.int64())])
    s_o = pa.schema([("o_orderkey", pa.int64()), ("o_day", pa.int64()),
                     ("is_high", pa.int64())])
    j = drop_empty_blocks(
        li.map_batches(lmap, batch_format="pyarrow"), s_l).join(
        drop_empty_blocks(orders.map_batches(omap, batch_format="pyarrow"),
                          s_o),
        "inner", num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",))
    buckets = np.array(["UNDER_30", "D30_TO_89", "D90_PLUS"])

    def partial(t: pa.Table) -> pa.Table:
        delay = (t.column("l_day").to_numpy()
                 - t.column("o_day").to_numpy())
        b = np.where(delay < 30, 0, np.where(delay < 90, 1, 2))
        hi = t.column("is_high").to_numpy()
        g = pa.table({"delay_bucket": pa.array(buckets[b], pa.string()),
                      "h": pa.array(hi), "lo": pa.array(1 - hi)})
        return (g.group_by(["delay_bucket"])
                .aggregate([("h", "sum"), ("lo", "sum")])
                .rename_columns(["delay_bucket", "h", "lo"]))

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby("delay_bucket")
            .aggregate(Sum("h", alias_name="high_line_count"),
                       Sum("lo", alias_name="low_line_count"))
            .sort("delay_bucket"))


def top_revenue_supplier(sf_dir: str, *, day_lo: int = 9496,
                         day_hi: int = 9587):
    """TPC-H Q15 SHAPE — top supplier(s): revenue per supplier over
    lineitems shipped in the quarter [1996-01-01, 1996-04-01); ALL
    suppliers tied at the maximum are returned (the classic
    view/HAVING-max shape), ordered by suppkey.  Revenue exact e4.

    Shape: one lineitem pass with per-batch grouped partials →
    groupby(suppkey) (bounded by the supplier dimension); the max and
    the tie filter fold driver-side; names attach from the supplier
    dimension.  Columns: s_suppkey, s_name, total_revenue_e4."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        m = (day >= day_lo) & (day < day_hi)
        g = pa.table({"l_suppkey": t.column("l_suppkey").filter(
            pa.array(m)), "rev": pa.array(_rev_e4(t)[m])})
        return (g.group_by(["l_suppkey"]).aggregate([("rev", "sum")])
                .rename_columns(["l_suppkey", "rev"]))

    rows = (li.map_batches(lmap, batch_format="pyarrow")
            .groupby("l_suppkey")
            .aggregate(Sum("rev", alias_name="total_revenue_e4"))
            .take_all())
    sk = np.array([int(r["l_suppkey"]) for r in rows], np.int64)
    rev = np.array([int(r["total_revenue_e4"]) for r in rows], np.int64)
    if len(rev):
        keep = rev == rev.max()
        sk, rev = sk[keep], rev[keep]
        order = np.argsort(sk)
        sk, rev = sk[order], rev[order]
    sup = _collect_columns(_read(sf_dir, "supplier",
                                 ["s_suppkey", "s_name"]),
                           ["s_suppkey", "s_name"])
    so = np.argsort(sup["s_suppkey"].astype(np.int64))
    sk_keys = sup["s_suppkey"].astype(np.int64)[so]
    sk_name = sup["s_name"][so]
    i = np.searchsorted(sk_keys, sk)
    assert len(sk) == 0 or (sk_keys[i] == sk).all()
    return pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "s_name": pa.array(sk_name[i].astype(object) if len(sk) else [],
                           pa.string()),
        "total_revenue_e4": pa.array(rev, pa.int64())})


def parts_supplier_counts(sf_dir: str, *, excl_brand: str = "Brand#5",
                          excl_type: str = "PROMO",
                          sizes=(1, 5, 10, 15, 20, 25, 30, 35),
                          excl_supp_mod: int = 4):
    """TPC-H Q16 SHAPE — parts/supplier relationship (adapted: the
    supplies relation is the DISTINCT (partkey, suppkey) pairs
    observed in lineitem — no partsupp; the "complaint supplier"
    NOT-IN list is the deterministic set suppkey ≡ 0 (mod
    ``excl_supp_mod``), non-vacuous at every SF): distinct supplier
    count per (brand, type, size) over the selected sizes, excluding
    one brand, one type and the complaint suppliers; ordered by
    (count desc, brand, type, size).

    Shape: part attrs broadcast; per-batch distinct projection →
    groupby on the full (brand, type, size, suppkey) key (the
    distinct idiom) → per-batch grouped count partials → one small
    groupby.  Columns: p_brand, p_type, p_size, supplier_cnt."""
    import ray
    from ray.data.aggregate import Count, Sum

    part = _collect_columns(
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type",
                               "p_size"]),
        ["p_partkey", "p_brand", "p_type", "p_size"])
    size = part["p_size"].astype(np.int64)
    keep = ((part["p_brand"] != excl_brand)
            & (part["p_type"] != excl_type)
            & np.isin(size, np.asarray(sizes, np.int64)))
    order = np.argsort(part["p_partkey"].astype(np.int64)[keep])
    pref = ray.put((part["p_partkey"].astype(np.int64)[keep][order],
                    part["p_brand"][keep][order],
                    part["p_type"][keep][order], size[keep][order]))

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def project(t: pa.Table) -> pa.Table:
        pk_keys, pk_brand, pk_type, pk_size = ray.get(pref)
        pk = t.column("l_partkey").to_numpy()
        sk = t.column("l_suppkey").to_numpy().astype(np.int64)
        i = np.searchsorted(pk_keys, pk)
        i[i == len(pk_keys)] = 0
        m = (pk_keys[i] == pk) if len(pk_keys) else np.zeros(len(pk), bool)
        m &= (sk % excl_supp_mod) != 0
        pairs = np.unique(np.stack([pk[m], sk[m]], axis=1), axis=0)
        j = np.searchsorted(pk_keys, pairs[:, 0])
        return pa.table({
            "p_brand": pa.array(pk_brand[j].astype(object), pa.string()),
            "p_type": pa.array(pk_type[j].astype(object), pa.string()),
            "p_size": pa.array(pk_size[j], pa.int64()),
            "s_suppkey": pa.array(pairs[:, 1], pa.int64())})

    distinct = (li.map_batches(project, batch_format="pyarrow")
                .groupby(["p_brand", "p_type", "p_size", "s_suppkey"])
                .aggregate(Count(alias_name="_c")).drop_columns(["_c"]))

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.append_column("one", pa.array(np.ones(t.num_rows, np.int64)))
        return (g.group_by(["p_brand", "p_type", "p_size"])
                .aggregate([("one", "sum")])
                .rename_columns(["p_brand", "p_type", "p_size", "one"]))

    rows = (distinct.map_batches(count_partial, batch_format="pyarrow")
            .groupby(["p_brand", "p_type", "p_size"])
            .aggregate(Sum("one", alias_name="supplier_cnt"))
            .take_all())
    br = np.array([str(r["p_brand"]) for r in rows])
    ty = np.array([str(r["p_type"]) for r in rows])
    sz = np.array([int(r["p_size"]) for r in rows], np.int64)
    cnt = np.array([int(r["supplier_cnt"]) for r in rows], np.int64)
    order = np.lexsort((sz, ty, br, -cnt))
    return pa.table({
        "p_brand": pa.array(br[order] if len(rows) else [], pa.string()),
        "p_type": pa.array(ty[order] if len(rows) else [], pa.string()),
        "p_size": pa.array(sz[order], pa.int64()),
        "supplier_cnt": pa.array(cnt[order], pa.int64())})


_Q19_CLAUSES = (  # (brand, qty_lo, qty_hi, size_lo, size_hi), inclusive
    ("Brand#12", 1, 11, 1, 20),
    ("Brand#23", 10, 20, 1, 30),
    ("Brand#24", 20, 30, 1, 40),
)


def disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 SHAPE — discounted revenue under a 3-clause
    DISJUNCTIVE (brand, quantity-range, size-range) predicate
    (containers/shipmode absent from the fixture; brands make the
    clauses disjoint, so revenue is also reported per clause).

    Shape: one lineitem pass — part (brand, size) broadcast, the
    three clause masks vectorized per batch, grouped partials → one
    3-row groupby.  Columns: clause, revenue_e4, n_rows."""
    import ray
    from ray.data.aggregate import Sum

    part = _collect_columns(_read(sf_dir, "part",
                                  ["p_partkey", "p_brand", "p_size"]),
                            ["p_partkey", "p_brand", "p_size"])
    order = np.argsort(part["p_partkey"].astype(np.int64))
    pref = ray.put((part["p_partkey"].astype(np.int64)[order],
                    part["p_brand"][order],
                    part["p_size"].astype(np.int64)[order]))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])

    def lmap(t: pa.Table) -> pa.Table:
        pk_keys, pk_brand, pk_size = ray.get(pref)
        pk = t.column("l_partkey").to_numpy()
        i = np.searchsorted(pk_keys, pk)
        assert len(pk) == 0 or (pk_keys[i] == pk).all()
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        brand, size = pk_brand[i], pk_size[i]
        clause = np.zeros(len(pk), np.int64)
        for c, (b, qlo, qhi, slo, shi) in enumerate(_Q19_CLAUSES, 1):
            clause[(brand == b) & (qty >= qlo) & (qty <= qhi)
                   & (size >= slo) & (size <= shi)] = c
        m = clause > 0
        g = pa.table({"clause": pa.array(clause[m]),
                      "rev": pa.array(_rev_e4(t)[m]),
                      "one": pa.array(np.ones(int(m.sum()), np.int64))})
        return (g.group_by(["clause"])
                .aggregate([("rev", "sum"), ("one", "sum")])
                .rename_columns(["clause", "rev", "one"]))

    return (li.map_batches(lmap, batch_format="pyarrow")
            .groupby("clause")
            .aggregate(Sum("rev", alias_name="revenue_e4"),
                       Sum("one", alias_name="n_rows"))
            .sort("clause"))


def promotion_share_suppliers(sf_dir: str, *, name_word: str = "large",
                              supp_region: int = 0, day_lo: int = 9131,
                              day_hi: int = 9862):
    """TPC-H Q20 SHAPE — potential part promotion (adapted: no
    partsupp availqty, so the "excess stock" test is a MAJORITY-SHARE
    test on shipped quantity): region-``supp_region`` suppliers who,
    for some part whose name STARTS with ``name_word``, shipped
    strictly more than half of that part's total quantity over
    [1995-01-01, 1997-01-01); exact integers (2·supp_qty >
    total_qty).  Distinct suppliers, ordered by suppkey.

    Shape: one lineitem pass (part keep-set + supplier→region
    broadcast) with per-batch grouped (part, supplier) partials →
    groupby → per-part majority test inside map_groups (vectorized) →
    distinct suppliers; name attach at the finish.  Columns:
    s_suppkey, s_name."""
    import ray
    from ray.data.aggregate import Count, Sum

    part = _collect_columns(_read(sf_dir, "part", ["p_partkey", "p_name"]),
                            ["p_partkey", "p_name"])
    keep = np.array([n.startswith(name_word + " ")
                     for n in part["p_name"]])
    pref = ray.put(np.sort(part["p_partkey"].astype(np.int64)[keep]))
    n2r = _region_of_nation(sf_dir)
    sup_ref = ray.put((*_sorted_key_map(sf_dir, "supplier", "s_suppkey",
                                        "s_nationkey"), n2r))

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])

    def lmap(t: pa.Table) -> pa.Table:
        pk_set = ray.get(pref)
        day = (t.column("l_shipdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        pk = t.column("l_partkey").to_numpy()
        i = np.searchsorted(pk_set, pk)
        i[i == len(pk_set)] = 0
        m = (pk_set[i] == pk) if len(pk_set) else np.zeros(len(pk), bool)
        m &= (day >= day_lo) & (day < day_hi)
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        g = pa.table({"l_partkey": t.column("l_partkey").filter(
            pa.array(m)),
            "l_suppkey": t.column("l_suppkey").filter(pa.array(m)),
            "qty": pa.array(qty[m])})
        return (g.group_by(["l_partkey", "l_suppkey"])
                .aggregate([("qty", "sum")])
                .rename_columns(["l_partkey", "l_suppkey", "qty"]))

    per_pair = (li.map_batches(lmap, batch_format="pyarrow")
                .groupby(["l_partkey", "l_suppkey"])
                .aggregate(Sum("qty", alias_name="sq")))

    def majority(g: pa.Table) -> pa.Table:
        sq = g.column("sq").to_numpy()
        win = 2 * sq > int(sq.sum())
        return pa.table({"s_suppkey": g.column("l_suppkey").filter(
            pa.array(win))})

    winners = (per_pair.groupby("l_partkey")
               .map_groups(majority, batch_format="pyarrow")
               .groupby("s_suppkey")
               .aggregate(Count(alias_name="_c")).drop_columns(["_c"]))
    sk = np.sort(np.concatenate(
        [b.column("s_suppkey").to_numpy() for b in
         winners.iter_batches(batch_size=65536, batch_format="pyarrow")]
        or [np.empty(0, np.int64)]).astype(np.int64))
    sk_keys, sk_nat, reg = ray.get(sup_ref)
    i = np.searchsorted(sk_keys, sk)
    assert len(sk) == 0 or (sk_keys[i] == sk).all()
    m = reg[sk_nat[i]] == supp_region
    sk = sk[m]
    sup = _collect_columns(_read(sf_dir, "supplier",
                                 ["s_suppkey", "s_name"]),
                           ["s_suppkey", "s_name"])
    so = np.argsort(sup["s_suppkey"].astype(np.int64))
    nk = sup["s_suppkey"].astype(np.int64)[so]
    nv = sup["s_name"][so]
    i = np.searchsorted(nk, sk)
    assert len(sk) == 0 or (nk[i] == sk).all()
    return pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "s_name": pa.array(nv[i].astype(object) if len(sk) else [],
                           pa.string())})


def rolling_active_users(sf_dir: str, *, window: int = 7):
    """ROLLING 7-DAY ACTIVE USERS (DAU→WAU): per event day, the
    distinct users of that day and of the trailing ``window``-day
    range.  Sliding DISTINCT does not pre-aggregate, so the scale
    shape is the EXPANSION join: each distinct (day, user) fact fans
    out to the ``window`` target days it supports, one distinct
    exchange collapses (target_day, user), one groupby counts — the
    all-to-all carries day·user facts × window, never raw events.
    Columns: day, dau, wau (days with ≥1 event)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def du_partial(t: pa.Table) -> pa.Table:
        day = (t.column("ts").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        u = t.column("user_id").to_numpy().astype(np.int64)
        uniq = np.unique(np.stack([day, u], axis=1), axis=0)
        return pa.table({"day": pa.array(uniq[:, 0]),
                         "user_id": pa.array(uniq[:, 1])})

    du = (ds.map_batches(du_partial, batch_format="pyarrow")
          .groupby(["day", "user_id"])
          .aggregate(Count(alias_name="_c")).drop_columns(["_c"]))

    dau_rows = (du.groupby("day").aggregate(Count(alias_name="dau"))
                .take_all())

    def expand(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy().astype(np.int64)
        u = t.column("user_id").to_numpy().astype(np.int64)
        off = np.arange(window, dtype=np.int64)
        return pa.table({
            "day": pa.array((day[:, None] + off[None, :]).ravel()),
            "user_id": pa.array(np.repeat(u, window))})

    wau_rows = (du.map_batches(expand, batch_format="pyarrow")
                .groupby(["day", "user_id"])
                .aggregate(Count(alias_name="_c")).drop_columns(["_c"])
                .groupby("day").aggregate(Count(alias_name="wau"))
                .take_all())
    dau = {int(r["day"]): int(r["dau"]) for r in dau_rows}
    wau = {int(r["day"]): int(r["wau"]) for r in wau_rows}
    days = np.array(sorted(dau), np.int64)
    return pa.table({
        "day": pa.array(days),
        "dau": pa.array([dau[int(d)] for d in days], pa.int64()),
        "wau": pa.array([wau[int(d)] for d in days], pa.int64())})


def holt_trend(sf_dir: str, *, alpha_e3: int = 200, beta_e3: int = 100):
    """HOLT LINEAR-TREND double exponential smoothing of daily order
    revenue (cents), exact integers: the classic recurrences

        l_t = (α·x_t + (1−α)·(l + b)) ,  b_t = (β·(l_t − l) + (1−β)·b)

    run with ×1e3 integer coefficients and the SIGN-SPLIT truncating
    division (numpy floors, SQL truncates — the rel_covariance rule;
    the trend can go negative).  Daily sums reduce distributed
    (map_batches partials → one groupby); the recurrence itself is
    inherently sequential over the ~O(calendar) day vector, a driver
    scalar loop in exact Python ints — the same O(days) finish as the
    autocorr/EMA family.  Init: l₁ = x₁, b₁ = x₂ − x₁.
    Columns: day, level_c, trend_c."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
               // 86_400_000_000)
        cents = np.rint(t.column("o_totalprice").to_numpy()
                        * 100.0).astype(np.int64)
        ud, inv = np.unique(day, return_inverse=True)
        acc = np.zeros(len(ud), np.int64)
        np.add.at(acc, inv, cents)
        return pa.table({"day": pa.array(ud), "rev": pa.array(acc)})

    rows = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("day").aggregate(Sum("rev", alias_name="rev"))
            .take_all())
    rows.sort(key=lambda r: int(r["day"]))
    days = [int(r["day"]) for r in rows]
    xs = [int(r["rev"]) for r in rows]
    assert len(days) >= 2, "Holt needs at least two days"

    def sdiv(v: int, d: int) -> int:  # trunc toward zero == SQL //
        return v // d if v >= 0 else -((-v) // d)

    lvl, trd = [xs[0]], [xs[1] - xs[0]]
    for x in xs[1:]:
        l_prev, b_prev = lvl[-1], trd[-1]
        l_t = sdiv(alpha_e3 * x + (1000 - alpha_e3) * (l_prev + b_prev),
                   1000)
        b_t = sdiv(beta_e3 * (l_t - l_prev) + (1000 - beta_e3) * b_prev,
                   1000)
        lvl.append(l_t)
        trd.append(b_t)
    return pa.table({"day": pa.array(days, pa.int64()),
                     "level_c": pa.array(lvl, pa.int64()),
                     "trend_c": pa.array(trd, pa.int64())})


_HLL_K1 = 11400714819323198485   # 0x9E3779B97F4A7C15 (splitmix inc)
_HLL_K2 = 1442695040888963407


def hll_distinct_users(sf_dir: str, *, p: int = 6,
                       alpha_e6: int = 709_000):
    """HYPERLOGLOG DISTINCT-COUNT AUDIT over event users — the
    mergeable-sketch primitive every 100-TB pipeline dashboards on,
    with its error measured against the exact distinct count in the
    same query (the `dedup_bloom` / `sim_recall_audit` audit shape).

    Exact cross-engine contract: hash h = (u·K1 + K2) mod 2^64 (the
    fingerprint-oracle HUGEINT idiom), bucket = top ``p`` bits via
    h // 2^(64−p), rho = 1 + leading zeros of the remaining 58-bit
    field (bit length via a searchsorted against exact powers of two
    — no float log2, which mis-floors above 2^53).  The register MAX
    is the mergeable partial (one per batch per bucket, one tiny
    groupby); the raw estimate is the classic α·m²/Σ2^(−M_j) as the
    truncating integer E = (α_e6·m²·2^59) // (1e6·S) with
    S = Σ 2^(59−M_j) in exact Python ints.  Small-range LINEAR
    COUNTING (Flajolet et al. 2007): with V empty registers, if
    V > 0 and 2·E ≤ 5·m the estimate is m·ln(m/V), written as the
    floored-ln-of-integer difference
    (m·(⌊1e6·ln m⌋ − ⌊1e6·ln V⌋)) // 1e6; otherwise it is E.  The
    oracle SQL evaluates the same integer rule.  Columns: m, n_exact,
    n_est, err_e6 = (1e6·|n_est − n_exact|) // max(n_exact, 1)."""
    from ray.data.aggregate import Count, Max

    m = 1 << p
    rest_bits = 64 - p
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = np.unique(t.column("user_id").to_numpy()).astype(np.uint64)
        h = u * np.uint64(_HLL_K1) + np.uint64(_HLL_K2)
        bucket = (h >> np.uint64(rest_bits)).astype(np.int64)
        rest = h & np.uint64((1 << rest_bits) - 1)
        powers = (np.uint64(1) << np.arange(rest_bits, dtype=np.uint64))
        bl = np.searchsorted(powers, rest, side="right")
        rho = (rest_bits + 1 - bl).astype(np.int64)
        ub, inv = np.unique(bucket, return_inverse=True)
        mx = np.zeros(len(ub), np.int64)
        np.maximum.at(mx, inv, rho)
        return pa.table({"bucket": pa.array(ub),
                         "rho": pa.array(mx)})

    reg_rows = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("bucket").aggregate(Max("rho", alias_name="mr"))
                .take_all())
    regs = np.zeros(m, np.int64)
    for r in reg_rows:
        regs[int(r["bucket"])] = int(r["mr"])

    def exact_partial(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": pa.array(
            np.unique(t.column("user_id").to_numpy()).astype(np.int64))})

    n_exact = (ds.map_batches(exact_partial, batch_format="pyarrow")
               .groupby("user_id")
               .aggregate(Count(alias_name="_c")).drop_columns(["_c"])
               .count())
    s = sum(1 << (rest_bits + 1 - int(r)) for r in regs)  # Σ 2^(59−M)
    n_est = (alpha_e6 * m * m * (1 << (rest_bits + 1))) // (1_000_000 * s)
    v = int((regs == 0).sum())
    if v > 0 and 2 * n_est <= 5 * m:
        # standard small-range LINEAR COUNTING correction:
        # m·ln(m/V) as the floored-ln-of-integer difference
        ln_m = int(np.floor(1e6 * np.log(m)))
        ln_v = int(np.floor(1e6 * np.log(v)))
        n_est = (m * (ln_m - ln_v)) // 1_000_000
    err = (1_000_000 * abs(n_est - n_exact)) // max(n_exact, 1)
    return pa.table({"m": pa.array([m], pa.int64()),
                     "n_exact": pa.array([n_exact], pa.int64()),
                     "n_est": pa.array([n_est], pa.int64()),
                     "err_e6": pa.array([err], pa.int64())})
