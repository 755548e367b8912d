"""Distributed cardinality sketches (grouped distinct counts).

Two paths behind one entry point, :func:`grouped_distinct_count`:

``method="exact"`` — per-batch ``np.unique`` over packed (key, value)
pairs (a combiner: duplicate pairs INSIDE a batch never enter the
exchange), then ONE ``groupby(key)`` whose finalizer re-uniques the
per-batch-distinct values.  Exact at any scale; exchange volume is the
per-batch-distinct pair count, bounded by Σ_key |distinct values|
× #batches in the worst case.

``method="hll"`` — the 100 TB shape: HyperLogLog register PARTIALS per
(batch, key) (Flajolet et al. 2007; ``2^p`` uint8 registers), merged by
an elementwise-max groupby finalizer.  Exchange volume is
O(#keys × 2^p × #batches) bytes — INDEPENDENT of the value count — and
the merge is associative/commutative, so the result is deterministic
and identical under any partitioning (tested).  Estimates use the
standard bias-corrected raw estimator with the small-range
linear-counting correction; σ ≈ 1.04/√(2^p) ≈ 1.6 % at the default
p = 12 (4 KiB per key).

The reference has no sketches (its distinct counting is Counter-based,
/root/reference/hedonic/__init__.py); this is part of the
training-data extension surface (SURVEY §2.7 dedup/set-ops family).
The driver-gate query uses the exact path (SQL ``count(DISTINCT ..)``
oracle); the float estimator here is pytest-gated (error bound + exact
merge-associativity).  An HLL estimate is SQL-reproducible when it is
computed in exact integers: the gate query ``rel_hll_users``
(``relational/queries.py:hll_distinct_users``) does so, linear
counting included, and matches its DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from hedonic_ray.functions.hashing import splitmix64

_U64 = np.uint64


# ------------------------------------------------------------------ exact


def grouped_distinct_count(ds, *, key_col: str, val_col: str,
                           method: str = "exact", p: int = 12):
    """(key, n_distinct) — distinct ``val_col`` count per ``key_col``."""
    if method == "exact":
        return _exact_distinct(ds, key_col, val_col)
    if method == "hll":
        return hll_estimate(hll_partials(ds, key_col, val_col, p=p), p=p)
    raise ValueError(f"unknown grouped_distinct_count method {method!r}")


def _exact_distinct(ds, key_col: str, val_col: str, n_buckets: int = 64):
    """Two-stage exact distinct: the value space is hash-bucketed so
    NO single task ever holds all of a key's distinct values —
    stage 1 groups by (key, value-bucket) and counts distinct values
    inside the bucket; stage 2 sums the per-bucket counts (a tiny
    exchange: ≤ ``n_buckets`` rows per key).  Buckets partition the
    value space, so the bucket counts are disjoint and their sum is
    exact.  A hot key's work spreads over ``n_buckets`` tasks instead
    of one."""
    from ray.data.aggregate import Sum

    from hedonic_ray.functions.hashing import hash_strings

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False)
        # distinct (key, value) rows within the batch — the combiner;
        # factorize both sides so any dtype (strings included) packs
        # into one int64 key
        uk, invk = np.unique(k, return_inverse=True)
        uv, invv = np.unique(v, return_inverse=True)
        sel = np.unique(invk.astype(np.int64) * len(uv) + invv)
        vv = uv[sel % len(uv)]
        if vv.dtype.kind in "iu":
            vh = vv.astype(np.uint64)
        elif vv.dtype.kind == "f":
            vh = vv.astype(np.float64).view(np.uint64)
        else:
            vh = hash_strings([str(x) for x in vv])
        bucket = (splitmix64(vh) % np.uint64(n_buckets)).astype(np.int64)
        return pa.table({key_col: pa.array(uk[sel // len(uv)]),
                         val_col: pa.array(vv),
                         "_bucket": pa.array(bucket)})

    def bucket_count(g: dict) -> dict:
        return {key_col: g[key_col][:1],
                "n_distinct": np.array([len(np.unique(g[val_col]))],
                                       dtype=np.int64)}

    per_bucket = (ds.select_columns([key_col, val_col])
                  .map_batches(partial, batch_format="pyarrow")
                  .groupby([key_col, "_bucket"])
                  .map_groups(bucket_count, batch_format="numpy"))
    return per_bucket.groupby(key_col).aggregate(
        Sum("n_distinct", alias_name="n_distinct"))


# ------------------------------------------------------------ HyperLogLog


def _rho_registers(vals: np.ndarray, p: int):
    """(register index, rank) per value: index = top p bits of the
    hash, rank = 1 + leading-zero count of the remaining 64−p bits."""
    h = splitmix64(np.asarray(vals).astype(np.uint64))
    idx = (h >> _U64(64 - p)).astype(np.int64)
    rest = (h << _U64(p)) | ((_U64(1) << _U64(p)) - _U64(1))  # pad low bits
    # leading zeros of rest via float64 exponent is unsafe past 2^53;
    # use a 64-step-free vectorized log2 on the top 32 bits, falling
    # back to the low half only when the top half is zero-padded away
    lz = np.zeros(len(rest), dtype=np.int64)
    top = (rest >> _U64(32)).astype(np.uint32)
    low = rest.astype(np.uint32)
    top_nz = top != 0
    lz[top_nz] = 31 - np.floor(np.log2(top[top_nz].astype(np.float64))
                               ).astype(np.int64)
    tz = ~top_nz
    lz[tz] = 63 - np.floor(np.log2(low[tz].astype(np.float64))
                           ).astype(np.int64)
    rank = lz + 1  # 1-based; padding guarantees rest != 0
    return idx, rank.astype(np.uint8)


def _batch_registers(keys: np.ndarray, vals: np.ndarray, p: int):
    """Per-key register arrays for one batch → (unique_keys, m×2^p
    uint8 matrix)."""
    uk, inv = np.unique(keys, return_inverse=True)
    idx, rank = _rho_registers(vals, p)
    m = np.zeros((len(uk), 1 << p), dtype=np.uint8)
    np.maximum.at(m, (inv, idx), rank)
    return uk, m


def _encode_registers(row: np.ndarray, width: int) -> bytes:
    """Dense 2^p-byte block, or — when a batch-key touched few
    registers — a SPARSE blob of uint32 ``idx<<8 | rank`` entries.
    Sparse blobs are at most ``width//2`` bytes (nnz ≤ width//8), so
    blob length distinguishes the encodings unambiguously."""
    nz = np.flatnonzero(row)
    if len(nz) <= width // 8:
        return ((nz.astype(np.uint32) << np.uint32(8))
                | row[nz].astype(np.uint32)).tobytes()
    return row.tobytes()


def _decode_registers(blob: bytes, width: int) -> np.ndarray:
    if len(blob) == width:
        return np.frombuffer(blob, dtype=np.uint8)
    ent = np.frombuffer(blob, dtype=np.uint32)
    row = np.zeros(width, dtype=np.uint8)
    row[(ent >> np.uint32(8)).astype(np.int64)] = (
        ent & np.uint32(0xFF)).astype(np.uint8)
    return row


def hll_partials(ds, key_col: str, val_col: str, *, p: int = 12):
    """(key, reg: binary) partial-register rows, one per (batch, key).
    Partials use the sparse encoding when a batch-key touched at most
    2^p/8 registers — the exchange then carries O(distinct values in
    batch) bytes instead of the fixed 2^p, which matters when the KEY
    domain is large (millions of keys × 4 KiB dense blocks)."""
    width = 1 << p

    def f(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                key_col: pa.array([], t.schema.field(key_col).type),
                "reg": pa.array([], pa.binary())})
        # keys pass through np.unique untyped (string keys work); only
        # the hashed VALUE needs a uint64 view — strings via the
        # stable SipHash, numerics via their int64 bit pattern
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        v = t.column(val_col).to_numpy(zero_copy_only=False)
        if v.dtype.kind in "iu":
            v = v.astype(np.uint64)
        elif v.dtype.kind == "f":
            v = v.astype(np.float64).view(np.uint64)
        else:
            from hedonic_ray.functions.hashing import hash_strings

            v = hash_strings([str(x) for x in v])
        uk, m = _batch_registers(k, v, p)
        return pa.table({key_col: pa.array(uk),
                         "reg": pa.array([_encode_registers(r, width)
                                          for r in m], pa.binary())})

    return ds.select_columns([key_col, val_col]).map_batches(
        f, batch_format="pyarrow")


def merge_registers(regs, width: int) -> np.ndarray:
    """Elementwise max over an iterable of (dense or sparse) register
    blobs."""
    out = np.zeros(width, dtype=np.uint8)
    for r in regs:
        np.maximum(out, _decode_registers(r, width), out=out)
    return out


def _estimate_from_registers(m: np.ndarray, p: int) -> float:
    """Bias-corrected HLL estimate with small-range linear counting."""
    n_reg = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / n_reg)
    e = alpha * n_reg * n_reg / np.sum(np.float64(2.0) ** -m.astype(np.int64))
    if e <= 2.5 * n_reg:
        zeros = int(np.sum(m == 0))
        if zeros:
            return n_reg * np.log(n_reg / zeros)
    return float(e)


def hll_estimate(partials_ds, *, p: int = 12, key_col: str | None = None):
    """Merge partial rows → (key, n_distinct_est int64).  The merge is
    an elementwise register max, so any grouping/association of the
    partials yields identical registers (and thus estimates)."""

    def final(g: dict) -> dict:
        kc = key_col or next(c for c in g if c != "reg")
        m = merge_registers(g["reg"], 1 << p)
        return {kc: g[kc][:1],
                "n_distinct_est": np.array(
                    [int(round(_estimate_from_registers(m, p)))],
                    dtype=np.int64)}

    kc = key_col
    if kc is None:
        kc = next(f.name for f in partials_ds.schema().base_schema
                  if f.name != "reg")
    return partials_ds.groupby(kc).map_groups(final, batch_format="numpy")


# ------------------------------------------------------- heavy hitters (MG)


def _mg_reduce(values: np.ndarray, counts: np.ndarray, k: int):
    """Reduce a (value, count) multiset to a MISRA-GRIES summary of at
    most ``k`` counters: aggregate duplicate values, subtract the
    (k+1)-th largest aggregated count from every counter, drop the
    non-positive ones (Misra & Gries 1982; the merge rule of Agarwal
    et al. 2013 "Mergeable Summaries").  Each surviving counter
    UNDERCOUNTS its value's true frequency by at most the sum of the
    subtracted offsets — and any value whose true frequency exceeds
    that bound (≤ N/(k+1) after any merge sequence) is guaranteed to
    survive."""
    u, inv = np.unique(values, return_inverse=True)
    c = np.zeros(len(u), dtype=np.int64)
    np.add.at(c, inv, counts)
    if len(u) <= k:
        return u, c
    kth = np.partition(c, len(c) - k - 1)[len(c) - k - 1]
    keep = c > kth
    return u[keep], c[keep] - kth


def heavy_hitter_terms(ds, *, col: str = "text", k_track: int = 64,
                       k_report: int = 10):
    """TOP-``k_report`` TERMS via the two-pass MISRA-GRIES pipeline —
    the streaming heavy-hitters shape that never shuffles the token
    stream, unlike the exact wordcount (``term_total_frequency``'s
    groupby moves every distinct term):

      pass 1  per-batch MG summaries of ``k_track`` counters (a
              combiner — O(k) rows per batch leave the workers), ONE
              driver merge of O(#batches · k_track) counter rows into
              a global MG summary (one-shot aggregation + reduction is
              a valid merge by associativity; errors only shrink);
      pass 2  the ≤ k_track surviving candidates broadcast (sorted
              array via ``ray.put``), per-batch EXACT occurrence
              partials (searchsorted membership, no exchange), driver
              sum of O(#batches · k_track) partial rows.

    The report is the top ``k_report`` candidates by (exact count
    desc, term asc).  Exactness is decided at runtime, never assumed:
    if NO reduction ever dropped a counter (per-batch dropped flags +
    the driver merge), the candidates are the complete vocabulary and
    the report is exact unconditionally; otherwise every term with
    true frequency > N/(k_track+1) survived pass 1 by the MG
    guarantee, so the report equals the TRUE top-k iff it is full
    length and its k-th exact count clears that bar — ASSERTED (same
    loud-failure convention as ``sim_ivf_topk``): on a flatter
    distribution the operator raises instead of silently reporting a
    near-miss set, and the SQL oracle (plain exact top-k) stays valid
    by construction.
    """
    import ray

    from hedonic_ray.ops.textstats import _flat_words

    # per-batch sentinel row (term "", impossible for a real token:
    # empties are filtered) carries the batch token count and whether
    # the batch-level reduce dropped counters — so a batch whose MG
    # summary is EMPTY (ultra-flat data) still reports its size.
    def pass1(batch: pa.Table) -> pa.Table:
        flat, _lens, _doc_of = _flat_words(batch, col)
        w = flat.to_numpy(zero_copy_only=False).astype(str)
        u, c = _mg_reduce(w, np.ones(len(w), dtype=np.int64), k_track)
        dropped = int(len(np.unique(w)) > len(u))
        return pa.table({
            "term": pa.array(list(u.astype(object)) + [""], pa.string()),
            "c": pa.array(np.concatenate([c, [0]]), pa.int64()),
            "n": pa.array(np.concatenate(
                [np.zeros(len(u), np.int64), [np.int64(len(w))]])),
            "d": pa.array(np.concatenate(
                [np.zeros(len(u), np.int64), [np.int64(dropped)]]))})

    parts = ds.map_batches(pass1, batch_format="pyarrow").take_all()
    data = [r for r in parts if r["term"] != ""]
    n_total = sum(int(r["n"]) for r in parts)
    any_dropped = any(int(r["d"]) for r in parts)
    if not data:
        if n_total > 0:
            raise AssertionError(
                "heavy_hitter_terms: every counter was dropped (no term "
                f"reaches the MG bar N/(k_track+1) = {n_total}/"
                f"{k_track + 1}) — raise k_track")
        return pa.table({"term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    terms = np.array([r["term"] for r in data], dtype=str)
    counts = np.array([r["c"] for r in data], dtype=np.int64)
    any_dropped = any_dropped or len(np.unique(terms)) > k_track
    cand, _ = _mg_reduce(terms, counts, k_track)
    cand_sorted = np.sort(cand)
    cand_ref = ray.put(cand_sorted)

    def pass2(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        flat, _lens, _doc_of = _flat_words(batch, col)
        w = flat.to_numpy(zero_copy_only=False).astype(str)
        pos = np.searchsorted(cs, w)
        pos[pos == len(cs)] = 0
        hit = cs[pos] == w
        cnt = np.bincount(pos[hit], minlength=len(cs)).astype(np.int64)
        return pa.table({"i": pa.array(np.arange(len(cs), dtype=np.int64)),
                         "c": pa.array(cnt)})

    exact = np.zeros(len(cand_sorted), dtype=np.int64)
    for r in ds.map_batches(pass2, batch_format="pyarrow").take_all():
        exact[int(r["i"])] += int(r["c"])

    order = np.lexsort((cand_sorted, -exact))[:k_report]
    tf = exact[order]
    if any_dropped and (len(tf) < k_report or
                        tf[-1] * (k_track + 1) <= n_total):
        raise AssertionError(
            "heavy_hitter_terms: counters were dropped and the k-th "
            "reported count does not clear the MG guarantee bar "
            f"N/(k_track+1) = {n_total}/{k_track + 1} — the report may "
            "miss true heavy hitters; raise k_track")
    return pa.table({"term": pa.array(cand_sorted[order].astype(object),
                                      pa.string()),
                     "tf": pa.array(tf, pa.int64())})


def _cms_slots(base: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(len(base), depth) int64 FLATTENED slot ids d*width + h_d(term)
    for uint64 term hashes ``base`` — h_d is the seeded splitmix64
    remix (`functions/hashing.hash_ints`), identical in every pass and
    every process."""
    from hedonic_ray.functions.hashing import hash_ints

    cols = []
    for d in range(depth):
        idx = (hash_ints(base, seed=d + 1) % np.uint64(width)).astype(np.int64)
        cols.append(d * width + idx)
    return np.stack(cols, axis=1)


def cms_heavy_terms(ds, *, col: str = "text", width: int = 2048,
                    depth: int = 4, denom: int = 64):
    """ALL terms with true frequency ≥ N/denom (N = corpus token
    count), with EXACT counts, via a COUNT-MIN SKETCH candidate filter
    + exact rescore — the second classic sketch shape next to
    Misra-Gries (`heavy_hitter_terms`), with the opposite error side:
    CMS never UNDERestimates, so the candidate set is a certain
    superset of the true heavy hitters and the exact rescore makes the
    report exact unconditionally (no survival-bar assertion needed).

      pass 1  per-batch CMS partials — each batch emits only its
              TOUCHED (slot, count) cells of the depth×width grid (a
              mergeable sketch: merge = elementwise sum); the driver
              folds O(#batches · batch-vocab · depth) cells into the
              global depth×width grid.  N falls out for free: every
              grid row sums to the corpus token count.
      pass 2  grid broadcast once (``ray.put``); each batch gates its
              DISTINCT terms on est(term) = min_d grid[d, h_d(term)]
              ≥ ⌈N/denom⌉ and sends only (candidate term, exact batch
              count) into one groupby(term).Sum exchange; the final
              filter keeps cnt·denom ≥ N (integer comparison, no
              division).

    The token stream never shuffles; only candidate terms do.  The SQL
    oracle is the plain ``GROUP BY term HAVING count(*)*denom >= N``.
    """
    import ray
    from ray.data.aggregate import Sum

    from hedonic_ray.functions.hashing import hash_strings
    from hedonic_ray.ops.textstats import _flat_words

    def pass1(batch: pa.Table) -> pa.Table:
        flat, _lens, _doc_of = _flat_words(batch, col)
        w = flat.to_numpy(zero_copy_only=False).astype(str)
        u, c = np.unique(w, return_counts=True)
        if len(u) == 0:
            return pa.table({"slot": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        slots = _cms_slots(hash_strings(u), depth, width)  # (u, depth)
        return pa.table({
            "slot": pa.array(slots.ravel(), pa.int64()),
            "c": pa.array(np.repeat(c.astype(np.int64), depth), pa.int64())})

    grid = np.zeros(depth * width, dtype=np.int64)
    for b in ds.map_batches(pass1, batch_format="pyarrow").iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        if b.num_rows:
            np.add.at(grid, b.column("slot").to_numpy(),
                      b.column("c").to_numpy())
    n_total = int(grid[:width].sum())
    if n_total == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    grid_ref = ray.put(grid)

    def pass2(batch: pa.Table) -> pa.Table:
        g = ray.get(grid_ref)
        flat, _lens, _doc_of = _flat_words(batch, col)
        w = flat.to_numpy(zero_copy_only=False).astype(str)
        u, c = np.unique(w, return_counts=True)
        if len(u) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "tf_partial": pa.array([], pa.int64())})
        est = g[_cms_slots(hash_strings(u), depth, width)].min(axis=1)
        keep = est * denom >= n_total
        return pa.table({
            "term": pa.array(u[keep].astype(object), pa.string()),
            "tf_partial": pa.array(c[keep].astype(np.int64), pa.int64())})

    agg = (ds.map_batches(pass2, batch_format="pyarrow")
             .groupby("term").aggregate(Sum("tf_partial", alias_name="tf")))

    def final_filter(t: pa.Table) -> pa.Table:
        tf = t.column("tf").to_numpy()
        return t.filter(pa.array(tf * denom >= n_total))

    out = agg.map_batches(final_filter, batch_format="pyarrow").sort("term")
    batches = [b for b in out.iter_batches(batch_size=65536,
                                           batch_format="pyarrow")
               if b.num_rows]
    if not batches:
        return pa.table({"term": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    t = pa.concat_tables(batches).combine_chunks()
    return t.select(["term", "tf"])
