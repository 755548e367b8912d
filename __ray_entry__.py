"""Driver contract for the hedonic_ray engine.

``entry()`` runs the flagship link-graph pipeline on sf0.001;
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2); ``oracle_sql()`` gives the DuckDB-equivalent SQL for
every SQL-expressible query (same column names; float aggregates
rounded identically on both sides).  Round 2: fixed-iteration /
fixed-pass variants, recursive-CTE reachability and md5-parity hashing
gave 31 of the 34 queries exact SQL oracles.  Round 3 closes the last
three: α = m/C(n,2) is rational, so every hedonic value comparison is
exact integer arithmetic — ``graph_hedonic`` emits a per-vertex Nash
certificate (recomputed from scratch, SQL asserts it), and the two
analytics queries are evaluated on the SQL-reproducible 2-pass α=0
partition with exact-integer metrics.  34/34 oracle-checked.

Ray is initialised by the driver — nothing here calls ray.init().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# Planted-link formula shared with hedonic_ray.sources.synth (LINK_A/B)
_LINKS_CTE = """
links AS (
    SELECT d.doc_id AS src,
           CAST((d.doc_id * 2654435761 + t.j * 40503)
                % (SELECT count(*) FROM documents) AS BIGINT) AS dst
    FROM documents d, range(4) t(j)
    WHERE t.j <= d.doc_id % 4
),
e AS (SELECT DISTINCT src, dst FROM links WHERE src <> dst)
"""

_SUPPLIER_EDGES_CTE = """
und AS (
    SELECT a.s_suppkey AS u, b.s_suppkey AS v
    FROM supplier a JOIN supplier b
      ON a.s_nationkey = b.s_nationkey AND a.s_suppkey < b.s_suppkey
),
arcs AS (SELECT u AS src, v AS dst FROM und
         UNION ALL SELECT v, u FROM und)
"""


def entry() -> Any:
    from hedonic_ray.pipelines.linkgraph import flagship

    return flagship("/root/testdata/sf0.001")


# ------------------------------------------------- generated SQL oracles


def _pagerank_chain_sql(iters: int = 5, damping: float = 0.85) -> str:
    """Fixed-iteration PageRank as a chain of CTE steps (r0 → r{iters});
    mirrors PageRankStep.apply exactly: r' = (1-d)/n + d*(contrib +
    dangling_mass/n), dangling = Σ rank over outdeg-0 vertices."""
    parts = [f"""WITH {_LINKS_CTE},
nn AS (SELECT count(*) AS n FROM documents),
outdeg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
r0 AS (SELECT d.doc_id AS v, 1.0 / nn.n AS r FROM documents d CROSS JOIN nn)"""]
    for i in range(iters):
        parts.append(f""",
dang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM r{i}
            WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = r{i}.v)),
c{i} AS (SELECT e.dst AS v, sum(r{i}.r / outdeg.d) AS c
         FROM e JOIN r{i} ON r{i}.v = e.src
         JOIN outdeg ON outdeg.src = e.src GROUP BY e.dst),
r{i + 1} AS (SELECT d.doc_id AS v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(c{i}.c, 0) + dang{i}.s / nn.n) AS r
             FROM documents d CROSS JOIN nn CROSS JOIN dang{i}
             LEFT JOIN c{i} ON c{i}.v = d.doc_id)""")
    parts.append(f"""
SELECT v AS vertex, CAST(ROUND(r * 1e9) AS BIGINT) AS rank_e9 FROM r{iters}""")
    return "".join(parts)


def _ppr_chain_sql(iters: int = 5, damping: float = 0.85,
                   stride: int = 101) -> str:
    """Fixed-iteration PERSONALIZED PageRank (random walk with restart
    to the uniform seed distribution, seeds = doc_id ≡ 0 mod stride) as
    a chain of CTE steps; mirrors PersonalizedPageRankStep.apply
    exactly: r' = (1-d)·p + d·(contrib + dangling_mass·p)."""
    parts = [f"""WITH {_LINKS_CTE},
ns AS (SELECT count(*) AS s FROM documents WHERE doc_id % {stride} = 0),
p AS (SELECT d.doc_id AS v,
             CASE WHEN d.doc_id % {stride} = 0
                  THEN 1.0 / ns.s ELSE 0.0 END AS pv
      FROM documents d CROSS JOIN ns),
outdeg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
r0 AS (SELECT v, pv AS r FROM p)"""]
    for i in range(iters):
        parts.append(f""",
dang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM r{i}
            WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = r{i}.v)),
c{i} AS (SELECT e.dst AS v, sum(r{i}.r / outdeg.d) AS c
         FROM e JOIN r{i} ON r{i}.v = e.src
         JOIN outdeg ON outdeg.src = e.src GROUP BY e.dst),
r{i + 1} AS (SELECT p.v,
             CAST({(1.0 - damping)!r} AS DOUBLE) * p.pv
             + {damping} * (COALESCE(c{i}.c, 0) + dang{i}.s * p.pv) AS r
             FROM p CROSS JOIN dang{i}
             LEFT JOIN c{i} ON c{i}.v = p.v)""")
    parts.append(f"""
SELECT v AS vertex, CAST(FLOOR(r * 1e9 + 0.5) AS BIGINT) AS rank_e9
FROM r{iters}""")
    return "".join(parts)


def _pr_refresh_chain_sql(iters: int = 5, extra: int = 2,
                          damping: float = 0.85,
                          stride: int = 31) -> str:
    """Incremental-refresh oracle: the plain PageRank chain on the
    base edges, then the deterministic delta edges union in and the
    chain continues WARM-STARTED from r{iters} for ``extra`` rounds
    over the updated out-degrees/dangling set."""
    parts = [f"""WITH {_LINKS_CTE},
nn AS (SELECT count(*) AS n FROM documents),
outdeg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
r0 AS (SELECT d.doc_id AS v, 1.0 / nn.n AS r FROM documents d CROSS JOIN nn)"""]
    for i in range(iters):
        parts.append(f""",
dang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM r{i}
            WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = r{i}.v)),
c{i} AS (SELECT e.dst AS v, sum(r{i}.r / outdeg.d) AS c
         FROM e JOIN r{i} ON r{i}.v = e.src
         JOIN outdeg ON outdeg.src = e.src GROUP BY e.dst),
r{i + 1} AS (SELECT d.doc_id AS v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(c{i}.c, 0) + dang{i}.s / nn.n) AS r
             FROM documents d CROSS JOIN nn CROSS JOIN dang{i}
             LEFT JOIN c{i} ON c{i}.v = d.doc_id)""")
    parts.append(f""",
delta AS (SELECT d.doc_id AS src,
                 (d.doc_id * 17 + 3) % nn.n AS dst
          FROM documents d CROSS JOIN nn
          WHERE d.doc_id % {stride} = 0
            AND d.doc_id <> (d.doc_id * 17 + 3) % nn.n),
e2 AS MATERIALIZED (SELECT src, dst FROM e
                    UNION SELECT src, dst FROM delta),
outdeg2 AS (SELECT src, count(*) AS d FROM e2 GROUP BY src),
w0 AS (SELECT v, r FROM r{iters})""")
    for i in range(extra):
        parts.append(f""",
wdang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM w{i}
             WHERE NOT EXISTS (SELECT 1 FROM e2 WHERE e2.src = w{i}.v)),
wc{i} AS (SELECT e2.dst AS v, sum(w{i}.r / outdeg2.d) AS c
          FROM e2 JOIN w{i} ON w{i}.v = e2.src
          JOIN outdeg2 ON outdeg2.src = e2.src GROUP BY e2.dst),
w{i + 1} AS (SELECT d.doc_id AS v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(wc{i}.c, 0) + wdang{i}.s / nn.n) AS r
             FROM documents d CROSS JOIN nn CROSS JOIN wdang{i}
             LEFT JOIN wc{i} ON wc{i}.v = d.doc_id)""")
    parts.append(f"""
SELECT p.v AS vertex,
       CAST(FLOOR(p.r * 1e9 + 0.5) AS BIGINT) AS prior_e9,
       CAST(FLOOR(w.r * 1e9 + 0.5) AS BIGINT) AS rank_e9,
       CAST(FLOOR(w.r * 1e9 + 0.5) AS BIGINT)
       - CAST(FLOOR(p.r * 1e9 + 0.5) AS BIGINT) AS delta_e9
FROM r{iters} p JOIN w{extra} w ON w.v = p.v""")
    return "".join(parts)


def _multilevel_chain_sql(lp_iters: int = 2) -> str:
    """Two-level community detection oracle: 2-pass hedonic (m2) →
    weighted super-graph → unrolled weighted-LP rounds on the
    super-graph (max incoming weight, ties → lowest label, no in-arcs
    keep) → project back per vertex."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
{_hedonic_chain_ctes(2)},
und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                        GREATEST(src, dst) AS b FROM e),
sup AS MATERIALIZED (
    SELECT LEAST(la.lab, lb.lab) AS ca, GREATEST(la.lab, lb.lab) AS cb,
           CAST(COUNT(*) AS BIGINT) AS w
    FROM und JOIN m2 la ON la.v = und.a
             JOIN m2 lb ON lb.v = und.b
    WHERE la.lab <> lb.lab GROUP BY 1, 2),
sarcs AS MATERIALIZED (SELECT ca AS src, cb AS dst, w FROM sup
                       UNION ALL SELECT cb, ca, w FROM sup),
comms AS MATERIALIZED (SELECT DISTINCT lab AS c FROM m2),
l0 AS (SELECT c, c AS l FROM comms)"""]
    for i in range(lp_iters):
        parts.append(f""",
g{i} AS (SELECT a.dst AS c, l{i}.l AS lab, SUM(a.w) AS tw
         FROM sarcs a JOIN l{i} ON l{i}.c = a.src GROUP BY 1, 2),
p{i} AS (SELECT c, lab FROM (
             SELECT c, lab, row_number() OVER (
                 PARTITION BY c ORDER BY tw DESC, lab) AS rn
             FROM g{i}) WHERE rn = 1),
l{i + 1} AS (SELECT l{i}.c, COALESCE(p{i}.lab, l{i}.l) AS l
             FROM l{i} LEFT JOIN p{i} ON p{i}.c = l{i}.c)""")
    parts.append(f"""
SELECT m2.v AS vertex, CAST(m2.lab AS BIGINT) AS level1,
       CAST(lf.l AS BIGINT) AS level2
FROM m2 JOIN l{lp_iters} lf ON lf.c = m2.lab ORDER BY vertex""")
    return "".join(parts)


def _trustrank_chain_sql(iters: int = 5, damping: float = 0.85,
                         stride: int = 97) -> str:
    """TrustRank spam-mass oracle: the PageRank chain AND the
    seed-set PPR chain side by side over one MATERIALIZED edge CTE,
    then ``spam_mass_e6`` as truncating integer division of the two
    ×1e9 half-up-rounded ranks (sign split: DuckDB ``//`` truncates
    toward zero, matching the engine's sign·(abs//d) form)."""
    parts = [f"""WITH {_LINKS_CTE},
em AS MATERIALIZED (SELECT src, dst FROM e),
nn AS (SELECT count(*) AS n FROM documents),
ns AS (SELECT count(*) AS s FROM documents WHERE doc_id % {stride} = 0),
sd AS (SELECT d.doc_id AS v,
              CASE WHEN d.doc_id % {stride} = 0
                   THEN 1.0 / ns.s ELSE 0.0 END AS pv
       FROM documents d CROSS JOIN ns),
outdeg AS MATERIALIZED (SELECT src, count(*) AS d FROM em GROUP BY src),
pr0 AS (SELECT d.doc_id AS v, 1.0 / nn.n AS r
        FROM documents d CROSS JOIN nn),
tr0 AS (SELECT v, pv AS r FROM sd)"""]
    for i in range(iters):
        parts.append(f""",
pdang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM pr{i}
             WHERE NOT EXISTS (SELECT 1 FROM em WHERE em.src = pr{i}.v)),
pc{i} AS (SELECT em.dst AS v, sum(pr{i}.r / outdeg.d) AS c
          FROM em JOIN pr{i} ON pr{i}.v = em.src
          JOIN outdeg ON outdeg.src = em.src GROUP BY em.dst),
pr{i + 1} AS MATERIALIZED (SELECT d.doc_id AS v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(pc{i}.c, 0) + pdang{i}.s / nn.n) AS r
             FROM documents d CROSS JOIN nn CROSS JOIN pdang{i}
             LEFT JOIN pc{i} ON pc{i}.v = d.doc_id),
tdang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM tr{i}
             WHERE NOT EXISTS (SELECT 1 FROM em WHERE em.src = tr{i}.v)),
tc{i} AS (SELECT em.dst AS v, sum(tr{i}.r / outdeg.d) AS c
          FROM em JOIN tr{i} ON tr{i}.v = em.src
          JOIN outdeg ON outdeg.src = em.src GROUP BY em.dst),
tr{i + 1} AS MATERIALIZED (SELECT sd.v,
             CAST({(1.0 - damping)!r} AS DOUBLE) * sd.pv
             + {damping} * (COALESCE(tc{i}.c, 0) + tdang{i}.s * sd.pv) AS r
             FROM sd CROSS JOIN tdang{i}
             LEFT JOIN tc{i} ON tc{i}.v = sd.v)""")
    parts.append(f""",
fin AS (SELECT p.v,
               CAST(FLOOR(t.r * 1e9 + 0.5) AS BIGINT) AS tr_e9,
               CAST(FLOOR(p.r * 1e9 + 0.5) AS BIGINT) AS pr_e9
        FROM pr{iters} p JOIN tr{iters} t ON t.v = p.v)
SELECT v AS vertex, tr_e9, pr_e9,
       CAST(CASE WHEN pr_e9 <= 0 THEN 0
            WHEN pr_e9 - tr_e9 >= 0
                 THEN (pr_e9 - tr_e9) * 1000000 // pr_e9
            ELSE -((tr_e9 - pr_e9) * 1000000 // pr_e9)
       END AS BIGINT) AS spam_mass_e6
FROM fin""")
    return "".join(parts)


def _nav_wpr_chain_sql(iters: int = 3, damping: float = 0.85) -> str:
    """Fixed-iteration WEIGHTED PageRank over the nav click graph
    (contribution r·w/W, uniform dangling) as chained CTEs; mirrors
    graph/nav.py:nav_weighted_pagerank exactly."""
    parts = [f"""WITH ev AS (
    SELECT user_id, ts, event_id,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS node
    FROM events),
hop AS (
    SELECT node AS src,
           lead(node) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS dst
    FROM ev),
arcs AS (SELECT src, dst, count(*) AS w FROM hop
         WHERE dst IS NOT NULL AND dst <> src GROUP BY 1, 2),
nodes AS (SELECT DISTINCT node AS v FROM ev),
nn AS (SELECT count(*) AS n FROM nodes),
outw AS (SELECT src, sum(w) AS tw FROM arcs GROUP BY src),
r0 AS (SELECT v, 1.0 / nn.n AS r FROM nodes CROSS JOIN nn)"""]
    for i in range(iters):
        parts.append(f""",
dang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM r{i}
            WHERE NOT EXISTS (SELECT 1 FROM arcs WHERE arcs.src = r{i}.v)),
c{i} AS (SELECT arcs.dst AS v, sum(r{i}.r * arcs.w / outw.tw) AS c
         FROM arcs JOIN r{i} ON r{i}.v = arcs.src
         JOIN outw ON outw.src = arcs.src GROUP BY arcs.dst),
r{i + 1} AS (SELECT nodes.v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(c{i}.c, 0) + dang{i}.s / nn.n) AS r
             FROM nodes CROSS JOIN nn CROSS JOIN dang{i}
             LEFT JOIN c{i} ON c{i}.v = nodes.v)""")
    parts.append(f"""
SELECT v AS node, CAST(FLOOR(r * 1e9 + 0.5) AS BIGINT) AS rank_e9
FROM r{iters}""")
    return "".join(parts)


_ARCS_CTE = "arcs AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e)"


def _nav_wlp_chain_sql(iters: int = 2) -> str:
    """Fixed-round WEIGHTED label propagation over the click graph
    (plurality by incoming click-weight, ties → lowest label) —
    mirrors graph/nav.py:nav_weighted_labelprop round for round."""
    parts = ["""WITH ev AS (
    SELECT user_id, ts, event_id,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS node
    FROM events),
hop AS (
    SELECT node AS src,
           lead(node) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS dst
    FROM ev),
arcs AS (SELECT src, dst, count(*) AS w FROM hop
         WHERE dst IS NOT NULL AND dst <> src GROUP BY 1, 2),
nodes AS (SELECT DISTINCT node AS v FROM ev),
l0 AS (SELECT v, v AS lab FROM nodes)"""]
    for i in range(iters):
        parts.append(f""",
lc{i} AS (SELECT a.dst AS v, l.lab, SUM(a.w) AS c
          FROM arcs a JOIN l{i} l ON l.v = a.src GROUP BY 1, 2),
lb{i} AS (SELECT v, lab FROM (
              SELECT v, lab, row_number() OVER (
                  PARTITION BY v ORDER BY c DESC, lab) AS rn
              FROM lc{i}) WHERE rn = 1),
l{i + 1} AS (SELECT p.v, COALESCE(lb{i}.lab, p.lab) AS lab
             FROM l{i} p LEFT JOIN lb{i} ON lb{i}.v = p.v)""")
    parts.append(f"""
SELECT v AS node, CAST(lab AS BIGINT) AS label FROM l{iters}
ORDER BY node""")
    return "".join(parts)


def _walks_chain_sql(stride: int = 101, steps: int = 5) -> str:
    """Fixed-step deterministic walks as unrolled CTEs: hop i picks
    the ``md5_low64(f"{v}-{i}") % deg(v)``-th ascending-id neighbor —
    mirrors algos/linkpred.py:deterministic_walks hop for hop."""
    parts = [f"""WITH {_LINKS_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                        GREATEST(src, dst) AS b FROM e),
arcs AS (SELECT a AS src, b AS dst FROM und
         UNION ALL SELECT b, a FROM und),
nbr AS (SELECT src, dst,
               row_number() OVER (PARTITION BY src ORDER BY dst) - 1
                   AS ord,
               COUNT(*) OVER (PARTITION BY src) AS deg
        FROM arcs),
w0 AS (SELECT doc_id AS seed, doc_id AS v FROM documents
       WHERE doc_id % {stride} = 0)"""]
    for i in range(steps):
        parts.append(f""",
w{i + 1} AS (SELECT w{i}.seed, nbr.dst AS v
     FROM w{i} JOIN nbr ON nbr.src = w{i}.v
     AND nbr.ord = CAST(md5_number_lower(CAST(w{i}.v AS VARCHAR)
                        || '-{i}') % CAST(nbr.deg AS UBIGINT)
                        AS BIGINT))""")
    unions = "\nUNION ALL ".join(
        f"SELECT seed, CAST({i} AS BIGINT) AS step, v AS vertex FROM w{i}"
        for i in range(steps + 1))
    parts.append(f"""
SELECT * FROM ({unions}) ORDER BY seed, step""")
    return "".join(parts)


def _truss_chain_sql(k: int = 3, rounds: int = 6) -> str:
    """Fixed-round k-truss peel as unrolled CTEs (e0 → e{rounds}):
    e_{i+1} = edges of e_i supported by ≥ k−2 triangles inside e_i;
    mirrors algos/truss.py round for round (its early-stop fires only
    at a fixed point, where further rounds are no-ops).  Each e_i is
    MATERIALIZED (referenced three times by the triangle join)."""
    parts = [f"""WITH {_LINKS_CTE},
e0 AS MATERIALIZED (SELECT DISTINCT LEAST(src, dst) AS a,
                    GREATEST(src, dst) AS b FROM e)"""]
    for i in range(rounds):
        parts.append(f""",
t{i} AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
         FROM e{i} e1 JOIN e{i} e2 ON e2.a = e1.b
         JOIN e{i} e3 ON e3.a = e1.a AND e3.b = e2.b),
cr{i} AS (SELECT x AS a, y AS b FROM t{i}
          UNION ALL SELECT x, z FROM t{i}
          UNION ALL SELECT y, z FROM t{i}),
sup{i} AS (SELECT a, b, COUNT(*) AS s FROM cr{i} GROUP BY a, b),
e{i + 1} AS MATERIALIZED (
    SELECT ei.a, ei.b FROM e{i} ei
    JOIN sup{i} s ON s.a = ei.a AND s.b = ei.b
    WHERE s.s >= {k - 2})""")
    parts.append(f"""
SELECT e0.a, e0.b,
       CAST(CASE WHEN fin.a IS NULL THEN 0 ELSE 1 END AS BIGINT)
           AS in_truss
FROM e0 LEFT JOIN e{rounds} fin ON fin.a = e0.a AND fin.b = e0.b
ORDER BY e0.a, e0.b""")
    return "".join(parts)


def _kcore_chain_sql(k: int = 2, rounds: int = 4) -> str:
    """Fixed-round k-core peel as unrolled CTEs (a0 → a{rounds}):
    a_{i+1} = vertices of a_i with ≥ k neighbors inside a_i; mirrors
    algos/kcore.py round for round."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
a0 AS (SELECT doc_id AS v FROM documents)"""]
    for i in range(rounds):
        parts.append(f""",
d{i} AS (SELECT arcs.src AS v, count(*) AS d
         FROM arcs JOIN a{i} al ON al.v = arcs.dst GROUP BY arcs.src),
a{i + 1} AS (SELECT a{i}.v FROM a{i}
             JOIN d{i} ON d{i}.v = a{i}.v WHERE d{i}.d >= {k})""")
    parts.append(f"""
SELECT doc.doc_id AS vertex,
       CAST(CASE WHEN fin.v IS NULL THEN 0 ELSE 1 END AS BIGINT) AS in_core
FROM documents doc LEFT JOIN a{rounds} fin ON fin.v = doc.doc_id""")
    return "".join(parts)


def _core_number_chain_sql(k_max: int = 6, rounds: int = 6) -> str:
    """Core numbers by summing nested fixed-round k-core memberships
    (`_kcore_chain_sql` chain per k, prefixed) — mirrors
    pipelines/linkgraph.py:doc_core_number."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE}"""]
    for k in range(1, k_max + 1):
        parts.append(f""",
k{k}a0 AS (SELECT doc_id AS v FROM documents)""")
        for i in range(rounds):
            parts.append(f""",
k{k}d{i} AS (SELECT arcs.src AS v, count(*) AS d
         FROM arcs JOIN k{k}a{i} al ON al.v = arcs.dst
         GROUP BY arcs.src),
k{k}a{i + 1} AS MATERIALIZED (
    SELECT k{k}a{i}.v FROM k{k}a{i}
    JOIN k{k}d{i} ON k{k}d{i}.v = k{k}a{i}.v
    WHERE k{k}d{i}.d >= {k})""")
    core_sum = " + ".join(
        f"(CASE WHEN EXISTS (SELECT 1 FROM k{k}a{rounds} x "
        f"WHERE x.v = doc.doc_id) THEN 1 ELSE 0 END)"
        for k in range(1, k_max + 1))
    parts.append(f"""
SELECT doc.doc_id AS vertex, CAST({core_sum} AS BIGINT) AS core
FROM documents doc ORDER BY vertex""")
    return "".join(parts)


def _bfs_chain_sql(rounds: int = 6, stride: int = 101) -> str:
    """Fixed-round multi-source BFS as unrolled CTEs (d0 → d{rounds}):
    frontier f_{i+1} = unvisited vertices adjacent to f_i at distance
    i+1; mirrors algos/bfs.py round for round.  CTEs referenced more
    than once are MATERIALIZED (inlining re-runs the chain)."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
d0 AS MATERIALIZED (SELECT doc_id AS v, CAST(0 AS BIGINT) AS dist
      FROM documents WHERE doc_id % {stride} = 0),
f0 AS (SELECT v FROM d0)"""]
    for i in range(rounds):
        parts.append(f""",
n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM d{i} vis WHERE vis.v = arcs.src)),
d{i + 1} AS MATERIALIZED (SELECT * FROM d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM n{i}),
f{i + 1} AS (SELECT v FROM n{i})""")
    parts.append(f"""
SELECT doc.doc_id AS vertex, COALESCE(fin.dist, -1) AS dist
FROM documents doc LEFT JOIN d{rounds} fin ON fin.v = doc.doc_id""")
    return "".join(parts)


def _harmonic_chain_sql(seeds=(0, 1, 2), rounds: int = 6) -> str:
    """Radius-``rounds`` harmonic centrality of each seed as EXACT
    integers: h_num = Σ_{v reached, 0 < d(v) ≤ rounds} h_den // d(v)
    with h_den = lcm(1..rounds), so every division is exact.  One
    unrolled single-source BFS chain per seed (the `_bfs_chain_sql`
    idiom with a prefixed CTE namespace), UNION ALL at the end."""
    from math import lcm

    den = lcm(*range(1, rounds + 1))
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE}"""]
    for s in seeds:
        p = f"s{s}"
        parts.append(f""",
{p}_d0 AS MATERIALIZED (SELECT CAST({s} AS BIGINT) AS v,
      CAST(0 AS BIGINT) AS dist),
{p}_f0 AS (SELECT v FROM {p}_d0)""")
        for i in range(rounds):
            parts.append(f""",
{p}_n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN {p}_f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM {p}_d{i} vis WHERE vis.v = arcs.src)),
{p}_d{i + 1} AS MATERIALIZED (SELECT * FROM {p}_d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM {p}_n{i}),
{p}_f{i + 1} AS (SELECT v FROM {p}_n{i})""")
    sel = [f"""
SELECT CAST({s} AS BIGINT) AS seed,
       CAST(count(*) AS BIGINT) AS n_reached,
       CAST(COALESCE(SUM({den} // dist), 0) AS BIGINT) AS h_num,
       CAST({den} AS BIGINT) AS h_den
FROM s{s}_d{rounds} WHERE dist > 0""" for s in seeds]
    parts.append(" UNION ALL ".join(sel) + " ORDER BY seed")
    return "".join(parts)


def _katz_chain_sql(iters: int = 4, beta_inv: int = 4) -> str:
    """Radius-``iters`` Katz centrality as exact integers: one walk-
    count CTE per length (w_k(v) = Σ_{u→v} w_{k-1}(u), w_0 ≡ 1), then
    katz_num = Σ_k beta_inv^(K−k)·w_k over katz_den = beta_inv^K —
    mirrors algos/katz.py pass for pass (the HITS push chain with
    integer attenuation weights)."""
    parts = [f"""WITH {_LINKS_CTE},
w0 AS (SELECT doc_id AS v, CAST(1 AS BIGINT) AS s FROM documents)"""]
    for i in range(iters):
        parts.append(f""",
w{i + 1} AS (SELECT e.dst AS v, sum(w.s) AS s
             FROM e JOIN w{i} w ON w.v = e.src GROUP BY e.dst)""")
    terms = " + ".join(f"{beta_inv ** (iters - k)} * COALESCE(w{k}.s, 0)"
                       for k in range(1, iters + 1))
    joins = "".join(f"\nLEFT JOIN w{k} ON w{k}.v = d.doc_id"
                    for k in range(1, iters + 1))
    parts.append(f"""
SELECT d.doc_id AS vertex,
       CAST({terms} AS BIGINT) AS katz_num,
       CAST({beta_inv ** iters} AS BIGINT) AS katz_den
FROM documents d{joins}""")
    return "".join(parts)


def _sssp_chain_sql(rounds: int = 6, seed: int = 0) -> str:
    """Fixed-round synchronous Bellman-Ford as unrolled min-CTEs with
    the deterministic integer arc weights 1 + (src·31 + dst·17) % 9 —
    mirrors algos/sssp.py round for round (dist_k = min(dist_{k-1},
    min over arcs of dist_{k-1}(src) + w))."""
    parts = [f"""WITH {_LINKS_CTE},
w AS (SELECT src, dst,
             1 + (src * 31 + dst * 17) % 9 AS wt FROM e),
d0 AS (SELECT CAST({seed} AS BIGINT) AS v, CAST(0 AS BIGINT) AS d)"""]
    for i in range(rounds):
        parts.append(f""",
d{i + 1} AS MATERIALIZED (
    SELECT v, MIN(d) AS d FROM (
        SELECT v, d FROM d{i}
        UNION ALL
        SELECT w.dst AS v, p.d + w.wt AS d
        FROM w JOIN d{i} p ON p.v = w.src
    ) u GROUP BY v)""")
    parts.append(f"""
SELECT doc.doc_id AS vertex,
       CAST(COALESCE(d.d, -1) AS BIGINT) AS dist
FROM documents doc LEFT JOIN d{rounds} d ON d.v = doc.doc_id""")
    return "".join(parts)


def _temporal_chain_sql(rounds: int = 4) -> str:
    """Fixed-round earliest-arrival relaxation over the timestamped
    click-graph arcs (arrival ts = the destination event's ts), seeded
    at the lowest node id with virtual start 0 — mirrors
    graph/temporal.py round for round; all times are epoch-µs
    BIGINTs."""
    parts = ["""WITH ev AS (
    SELECT user_id, ts, event_id,
           CAST(json_extract_string(props, '$.k') AS BIGINT) AS node
    FROM events),
hop AS (
    SELECT node AS src,
           lead(node) OVER (PARTITION BY user_id ORDER BY ts, event_id)
               AS dst,
           lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
               AS ats
    FROM ev),
tarcs AS MATERIALIZED (
    SELECT DISTINCT src, dst, CAST(epoch_us(ats) AS BIGINT) AS t
    FROM hop WHERE dst IS NOT NULL AND src <> dst),
nodes AS MATERIALIZED (
    SELECT DISTINCT src AS v FROM tarcs
    UNION SELECT DISTINCT dst FROM tarcs),
e0 AS (SELECT (SELECT min(v) FROM nodes) AS v,
              CAST(0 AS BIGINT) AS ea)"""]
    for i in range(rounds):
        parts.append(f""",
e{i + 1} AS MATERIALIZED (
    SELECT v, MIN(ea) AS ea FROM (
        SELECT v, ea FROM e{i}
        UNION ALL
        SELECT a.dst AS v, a.t AS ea
        FROM tarcs a JOIN e{i} p ON p.v = a.src AND a.t >= p.ea
    ) u GROUP BY v)""")
    parts.append(f"""
SELECT n.v AS node, CAST(COALESCE(e.ea, -1) AS BIGINT) AS ea_us
FROM nodes n LEFT JOIN e{rounds} e ON e.v = n.v
ORDER BY node""")
    return "".join(parts)


def _diameter_chain_sql(rounds: int = 6) -> str:
    """Double-sweep BFS diameter lower bound (radius-capped): the
    `_bfs_chain_sql` idiom twice, the second sweep seeded by the first
    sweep's farthest vertex (max dist, tie → lowest id) — mirrors
    pipelines/linkgraph.py:doc_diameter sweep for sweep."""
    def chain(p: str, seed_cte: str) -> str:
        s = [f""",
{p}_d0 AS MATERIALIZED ({seed_cte}),
{p}_f0 AS (SELECT v FROM {p}_d0)"""]
        for i in range(rounds):
            s.append(f""",
{p}_n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN {p}_f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM {p}_d{i} vis WHERE vis.v = arcs.src)),
{p}_d{i + 1} AS MATERIALIZED (SELECT * FROM {p}_d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM {p}_n{i}),
{p}_f{i + 1} AS (SELECT v FROM {p}_n{i})""")
        return "".join(s)

    q = f"""WITH {_LINKS_CTE},
{_ARCS_CTE}"""
    q += chain("p1", "SELECT CAST(0 AS BIGINT) AS v, "
                     "CAST(0 AS BIGINT) AS dist")
    q += f""",
p1_far AS (SELECT v, dist FROM p1_d{rounds} WHERE dist > 0
           ORDER BY dist DESC, v ASC LIMIT 1)"""
    q += chain("p2", "SELECT v, CAST(0 AS BIGINT) AS dist FROM p1_far")
    q += f""",
p2_far AS (SELECT v, dist FROM p2_d{rounds} WHERE dist > 0
           ORDER BY dist DESC, v ASC LIMIT 1)
SELECT CAST(0 AS BIGINT) AS seed,
       (SELECT v FROM p1_far) AS far1,
       (SELECT dist FROM p1_far) AS ecc1,
       (SELECT v FROM p2_far) AS far2,
       (SELECT dist FROM p2_far) AS ecc2"""
    return q


def _path_counts_chain_sql(seeds=(0, 1, 2), rounds: int = 6) -> str:
    """Shortest-path counts σ_s(v) (Brandes forward pass) from each
    seed: the `_harmonic_chain_sql` BFS pyramid per seed, then one
    count CTE per level — cnt_r(v) = Σ over arcs u→v with dist(u)=r−1,
    dist(v)=r of cnt_{r-1}(u) — mirroring algos/bfs.py:bfs_path_counts
    level for level (exact int64 DAG path counts)."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE}"""]
    for s in seeds:
        p = f"s{s}"
        parts.append(f""",
{p}_d0 AS MATERIALIZED (SELECT CAST({s} AS BIGINT) AS v,
      CAST(0 AS BIGINT) AS dist),
{p}_f0 AS (SELECT v FROM {p}_d0)""")
        for i in range(rounds):
            parts.append(f""",
{p}_n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN {p}_f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM {p}_d{i} vis WHERE vis.v = arcs.src)),
{p}_d{i + 1} AS MATERIALIZED (SELECT * FROM {p}_d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM {p}_n{i}),
{p}_f{i + 1} AS (SELECT v FROM {p}_n{i})""")
        parts.append(f""",
{p}_c0 AS (SELECT CAST({s} AS BIGINT) AS v, CAST(1 AS BIGINT) AS c)""")
        for r in range(1, rounds + 1):
            parts.append(f""",
{p}_c{r} AS MATERIALIZED (
    SELECT a.src AS v, CAST(SUM(pc.c) AS BIGINT) AS c
    FROM arcs a
    JOIN {p}_c{r - 1} pc ON pc.v = a.dst
    JOIN {p}_d{rounds} dv ON dv.v = a.src AND dv.dist = {r}
    GROUP BY a.src)""")
        parts.append(f""",
{p}_all AS (SELECT d.v, d.dist, c.c FROM {p}_d{rounds} d JOIN (
    SELECT v, c FROM {p}_c0""")
        for r in range(1, rounds + 1):
            parts.append(f"""
    UNION ALL SELECT v, c FROM {p}_c{r}""")
        parts.append(") c ON c.v = d.v)")
    sel = [f"""
SELECT CAST({s} AS BIGINT) AS seed, v AS vertex, dist, c AS n_paths
FROM s{s}_all""" for s in seeds]
    parts.append(" UNION ALL ".join(sel) + " ORDER BY seed, vertex")
    return "".join(parts)


def _stress_chain_sql(seeds=(0, 1, 2), rounds: int = 6) -> str:
    """Single-source integer stress centrality: the
    `_path_counts_chain_sql` pyramid (dist + σ per seed) plus a
    DESCENDING continuation chain — ρ_r(v) = Σ over arcs v→w with
    dist(w) = r+1 of (1 + ρ_{r+1}(w)) — mirroring
    algos/bfs.py:bfs_downstream_paths level for level; the output is
    the exact integer product σ·ρ."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE}"""]
    for s in seeds:
        p = f"s{s}"
        parts.append(f""",
{p}_d0 AS MATERIALIZED (SELECT CAST({s} AS BIGINT) AS v,
      CAST(0 AS BIGINT) AS dist),
{p}_f0 AS (SELECT v FROM {p}_d0)""")
        for i in range(rounds):
            parts.append(f""",
{p}_n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN {p}_f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM {p}_d{i} vis WHERE vis.v = arcs.src)),
{p}_d{i + 1} AS MATERIALIZED (SELECT * FROM {p}_d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM {p}_n{i}),
{p}_f{i + 1} AS (SELECT v FROM {p}_n{i})""")
        parts.append(f""",
{p}_c0 AS (SELECT CAST({s} AS BIGINT) AS v, CAST(1 AS BIGINT) AS c)""")
        for r in range(1, rounds + 1):
            parts.append(f""",
{p}_c{r} AS MATERIALIZED (
    SELECT a.src AS v, CAST(SUM(pc.c) AS BIGINT) AS c
    FROM arcs a
    JOIN {p}_c{r - 1} pc ON pc.v = a.dst
    JOIN {p}_d{rounds} dv ON dv.v = a.src AND dv.dist = {r}
    GROUP BY a.src)""")
        parts.append(f""",
{p}_r{rounds} AS (SELECT v, CAST(0 AS BIGINT) AS rho
    FROM {p}_d{rounds} WHERE dist = {rounds})""")
        for r in range(rounds - 1, -1, -1):
            parts.append(f""",
{p}_r{r} AS MATERIALIZED (
    SELECT dv.v,
           CAST(COALESCE((SELECT SUM(1 + nr.rho) FROM arcs a
                JOIN {p}_r{r + 1} nr ON nr.v = a.dst
                WHERE a.src = dv.v), 0) AS BIGINT) AS rho
    FROM {p}_d{rounds} dv WHERE dv.dist = {r})""")
        parts.append(f""",
{p}_c AS (SELECT v, c FROM {p}_c0""")
        for r in range(1, rounds + 1):
            parts.append(f" UNION ALL SELECT v, c FROM {p}_c{r}")
        parts.append(f"""),
{p}_r AS (SELECT v, rho FROM {p}_r{rounds}""")
        for r in range(rounds - 1, -1, -1):
            parts.append(f" UNION ALL SELECT v, rho FROM {p}_r{r}")
        parts.append(f"""),
{p}_out AS (SELECT d.v, d.dist, c.c, r.rho FROM {p}_d{rounds} d
    JOIN {p}_c c ON c.v = d.v JOIN {p}_r r ON r.v = d.v)""")
    sel = [f"""
SELECT CAST({s} AS BIGINT) AS seed, v AS vertex, dist,
       c AS n_paths, rho AS n_cont, CAST(c * rho AS BIGINT) AS n_through
FROM s{s}_out""" for s in seeds]
    parts.append(" UNION ALL ".join(sel) + " ORDER BY seed, vertex")
    return "".join(parts)


def _coloring_chain_sql(rounds: int = 16) -> str:
    """Unrolled Jones–Plassmann: per round, uncolored vertices with no
    uncolored strictly-higher-priority (smaller md5) neighbor pick the
    min color unused by their colored neighbors — mirrors
    algos/coloring.py:jones_plassmann_coloring round for round."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
u0 AS (SELECT doc_id AS v,
              md5_number_lower(CAST(doc_id AS VARCHAR)) AS p
       FROM documents),
c0 AS (SELECT CAST(NULL AS BIGINT) AS v, CAST(NULL AS BIGINT) AS col,
              CAST(NULL AS BIGINT) AS rnd WHERE FALSE)"""]
    for i in range(rounds):
        parts.append(f""",
rd{i} AS MATERIALIZED (
    SELECT s.v FROM u{i} s
    WHERE NOT EXISTS (
        SELECT 1 FROM arcs a JOIN u{i} t ON t.v = a.dst
        WHERE a.src = s.v AND t.p < s.p)),
nc{i} AS MATERIALIZED (
    SELECT r.v,
           (SELECT MIN(x.x) FROM range(63) x(x)
            WHERE x.x NOT IN (
                SELECT c.col FROM arcs a JOIN c{i} c ON c.v = a.dst
                WHERE a.src = r.v)) AS col
    FROM rd{i} r),
c{i + 1} AS MATERIALIZED (
    SELECT v, col, rnd FROM c{i}
    UNION ALL SELECT v, col, CAST({i + 1} AS BIGINT) FROM nc{i}),
u{i + 1} AS MATERIALIZED (
    SELECT v, p FROM u{i}
    WHERE v NOT IN (SELECT v FROM rd{i}))""")
    parts.append(f"""
SELECT d.doc_id AS vertex,
       CAST(COALESCE(c.col, -1) AS BIGINT) AS color,
       CAST(COALESCE(c.rnd, 0) AS BIGINT) AS round
FROM documents d LEFT JOIN c{rounds} c ON c.v = d.doc_id
ORDER BY vertex""")
    return "".join(parts)


def _mis_chain_sql(rounds: int = 12) -> str:
    """Unrolled Luby MIS: md5 priorities (unsigned HUGEINT order ≡ the
    engine's sign-bit-flipped int64 order), per round strict local
    minima join, their neighbors leave — mirrors
    algos/mis.py:maximal_independent_set round for round."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
u0 AS (SELECT doc_id AS v,
              md5_number_lower(CAST(doc_id AS VARCHAR)) AS p
       FROM documents)"""]
    for i in range(rounds):
        parts.append(f""",
mn{i} AS MATERIALIZED (
    SELECT a.src AS v, MIN(t.p) AS mn FROM arcs a
    JOIN u{i} s ON s.v = a.src
    JOIN u{i} t ON t.v = a.dst
    GROUP BY a.src),
inn{i} AS MATERIALIZED (
    SELECT s.v FROM u{i} s LEFT JOIN mn{i} m ON m.v = s.v
    WHERE m.v IS NULL OR s.p < m.mn),
ex{i} AS MATERIALIZED (
    SELECT DISTINCT a.src AS v FROM arcs a
    JOIN inn{i} t ON t.v = a.dst
    JOIN u{i} s ON s.v = a.src
    WHERE a.src NOT IN (SELECT v FROM inn{i})),
u{i + 1} AS MATERIALIZED (
    SELECT v, p FROM u{i}
    WHERE v NOT IN (SELECT v FROM inn{i})
      AND v NOT IN (SELECT v FROM ex{i}))""")
    dec = [f"""SELECT v, 1 AS status, {i + 1} AS rnd FROM inn{i}
    UNION ALL SELECT v, -1, {i + 1} FROM ex{i}""" for i in range(rounds)]
    parts.append(f""",
dec AS ({" UNION ALL ".join(dec)})
SELECT d.doc_id AS vertex,
       CAST(COALESCE(dec.status, 0) AS BIGINT) AS status,
       CAST(COALESCE(dec.rnd, 0) AS BIGINT) AS round
FROM documents d LEFT JOIN dec ON dec.v = d.doc_id
ORDER BY vertex""")
    return "".join(parts)


def _mst_chain_sql(rounds: int = 16) -> str:
    """Unrolled BORŮVKA: per round, each component's min outgoing
    edge under the strict (w, a, b) order (row_number argmin), then a
    recursive min-label closure over the round's pick forest —
    mirrors algos/mst.py:minimum_spanning_forest round for round
    (strict total order ⇒ the pick graph is acyclic except mutual
    picks of the same edge, so DISTINCT dedup is exact).  The cap
    EQUALS the engine default (doc_mst rounds=16) so the two
    fixed-round semantics can never diverge; the doc fixture
    saturates in 4 rounds (components at least halve per round) and
    trailing rounds are no-ops."""
    parts = [f"""WITH RECURSIVE {_LINKS_CTE},
und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                        GREATEST(src, dst) AS b FROM e),
wed AS (SELECT a, b, 1 + (a * 31 + b * 17) % 97 AS w FROM und),
c0 AS (SELECT doc_id AS v, doc_id AS c FROM documents)"""]
    for i in range(rounds):
        parts.append(f""",
base{i} AS MATERIALIZED (
    SELECT cu.c AS comp, wed.w, wed.a, wed.b
    FROM wed JOIN c{i} cu ON cu.v = wed.a
             JOIN c{i} cv ON cv.v = wed.b
    WHERE cu.c <> cv.c
    UNION ALL
    SELECT cv.c, wed.w, wed.a, wed.b
    FROM wed JOIN c{i} cu ON cu.v = wed.a
             JOIN c{i} cv ON cv.v = wed.b
    WHERE cu.c <> cv.c),
ch{i} AS MATERIALIZED (
    SELECT DISTINCT w, a, b FROM (
        SELECT w, a, b, row_number() OVER (
            PARTITION BY comp ORDER BY w, a, b) AS rn
        FROM base{i}) WHERE rn = 1),
peb{i} AS MATERIALIZED (
    SELECT cu.c AS x, cv.c AS y
    FROM ch{i} JOIN c{i} cu ON cu.v = ch{i}.a
               JOIN c{i} cv ON cv.v = ch{i}.b
    UNION
    SELECT cv.c, cu.c
    FROM ch{i} JOIN c{i} cu ON cu.v = ch{i}.a
               JOIN c{i} cv ON cv.v = ch{i}.b),
cl{i}(c, d) AS (
    SELECT x, x FROM peb{i}
    UNION
    SELECT cl{i}.c, p.y FROM cl{i} JOIN peb{i} p ON p.x = cl{i}.d),
relab{i} AS MATERIALIZED (SELECT c, MIN(d) AS m FROM cl{i} GROUP BY c),
c{i + 1} AS MATERIALIZED (
    SELECT cc.v, COALESCE(r.m, cc.c) AS c
    FROM c{i} cc LEFT JOIN relab{i} r ON r.c = cc.c)""")
    sel = [f"""
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
       CAST(w AS BIGINT) AS weight, CAST({i + 1} AS BIGINT) AS round
FROM ch{i}""" for i in range(rounds)]
    parts.append(" UNION ALL ".join(sel) + " ORDER BY round, a, b")
    return "".join(parts)


def _matching_chain_sql(rounds: int = 8) -> str:
    """Fixed-round mutual-min-id maximal matching as unrolled CTEs —
    mirrors algos/matching.py:maximal_matching round for round:
    cand_i = per-unmatched-vertex min unmatched neighbor, pairs_i =
    mutual picks (a < b), u_{i+1} = survivors."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
u0 AS (SELECT doc_id AS v FROM documents)"""]
    for i in range(rounds):
        parts.append(f""",
cand{i} AS MATERIALIZED (
    SELECT a.src AS v, MIN(a.dst) AS c FROM arcs a
    JOIN u{i} s ON s.v = a.src
    JOIN u{i} t ON t.v = a.dst
    GROUP BY a.src),
p{i} AS MATERIALIZED (
    SELECT x.v AS a, x.c AS b FROM cand{i} x
    JOIN cand{i} y ON y.v = x.c AND y.c = x.v
    WHERE x.v < x.c),
u{i + 1} AS MATERIALIZED (
    SELECT v FROM u{i} u
    WHERE NOT EXISTS (SELECT 1 FROM p{i}
                      WHERE p{i}.a = u.v OR p{i}.b = u.v))""")
    sel = [f"""
SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
       CAST({i + 1} AS BIGINT) AS round FROM p{i}""" for i in range(rounds)]
    parts.append(" UNION ALL ".join(sel) + " ORDER BY round, a")
    return "".join(parts)


def _bipartite_chain_sql(seed: int = 1, rounds: int = 6) -> str:
    """BFS 2-coloring odd-cycle certificate: the `_bfs_chain_sql`
    pyramid from one seed, then per reached vertex the count of
    reached same-parity neighbors — mirroring
    pipelines/linkgraph.py:doc_bipartite."""
    parts = [f"""WITH {_LINKS_CTE},
{_ARCS_CTE},
d0 AS MATERIALIZED (SELECT CAST({seed} AS BIGINT) AS v,
      CAST(0 AS BIGINT) AS dist),
f0 AS (SELECT v FROM d0)"""]
    for i in range(rounds):
        parts.append(f""",
n{i} AS MATERIALIZED (
    SELECT DISTINCT arcs.src AS v FROM arcs
    JOIN f{i} fr ON fr.v = arcs.dst
    WHERE NOT EXISTS (SELECT 1 FROM d{i} vis WHERE vis.v = arcs.src)),
d{i + 1} AS MATERIALIZED (SELECT * FROM d{i}
    UNION ALL SELECT v, CAST({i + 1} AS BIGINT) FROM n{i}),
f{i + 1} AS (SELECT v FROM n{i})""")
    parts.append(f"""
SELECT d.v AS vertex, d.dist, d.dist % 2 AS parity,
       CAST(COALESCE((SELECT COUNT(*) FROM arcs a
            JOIN d{rounds} d2 ON d2.v = a.dst
            WHERE a.src = d.v AND (d2.dist % 2) = (d.dist % 2)), 0)
            AS BIGINT) AS n_conflict
FROM d{rounds} d ORDER BY vertex""")
    return "".join(parts)


def _hits_chain_sql(iters: int = 2) -> str:
    """Fixed-iteration unnormalized HITS as unrolled CTEs (h0 → h{k}):
    auth_k = Σ_{u→v} hub_{k-1}(u), hub_k = Σ_{u→v} auth_k(v) — exact
    int64 path counts, mirroring algos/hits.py pass for pass."""
    parts = [f"""WITH {_LINKS_CTE},
h0 AS (SELECT doc_id AS v, CAST(1 AS BIGINT) AS s FROM documents)"""]
    for i in range(iters):
        parts.append(f""",
a{i + 1} AS (SELECT e.dst AS v, sum(h.s) AS s
             FROM e JOIN h{i} h ON h.v = e.src GROUP BY e.dst),
h{i + 1} AS (SELECT d.doc_id AS v,
                    COALESCE((SELECT sum(a.s) FROM e JOIN a{i + 1} a
                              ON a.v = e.dst WHERE e.src = d.doc_id), 0) AS s
             FROM documents d)""")
    parts.append(f"""
SELECT d.doc_id AS vertex,
       CAST(COALESCE(h.s, 0) AS BIGINT) AS hub,
       CAST(COALESCE(a.s, 0) AS BIGINT) AS auth
FROM documents d
LEFT JOIN h{iters} h ON h.v = d.doc_id
LEFT JOIN a{iters} a ON a.v = d.doc_id""")
    return "".join(parts)


def _labelprop_chain_ctes(iters: int) -> str:
    """CTE fragment l0 → l{iters}: fixed-round synchronous plurality LP
    (ties → lowest label, init label = vertex id, vertices with no
    neighbors keep their label).  Requires ``arcs`` in scope."""
    parts = ["l0 AS (SELECT doc_id AS v, doc_id AS lab FROM documents)"]
    for i in range(iters):
        parts.append(f"""
lc{i} AS (SELECT a.dst AS v, l.lab, count(*) AS c
         FROM arcs a JOIN l{i} l ON l.v = a.src GROUP BY a.dst, l.lab),
lb{i} AS (SELECT v, lab FROM (
            SELECT v, lab, row_number() OVER (
                PARTITION BY v ORDER BY c DESC, lab) AS rn FROM lc{i})
         WHERE rn = 1),
l{i + 1} AS (SELECT p.v, COALESCE(lb{i}.lab, p.lab) AS lab
             FROM l{i} p LEFT JOIN lb{i} ON lb{i}.v = p.v)""")
    return ",".join(parts)


def _labelprop_chain_sql(iters: int = 2) -> str:
    return (f"WITH {_LINKS_CTE},\n{_ARCS_CTE},\n"
            + _labelprop_chain_ctes(iters)
            + f"\nSELECT v AS vertex, CAST(lab AS BIGINT) AS label FROM l{iters}")


def _hedonic_chain_ctes(iters: int) -> str:
    """CTE fragment m0 → m{iters}: fixed-pass synchronous hedonic best
    response at resolution 0: value(v, c) = friends(v, c) (an INTEGER —
    strict improvement and ties → lowest coalition id are exactly
    SQL-reproducible).  Mirrors HedonicStep.apply with alpha = 0 from
    the singleton partition.  Requires ``arcs`` in scope."""
    parts = ["m0 AS (SELECT doc_id AS v, doc_id AS lab FROM documents)"]
    for i in range(iters):
        parts.append(f"""
hc{i} AS (SELECT a.dst AS v, m.lab AS c, count(*) AS f
         FROM arcs a JOIN m{i} m ON m.v = a.src GROUP BY 1, 2),
hown{i} AS (SELECT m.v, m.lab, COALESCE(cc.f, 0) AS f_own
           FROM m{i} m LEFT JOIN hc{i} cc ON cc.v = m.v AND cc.c = m.lab),
hbest{i} AS (SELECT v, c FROM (
                SELECT cc.v, cc.c, cc.f, o.f_own,
                       row_number() OVER (PARTITION BY cc.v
                                          ORDER BY cc.f DESC, cc.c) AS rn
                FROM hc{i} cc JOIN hown{i} o ON o.v = cc.v)
            WHERE rn = 1 AND f > f_own),
m{i + 1} AS (SELECT o.v, COALESCE(b.c, o.lab) AS lab
             FROM hown{i} o LEFT JOIN hbest{i} b ON b.v = o.v)""")
    return ",".join(parts)


def _hedonic_chain_sql(iters: int = 2) -> str:
    return (f"WITH {_LINKS_CTE},\n{_ARCS_CTE},\n"
            + _hedonic_chain_ctes(iters)
            + f"\nSELECT v AS vertex, CAST(lab AS BIGINT) AS coalition "
              f"FROM m{iters}")


# Per-(vertex, coalition) exact hedonic candidate table over the 2-pass
# partition: f = friends of v in c, s = strangers (sz − f − [c = own]),
# over ALL existing coalitions (cross join — non-adjacent rows get
# f = 0).  Mirrors analytics.hedonic_stats.vertex_stats exactly.
_HEDONIC_VALS_CTES = """
part AS MATERIALIZED (SELECT v, lab FROM m2),
sizes AS MATERIALIZED (SELECT lab, count(*) AS sz FROM part GROUP BY lab),
und AS MATERIALIZED (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e),
k AS (SELECT (SELECT count(*) FROM documents) AS n,
             (SELECT count(*) FROM und) AS num,
             (SELECT count(*) FROM documents)
             * ((SELECT count(*) FROM documents) - 1) // 2 AS den),
fr AS MATERIALIZED (SELECT a.dst AS v, p.lab AS c, count(*) AS f
       FROM arcs a JOIN part p ON p.v = a.src GROUP BY 1, 2),
vals AS MATERIALIZED (SELECT d.doc_id AS v, s.lab AS c,
                COALESCE(fr.f, 0) AS f,
                s.sz - COALESCE(fr.f, 0)
                     - (CASE WHEN pown.lab = s.lab THEN 1 ELSE 0 END) AS s,
                CASE WHEN pown.lab = s.lab THEN 1 ELSE 0 END AS is_own
         FROM documents d
         JOIN part pown ON pown.v = d.doc_id
         CROSS JOIN sizes s
         LEFT JOIN fr ON fr.v = d.doc_id AND fr.c = s.lab),
agg AS MATERIALIZED (SELECT v, max(f) AS max_f, min(s) AS min_s,
               max(CASE WHEN is_own = 1 THEN f END) AS own_f,
               max(CASE WHEN is_own = 1 THEN s END) AS own_s
        FROM vals GROUP BY v),
rex AS MATERIALIZED (SELECT vals.v,
               max(CASE WHEN vals.f = agg.max_f AND vals.s = agg.min_s
                        THEN 1 ELSE 0 END) AS robust_exists
        FROM vals JOIN agg ON agg.v = vals.v GROUP BY vals.v),
cls AS MATERIALIZED (SELECT agg.v,
               CASE WHEN agg.own_f = agg.max_f AND agg.own_s = agg.min_s
                    THEN 0 WHEN rex.robust_exists = 1 THEN 1 ELSE 2 END AS cls
        FROM agg JOIN rex ON rex.v = agg.v)
"""


def _reciprocity_sql() -> str:
    """graph_reciprocity_pairs oracle: the corrected reciprocity rules
    (algos/reciprocity.py) in relational form — per-edge common
    neighbors via a 2-hop self-join, the candidate dominance
    tournament as a rows×rows join per vertex (candidates = neighbors
    plus the own singleton with (f, s) = (0, 0)), least-dominated
    candidates invited, mutual invitations paired."""
    return f"""
        WITH {_LINKS_CTE},
        und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                GREATEST(src, dst) AS b FROM e),
        uarcs AS (SELECT a AS v, b AS u FROM und
                  UNION ALL SELECT b, a FROM und),
        deg AS (SELECT v, CAST(count(*) AS BIGINT) AS d
                FROM uarcs GROUP BY v),
        cn AS MATERIALIZED (
            SELECT x.v AS v, y.v AS u, CAST(count(*) AS BIGINT) AS c
            FROM uarcs x JOIN uarcs y ON x.u = y.u AND x.v <> y.v
            GROUP BY x.v, y.v),
        cand AS MATERIALIZED (
            SELECT ar.v, ar.u, COALESCE(cn.c, 0) AS f,
                   dg.d - COALESCE(cn.c, 0) AS s
            FROM uarcs ar JOIN deg dg ON dg.v = ar.u
            LEFT JOIN cn ON cn.v = ar.v AND cn.u = ar.u
            UNION ALL
            SELECT doc_id, doc_id, CAST(0 AS BIGINT), CAST(0 AS BIGINT)
            FROM documents),
        dom AS (
            SELECT x.v, x.u,
                   CAST(SUM(CASE WHEN
                        (y.f > x.f AND y.s <= x.s) OR
                        (y.f = x.f AND y.s < x.s) OR
                        (x.f > y.f AND x.s > y.s) OR
                        (x.f < y.f AND x.s < y.s)
                        THEN 1 ELSE 0 END) AS BIGINT) AS entries
            FROM cand x JOIN cand y ON x.v = y.v AND x.u <> y.u
            GROUP BY x.v, x.u),
        best AS (SELECT v, min(entries) AS me FROM dom GROUP BY v),
        inv AS MATERIALIZED (
            SELECT d.v, d.u FROM dom d
            JOIN best b ON b.v = d.v AND d.entries = b.me
            WHERE d.u <> d.v)
        SELECT i1.v AS a, i1.u AS b
        FROM inv i1 JOIN inv i2 ON i2.v = i1.u AND i2.u = i1.v
        WHERE i1.v < i1.u
        ORDER BY a, b
    """


def _hedonic_cert_sql() -> str:
    """graph_hedonic oracle: (vertex, degree, satisfied).  The degree
    recomputation checks the graph the engine certified; satisfied = 1
    is the partition-independent Nash-certificate assertion (the Ray
    side recomputes it honestly per vertex with exact integers)."""
    return f"""
        WITH {_LINKS_CTE},
        und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                GREATEST(src, dst) AS b FROM e),
        verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
        deg AS (SELECT v, count(*) AS d FROM verts GROUP BY v)
        SELECT d.doc_id AS vertex,
               CAST(COALESCE(deg.d, 0) AS BIGINT) AS degree,
               CAST(1 AS BIGINT) AS satisfied
        FROM documents d LEFT JOIN deg ON deg.v = d.doc_id
    """


def _spectrum_sql() -> str:
    """analytics_spectrum oracle: exact resolution spectrum of the
    2-pass partition over α = i/10 — always-satisfied vertices count at
    every grid point, never-satisfied never count, relatives are
    re-evaluated with the ×10-scaled integer values f·(10−i) − s·i."""
    return f"""
        WITH {_LINKS_CTE},
        {_ARCS_CTE},
        {_hedonic_chain_ctes(2)},
        {_HEDONIC_VALS_CTES.strip()},
        grid AS (SELECT CAST(t.i AS BIGINT) AS i FROM range(11) t(i)),
        rel AS (SELECT v FROM cls WHERE cls = 2),
        evals AS (SELECT g.i, vals.v,
                         max(vals.f * (10 - g.i) - vals.s * g.i) AS best,
                         max(CASE WHEN vals.is_own = 1
                                  THEN vals.f * (10 - g.i) - vals.s * g.i
                             END) AS own
                  FROM grid g CROSS JOIN vals
                  JOIN rel ON rel.v = vals.v
                  GROUP BY 1, 2),
        eqs AS (SELECT g.i,
                       (SELECT count(*) FROM evals e
                        WHERE e.i = g.i AND e.own >= e.best) AS rel_cnt
                FROM grid g),
        acount AS (SELECT count(*) AS a FROM cls WHERE cls = 0)
        SELECT i AS resolution_tenths,
               CAST(rel_cnt + a AS BIGINT) AS eq_count,
               CAST(a AS BIGINT) AS robust_count
        FROM eqs CROSS JOIN acount ORDER BY i
    """


def _metrics_sql() -> str:
    """analytics_partition_metrics oracle: exact-integer partition
    metrics of the 2-pass partition (CPM potential scaled by
    den = C(n,2), all-coalition equilibrium / robustness counts at
    α = m/den, ARI vs 2-round LP as a num2/den2 pair) plus the
    nash_converged constant the Ray side certifies."""
    return f"""
        WITH {_LINKS_CTE},
        {_ARCS_CTE},
        {_hedonic_chain_ctes(2)},
        {_labelprop_chain_ctes(2)},
        {_HEDONIC_VALS_CTES.strip()},
        eq AS (SELECT count(*) AS c FROM (
                   SELECT vals.v FROM vals CROSS JOIN k
                   GROUP BY vals.v
                   HAVING max(CASE WHEN is_own = 1
                                   THEN f * (k.den - k.num) - s * k.num END)
                          >= max(f * (k.den - k.num) - s * k.num))),
        ein AS (SELECT count(*) AS e_in FROM und u
                JOIN part p1 ON p1.v = u.a
                JOIN part p2 ON p2.v = u.b AND p2.lab = p1.lab),
        prs AS (SELECT CAST(sum((sz * (sz - 1)) // 2) AS HUGEINT) AS p,
                       count(*) AS n_coal FROM sizes),
        cont AS (SELECT p.lab AS la, l.lab AS lb, count(*) AS c
                 FROM part p JOIN l2 l ON l.v = p.v GROUP BY 1, 2),
        sc AS (SELECT CAST(sum((c * (c - 1)) // 2) AS HUGEINT) AS v FROM cont),
        sa AS (SELECT CAST(sum((c * (c - 1)) // 2) AS HUGEINT) AS v
               FROM (SELECT count(*) AS c FROM part GROUP BY lab)),
        sb AS (SELECT CAST(sum((c * (c - 1)) // 2) AS HUGEINT) AS v
               FROM (SELECT count(*) AS c FROM l2 GROUP BY lab))
        SELECT 'alpha_den' AS metric, CAST(k.den AS BIGINT) AS value FROM k
        UNION ALL SELECT 'alpha_num', CAST(k.num AS BIGINT) FROM k
        UNION ALL SELECT 'ari_den2',
            CAST(CAST(k.den AS HUGEINT) * (sa.v + sb.v) - 2 * sa.v * sb.v
                 AS BIGINT) FROM k, sa, sb
        UNION ALL SELECT 'ari_num2',
            CAST(2 * (CAST(k.den AS HUGEINT) * sc.v - sa.v * sb.v)
                 AS BIGINT) FROM k, sa, sb, sc
        UNION ALL SELECT 'eq_count', CAST(eq.c AS BIGINT) FROM eq
        UNION ALL SELECT 'intra_edges', CAST(ein.e_in AS BIGINT) FROM ein
        UNION ALL SELECT 'm_edges', CAST(k.num AS BIGINT) FROM k
        UNION ALL SELECT 'n_coalitions', CAST(prs.n_coal AS BIGINT) FROM prs
        UNION ALL SELECT 'n_vertices', CAST(k.n AS BIGINT) FROM k
        UNION ALL SELECT 'nash_converged', CAST(1 AS BIGINT)
        UNION ALL SELECT 'potential_scaled',
            CAST(CAST(k.den AS HUGEINT) * ein.e_in - CAST(k.num AS HUGEINT) * prs.p
                 AS BIGINT) FROM k, ein, prs
        UNION ALL SELECT 'robust_count',
            CAST((SELECT count(*) FROM cls WHERE cls = 0) AS BIGINT)
    """


def _rake_sql(k: int = 50, max_words: int = 4) -> str:
    """RAKE keyword extraction: stopword-split candidate phrases
    (gaps-and-islands on the words CTE), corpus (freq, deg) word
    stats, and the EXACT rational phrase score pivoted into ≤ 4
    (f, d) columns — num = Σ dᵢ·(den//fᵢ), den = Πfᵢ in HUGEINT —
    mirroring pipelines/textops.py:rake_keywords."""
    from hedonic_ray.ops.textstats import _STOPWORDS

    stops = ", ".join(f"'{w}'"
                      for w in sorted(set().union(*_STOPWORDS.values())))
    f_cols = ", ".join(
        f"MAX(CASE WHEN pos = {i} THEN freq END) AS f{i}, "
        f"MAX(CASE WHEN pos = {i} THEN deg END) AS d{i}"
        for i in range(1, max_words + 1))
    den = " * ".join(f"COALESCE(CAST(f{i} AS HUGEINT), 1)"
                     for i in range(1, max_words + 1))
    num = " + ".join(
        f"COALESCE(CAST(d{i} AS HUGEINT) * (den // f{i}), 0)"
        for i in range(1, max_words + 1))
    return rf"""
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                   generate_subscripts(regexp_extract_all(text, '\S+'),
                                       1) AS i
            FROM documents
        ),
        nonstop AS (
            SELECT doc_id, w, i,
                   i - row_number() OVER (PARTITION BY doc_id
                                          ORDER BY i) AS grp
            FROM words WHERE w NOT IN ({stops})
        ),
        runs AS (
            SELECT doc_id, grp, COUNT(*) AS plen,
                   string_agg(w, ' ' ORDER BY i) AS phrase
            FROM nonstop GROUP BY doc_id, grp
        ),
        ok AS (SELECT * FROM runs WHERE plen <= {max_words}),
        occ AS (
            SELECT o.phrase, n.w, o.plen
            FROM ok o JOIN nonstop n ON n.doc_id = o.doc_id
                                    AND n.grp = o.grp
        ),
        stats AS MATERIALIZED (
            SELECT w, CAST(COUNT(*) AS BIGINT) AS freq,
                   CAST(SUM(plen) AS BIGINT) AS deg
            FROM occ GROUP BY w
        ),
        one AS (
            SELECT doc_id, grp, phrase FROM (
                SELECT doc_id, grp, phrase, row_number() OVER (
                    PARTITION BY phrase ORDER BY doc_id, grp) AS rn
                FROM ok) WHERE rn = 1
        ),
        wp AS (
            SELECT o.phrase,
                   row_number() OVER (PARTITION BY o.phrase
                                      ORDER BY n.i) AS pos,
                   s.freq, s.deg
            FROM one o JOIN nonstop n ON n.doc_id = o.doc_id
                                     AND n.grp = o.grp
                       JOIN stats s ON s.w = n.w
        ),
        piv AS (SELECT phrase, {f_cols} FROM wp GROUP BY phrase),
        dens AS (SELECT phrase,
                        {", ".join(f"f{i}, d{i}"
                                   for i in range(1, max_words + 1))},
                        {den} AS den
                 FROM piv),
        sc AS (SELECT phrase,
                      (CAST(1000000 AS HUGEINT) * ({num})) // den
                          AS score_e6
               FROM dens)
        SELECT phrase, CAST(score_e6 AS BIGINT) AS score_e6
        FROM sc ORDER BY score_e6 DESC, phrase LIMIT {k}
    """


def _lang_id_sql() -> str:
    """Mirrors ops.textstats.LangId: CJK → zh; else per-language
    stopword regex counts, argmax with ties → alphabetically-first
    language; all-zero → und."""
    from hedonic_ray.ops.textstats import _STOPWORDS

    langs = sorted(_STOPWORDS)  # de, en, es, fr — the tie order
    counts = ",\n           ".join(
        "length(regexp_extract_all(text, '(?i)\\b("
        + "|".join(sorted(_STOPWORDS[lang]))
        + ")\\b')) AS c_" + lang
        for lang in langs
    )
    best = "greatest(" + ", ".join(f"c_{la}" for la in langs) + ")"
    cases = " ".join(f"WHEN c_{la} = best THEN '{la}'" for la in langs[:-1])
    return f"""
        WITH scored AS (
            SELECT doc_id, lang, text,
           {counts}
            FROM documents
        ), ranked AS (
            SELECT *, {best} AS best FROM scored
        )
        SELECT doc_id, lang,
               CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                    WHEN best = 0 THEN 'und'
                    {cases}
                    ELSE '{langs[-1]}' END AS lang_pred
        FROM ranked
    """


def _intake_filter_sql() -> str:
    """Mirrors pipelines.textops.intake_filter: the composed C4-style
    rule chain — lang-ID argmax (same CTEs as text_lang_id), Gopher
    top-bigram fraction (same CTEs as text_repetition), plus exact
    integer length/uppercase rules."""
    from hedonic_ray.ops.textstats import _STOPWORDS

    langs = sorted(_STOPWORDS)
    counts = ",\n           ".join(
        "length(regexp_extract_all(text, '(?i)\\b("
        + "|".join(sorted(_STOPWORDS[lang]))
        + ")\\b')) AS c_" + lang
        for lang in langs
    )
    best = "greatest(" + ", ".join(f"c_{la}" for la in langs) + ")"
    cases = " ".join(f"WHEN c_{la} = best THEN '{la}'"
                     for la in langs[:-1])
    return rf"""
        WITH scored AS (
            SELECT doc_id, lang, text,
           {counts}
            FROM documents
        ), ranked AS (
            SELECT *, {best} AS best FROM scored
        ), lp AS (
            SELECT doc_id, lang, text,
                   CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
                        WHEN best = 0 THEN 'und'
                        {cases}
                        ELSE '{langs[-1]}' END AS lang_pred
            FROM ranked
        ), words AS (
            SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                   generate_subscripts(regexp_extract_all(text, '\S+'),
                                       1) AS i
            FROM documents
        ), bc AS (
            SELECT a.doc_id, a.w || ' ' || b.w AS g, count(*) AS c
            FROM words a
            JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1
            GROUP BY 1, 2
        ), btop AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot
                    FROM bc GROUP BY doc_id),
        rules AS (
            SELECT lp.doc_id,
                   CASE WHEN length(lp.text) BETWEEN 50 AND 2000
                        THEN 1 ELSE 0 END AS len_ok,
                   CASE WHEN lp.lang_pred = lp.lang
                        THEN 1 ELSE 0 END AS lang_ok,
                   CASE WHEN 10 * (length(lp.text)
                            - length(regexp_replace(lp.text, '[A-Z]',
                                                    '', 'g')))
                            < length(lp.text)
                        THEN 1 ELSE 0 END AS upper_ok,
                   CASE WHEN COALESCE(btop.mx * 1000000000 // btop.tot,
                                      0) <= 200000000
                        THEN 1 ELSE 0 END AS repeat_ok
            FROM lp LEFT JOIN btop ON btop.doc_id = lp.doc_id)
        SELECT doc_id, CAST(len_ok AS BIGINT) AS len_ok,
               CAST(lang_ok AS BIGINT) AS lang_ok,
               CAST(upper_ok AS BIGINT) AS upper_ok,
               CAST(repeat_ok AS BIGINT) AS repeat_ok,
               CAST(len_ok * lang_ok * upper_ok * repeat_ok AS BIGINT)
                   AS keep
        FROM rules
    """


def _redact_sql() -> str:
    """Mirrors ops.textstats.redact_batch: the SAME ordered RE2 rule
    chain, each rule one global regexp_replace."""
    from hedonic_ray.ops.textstats import REDACT_RULES

    expr = "text"
    for pat, repl in REDACT_RULES:
        expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
    return f"SELECT doc_id, {expr} AS clean_text FROM documents"


def _fingerprints_sql(k: int = 8, window: int = 16) -> str:
    """Mirrors ops.textstats.Fingerprint: polynomial hash mod 2^64 over
    codepoint k-grams (HUGEINT arithmetic), trailing-window min,
    distinct minima per doc, uint64 → int64 two's-complement view."""
    from hedonic_ray.ops.textstats import FP_MULT

    two64 = 1 << 64
    powers = [pow(FP_MULT, k - 1 - j, two64) for j in range(k)]
    terms = []
    for j, p in enumerate(powers):
        ref = "c" if j == 0 else f"lead(c, {j}) OVER w"
        terms.append(f"{ref} * {p}::HUGEINT")
    h_expr = "(" + " + ".join(terms) + f") % {two64}::HUGEINT"
    return f"""
        WITH chars AS (
            SELECT doc_id,
                   CAST(unicode(unnest(string_split(text, ''))) AS HUGEINT) AS c,
                   generate_subscripts(string_split(text, ''), 1) AS i
            FROM documents
        ), kg AS (
            SELECT doc_id, i, {h_expr} AS h
            FROM chars
            WINDOW w AS (PARTITION BY doc_id ORDER BY i)
            QUALIFY lead(c, {k - 1}) OVER w IS NOT NULL
        ), nk AS (
            SELECT doc_id, count(*) AS n FROM kg GROUP BY doc_id
        ), wins AS (
            SELECT doc_id, i,
                   min(h) OVER (PARTITION BY doc_id ORDER BY i
                                ROWS BETWEEN {window - 1} PRECEDING
                                AND CURRENT ROW) AS wm,
                   row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
            FROM kg
        ), sel AS (
            SELECT DISTINCT w.doc_id, w.wm
            FROM wins w JOIN nk ON nk.doc_id = w.doc_id
            WHERE w.rn >= LEAST(nk.n, {window})
        )
        SELECT doc_id,
               CAST(CASE WHEN wm >= {1 << 63}::HUGEINT
                         THEN wm - {two64}::HUGEINT ELSE wm END
                    AS BIGINT) AS fingerprint
        FROM sel
    """


_SHINGLES_CTE = r"""
words AS (
    SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
           generate_subscripts(regexp_extract_all(text, '\S+'), 1) AS i
    FROM documents
),
sh AS (
    SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS s
    FROM words a
    JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1
    JOIN words c ON c.doc_id = a.doc_id AND c.i = a.i + 2
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
    SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
    FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
    GROUP BY 1, 2
),
jpairs AS (
    SELECT a, b FROM inter
    JOIN sizes sa ON sa.doc_id = a JOIN sizes sb ON sb.doc_id = b
    WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.7
)
"""


def _nav_reciprocity(sf_dir: str):
    from hedonic_ray.graph.nav import nav_reciprocity

    return nav_reciprocity(sf_dir)


def _nav_top_transitions(sf_dir: str):
    from hedonic_ray.graph.nav import nav_top_transitions

    return nav_top_transitions(sf_dir)


def _nav_rich_club(sf_dir: str):
    from hedonic_ray.graph.nav import nav_rich_club

    return nav_rich_club(sf_dir)


def _nav_weighted_pagerank(sf_dir: str):
    from hedonic_ray.graph.nav import nav_weighted_pagerank

    return nav_weighted_pagerank(sf_dir)


def _nav_weighted_labelprop(sf_dir: str):
    from hedonic_ray.graph.nav import nav_weighted_labelprop

    return nav_weighted_labelprop(sf_dir)


def _nav_earliest_arrival(sf_dir: str):
    from hedonic_ray.graph.temporal import nav_earliest_arrival

    return nav_earliest_arrival(sf_dir)


def _nav_entry_exit(sf_dir: str):
    from hedonic_ray.graph.nav import nav_entry_exit

    return nav_entry_exit(sf_dir)


def _nav_attribution(sf_dir: str):
    from hedonic_ray.graph.nav import nav_attribution

    return nav_attribution(sf_dir)


def _text_jsonl_io(sf_dir: str):
    from hedonic_ray.sources.jsonl import jsonl_roundtrip_stats

    return jsonl_roundtrip_stats(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from hedonic_ray.pipelines import linkgraph as lg
    from hedonic_ray.pipelines import textops as tx
    from hedonic_ray.relational import queries as rel

    return {
        # --- link-graph pipeline on the rendered pages table ---
        "graph_extract_edges": lg.doc_edges_table,
        "graph_extract_text": lg.extracted_text_table,
        "graph_degree": lg.doc_degree_table,
        "graph_pagerank_onestep": lambda sf: lg.doc_pagerank_table(sf, max_iters=1),
        "graph_pagerank_full": lg.doc_pagerank_full,
        "graph_ppr": lg.doc_ppr_table,
        "graph_trustrank": lg.doc_trustrank,
        "graph_pagerank_refresh": lg.doc_pagerank_refresh,
        "graph_components_refresh": lg.doc_components_refresh,
        "graph_multilevel": lg.doc_multilevel,
        "graph_components": lg.doc_components_table,
        "graph_component_stats": lg.doc_component_stats,
        "graph_scc": lg.doc_scc_table,
        "graph_scc_dag": lg.doc_scc_dag,
        "graph_bowtie": lg.doc_bowtie,
        "graph_hedonic": lg.doc_hedonic_table,
        "graph_hedonic_strict": lg.doc_hedonic_strict_table,
        "graph_reciprocity_pairs": lg.doc_reciprocity,
        "graph_hedonic_2pass": lg.doc_hedonic_2pass_table,
        "graph_labelprop": lg.doc_labelprop_table,
        "graph_triangles_docs": lg.doc_triangles_table,
        "graph_clustering_coef": lg.doc_clustering_table,
        "graph_simrank": lg.doc_simrank,
        "graph_global_clustering": lg.doc_global_clustering,
        "graph_kcore": lg.doc_kcore_table,
        "graph_bfs_dist": lg.doc_bfs_table,
        "graph_harmonic": lg.doc_harmonic,
        "graph_path_counts": lg.doc_path_counts,
        "graph_stress": lg.doc_stress,
        "graph_bipartite": lg.doc_bipartite,
        "graph_matching": lg.doc_matching,
        "graph_mst": lg.doc_mst,
        "graph_mis": lg.doc_mis,
        "graph_coloring": lg.doc_coloring,
        "graph_contract": lg.doc_contract,
        "graph_conductance": lg.doc_conductance,
        "graph_core_number": lg.doc_core_number,
        "graph_lang_mixing": lg.doc_lang_mixing,
        "graph_squares": lg.doc_squares,
        "graph_lang_assortativity": lg.doc_lang_assortativity,
        "graph_hits": lg.doc_hits_table,
        "graph_edge_jaccard": lg.doc_edge_jaccard_table,
        "graph_assortativity": lg.doc_assortativity_table,
        "graph_common_neighbors": lg.doc_common_neighbors_table,
        "graph_cocitation": lg.doc_cocitation,
        "graph_resource_alloc": lg.doc_resource_alloc_table,
        "graph_adamic_adar": lg.doc_adamic_adar_table,
        "graph_two_hop": lg.doc_two_hop_table,
        "graph_truss": lg.doc_truss_table,
        "graph_walks": lg.doc_walks_table,
        "graph_node2vec": lg.doc_node2vec,
        "graph_orbits": lg.doc_orbits,
        "graph_katz": lg.doc_katz,
        "graph_sssp": lg.doc_sssp,
        "graph_diameter": lg.doc_diameter,
        "graph_neighborhood": lg.doc_neighborhood_function,
        "graph_eccentricity": lg.doc_eccentricity,
        "graph_salsa": lg.doc_salsa,
        "graph_earliest_arrival": _nav_earliest_arrival,
        "rel_entry_exit": _nav_entry_exit,
        "rel_attribution": _nav_attribution,
        "graph_extract_anchors": lg.doc_anchor_text,
        "graph_anchor_profile": lg.doc_anchor_profile,
        "graph_modularity": lg.doc_modularity,
        "graph_degree_hist": lg.doc_degree_hist,
        "graph_neighbor_degree": lg.doc_neighbor_degree,
        "analytics_spectrum": lg.doc_spectrum_table,
        "analytics_partition_metrics": lg.doc_analytics_table,
        # --- graph algorithms on dimension-derived graphs (SQL-checkable) ---
        "graph_cc_nation": lg.nation_region_components,
        "graph_triangles_supplier": lg.supplier_triangles,
        "graph_lp_onepass": lg.supplier_lp_onepass,
        "graph_reciprocity": _nav_reciprocity,
        "graph_top_transitions": _nav_top_transitions,
        "graph_rich_club": _nav_rich_club,
        "graph_weighted_pagerank": _nav_weighted_pagerank,
        "graph_weighted_lp": _nav_weighted_labelprop,
        # --- relational operators ---
        "rel_pricing_summary": rel.pricing_summary,
        "rel_top_revenue_orders": rel.top_revenue_orders,
        "rel_order_priority": rel.order_priority_count,
        "rel_events_hourly": rel.events_hourly,
        "rel_sessions_per_user": rel.sessions_per_user,
        "rel_asof_join": rel.asof_orders_for_events,
        "rel_window_hourly": rel.sliding_window_hourly,
        "rel_range_join": rel.order_range_density,
        "rel_topk_per_brand": rel.top_parts_per_brand,
        "rel_anti_join": rel.customers_without_events,
        "rel_semi_join": rel.customers_with_events,
        "rel_unpivot": rel.part_unpivot_stats,
        "rel_distinct_users": rel.distinct_users_per_type,
        "rel_json_extract": rel.json_props_stats,
        "rel_brand_price_stats": rel.brand_price_stats,
        "rel_percentiles": rel.price_percentiles,
        "rel_rollup": rel.brand_container_rollup,
        "rel_sessionize": rel.sessionize,
        "rel_mode": rel.brand_mode_type,
        "rel_hhi": rel.brand_type_hhi,
        "rel_late_events": rel.late_events,
        "rel_ema": rel.user_ema,
        "rel_autocorr": rel.daily_revenue_autocorr,
        "rel_q3_shipping": rel.top_unshipped_orders,
        "rel_q5_local_volume": rel.local_supplier_volume,
        "rel_q18_large_orders": rel.large_quantity_orders,
        "rel_basket_rules": rel.basket_rules,
        "rel_gaps_islands": rel.order_day_islands,
        "rel_rfm": rel.rfm_scores,
        "rel_q2_min_cost": rel.min_cost_supplier,
        "rel_q6_forecast": rel.forecast_revenue,
        "rel_q13_custdist": rel.customer_distribution,
        "rel_q14_promo": rel.promo_revenue,
        "rel_q17_small_qty": rel.small_quantity_revenue,
        "rel_q21_late_supplier": rel.late_supplier_ranking,
        "rel_q22_idle": rel.idle_customers,
        "rel_q7_volume": rel.volume_shipping,
        "rel_q8_share": rel.national_market_share,
        "rel_q9_profit": rel.product_type_profit,
        "rel_q10_returns": rel.returned_item_revenue,
        "rel_q11_value": rel.important_part_value,
        "rel_q12_priority": rel.shipping_delay_priority,
        "rel_q15_top_supplier": rel.top_revenue_supplier,
        "rel_q16_partcount": rel.parts_supplier_counts,
        "rel_q19_disjunct": rel.disjunctive_revenue,
        "rel_q20_promo": rel.promotion_share_suppliers,
        "rel_rolling_active": rel.rolling_active_users,
        "rel_hll_users": rel.hll_distinct_users,
        "rel_holt": rel.holt_trend,
        "rel_scd_intervals": rel.event_validity_intervals,
        "rel_percentile_cont": rel.quantity_percentile_cont,
        "rel_pivot": rel.event_type_pivot,
        "rel_interarrival": rel.user_interarrival,
        "rel_covariance": rel.brand_price_size_cov,
        "rel_deciles": rel.acctbal_deciles,
        "rel_running_total": rel.user_running_total,
        "rel_latest_event": rel.latest_event_per_type,
        "rel_cdc_upsert": rel.cdc_upsert_compaction,
        "rel_full_outer": rel.daily_orders_vs_shipments,
        "rel_event_sequence": rel.user_event_sequence,
        "rel_set_ops": rel.user_set_ops,
        "rel_grouped_median": rel.brand_median_price,
        "rel_histogram": rel.event_value_histogram,
        "rel_cube": rel.brand_container_cube,
        "rel_funnel": rel.event_funnel,
        "rel_retention": rel.cohort_retention,
        "rel_moving_avg": rel.user_moving_avg,
        "rel_weighted_avg": rel.linestatus_weighted_avg,
        "rel_skewness": rel.event_value_skewness,
        "rel_rank_ties": rel.rank_ties_per_brand,
        "rel_correlation": rel.qty_price_correlation,
        "rel_gini": rel.event_value_gini,
        "rel_active_users": rel.active_users,
        "rel_dow_profile": rel.event_dow_profile,
        "rel_chi2": rel.brand_container_chi2,
        "rel_cumulative_users": rel.cumulative_users,
        "rel_ship_delay": rel.ship_delay_histogram,
        "rel_order_sizes": rel.order_size_histogram,
        "rel_outliers": rel.event_value_outliers,
        "rel_benford": rel.benford_first_digit,
        "rel_ohlc": rel.daily_ohlc,
        "rel_copurchase": rel.copurchase_pairs,
        "graph_type_projection": rel.event_type_projection,
        # --- training-data ops ---
        "text_token_counts": tx.token_counts,
        "text_quality": tx.quality_scores,
        "text_exact_dedup": tx.exact_dedup_kept,
        "text_lang_id": tx.lang_id,
        "text_fingerprints": tx.fingerprints,
        "text_redact": tx.redacted_docs,
        "text_term_df": tx.term_df_top,
        "text_sample": tx.sampled_docs,
        "text_bottomk_sample": tx.bottomk_sampled_docs,
        "text_norm_dedup": tx.normalized_dedup_kept,
        "text_repetition": tx.repetition_signals,
        "text_ttr": tx.ttr,
        "text_passage_dedup": tx.dup_passages,
        "text_term_tf": tx.term_tf_top,
        "text_zipf": tx.zipf_slope_table,
        "text_burstiness": tx.burstiness_table,
        "text_bigrams": tx.bigram_tf_top,
        "text_colloc_lift": tx.bigram_lift_top,
        "dedup_cdc": tx.cdc_dedup,
        "sim_srp_lsh": tx.srp_lsh,
        "text_kwic": tx.kwic_contexts,
        "text_lang_confusion": tx.lang_confusion,
        "text_pii_counts": tx.pii_counts,
        "text_rake": tx.rake_keywords,
        "sim_pq_adc": tx.pq_topk,
        "dedup_url": tx.url_dedup,
        "text_length_stats": tx.length_stats_by_lang,
        "text_char_classes": tx.char_classes,
        "text_wordlen_hist": tx.wordlen_hist,
        "text_pack_plan": tx.pack_plan,
        "text_chunk_plan": tx.chunk_plan,
        "text_vocab_growth": tx.vocab_growth,
        "text_decontaminate": tx.decontaminate,
        "text_novelty": tx.ngram_novelty,
        "dedup_incremental": tx.incremental_dedup,
        "text_heavy_hitters": tx.heavy_hitters,
        "text_heavy_hitters_cms": tx.cms_heavy_hitters,
        "text_stratified_sample": tx.stratified_sample,
        "text_mixture_weights": tx.mixture_weights,
        "text_mixture_sample": tx.mixture_sample,
        "text_jsonl_io": _text_jsonl_io,
        "text_bpe": tx.bpe_merges,
        "text_bpe_apply": tx.bpe_apply,
        "text_lm_score": tx.lm_scores,
        "text_bigram_lm": tx.bigram_lm,
        "text_bm25": tx.bm25_scores,
        "text_entropy": tx.entropy_scores,
        "multimodal_phash": tx.multimodal_phash,
        "multimodal_audio_energy": tx.multimodal_audio_energy,
        "text_weighted_sample": tx.weighted_sample,
        "text_textrank": tx.textrank_keywords,
        "text_intake_filter": tx.intake_filter,
        "text_tfidf": tx.tfidf_keywords,
        "dedup_minhash": tx.minhash_components,
        "dedup_ngram": tx.ngram_dup_pairs,
        "dedup_containment": tx.ngram_containment_pairs,
        "dedup_keep_list": tx.dedup_keep_list,
        "dedup_substring": tx.substring_dup_windows,
        "dedup_fingerprint": tx.fingerprint_overlap,
        "dedup_editdist": tx.editdist_dup_pairs,
        "dedup_funnel": tx.dedup_funnel,
        "dedup_simhash": tx.simhash_dup_pairs,
        "dedup_embedding": tx.embedding_neardup,
        "sim_topk_cosine": tx.topk_similarity,
        "sim_ivf_topk": tx.ivf_similarity,
        "sim_range_search": tx.range_similarity,
        "sim_dbscan": tx.dbscan_clusters,
        "sim_sq8_audit": tx.sq8_quant_audit,
        "sim_kmeans_iters": tx.kmeans_converged,
        "sim_filtered_topk": tx.filtered_topk_similarity,
        "sim_knn_graph": tx.knn_graph_table,
        "sim_hard_negatives": tx.hard_negatives_table,
        "dedup_semantic": tx.semantic_dedup_table,
        "sim_knn_clusters": tx.knn_mutual_clusters,
        "sim_centroid_classify": tx.centroid_classify,
        "sim_pca_power": tx.pca_direction,
        "sim_greedy_search": tx.greedy_search,
        "multimodal_decode": tx.multimodal_decode,
        "multimodal_resize": tx.multimodal_resize,
        "multimodal_frames": tx.multimodal_frames,
        "multimodal_tiles": tx.multimodal_tiles,
        "sim_mmr": tx.mmr_diversified,
        "dedup_bloom": tx.bloom_audit,
        "graph_critical_path": lg.doc_critical_path,
        "sim_kmeans_step": tx.kmeans_update,
        "sim_recall_audit": tx.recall_audit,
    }


def _mmr_chain_sql(k: int = 8, pool: int = 32, scale: int = 100000,
                   anchor: int = 0) -> str:
    """Unrolled greedy MMR selection (k steps) over the quantized
    inner-product kernel; every argmax ties → lowest vec_id.  Step
    CTEs chain sel{t} = sel{t-1} ∪ the argmax of
    rel − max_{s ∈ sel{t-1}} dot(·, s).  All integers (FLOOR ×scale
    quantization; SUM → HUGEINT cast back to BIGINT)."""
    sql = f"""
WITH q AS MATERIALIZED (
    SELECT vec_id, j, CAST(FLOOR(CAST(x AS DOUBLE) * {scale}) AS BIGINT) AS qv
    FROM (SELECT vec_id, unnest(embedding) AS x,
                 generate_subscripts(embedding, 1) AS j FROM embeddings)
),
rel AS MATERIALIZED (
    SELECT i.vec_id, CAST(SUM(i.qv * a.qv) AS BIGINT) AS rel
    FROM q i JOIN q a ON a.j = i.j AND a.vec_id = {anchor}
    WHERE i.vec_id <> {anchor} GROUP BY i.vec_id
),
pool AS MATERIALIZED (
    SELECT vec_id, rel FROM rel ORDER BY rel DESC, vec_id LIMIT {pool}
),
g AS MATERIALIZED (
    SELECT x.vec_id AS a, y.vec_id AS b,
           CAST(SUM(qx.qv * qy.qv) AS BIGINT) AS dot
    FROM pool x JOIN pool y ON y.vec_id <> x.vec_id
    JOIN q qx ON qx.vec_id = x.vec_id
    JOIN q qy ON qy.vec_id = y.vec_id AND qy.j = qx.j
    GROUP BY 1, 2
),
s1 AS (SELECT vec_id, rel, rel AS score FROM pool
       ORDER BY rel DESC, vec_id LIMIT 1),
sel1 AS (SELECT * FROM s1)"""
    for t in range(2, k + 1):
        sql += f""",
c{t} AS (SELECT p.vec_id, p.rel, p.rel - MAX(g.dot) AS score
       FROM pool p JOIN g ON g.a = p.vec_id
        AND g.b IN (SELECT vec_id FROM sel{t - 1})
       WHERE p.vec_id NOT IN (SELECT vec_id FROM sel{t - 1})
       GROUP BY p.vec_id, p.rel),
s{t} AS (SELECT * FROM c{t} ORDER BY score DESC, vec_id LIMIT 1),
sel{t} AS (SELECT * FROM sel{t - 1} UNION ALL SELECT * FROM s{t})"""
    finals = "\nUNION ALL\n".join(
        f"SELECT CAST({t} AS BIGINT) AS rank, vec_id, rel AS rel_dot, "
        f"score AS mmr_score FROM s{t}" for t in range(1, k + 1))
    return sql + "\n" + finals + "\nORDER BY rank"


def _critpath_chain_sql(rounds: int = 6) -> str:
    """Max-plus relaxation over the SCC-condensation DAG, ``rounds``
    unrolled (round-cap parity with
    `algos/critical_path.py:longest_path_depths` — the graph_mst
    lesson); condensation CTEs shared with the graph_scc_dag oracle."""
    rounds_sql, prev = "", "d0"
    for t in range(1, rounds + 1):
        rounds_sql += f""",
d{t} AS (SELECT p.v, GREATEST(p.d, COALESCE(MAX(u.d + 1), 0)) AS d
       FROM {prev} p
       LEFT JOIN dag ON dag.dst = p.v
       LEFT JOIN {prev} u ON u.v = dag.src
       GROUP BY p.v, p.d)"""
        prev = f"d{t}"
    return f"""
WITH RECURSIVE {_LINKS_CTE},
reach(v, u) AS (
    SELECT doc_id, doc_id FROM documents
    UNION
    SELECT r.v, e2.dst FROM reach r JOIN e e2 ON e2.src = r.u
),
comp AS MATERIALIZED (
    SELECT a.v, min(a.u) AS scc
    FROM reach a JOIN reach b ON b.v = a.u AND b.u = a.v
    GROUP BY a.v),
dag AS MATERIALIZED (
    SELECT DISTINCT c1.scc AS src, c2.scc AS dst
    FROM e JOIN comp c1 ON c1.v = e.src
           JOIN comp c2 ON c2.v = e.dst
    WHERE c1.scc <> c2.scc),
d0 AS (SELECT DISTINCT scc AS v, CAST(0 AS BIGINT) AS d FROM comp){rounds_sql}
SELECT CAST(v AS BIGINT) AS scc, CAST(d AS BIGINT) AS depth
FROM {prev} ORDER BY scc
"""


def _kmeans_step_sql(n_clusters: int = 4, scale: int = 100000) -> str:
    """One exact-integer Lloyd iteration: assignment = argmin of
    −2⟨q,c⟩ + |c|² (the |q|² term is per-vector constant), ties →
    lowest centroid id; seeds = vec_ids 0..n_clusters−1; update =
    per-(cluster, dim) integer sums + member counts.  The constants
    bind through this one function so the engine default and the
    oracle can never drift (the graph_mst round-cap lesson)."""
    return f"""
        WITH qv AS MATERIALIZED (
            SELECT vec_id, j,
                   CAST(FLOOR(CAST(x AS DOUBLE) * {scale}) AS BIGINT) AS qv
            FROM (SELECT vec_id, unnest(embedding) AS x,
                         generate_subscripts(embedding, 1) AS j
                  FROM embeddings)
        ),
        cent AS MATERIALIZED (
            SELECT vec_id AS c, j, qv AS cv FROM qv
            WHERE vec_id < {n_clusters}
        ),
        obj AS MATERIALIZED (
            SELECT i.vec_id, ct.c,
                   CAST(SUM(-2 * i.qv * ct.cv + ct.cv * ct.cv) AS BIGINT)
                       AS o
            FROM qv i JOIN cent ct ON ct.j = i.j
            GROUP BY i.vec_id, ct.c
        ),
        assign AS MATERIALIZED (
            SELECT vec_id, c FROM (
                SELECT vec_id, c,
                       ROW_NUMBER() OVER (PARTITION BY vec_id
                                          ORDER BY o, c) AS rn
                FROM obj) WHERE rn = 1
        ),
        counts AS MATERIALIZED (
            SELECT c, COUNT(*) AS n FROM assign GROUP BY c
        )
        SELECT a.c AS cluster, q.j AS dim,
               CAST(SUM(q.qv) AS BIGINT) AS sum_qv,
               CAST(MAX(cnt.n) AS BIGINT) AS n_members
        FROM assign a JOIN qv q ON q.vec_id = a.vec_id
        JOIN counts cnt ON cnt.c = a.c
        GROUP BY a.c, q.j
        ORDER BY cluster, dim
    """


def _textrank_chain_sql(iters: int = 3, damping: float = 0.85,
                        k: int = 20) -> str:
    """TextRank oracle: word co-occurrence graph (sorted-distinct
    vocab ids via ROW_NUMBER, adjacent-token und edges) + the standard
    unrolled PageRank chain, top-k by (×1e9 rank desc, term)."""
    parts = [r"""WITH words AS MATERIALIZED (
    SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
           generate_subscripts(regexp_extract_all(text, '\S+'), 1) AS i
    FROM documents
),
vocab AS MATERIALIZED (
    SELECT w, ROW_NUMBER() OVER (ORDER BY w) - 1 AS id
    FROM (SELECT DISTINCT w FROM words)
),
adj AS (SELECT va.id AS x, vb.id AS y
        FROM words a JOIN words b ON b.doc_id = a.doc_id
                                 AND b.i = a.i + 1
        JOIN vocab va ON va.w = a.w
        JOIN vocab vb ON vb.w = b.w
        WHERE va.id <> vb.id),
und AS MATERIALIZED (SELECT DISTINCT LEAST(x, y) AS a,
                                     GREATEST(x, y) AS b FROM adj),
arcs AS MATERIALIZED (SELECT a AS src, b AS dst FROM und
                      UNION ALL SELECT b, a FROM und),
nn AS (SELECT count(*) AS n FROM vocab),
outdeg AS (SELECT src, count(*) AS d FROM arcs GROUP BY src),
r0 AS (SELECT id AS v, 1.0 / nn.n AS r FROM vocab CROSS JOIN nn)"""]
    for i in range(iters):
        parts.append(f""",
dang{i} AS (SELECT COALESCE(sum(r), 0) AS s FROM r{i}
            WHERE NOT EXISTS (SELECT 1 FROM arcs
                              WHERE arcs.src = r{i}.v)),
c{i} AS (SELECT arcs.dst AS v, sum(r{i}.r / outdeg.d) AS c
         FROM arcs JOIN r{i} ON r{i}.v = arcs.src
         JOIN outdeg ON outdeg.src = arcs.src GROUP BY arcs.dst),
r{i + 1} AS (SELECT vocab.id AS v,
             (1 - {damping}) / nn.n
             + {damping} * (COALESCE(c{i}.c, 0) + dang{i}.s / nn.n) AS r
             FROM vocab CROSS JOIN nn CROSS JOIN dang{i}
             LEFT JOIN c{i} ON c{i}.v = vocab.id)""")
    parts.append(f"""
SELECT vocab.w AS term,
       CAST(FLOOR(r{iters}.r * 1e9 + 0.5) AS BIGINT) AS rank_e9
FROM r{iters} JOIN vocab ON vocab.id = r{iters}.v
ORDER BY rank_e9 DESC, term LIMIT {k}""")
    return "".join(parts)


def _kmeans_cte_chain(n_clusters: int, iters: int,
                      scale: int) -> str:
    """Shared unrolled-Lloyd CTE chain (q, c0, d{r}/a{r}/s{r}/c{r} per
    round) used by the k-means oracle and the SemDeDup oracle; ends
    with c{iters} (final centroids) and s{iters} (member counts) in
    scope."""
    parts = [f"""WITH q AS MATERIALIZED (
    SELECT vec_id, j, CAST(FLOOR(CAST(x AS DOUBLE) * {scale}) AS BIGINT)
               AS qv
    FROM (SELECT vec_id, unnest(embedding) AS x,
                 generate_subscripts(embedding, 1) AS j FROM embeddings)
),
c0 AS (SELECT vec_id AS cluster, j AS dim, qv AS cq FROM q
       WHERE vec_id < {n_clusters})"""]
    for r in range(1, iters + 1):
        parts.append(f""",
d{r} AS MATERIALIZED (
    SELECT q.vec_id, c.cluster,
           CAST(SUM(c.cq * c.cq - 2 * q.qv * c.cq) AS BIGINT) AS obj
    FROM q JOIN c{r - 1} c ON c.dim = q.j
    GROUP BY 1, 2),
a{r} AS MATERIALIZED (
    SELECT vec_id, cluster FROM (
        SELECT vec_id, cluster, row_number() OVER (
            PARTITION BY vec_id ORDER BY obj, cluster) AS rn
        FROM d{r}) WHERE rn = 1),
s{r} AS (SELECT a.cluster, q.j AS dim,
                CAST(SUM(q.qv) AS BIGINT) AS s,
                CAST(COUNT(*) AS BIGINT) AS n
         FROM a{r} a JOIN q ON q.vec_id = a.vec_id
         GROUP BY 1, 2),
c{r} AS MATERIALIZED (
    SELECT p.cluster, p.dim,
           COALESCE(CASE WHEN s.s >= 0 THEN s.s // s.n
                         ELSE -((-s.s) // s.n) END, p.cq) AS cq
    FROM c{r - 1} p
    LEFT JOIN s{r} s ON s.cluster = p.cluster AND s.dim = p.dim)""")
    return "".join(parts)


def _kmeans_iters_sql(n_clusters: int = 4, iters: int = 3,
                      scale: int = 100000) -> str:
    """Iterated-Lloyd oracle: unrolled assignment (argmin of the
    integer objective, ties → lowest cluster) + sign-split integer
    centroid means, empty clusters carrying the previous centroid."""
    return _kmeans_cte_chain(n_clusters, iters, scale) + f"""
SELECT c.cluster, c.dim, CAST(c.cq AS BIGINT) AS centroid_q,
       CAST(COALESCE(s.n, 0) AS BIGINT) AS n_members
FROM c{iters} c
LEFT JOIN s{iters} s ON s.cluster = c.cluster AND s.dim = c.dim
ORDER BY c.cluster, c.dim"""


def _semantic_dedup_sql(n_clusters: int = 4, iters: int = 3,
                        scale: int = 100000,
                        threshold_e6: int = 400000) -> str:
    """SemDeDup oracle (Abbas et al. 2023 shape): the SAME unrolled
    integer Lloyd chain, a final assignment round against c{iters},
    within-cluster pairs on the rounded ×1e6 cosine, recursive-CTE
    connected components over those pairs, representative = min id."""
    chain = _kmeans_cte_chain(n_clusters, iters, scale)
    return chain + f""",
dF AS MATERIALIZED (
    SELECT q.vec_id, c.cluster,
           CAST(SUM(c.cq * c.cq - 2 * q.qv * c.cq) AS BIGINT) AS obj
    FROM q JOIN c{iters} c ON c.dim = q.j
    GROUP BY 1, 2),
asg AS MATERIALIZED (
    SELECT vec_id, cluster FROM (
        SELECT vec_id, cluster, row_number() OVER (
            PARTITION BY vec_id ORDER BY obj, cluster) AS rn
        FROM dF) WHERE rn = 1),
pairs AS MATERIALIZED (
    SELECT x.vec_id AS a, y.vec_id AS b
    FROM asg x JOIN asg y
         ON y.cluster = x.cluster AND y.vec_id > x.vec_id
    JOIN embeddings ea ON ea.vec_id = x.vec_id
    JOIN embeddings eb ON eb.vec_id = y.vec_id
    WHERE CAST(ROUND(list_cosine_similarity(
              CAST(ea.embedding AS DOUBLE[]),
              CAST(eb.embedding AS DOUBLE[])) * 1e6) AS BIGINT)
          >= {threshold_e6}),
arcs AS (SELECT a AS src, b AS dst FROM pairs
         UNION ALL SELECT b, a FROM pairs)
SELECT v AS vec_id,
       CAST(asg.cluster AS BIGINT) AS cluster,
       CAST(min(u) AS BIGINT) AS grp,
       CAST(CASE WHEN min(u) = v THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM (WITH RECURSIVE reach(v, u) AS (
          SELECT vec_id, vec_id FROM embeddings
          UNION
          SELECT r.v, a.dst FROM reach r JOIN arcs a ON a.src = r.u)
      SELECT v, u FROM reach) rc
JOIN asg ON asg.vec_id = rc.v
GROUP BY v, asg.cluster ORDER BY vec_id"""


def _bpe_round_ctes(rounds: int) -> str:
    """The shared per-round BPE CTE fragment x{r}/b{r}/w{r} (requires
    ``w0 (term, tf, s)`` in scope)."""
    parts = []
    for r in range(1, rounds + 1):
        parts.append(f""",
x{r} AS MATERIALIZED (
    SELECT term, tf, unnest(string_split(s, ' ')) AS sym,
           generate_subscripts(string_split(s, ' '), 1) AS i
    FROM w{r - 1}
),
b{r} AS MATERIALIZED (
    SELECT a.sym AS l, b.sym AS r2, CAST(SUM(a.tf) AS BIGINT) AS c
    FROM x{r} a JOIN x{r} b ON b.term = a.term AND b.i = a.i + 1
    GROUP BY 1, 2 ORDER BY c DESC, l, r2 LIMIT 1
),
w{r} AS MATERIALIZED (
    SELECT term, tf,
           trim(replace(replace(' ' || w.s || ' ',
                ' ' || b.l || ' ' || b.r2 || ' ',
                ' ' || b.l || b.r2 || ' '),
                ' ' || b.l || ' ' || b.r2 || ' ',
                ' ' || b.l || b.r2 || ' ')) AS s
    FROM w{r - 1} w, b{r} b
)""")
    return "".join(parts)


def _bpe_apply_sql(rounds: int = 3) -> str:
    """Tokenizer-apply oracle: the same learned-merge chain, then each
    document's token count under the final vocab (Σ per-word symbol
    counts over the doc's word occurrences)."""
    return (r"""
WITH dwords AS MATERIALIZED (
    SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
    FROM documents
),
w0 AS MATERIALIZED (
    SELECT w AS term, CAST(COUNT(*) AS BIGINT) AS tf,
           array_to_string(string_split(w, ''), ' ') AS s
    FROM dwords GROUP BY w
)""" + _bpe_round_ctes(rounds) + f""",
wn AS (SELECT term,
              length(s) - length(replace(s, ' ', '')) + 1 AS nsym
       FROM w{rounds})
SELECT d.doc_id,
       CAST(SUM(wn.nsym) AS BIGINT) AS n_tokens_merged
FROM dwords d JOIN wn ON wn.term = d.w
GROUP BY d.doc_id ORDER BY d.doc_id""")


def _bpe_chain_sql(rounds: int = 3) -> str:
    """Unrolled BPE merge-learning chain (Sennrich 2016): per round,
    weighted adjacent-symbol-pair counts over the distinct-word table
    (position self-join idiom), argmax pair (count desc, pair asc),
    merge applied as the SAME two-pass space-delimited `replace` the
    engine uses (`ops/bpe.py` module docstring: pass-1 skips are never
    adjacent, so two passes are exact; DuckDB `replace` and Arrow
    `replace_substring` agree byte-for-byte — tested)."""
    parts = [r"""
WITH words AS (
    SELECT unnest(regexp_extract_all(text, '\S+')) AS w FROM documents
),
w0 AS MATERIALIZED (
    SELECT w AS term, CAST(COUNT(*) AS BIGINT) AS tf,
           array_to_string(string_split(w, ''), ' ') AS s
    FROM words GROUP BY w
)""", _bpe_round_ctes(rounds)]
    selects = [f"""
SELECT {r} AS merge_round, b.l AS left_sym, b.r2 AS right_sym,
       b.c AS pair_count,
       (SELECT CAST(SUM(tf * (length(s) - length(replace(s, ' ', ''))
                              + 1)) AS BIGINT)
        FROM w{r}) AS corpus_len
FROM b{r} b""" for r in range(1, rounds + 1)]
    return ("".join(parts) + "\nSELECT * FROM ("
            + " UNION ALL ".join(selects)
            + ") ORDER BY merge_round")


def oracle_sql() -> dict[str, str]:
    out = {
        "graph_hedonic": _hedonic_cert_sql(),
        "graph_hedonic_strict": _hedonic_cert_sql(),
        "graph_reciprocity_pairs": _reciprocity_sql(),
        "analytics_spectrum": _spectrum_sql(),
        "analytics_partition_metrics": _metrics_sql(),
        "graph_extract_edges": f"WITH {_LINKS_CTE} SELECT src, dst FROM e",
        "graph_pagerank_full": _pagerank_chain_sql(iters=5),
        "graph_ppr": _ppr_chain_sql(iters=5, stride=101),
        "graph_trustrank": _trustrank_chain_sql(iters=5, stride=97),
        "graph_pagerank_refresh": _pr_refresh_chain_sql(iters=5, extra=2),
        "graph_multilevel": _multilevel_chain_sql(lp_iters=2),
        "graph_components_refresh": f"""
            -- incremental CC refresh: prior labels on the base graph,
            -- new labels after the deterministic delta edges merge in
            WITH RECURSIVE {_LINKS_CTE},
            nn AS (SELECT count(*) AS n FROM documents),
            arcs AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
            delta AS (SELECT d.doc_id AS src,
                             (d.doc_id * 17 + 3) % nn.n AS dst
                      FROM documents d CROSS JOIN nn
                      WHERE d.doc_id % 31 = 0
                        AND d.doc_id <> (d.doc_id * 17 + 3) % nn.n),
            arcs2 AS (SELECT src, dst FROM arcs
                      UNION SELECT src, dst FROM delta
                      UNION SELECT dst, src FROM delta),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN arcs a ON a.src = r.u
            ),
            reach2(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach2 r JOIN arcs2 a
                ON a.src = r.u
            ),
            prior AS (SELECT v, MIN(u) AS c FROM reach GROUP BY v),
            cur AS (SELECT v, MIN(u) AS c FROM reach2 GROUP BY v)
            SELECT p.v AS vertex, CAST(p.c AS BIGINT) AS prior_comp,
                   CAST(c2.c AS BIGINT) AS component,
                   CAST(CASE WHEN p.c <> c2.c THEN 1 ELSE 0 END
                        AS BIGINT) AS changed
            FROM prior p JOIN cur c2 ON c2.v = p.v ORDER BY vertex
        """,
        "graph_hedonic_2pass": _hedonic_chain_sql(iters=2),
        "graph_contract": (
            f"WITH {_LINKS_CTE},\n{_ARCS_CTE},\n"
            + _hedonic_chain_ctes(2)
            + """,
und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                        GREATEST(src, dst) AS b FROM e)
SELECT LEAST(la.lab, lb.lab) AS ca,
       GREATEST(la.lab, lb.lab) AS cb,
       CAST(COUNT(*) AS BIGINT) AS weight
FROM und JOIN m2 la ON la.v = und.a
         JOIN m2 lb ON lb.v = und.b
GROUP BY 1, 2 ORDER BY ca, cb"""),
        "graph_conductance": (
            f"WITH {_LINKS_CTE},\n{_ARCS_CTE},\n"
            + _hedonic_chain_ctes(2)
            + """,
sizes AS (SELECT lab, COUNT(*) AS n FROM m2 GROUP BY lab),
va AS (SELECT la.lab AS c, COUNT(*) AS vol,
              SUM(CASE WHEN la.lab <> lb.lab THEN 1 ELSE 0 END) AS cut
       FROM arcs a JOIN m2 la ON la.v = a.src
                   JOIN m2 lb ON lb.v = a.dst
       GROUP BY la.lab),
tot AS (SELECT COUNT(*) AS m2x FROM arcs)
SELECT s.lab AS community,
       CAST(s.n AS BIGINT) AS n_members,
       CAST(COALESCE(va.cut, 0) AS BIGINT) AS cut,
       CAST(COALESCE(va.vol, 0) AS BIGINT) AS vol,
       CAST(CASE WHEN LEAST(COALESCE(va.vol, 0),
                            tot.m2x - COALESCE(va.vol, 0)) > 0
            THEN 1000000000 * COALESCE(va.cut, 0)
                 // LEAST(va.vol, tot.m2x - va.vol)
            ELSE -1 END AS BIGINT) AS phi_e9
FROM sizes s LEFT JOIN va ON va.c = s.lab CROSS JOIN tot
ORDER BY community"""),
        "graph_labelprop": _labelprop_chain_sql(iters=2),
        "graph_components": f"""
            WITH RECURSIVE {_LINKS_CTE},
            arcs AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN arcs a ON a.src = r.u
            )
            SELECT v AS vertex, CAST(min(u) AS BIGINT) AS component
            FROM reach GROUP BY v
        """,
        "graph_triangles_docs": f"""
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM und e1 JOIN und e2 ON e2.a = e1.b
                JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
            ),
            corners AS (SELECT x AS v FROM tri UNION ALL SELECT y FROM tri
                        UNION ALL SELECT z FROM tri),
            cnt AS (SELECT v, count(*) AS t FROM corners GROUP BY v)
            SELECT d.doc_id AS vertex,
                   CAST(COALESCE(cnt.t, 0) AS BIGINT) AS triangles
            FROM documents d LEFT JOIN cnt ON cnt.v = d.doc_id
        """,
        "graph_global_clustering": f"""
            -- transitivity: 3*triangles / wedges, exact integers
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            tri AS (
                SELECT count(*) AS t
                FROM und e1 JOIN und e2 ON e2.a = e1.b
                JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
            ),
            arcs AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
            deg AS (SELECT v, count(*) AS d FROM arcs GROUP BY v),
            wed AS (SELECT sum(d * (d - 1) // 2) AS w FROM deg)
            SELECT CAST(tri.t AS BIGINT) AS n_triangles,
                   CAST(wed.w AS BIGINT) AS n_wedges,
                   CAST(CASE WHEN wed.w > 0
                             THEN 3 * tri.t * 1000000000 // wed.w
                             ELSE 0 END AS BIGINT) AS gcc_e9
            FROM tri CROSS JOIN wed
        """,
        "rel_funnel": """
            -- anchored funnel view -> click -> purchase: each step is
            -- the first matching event strictly after the previous
            -- anchor and within 1h of it ((ts, event_id) order)
            WITH o AS (
                SELECT user_id, event_type, epoch_us(ts) AS tus,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS i
                FROM events),
            s1 AS (SELECT user_id, min(i) AS i FROM o
                   WHERE event_type = 'view' GROUP BY user_id),
            a1 AS (SELECT o.user_id, o.i, o.tus FROM o
                   JOIN s1 ON s1.user_id = o.user_id AND s1.i = o.i),
            s2 AS (SELECT o.user_id, min(o.i) AS i FROM o
                   JOIN a1 ON a1.user_id = o.user_id AND o.i > a1.i
                          AND o.tus <= a1.tus + 3600000000
                   WHERE o.event_type = 'click' GROUP BY o.user_id),
            a2 AS (SELECT o.user_id, o.i, o.tus FROM o
                   JOIN s2 ON s2.user_id = o.user_id AND s2.i = o.i),
            s3 AS (SELECT o.user_id, min(o.i) AS i FROM o
                   JOIN a2 ON a2.user_id = o.user_id AND o.i > a2.i
                          AND o.tus <= a2.tus + 3600000000
                   WHERE o.event_type = 'purchase' GROUP BY o.user_id)
            SELECT CAST(step AS BIGINT) AS step, event_type,
                   CAST(n_users AS BIGINT) AS n_users
            FROM (VALUES
                (1, 'view', (SELECT count(*) FROM s1)),
                (2, 'click', (SELECT count(*) FROM s2)),
                (3, 'purchase', (SELECT count(*) FROM s3))
            ) t(step, event_type, n_users)
        """,
        "text_lang_id": _lang_id_sql(),
        "text_rake": _rake_sql(k=50, max_words=4),
        "text_pii_counts": r"""
            -- per-rule PII match counts (audit view of the redaction
            -- chain); deterministic PII appended from doc_id so every
            -- rule bites on the clean fixture
            WITH derived AS (
                SELECT doc_id,
                       text
                       || CASE WHEN doc_id % 2 = 0
                          THEN ' user' || CAST(doc_id AS VARCHAR)
                               || '@example.com' ELSE '' END
                       || ' https://ref.example/p/'
                       || CAST(doc_id AS VARCHAR)
                       || CASE WHEN doc_id % 3 = 0
                          THEN ' id ' || CAST(doc_id * 1000003
                               + 1000000000 AS VARCHAR) ELSE '' END
                           AS t
                FROM documents
            )
            SELECT doc_id,
                   CAST(length(regexp_extract_all(t,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                        AS BIGINT) AS n_email,
                   CAST(length(regexp_extract_all(t,
                        'https?://[^\s]+')) AS BIGINT) AS n_url,
                   CAST(length(regexp_extract_all(t,
                        '\b[0-9]{6,}\b')) AS BIGINT) AS n_num
            FROM derived
        """,
        "text_lang_confusion": (
            "SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n "
            "FROM (" + _lang_id_sql() + ") GROUP BY 1, 2 "
            "ORDER BY 1, 2"),
        "text_intake_filter": _intake_filter_sql(),
        "text_mixture_weights": """
            -- temperature-resampled source mixture (tau = 0.5):
            -- w_e6 = floor(1e6*sqrt(count)) is exact cross-engine
            -- (IEEE sqrt is correctly rounded); quota is all-integer
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n_docs
                       FROM documents GROUP BY source),
            w AS (SELECT source, n_docs,
                         CAST(FLOOR(1e6 * sqrt(CAST(n_docs AS DOUBLE)))
                              AS BIGINT) AS weight_e6
                  FROM c),
            tot AS (SELECT CAST(SUM(weight_e6) AS BIGINT) AS s FROM w)
            SELECT w.source, w.n_docs, w.weight_e6,
                   CAST((CAST(100000 AS BIGINT) * w.weight_e6) // tot.s
                        AS BIGINT) AS quota
            FROM w CROSS JOIN tot ORDER BY w.source
        """,
        "text_mixture_sample": """
            -- quota-apply mixing: per source, the bottom-quota docs by
            -- md5(doc_id), quota = 40·w_e6 // Σw_e6 with
            -- w_e6 = floor(1e6*sqrt(count)) (the mixture_weights
            -- computation at target 40)
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            w AS (SELECT source,
                         CAST(FLOOR(1e6 * sqrt(CAST(n AS DOUBLE)))
                              AS BIGINT) AS w
                  FROM c),
            tot AS (SELECT CAST(SUM(w) AS BIGINT) AS s FROM w),
            quota AS (SELECT source,
                             CAST((CAST(40 AS BIGINT) * w) // tot.s
                                  AS BIGINT) AS q
                      FROM w CROSS JOIN tot),
            r AS (SELECT d.source, d.doc_id, row_number() OVER (
                      PARTITION BY d.source
                      ORDER BY md5_number_lower(CAST(d.doc_id AS VARCHAR)),
                               d.doc_id) AS rn
                  FROM documents d)
            SELECT r.source, r.doc_id
            FROM r JOIN quota ON quota.source = r.source
            WHERE r.rn <= quota.q ORDER BY r.source, r.doc_id
        """,
        "text_bpe": _bpe_chain_sql(rounds=3),
        "text_bpe_apply": _bpe_apply_sql(rounds=3),
        "text_textrank": _textrank_chain_sql(iters=3, k=20),
        "multimodal_audio_energy": """
            -- per-window energy/peak of the audio-kind fake-PCM grid
            -- plane: sample b(i) recomputed from the planted formula,
            -- x = b - 128, windows of 60 samples
            WITH a AS (SELECT doc_id FROM documents
                       WHERE doc_id % 3 = 1),
            s AS (SELECT a.doc_id, t.i,
                         ((a.doc_id % 20) * 31 + t.i * 17 +
                          CASE WHEN t.i // 4 = a.doc_id % 60
                               THEN 200 ELSE 0 END) % 256 - 128 AS x
                  FROM a, range(240) t(i))
            SELECT doc_id, CAST(i // 60 AS BIGINT) AS win,
                   CAST(SUM(x * x) AS BIGINT) AS energy,
                   CAST(MAX(ABS(x)) AS BIGINT) AS peak
            FROM s GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "graph_salsa": f"""
            -- stationary SALSA (Lempel-Moran): closed-form authority
            -- weight (|A_j|/|A|)*(indeg/S_j) over CO-CITATION
            -- components (hub side symmetric), as truncating e9
            -- integers; components via the bipartite incidence graph
            -- (targets 0..n-1, sources n..2n-1)
            WITH RECURSIVE {_LINKS_CTE},
            corpus AS (SELECT CAST(count(*) AS BIGINT) AS n
                       FROM documents),
            bip AS (SELECT e.dst AS a, e.src + c.n AS b
                    FROM e, corpus c),
            arcs2 AS (SELECT a AS x, b AS y FROM bip
                      UNION SELECT b, a FROM bip),
            nodes AS (SELECT DISTINCT x FROM arcs2),
            reach(v, u) AS (
                SELECT x, x FROM nodes
                UNION
                SELECT r.v, a.y FROM reach r
                JOIN arcs2 a ON a.x = r.u),
            comp AS (SELECT v, CAST(MIN(u) AS BIGINT) AS croot,
                            CAST(MIN(CASE WHEN u >= c.n THEN u END)
                                 - c.n AS BIGINT) AS hroot
                     FROM reach, corpus c GROUP BY v, c.n),
            indeg AS (SELECT dst AS v, CAST(count(*) AS BIGINT) AS deg
                      FROM e GROUP BY 1),
            outdeg AS (SELECT src AS v, CAST(count(*) AS BIGINT) AS deg
                       FROM e GROUP BY 1),
            au AS MATERIALIZED (
                SELECT i.v, i.deg, c.croot AS comp
                FROM indeg i JOIN comp c ON c.v = i.v),
            ast AS (SELECT comp, CAST(count(*) AS BIGINT) AS csize,
                           CAST(SUM(deg) AS BIGINT) AS s
                    FROM au GROUP BY 1),
            atot AS (SELECT CAST(count(*) AS BIGINT) AS na FROM au),
            hu AS MATERIALIZED (
                SELECT o.v, o.deg, c.hroot AS comp
                FROM outdeg o JOIN comp c ON c.v = o.v +
                    (SELECT n FROM corpus)),
            hst AS (SELECT comp, CAST(count(*) AS BIGINT) AS csize,
                           CAST(SUM(deg) AS BIGINT) AS s
                    FROM hu GROUP BY 1),
            htot AS (SELECT CAST(count(*) AS BIGINT) AS nh FROM hu)
            SELECT 'auth' AS side, au.v AS vertex, au.deg, au.comp,
                   CAST((1000000000 * ast.csize * au.deg)
                        // (atot.na * ast.s) AS BIGINT) AS score_e9
            FROM au JOIN ast USING (comp), atot
            UNION ALL
            SELECT 'hub', hu.v, hu.deg, hu.comp,
                   CAST((1000000000 * hst.csize * hu.deg)
                        // (htot.nh * hst.s) AS BIGINT)
            FROM hu JOIN hst USING (comp), htot
            ORDER BY side, vertex
        """,
        "graph_eccentricity": f"""
            -- per-vertex eccentricity (radius-capped max BFS dist;
            -- isolated vertices 0 via the self-pair); recursion cap
            -- 32 == the engine round cap
            WITH RECURSIVE {_LINKS_CTE},
            arcs AS (SELECT src, dst FROM e
                     UNION SELECT dst, src FROM e),
            bfs(src, dst, h) AS (
                SELECT doc_id, doc_id, CAST(0 AS BIGINT)
                FROM documents
                UNION
                SELECT b.src, a.dst, b.h + 1
                FROM bfs b JOIN arcs a ON a.src = b.dst
                WHERE b.h < 32),
            dist AS (SELECT src, dst, CAST(MIN(h) AS BIGINT) AS d
                     FROM bfs GROUP BY 1, 2)
            SELECT src AS vertex, CAST(MAX(d) AS BIGINT) AS ecc
            FROM dist GROUP BY 1 ORDER BY 1
        """,
        "graph_neighborhood": f"""
            -- exact neighborhood function: cumulative ordered pairs
            -- within h hops on the undirected doc graph + truncating
            -- e6 share of all reachable pairs (effective-diameter
            -- curve); recursion cap 32 == the engine round cap
            WITH RECURSIVE {_LINKS_CTE},
            arcs AS (SELECT src, dst FROM e
                     UNION SELECT dst, src FROM e),
            bfs(src, dst, h) AS (
                SELECT doc_id, doc_id, CAST(0 AS BIGINT)
                FROM documents
                UNION
                SELECT b.src, a.dst, b.h + 1
                FROM bfs b JOIN arcs a ON a.src = b.dst
                WHERE b.h < 32),
            dist AS (SELECT src, dst, CAST(MIN(h) AS BIGINT) AS d
                     FROM bfs GROUP BY 1, 2),
            hist AS (SELECT d AS h, CAST(count(*) AS BIGINT)
                         AS new_pairs
                     FROM dist GROUP BY 1),
            cum AS (SELECT h, CAST(SUM(new_pairs) OVER (ORDER BY h)
                                   AS BIGINT) AS n_pairs FROM hist),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS t FROM dist)
            SELECT c.h, c.n_pairs,
                   CAST((1000000 * c.n_pairs) // t.t AS BIGINT)
                       AS pct_e6
            FROM cum c, tot t ORDER BY c.h
        """,
        "text_bigram_lm": r"""
            -- bigram-LM surprisal, add-one smoothing over the
            -- corpus's own bigram table: per position s_e6 =
            -- FLOOR(ln(c1+V)*1e6) - FLOOR(ln(c2+1)*1e6); c1+V > c2+1
            -- so nonneg and // == trunc
            WITH t AS (SELECT doc_id,
                              regexp_extract_all(text, '\S+') AS ws
                       FROM documents),
            toks AS MATERIALIZED (
                SELECT doc_id, unnest(ws) AS w,
                       generate_subscripts(ws, 1) AS pos
                FROM t),
            bg AS MATERIALIZED (
                SELECT a.doc_id, a.w AS w1, b.w AS w2
                FROM toks a JOIN toks b
                  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
            c2 AS MATERIALIZED (
                SELECT w1, w2, CAST(count(*) AS BIGINT) AS c
                FROM bg GROUP BY 1, 2),
            c1 AS MATERIALIZED (
                SELECT w1, CAST(SUM(c) AS BIGINT) AS c
                FROM c2 GROUP BY 1),
            vocab AS (SELECT CAST(count(DISTINCT w) AS BIGINT) AS v
                      FROM toks),
            s AS MATERIALIZED (
                SELECT c2.w1, c2.w2,
                       CAST(FLOOR(ln(c1.c + vocab.v)*1000000) AS BIGINT)
                       - CAST(FLOOR(ln(c2.c + 1)*1000000) AS BIGINT)
                           AS s_e6
                FROM c2 JOIN c1 USING (w1), vocab),
            doc AS (SELECT bg.doc_id,
                           CAST(count(*) AS BIGINT) AS n_bigrams,
                           CAST(SUM(s.s_e6) AS BIGINT) AS tot
                    FROM bg JOIN s ON s.w1 = bg.w1 AND s.w2 = bg.w2
                    GROUP BY 1)
            SELECT doc_id, n_bigrams, tot AS surprisal_e6,
                   CAST(tot // n_bigrams AS BIGINT)
                       AS mean_surprisal_e6
            FROM doc ORDER BY doc_id
        """,
        "text_bm25": r"""
            -- exact-integer Lucene BM25 (k1=1.2, b=0.75) top-10 per
            -- query: idf as a difference of FLOOR(ln(integer)*1e6),
            -- tf-norm as the cleared rational (22*tf*L) over
            -- (10*tf*L + 3*L + 9*dl*N); nonneg so // == trunc
            WITH toks AS MATERIALIZED (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents),
            dl AS MATERIALIZED (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS dl
                FROM toks GROUP BY 1),
            corpus AS MATERIALIZED (
                SELECT CAST(SUM(dl) AS BIGINT) AS L,
                       CAST(COUNT(*) AS BIGINT) AS N FROM dl),
            qt(query_id, term) AS (VALUES ('q1', 'scan'),
                                          ('q1', 'merge'),
                                          ('q2', 'customer'),
                                          ('q2', 'window')),
            tf AS (SELECT t.doc_id, q.query_id, t.term,
                          CAST(count(*) AS BIGINT) AS tf
                   FROM toks t JOIN qt q ON q.term = t.term
                   GROUP BY 1, 2, 3),
            df AS (SELECT term,
                          CAST(count(DISTINCT doc_id) AS BIGINT) AS df
                   FROM toks WHERE term IN (SELECT term FROM qt)
                   GROUP BY 1),
            idf AS (SELECT df.term,
                           CAST(FLOOR(ln(2*c.N + 2)*1000000) AS BIGINT)
                           - CAST(FLOOR(ln(2*df.df + 1)*1000000)
                                  AS BIGINT) AS idf_e6
                    FROM df, corpus c),
            contrib AS (
                SELECT tf.query_id, tf.doc_id,
                       (CAST(i.idf_e6 AS HUGEINT) * (22 * tf.tf * c.L))
                       // (10 * tf.tf * c.L + 3 * c.L + 9 * d.dl * c.N)
                           AS s
                FROM tf JOIN idf i ON i.term = tf.term
                JOIN dl d ON d.doc_id = tf.doc_id, corpus c),
            score AS (SELECT query_id, doc_id,
                             CAST(SUM(s) AS BIGINT) AS score_e6
                      FROM contrib GROUP BY 1, 2 HAVING SUM(s) > 0),
            ranked AS (SELECT *, row_number() OVER (
                           PARTITION BY query_id
                           ORDER BY score_e6 DESC, doc_id) AS rn
                       FROM score)
            SELECT query_id, doc_id, score_e6 FROM ranked
            WHERE rn <= 10 ORDER BY query_id, score_e6 DESC, doc_id
        """,
        "text_entropy": r"""
            -- per-doc token Shannon entropy, exact e6 integers:
            -- H_e6 = (dl*lnE6(dl) - SUM tf*lnE6(tf)) // dl with
            -- lnE6(x) = FLOOR(ln(integer)*1e6); numerator nonneg
            WITH toks AS MATERIALIZED (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS c
                   FROM toks GROUP BY 1, 2),
            agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
                           CAST(SUM(c * CAST(FLOOR(ln(c)*1000000)
                                             AS BIGINT)) AS BIGINT)
                               AS s
                    FROM tf GROUP BY 1)
            SELECT doc_id, n_tokens,
                   CAST((n_tokens
                         * CAST(FLOOR(ln(n_tokens)*1000000) AS BIGINT)
                         - s) // n_tokens AS BIGINT) AS entropy_e6
            FROM agg ORDER BY doc_id
        """,
        "text_lm_score": r"""
            -- unigram-LM surprisal per doc (add-one smoothing), every
            -- per-token term an exact integer: floor(1e6*ln(N+V)) -
            -- floor(1e6*ln(tf+1)) (floors of ln(integer) only — the
            -- adamic-adar parity pattern); mean = total // n_tokens
            WITH words AS MATERIALIZED (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
            ),
            tf AS MATERIALIZED (
                SELECT w, CAST(COUNT(*) AS BIGINT) AS c
                FROM words GROUP BY w),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM words),
            voc AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM tf),
            sup AS MATERIALIZED (
                SELECT w,
                       CAST(FLOOR(1000000 * LN(tot.n + voc.v)) AS BIGINT)
                       - CAST(FLOOR(1000000 * LN(tf.c + 1)) AS BIGINT)
                           AS s_e6
                FROM tf CROSS JOIN tot CROSS JOIN voc)
            SELECT d.doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(sup.s_e6) AS BIGINT) AS surprisal_e6,
                   CAST(CAST(SUM(sup.s_e6) AS BIGINT) // COUNT(*)
                        AS BIGINT) AS mean_surprisal_e6
            FROM words d JOIN sup ON sup.w = d.w
            GROUP BY d.doc_id ORDER BY d.doc_id
        """,
        "text_jsonl_io": """
            -- JSONL round-trip fidelity: the Ray side converts
            -- documents.parquet -> JSONL -> reads it back and audits
            -- per-(lang, source) integer checksums; the oracle
            -- computes the identical checksums straight off the
            -- parquet (md5_number_lower == the engine's md5_low64)
            SELECT lang, source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(doc_id) AS BIGINT) AS sum_id,
                   CAST(SUM(LENGTH(text)) AS BIGINT) AS sum_chars,
                   CAST(SUM(n_chars) AS BIGINT) AS sum_nchars,
                   CAST(SUM(md5_number_lower(text)
                            % CAST(2147483648 AS HUGEINT)) AS BIGINT)
                       AS text_hash_sum
            FROM documents GROUP BY lang, source ORDER BY lang, source
        """,
        "text_stratified_sample": """
            -- per-language bottom-20 by md5(doc_id): the stratified
            -- deterministic sample (mix control)
            WITH h AS (SELECT lang, doc_id,
                              md5_number_lower(CAST(doc_id AS VARCHAR))
                                  AS hv
                       FROM documents),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY lang ORDER BY hv, doc_id) AS rn
                  FROM h)
            SELECT lang, doc_id FROM r WHERE rn <= 20
            ORDER BY lang, doc_id
        """,
        "text_fingerprints": _fingerprints_sql(),
        "text_redact": _redact_sql(),
        "text_sample": """
            -- deterministic 1-in-10 sample gated on the md5 low half —
            -- the engine's md5_low64 is bit-identical to
            -- md5_number_lower, so row membership matches exactly
            SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
            FROM documents
            WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % 10 < 1
        """,
        "text_bottomk_sample": """
            -- bottom-k sketch: the 50 smallest md5(id) values form a
            -- fixed-size uniform sample; ties break on doc_id
            SELECT doc_id FROM documents
            ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
            LIMIT 50
        """,
        "text_norm_dedup": """
            -- exact dedup on the normalized form (lowercase,
            -- non-alphanumeric runs -> single space, trimmed)
            WITH n AS (
                SELECT doc_id,
                       trim(regexp_replace(lower(text),
                                           '[^a-z0-9]+', ' ', 'g')) AS t
                FROM documents),
            r AS (SELECT doc_id, row_number() OVER (
                      PARTITION BY t ORDER BY doc_id) AS rn FROM n)
            SELECT doc_id FROM r WHERE rn = 1
        """,
        "text_term_df": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents
            ), w AS (SELECT DISTINCT doc_id, term FROM toks)
            SELECT term, CAST(count(*) AS BIGINT) AS df
            FROM w GROUP BY term
            ORDER BY df DESC, term LIMIT 100
        """,
        "dedup_minhash": f"""
            WITH RECURSIVE {_SHINGLES_CTE},
            und AS (SELECT a AS src, b AS dst FROM jpairs
                    UNION ALL SELECT b, a FROM jpairs),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN und a ON a.src = r.u
            )
            SELECT v AS doc_id, CAST(min(u) AS BIGINT) AS dup_group
            FROM reach GROUP BY v
        """,
        "dedup_funnel": f"""
            -- dedup survivorship funnel: docs surviving each stage
            -- (intersection of the per-stage keep-sets; monotone)
            WITH RECURSIVE {_SHINGLES_CTE},
            und AS (SELECT a AS src, b AS dst FROM jpairs
                    UNION ALL SELECT b, a FROM jpairs),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN und a ON a.src = r.u
            ),
            reps AS (SELECT DISTINCT min(u) AS doc_id
                     FROM reach GROUP BY v),
            exact AS (SELECT min(doc_id) AS doc_id
                      FROM documents GROUP BY text),
            normd AS (
                SELECT doc_id FROM (
                    SELECT doc_id, row_number() OVER (
                        PARTITION BY trim(regexp_replace(lower(text),
                            '[^a-z0-9]+', ' ', 'g'))
                        ORDER BY doc_id) AS rn
                    FROM documents) WHERE rn = 1),
            s1 AS (SELECT doc_id FROM exact),
            s2 AS (SELECT s1.doc_id FROM s1 JOIN normd USING (doc_id)),
            s3 AS (SELECT s2.doc_id FROM s2 JOIN reps USING (doc_id))
            SELECT * FROM (
                SELECT CAST(0 AS BIGINT) AS stage, 'corpus' AS name,
                       CAST((SELECT COUNT(*) FROM documents) AS BIGINT)
                           AS n_docs
                UNION ALL SELECT 1, 'exact',
                       CAST((SELECT COUNT(*) FROM s1) AS BIGINT)
                UNION ALL SELECT 2, 'normalized',
                       CAST((SELECT COUNT(*) FROM s2) AS BIGINT)
                UNION ALL SELECT 3, 'near_dup',
                       CAST((SELECT COUNT(*) FROM s3) AS BIGINT)
            ) ORDER BY stage
        """,
        "dedup_keep_list": f"""
            -- per near-dup cluster: keep the longest doc (ties ->
            -- smallest doc_id); the keep-list step after clustering
            WITH RECURSIVE {_SHINGLES_CTE},
            und AS (SELECT a AS src, b AS dst FROM jpairs
                    UNION ALL SELECT b, a FROM jpairs),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN und a ON a.src = r.u
            ),
            comp AS (SELECT v AS doc_id, min(u) AS dup_group
                     FROM reach GROUP BY v),
            j AS (SELECT comp.dup_group, d.doc_id,
                         length(d.text) AS n_chars
                  FROM comp JOIN documents d USING (doc_id)),
            r AS (SELECT *,
                         row_number() OVER (PARTITION BY dup_group
                             ORDER BY n_chars DESC, doc_id) AS rn,
                         count(*) OVER (PARTITION BY dup_group)
                             AS cluster_size
                  FROM j)
            SELECT CAST(dup_group AS BIGINT) AS dup_group,
                   doc_id AS kept_doc, CAST(n_chars AS BIGINT) AS n_chars,
                   CAST(cluster_size AS BIGINT) AS cluster_size
            FROM r WHERE rn = 1
        """,
        "dedup_substring": """
            -- sliding 32-char-window substring dedup (Lee et al.
            -- suffix-array stage): per doc, distinct windows shared
            -- with >=1 other doc.  Ray takes BYTE windows == char
            -- windows on this ASCII corpus.
            WITH w AS (
              SELECT doc_id, substr(text, CAST(o AS INT), 32) AS win
              FROM (SELECT doc_id, text,
                           unnest(range(1, CAST(greatest(length(text) - 31,
                                                         0) + 1 AS BIGINT)))
                               AS o
                    FROM documents)
            ), p AS (SELECT DISTINCT doc_id, win FROM w),
            dup AS (SELECT win FROM p GROUP BY win HAVING COUNT(*) >= 2)
            SELECT p.doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_windows
            FROM p JOIN dup USING (win)
            GROUP BY p.doc_id ORDER BY p.doc_id
        """,
        "dedup_fingerprint": f"""
            -- MOSS-style overlap: pairs sharing >=12 distinct
            -- winnowing fingerprints, exact shared counts
            WITH fp AS MATERIALIZED ({_fingerprints_sql()})
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(COUNT(*) AS BIGINT) AS shared
            FROM fp x JOIN fp y ON y.fingerprint = x.fingerprint
                 AND x.doc_id < y.doc_id
            GROUP BY 1, 2 HAVING COUNT(*) >= 12
            ORDER BY a, b
        """,
        "rel_correlation": """
            -- grouped Pearson r from exact integer sufficient stats,
            -- finished as M11/(sqrt(M2x)*sqrt(M2y)) — separate square
            -- roots avoid any HUGEINT product overflow, and every
            -- float op is IEEE correctly-rounded
            WITH s AS (SELECT l_returnflag,
                              CAST(ROUND(l_quantity) AS BIGINT) AS x,
                              CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                                  AS y
                       FROM lineitem),
            m AS (SELECT l_returnflag, COUNT(*) AS n, SUM(x) AS sx,
                         SUM(y) AS sy, SUM(x * x) AS sxx,
                         SUM(y * y) AS syy, SUM(x * y) AS sxy
                  FROM s GROUP BY l_returnflag)
            SELECT l_returnflag, CAST(n AS BIGINT) AS n,
                   CAST(CASE WHEN n * sxx - sx * sx > 0
                              AND n * syy - sy * sy > 0 THEN
                        FLOOR(1000000.0 * (
                            CAST(n * sxy - sx * sy AS DOUBLE)
                            / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                               * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))))
                        ELSE 0 END AS BIGINT) AS corr_e6
            FROM m ORDER BY l_returnflag
        """,
        "rel_gini": """
            -- Gini per event type, all-integer closed form on the
            -- ascending sort (1-based ranks; tie-safe)
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events),
            r AS (SELECT event_type, v, row_number() OVER (
                      PARTITION BY event_type ORDER BY v) AS i FROM s),
            m AS (SELECT event_type, COUNT(*) AS n, SUM(v) AS s,
                         SUM(i * v) AS sw
                  FROM r GROUP BY event_type)
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CAST(CASE WHEN n > 0 AND s > 0 THEN
                        (2 * sw - (n + 1) * s) * 1000000 // (n * s)
                        ELSE 0 END AS BIGINT) AS gini_e6
            FROM m ORDER BY event_type
        """,
        "rel_weighted_avg": """
            -- quantity-weighted mean price, exact integers end-to-end
            WITH s AS (SELECT l_returnflag, l_linestatus,
                              CAST(ROUND(l_quantity) AS BIGINT) AS q,
                              CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                                  AS p
                       FROM lineitem)
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(q) AS BIGINT) AS sum_qty,
                   CAST(SUM(p * q) // SUM(q) AS BIGINT) AS wavg_price_e2
            FROM s GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "rel_skewness": """
            -- grouped skewness g1 = M3/M2^1.5 from exact integer
            -- moment sums; every float op is IEEE correctly-rounded
            -- (cast, *, /, sqrt) so FLOOR(1000*g1) is engine-stable
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events),
            m AS (SELECT event_type, COUNT(*) AS n, SUM(v) AS s1,
                         SUM(v * v) AS s2, SUM(v * v * v) AS s3
                  FROM s GROUP BY event_type)
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CAST(CASE WHEN n * s2 - s1 * s1 > 0 THEN
                        FLOOR(1000.0 * (
                            CAST(n * n * s3 - 3 * n * s1 * s2
                                 + 2 * s1 * s1 * s1 AS DOUBLE)
                            / (CAST(n * s2 - s1 * s1 AS DOUBLE)
                               * sqrt(CAST(n * s2 - s1 * s1 AS DOUBLE)))))
                        ELSE 0 END AS BIGINT) AS skew_e3
            FROM m ORDER BY event_type
        """,
        "rel_rank_ties": """
            -- grouped top-3 WITH TIES (RANK, not row_number): tied
            -- integer-cent prices share a rank and all survive
            WITH s AS (SELECT p_brand, p_partkey,
                              CAST(FLOOR(p_retailprice * 100) AS BIGINT)
                                  AS price_e2
                       FROM part),
            r AS (SELECT *, RANK() OVER (PARTITION BY p_brand
                                         ORDER BY price_e2 DESC) AS rnk
                  FROM s)
            SELECT p_brand, p_partkey, price_e2, CAST(rnk AS BIGINT) AS rnk
            FROM r WHERE rnk <= 3
            ORDER BY p_brand, rnk, p_partkey
        """,
        "text_char_classes": r"""
            -- character-class census: class count = length minus the
            -- class-stripped length; ratio = FLOOR(1e9 * c/max(n,1))
            WITH s AS (
                SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars,
                       CAST(length(text) - length(regexp_replace(
                           text, '[A-Z]', '', 'g')) AS BIGINT) AS n_upper,
                       CAST(length(text) - length(regexp_replace(
                           text, '[0-9]', '', 'g')) AS BIGINT) AS n_digit,
                       CAST(length(text) - length(regexp_replace(
                           text, '\s', '', 'g')) AS BIGINT) AS n_space
                FROM documents)
            SELECT doc_id, n_chars,
                   n_upper,
                   CAST(FLOOR((CAST(n_upper AS DOUBLE)
                        / greatest(n_chars, 1)) * 1e9) AS BIGINT)
                       AS upper_ratio_e9,
                   n_digit,
                   CAST(FLOOR((CAST(n_digit AS DOUBLE)
                        / greatest(n_chars, 1)) * 1e9) AS BIGINT)
                       AS digit_ratio_e9,
                   n_space,
                   CAST(FLOOR((CAST(n_space AS DOUBLE)
                        / greatest(n_chars, 1)) * 1e9) AS BIGINT)
                       AS space_ratio_e9
            FROM s
        """,
        "text_length_stats": """
            -- per-lang length audit: exact ceil(q*n)-th order stats
            -- (percentile_disc) + median absolute deviation
            WITH p AS (
                SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
                       percentile_disc(0.5) WITHIN GROUP
                           (ORDER BY n_chars) AS p50,
                       percentile_disc(0.9) WITHIN GROUP
                           (ORDER BY n_chars) AS p90
                FROM documents GROUP BY lang),
            d AS (SELECT doc.lang, ABS(doc.n_chars - p.p50) AS dev
                  FROM documents doc JOIN p USING (lang)),
            m AS (SELECT lang, percentile_disc(0.5) WITHIN GROUP
                             (ORDER BY dev) AS mad
                  FROM d GROUP BY lang)
            SELECT p.lang, p.n, CAST(p.p50 AS BIGINT) AS p50,
                   CAST(p.p90 AS BIGINT) AS p90,
                   CAST(m.mad AS BIGINT) AS mad
            FROM p JOIN m USING (lang) ORDER BY p.lang
        """,
        "text_bigrams": r"""
            -- top-50 word bigrams by total count (ties -> bigram asc)
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'),
                                           1) AS i
                FROM documents
            ),
            bg AS (SELECT a.w || ' ' || b.w AS bigram
                   FROM words a
                   JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1)
            SELECT bigram, CAST(COUNT(*) AS BIGINT) AS tf
            FROM bg GROUP BY bigram
            ORDER BY tf DESC, bigram LIMIT 50
        """,
        "dedup_url": """
            -- URL canonicalization dedup over deterministic messy
            -- crawl records (fragment / utm_* / case / :443 rules)
            WITH recs AS (
                SELECT doc_id, 'HTTPS://DOCS.EXAMPLE/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url
                FROM documents
                UNION ALL
                SELECT doc_id, 'https://docs.example:443/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                       || '?utm_source=feed&utm_campaign=c'
                       || CAST(doc_id % 7 AS VARCHAR)
                FROM documents
                UNION ALL
                SELECT doc_id, 'https://docs.example/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                       || '#sec' || CAST(doc_id % 5 AS VARCHAR)
                FROM documents WHERE doc_id % 2 = 0
                UNION ALL
                SELECT doc_id, 'https://docs.example/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                       || '?ref=AB' || CAST(doc_id % 4 AS VARCHAR)
                       || '&utm_medium=em'
                FROM documents WHERE doc_id % 3 = 0
                UNION ALL
                SELECT doc_id, 'HTTPS://DOCS.EXAMPLE/'
                       || lpad(CAST(doc_id AS VARCHAR), 8, '0')
                FROM documents WHERE doc_id % 5 = 0
            ),
            defrag AS (
                SELECT url, regexp_replace(url, '#.*$', '') AS p1
                FROM recs
            ),
            split AS (
                SELECT url, p1,
                       regexp_extract(p1, '^([^?]*)', 1) AS path
                FROM defrag
            ),
            qstrip AS (
                SELECT url, path,
                       regexp_replace(
                           regexp_replace(
                               CASE WHEN length(p1) > length(path)
                                    THEN substr(p1, length(path) + 2)
                                    ELSE '' END,
                               '(^|&)utm_[^&]*', '', 'g'),
                           '^&', '') AS q
                FROM split
            ),
            norm AS (
                SELECT url,
                       CASE WHEN q = '' THEN path
                            ELSE path || '?' || q END AS s
                FROM qstrip
            ),
            canon AS (
                SELECT url,
                       lower(regexp_replace(
                           regexp_extract(s, '^([^/]*//[^/]+)', 1),
                           ':443$', ''))
                       || substr(s, length(
                           regexp_extract(s, '^([^/]*//[^/]+)', 1)) + 1)
                           AS canonical
                FROM norm
            )
            SELECT canonical,
                   CAST(COUNT(*) AS BIGINT) AS n_records,
                   CAST(COUNT(DISTINCT url) AS BIGINT) AS n_variants
            FROM canon GROUP BY canonical
        """,
        "sim_pq_adc": """
            -- product quantization + asymmetric distance: codebook =
            -- first 16 corpus vectors (x1e6 floor-quantized), 8
            -- subspaces x 8 dims, exact int argmin encode (ties ->
            -- lowest centroid), ADC = per-query LUT sum; top-5 by
            -- (dist, vec_id)
            WITH q AS MATERIALIZED (
                SELECT vec_id, (j - 1) // 8 AS m, (j - 1) % 8 AS jj,
                       CAST(FLOOR(CAST(x AS DOUBLE) * 1000000) AS BIGINT)
                           AS qv
                FROM (SELECT vec_id, unnest(embedding) AS x,
                             generate_subscripts(embedding, 1) AS j
                      FROM embeddings)
            ),
            cbids AS (SELECT vec_id,
                             row_number() OVER (ORDER BY vec_id) - 1 AS c
                      FROM (SELECT vec_id FROM embeddings
                            ORDER BY vec_id LIMIT 16)),
            cb AS MATERIALIZED (
                SELECT cbids.c, q.m, q.jj, q.qv
                FROM q JOIN cbids ON cbids.vec_id = q.vec_id),
            enc_d AS MATERIALIZED (
                SELECT v.vec_id, v.m, cb.c,
                       SUM((v.qv - cb.qv) * (v.qv - cb.qv)) AS d
                FROM q v JOIN cb ON cb.m = v.m AND cb.jj = v.jj
                GROUP BY v.vec_id, v.m, cb.c),
            codes AS MATERIALIZED (
                SELECT vec_id, m, c FROM (
                    SELECT vec_id, m, c, row_number() OVER (
                        PARTITION BY vec_id, m ORDER BY d, c) AS rn
                    FROM enc_d) WHERE rn = 1),
            lut AS MATERIALIZED (
                SELECT e.vec_id AS query_id, e.m, e.c, e.d
                FROM enc_d e WHERE e.vec_id % 100 = 0),
            adc AS (
                SELECT l.query_id, cd.vec_id, SUM(l.d) AS adc_dist
                FROM codes cd JOIN lut l ON l.m = cd.m AND l.c = cd.c
                GROUP BY l.query_id, cd.vec_id)
            SELECT query_id, vec_id, adc_dist, rank FROM (
                SELECT query_id, vec_id, CAST(adc_dist AS BIGINT) AS adc_dist,
                       CAST(row_number() OVER (PARTITION BY query_id
                            ORDER BY adc_dist, vec_id) AS BIGINT) AS rank
                FROM adc) WHERE rank <= 5
            ORDER BY query_id, rank
        """,
        "text_kwic": r"""
            -- keyword-in-context for the top-3 terms by document
            -- frequency (ties -> term asc): every occurrence with its
            -- 1-based word position and +-2-word clipped context
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'),
                                           1) AS i
                FROM documents
            ),
            df AS (SELECT w, COUNT(DISTINCT doc_id) AS df
                   FROM words GROUP BY w),
            top AS (SELECT w FROM df ORDER BY df DESC, w LIMIT 3),
            occ AS (SELECT doc_id, w AS term, i FROM words
                    WHERE w IN (SELECT w FROM top))
            SELECT o.doc_id, o.term, CAST(o.i AS BIGINT) AS pos,
                   string_agg(w2.w, ' ' ORDER BY w2.i) AS context
            FROM occ o JOIN words w2 ON w2.doc_id = o.doc_id
                 AND w2.i BETWEEN o.i - 2 AND o.i + 2
            GROUP BY o.doc_id, o.term, o.i
            ORDER BY o.doc_id, pos
        """,
        "sim_srp_lsh": """
            -- hyperplane (signed-random-projection) LSH: +-1 planes
            -- from md5 parity, exact integer sign test on the x1e5
            -- floor-quantized vectors, 4 bands x 8 bits, candidates
            -- verified by dot^2*1e12 >= t^2*|a|^2*|b|^2 in HUGEINT
            WITH q AS MATERIALIZED (
                SELECT vec_id, j,
                       CAST(FLOOR(CAST(x AS DOUBLE) * 100000) AS BIGINT)
                           AS qv
                FROM (SELECT vec_id, unnest(embedding) AS x,
                             generate_subscripts(embedding, 1) AS j
                      FROM embeddings)
            ),
            planes AS MATERIALIZED (
                SELECT p.p, j.j,
                       CASE WHEN md5_number_lower(
                                'srp-' || p.p || '-' || j.j) % 2 = 1
                            THEN 1 ELSE -1 END AS c
                FROM range(32) p(p), (SELECT DISTINCT j FROM q) j(j)
            ),
            bits AS MATERIALIZED (
                SELECT q.vec_id, pl.p,
                       CASE WHEN SUM(q.qv * pl.c) > 0
                            THEN 1 ELSE 0 END AS bit
                FROM q JOIN planes pl ON pl.j = q.j
                GROUP BY q.vec_id, pl.p
            ),
            bands AS MATERIALIZED (
                SELECT vec_id, p // 8 AS band,
                       SUM(bit * (1 << (p % 8))) AS bkey
                FROM bits GROUP BY vec_id, p // 8
            ),
            cand AS MATERIALIZED (
                SELECT x.vec_id AS a, y.vec_id AS b,
                       COUNT(*) AS n_shared_bands
                FROM bands x JOIN bands y
                  ON y.band = x.band AND y.bkey = x.bkey
                 AND x.vec_id < y.vec_id
                GROUP BY 1, 2
            ),
            n2 AS MATERIALIZED (
                SELECT vec_id, SUM(CAST(qv AS HUGEINT) * qv) AS n2
                FROM q GROUP BY vec_id
            ),
            dots AS (
                SELECT c.a, c.b, c.n_shared_bands,
                       (SELECT SUM(CAST(qa.qv AS HUGEINT) * qb.qv)
                        FROM q qa JOIN q qb ON qb.j = qa.j
                        WHERE qa.vec_id = c.a
                          AND qb.vec_id = c.b) AS dot
                FROM cand c
            )
            SELECT d.a, d.b,
                   CAST(d.n_shared_bands AS BIGINT) AS n_shared_bands
            FROM dots d
            JOIN n2 na ON na.vec_id = d.a
            JOIN n2 nb ON nb.vec_id = d.b
            WHERE d.dot > 0
              AND d.dot * d.dot * CAST(1000000000000 AS HUGEINT)
                  >= CAST(400000 AS HUGEINT) * 400000 * na.n2 * nb.n2
            ORDER BY d.a, d.b
        """,
        "dedup_cdc": """
            -- content-defined chunking: boundary where the trailing
            -- 8-byte polynomial hash (sum of byte_j * 37^j) % 32 = 31;
            -- chunk identity = md5; dup = hash in >= 2 distinct docs.
            -- ASCII corpus: char positions == byte positions.
            WITH pos AS (
                SELECT doc_id, text,
                       unnest(range(CAST(8 AS BIGINT),
                                    CAST(length(text) + 1 AS BIGINT))) AS q
                FROM documents
            ),
            hh AS (
                SELECT doc_id, q,
                       (CAST(unicode(substr(text, CAST(q - 7 AS BIGINT), 1)) AS BIGINT)
                      + CAST(unicode(substr(text, CAST(q - 6 AS BIGINT), 1)) AS BIGINT) * 37
                      + CAST(unicode(substr(text, CAST(q - 5 AS BIGINT), 1)) AS BIGINT) * 1369
                      + CAST(unicode(substr(text, CAST(q - 4 AS BIGINT), 1)) AS BIGINT) * 50653
                      + CAST(unicode(substr(text, CAST(q - 3 AS BIGINT), 1)) AS BIGINT) * 1874161
                      + CAST(unicode(substr(text, CAST(q - 2 AS BIGINT), 1)) AS BIGINT) * 69343957
                      + CAST(unicode(substr(text, CAST(q - 1 AS BIGINT), 1)) AS BIGINT) * 2565726409
                      + CAST(unicode(substr(text, CAST(q AS BIGINT), 1)) AS BIGINT) * 94931877133
                       ) AS h
                FROM pos
            ),
            ends AS (
                SELECT DISTINCT doc_id, e FROM (
                    SELECT doc_id, q AS e FROM hh WHERE h % 32 = 31
                    UNION ALL
                    SELECT doc_id, CAST(length(text) AS BIGINT) FROM documents)
                WHERE e > 0
            ),
            ch AS (
                SELECT doc_id,
                       COALESCE(lag(e) OVER (PARTITION BY doc_id
                                             ORDER BY e), 0) + 1 AS s,
                       e
                FROM ends
            ),
            hsh AS (
                SELECT c.doc_id,
                       md5_number_lower(substr(d.text, CAST(c.s AS BIGINT),
                                        CAST(c.e - c.s + 1 AS BIGINT))) AS h,
                       c.e - c.s + 1 AS l
                FROM ch c JOIN documents d ON d.doc_id = c.doc_id
            ),
            dup AS MATERIALIZED (
                SELECT h FROM (SELECT h, COUNT(DISTINCT doc_id) AS nd
                               FROM hsh GROUP BY h) WHERE nd >= 2
            )
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_chunks,
                   CAST(SUM(CASE WHEN h IN (SELECT h FROM dup)
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_chunks,
                   CAST(SUM(CASE WHEN h IN (SELECT h FROM dup)
                            THEN l ELSE 0 END) AS BIGINT) AS dup_chars
            FROM hsh GROUP BY doc_id
        """,
        "text_colloc_lift": r"""
            -- collocation lift for the top-100 bigrams by count:
            -- (1e6 * c_xy * N_tok^2) // (N_bg * c_x * c_y), HUGEINT
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'),
                                           1) AS i
                FROM documents
            ),
            tok AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
            ntok AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM words),
            bg AS (SELECT a.w AS w1, b.w AS w2,
                          a.w || ' ' || b.w AS bigram
                   FROM words a
                   JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1),
            nbg AS (SELECT CAST(COUNT(*) AS HUGEINT) AS n FROM bg),
            bc AS (SELECT bigram, w1, w2, COUNT(*) AS c
                   FROM bg GROUP BY 1, 2, 3),
            top AS (SELECT * FROM bc ORDER BY c DESC, bigram LIMIT 100)
            SELECT t.bigram,
                   CAST(t.c AS BIGINT) AS n_xy,
                   CAST(cx.c AS BIGINT) AS n_x,
                   CAST(cy.c AS BIGINT) AS n_y,
                   CAST((CAST(1000000 AS HUGEINT) * t.c * ntok.n * ntok.n)
                        // (nbg.n * cx.c * cy.c) AS BIGINT) AS lift_e6
            FROM top t
            JOIN tok cx ON cx.w = t.w1
            JOIN tok cy ON cy.w = t.w2
            CROSS JOIN ntok CROSS JOIN nbg
        """,
        "rel_moving_avg": """
            -- trailing 3-row moving average per user on exact cents;
            -- values are non-negative so // truncation == floor
            WITH s AS (SELECT user_id, event_id, ts,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events)
            SELECT user_id, event_id,
                   CAST(SUM(v) OVER w // COUNT(*) OVER w AS BIGINT)
                       AS mavg_e2
            FROM s
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
            ORDER BY user_id, event_id
        """,
        "rel_copurchase": """
            -- market-basket: top-20 part pairs by distinct co-orders,
            -- deterministic ties (n desc, a, b)
            WITH p AS (SELECT DISTINCT l_orderkey, l_partkey
                       FROM lineitem)
            SELECT x.l_partkey AS a, y.l_partkey AS b,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM p x JOIN p y ON y.l_orderkey = x.l_orderkey
                 AND x.l_partkey < y.l_partkey
            GROUP BY 1, 2 ORDER BY n_orders DESC, a, b LIMIT 20
        """,
        "rel_ohlc": """
            -- daily OHLC bars per event type, exact integer cents;
            -- open/close by (ts, event_id) order
            WITH s AS (SELECT event_type, event_id, ts,
                              CAST(CAST(epoch_ms(
                                  (epoch_us(ts) // 86400000000)
                                  * 86400000) AS DATE) AS VARCHAR) AS day,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events),
            w AS (SELECT event_type, day, v,
                         first_value(v) OVER (
                             PARTITION BY event_type, day
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND
                             UNBOUNDED FOLLOWING) AS open_e2,
                         last_value(v) OVER (
                             PARTITION BY event_type, day
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND
                             UNBOUNDED FOLLOWING) AS close_e2
                  FROM s)
            SELECT event_type, day,
                   CAST(MIN(open_e2) AS BIGINT) AS open_e2,
                   CAST(MAX(v) AS BIGINT) AS high_e2,
                   CAST(MIN(v) AS BIGINT) AS low_e2,
                   CAST(MIN(close_e2) AS BIGINT) AS close_e2,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM w GROUP BY event_type, day
            ORDER BY event_type, day
        """,
        "rel_benford": """
            -- Benford first-digit audit of positive integer cents
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events),
            d AS (SELECT event_type,
                         CAST(substr(CAST(v AS VARCHAR), 1, 1)
                              AS BIGINT) AS digit
                  FROM s WHERE v > 0)
            SELECT event_type, digit, CAST(COUNT(*) AS BIGINT) AS n
            FROM d GROUP BY event_type, digit
            ORDER BY event_type, digit
        """,
        "rel_ship_delay": """
            -- fact-fact join + per-priority delay-day histogram
            SELECT o.o_orderpriority,
                   CAST(epoch_us(l.l_shipdate) // 86400000000
                        - epoch_us(o.o_orderdate) // 86400000000
                        AS BIGINT) AS delay_days,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "rel_order_sizes": """
            -- two-level aggregation: lines per order, then the
            -- distribution of order sizes
            WITH s AS (SELECT l_orderkey, COUNT(*) AS sz
                       FROM lineitem GROUP BY 1)
            SELECT CAST(sz AS BIGINT) AS order_size,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM s GROUP BY sz ORDER BY order_size
        """,
        "rel_outliers": """
            -- 3-sigma outliers per event type, exact integers:
            -- z^2 = dev^2 / M2 with dev = n*v - s1, M2 = n*s2 - s1^2
            WITH sv AS (SELECT event_type, event_id,
                               CAST(ROUND(value * 100) AS BIGINT) AS v
                        FROM events),
            m AS (SELECT event_type, COUNT(*) AS n, SUM(v) AS s1,
                         SUM(v * v) AS s2
                  FROM sv GROUP BY 1),
            fl AS (SELECT sv.event_type, sv.event_id
                   FROM sv JOIN m USING (event_type)
                   WHERE m.n * m.s2 - m.s1 * m.s1 > 0
                     AND 1000000 * CAST(m.n * sv.v - m.s1 AS HUGEINT)
                         * (m.n * sv.v - m.s1)
                         >= 9000000 * (m.n * m.s2 - m.s1 * m.s1))
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_outliers,
                   CAST(MIN(event_id) AS BIGINT) AS min_event,
                   CAST(MAX(event_id) AS BIGINT) AS max_event
            FROM fl GROUP BY 1 ORDER BY 1
        """,
        "rel_cumulative_users": """
            -- expanding-window distinct: cumulative users seen so
            -- far = running sum of first-seen-day cohort sizes
            WITH ud AS (SELECT user_id,
                               MIN(epoch_us(ts) // 86400000000) AS day
                        FROM events GROUP BY user_id),
            c AS (SELECT day, COUNT(*) AS new_users FROM ud GROUP BY day)
            SELECT CAST(CAST(epoch_ms(day * 86400000) AS DATE)
                        AS VARCHAR) AS day,
                   CAST(new_users AS BIGINT) AS new_users,
                   CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT)
                       AS cum_users
            FROM c ORDER BY day
        """,
        "graph_type_projection": """
            -- bipartite user x type graph projected onto types:
            -- distinct co-engaging users per unordered type pair
            WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
            SELECT a.event_type AS t1, b.event_type AS t2,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM ut a JOIN ut b ON b.user_id = a.user_id
                 AND a.event_type < b.event_type
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "text_vocab_growth": r"""
            -- Heaps-law curve: distinct terms within the first N
            -- docs (per-doc grid) = running sum of first-seen counts
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents),
            f AS (SELECT term, MIN(doc_id) AS fd FROM toks
                  GROUP BY term),
            b AS (SELECT fd // 1 AS bk, COUNT(*) AS c FROM f
                  GROUP BY 1),
            g AS (SELECT unnest(range(0, CAST(mx + 1 AS BIGINT))) AS bk
                  FROM (SELECT MAX(bk) AS mx FROM b))
            SELECT CAST((g.bk + 1) * 1 AS BIGINT) AS n_docs,
                   CAST(SUM(COALESCE(b.c, 0)) OVER (ORDER BY g.bk)
                        AS BIGINT) AS vocab
            FROM g LEFT JOIN b ON b.bk = g.bk ORDER BY n_docs
        """,
        "text_decontaminate": r"""
            -- GPT-3-style test-set decontamination: training docs
            -- sharing >= 1 word-8-gram with the bottom-25-md5
            -- benchmark split; n_shared counts DISTINCT shared grams.
            -- Grams via the list-slice idiom (1-based inclusive ends:
            -- ws[i:i+7] is 8 words), verified == python w[i:i+8]
            WITH bench AS (
                SELECT doc_id FROM documents
                ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
                LIMIT 25
            ),
            wl AS MATERIALIZED (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws
                FROM documents
            ),
            grams AS MATERIALIZED (
                SELECT DISTINCT doc_id,
                       array_to_string(
                           ws[CAST(i AS BIGINT):CAST(i + 7 AS BIGINT)],
                           ' ') AS s
                FROM wl,
                     unnest(range(1, CAST(len(ws) - 7 AS BIGINT) + 1))
                         AS t(i)
            ),
            bg AS (SELECT DISTINCT s FROM grams
                   WHERE doc_id IN (SELECT doc_id FROM bench)),
            tr AS (SELECT doc_id, s FROM grams
                   WHERE doc_id NOT IN (SELECT doc_id FROM bench))
            SELECT tr.doc_id, CAST(COUNT(*) AS BIGINT) AS n_shared
            FROM tr JOIN bg USING (s)
            GROUP BY 1 ORDER BY 1
        """,
        "text_heavy_hitters": r"""
            -- exact top-10 terms: valid for the Misra-Gries two-pass
            -- operator because the k-th reported exact count clears
            -- the survival bar N/(k_track+1) (runtime-asserted on the
            -- Ray side — flatter corpora raise instead of mismatching)
            WITH t AS (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents
            )
            SELECT term, CAST(count(*) AS BIGINT) AS tf
            FROM t GROUP BY term
            ORDER BY tf DESC, term ASC
            LIMIT 10
        """,
        "text_chunk_plan": r"""
            -- per-doc sliding windows: 64-token chunks every 48
            -- tokens, final chunk truncated; n>0 tokens yields
            -- (n-1)//48 + 1 chunks, empty docs none
            WITH c AS (
                SELECT doc_id,
                       CAST(length(regexp_extract_all(text, '\S+'))
                            AS BIGINT) AS n
                FROM documents)
            SELECT doc_id,
                   CAST(t.i AS BIGINT) AS chunk_id,
                   CAST(t.i * 48 AS BIGINT) AS start_tok,
                   CAST(LEAST(64, n - t.i * 48) AS BIGINT) AS len_tok
            FROM c, unnest(range(0, CAST((n - 1) // 48 + 1 AS BIGINT)))
                 AS t(i)
            WHERE n > 0
            ORDER BY doc_id, chunk_id
        """,
        "text_heavy_hitters_cms": r"""
            -- exact heavy-hitter set (count*64 >= corpus tokens):
            -- valid for the CMS two-pass operator unconditionally —
            -- Count-Min never underestimates, so the candidate set is
            -- a superset of the true set and the exact rescore +
            -- final integer filter reproduce this GROUP BY precisely
            WITH t AS MATERIALIZED (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents
            )
            SELECT term, CAST(count(*) AS BIGINT) AS tf
            FROM t GROUP BY term
            HAVING CAST(count(*) AS BIGINT) * 64 >=
                   (SELECT CAST(count(*) AS BIGINT) FROM t)
            ORDER BY term
        """,
        "dedup_incremental": r"""
            -- crawl-refresh dedup: word-3-gram Jaccard >= 7/10 pairs
            -- BETWEEN the existing corpus (src0-src9) and the new
            -- snapshot (src10-src19); same integer arithmetic as
            -- dedup_ngram, join restricted to cross-side pairs
            WITH wl AS MATERIALIZED (
                SELECT doc_id,
                       CAST(SUBSTR(source, 4) AS BIGINT) >= 10 AS is_new,
                       regexp_extract_all(text, '\S+') AS ws
                FROM documents
            ),
            grams AS MATERIALIZED (
                SELECT DISTINCT doc_id, is_new,
                       array_to_string(
                           ws[CAST(i AS BIGINT):CAST(i + 2 AS BIGINT)],
                           ' ') AS s
                FROM wl,
                     unnest(range(1, CAST(len(ws) - 2 AS BIGINT) + 1))
                         AS t(i)
            ),
            sizes AS MATERIALIZED (
                SELECT doc_id, count(*) AS n FROM grams GROUP BY 1
            ),
            inter AS (
                SELECT o.doc_id AS a, n2.doc_id AS b, count(*) AS i
                FROM grams o JOIN grams n2
                  ON o.s = n2.s AND NOT o.is_new AND n2.is_new
                GROUP BY 1, 2
            )
            SELECT a, b,
                   CAST((i * 1000000000) // (sa.n + sb.n - i) AS BIGINT)
                       AS jacc_e9
            FROM inter
            JOIN sizes sa ON sa.doc_id = a JOIN sizes sb ON sb.doc_id = b
            WHERE 10 * i >= 7 * (sa.n + sb.n - i)
            ORDER BY a, b
        """,
        "text_novelty": r"""
            -- n-gram novelty: distinct word-3-grams whose first
            -- corpus occurrence (min doc_id) is this document
            WITH wl AS MATERIALIZED (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS ws
                FROM documents
            ),
            grams AS MATERIALIZED (
                SELECT DISTINCT doc_id,
                       array_to_string(
                           ws[CAST(i AS BIGINT):CAST(i + 2 AS BIGINT)],
                           ' ') AS s
                FROM wl,
                     unnest(range(1, CAST(len(ws) - 2 AS BIGINT) + 1))
                         AS t(i)
            ),
            first AS (SELECT s, MIN(doc_id) AS doc_id FROM grams
                      GROUP BY s)
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_novel
            FROM first GROUP BY 1 ORDER BY 1
        """,
        "text_pack_plan": r"""
            -- concat-and-chunk packing plan: global token offsets in
            -- doc_id order, 512-token chunks (exact integers)
            WITH c AS (
                SELECT doc_id,
                       CAST(length(regexp_extract_all(text, '\S+'))
                            AS BIGINT) AS n_tokens
                FROM documents),
            o AS (SELECT doc_id, n_tokens,
                         CAST(COALESCE(SUM(n_tokens) OVER (
                             ORDER BY doc_id ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
                             AS token_offset
                  FROM c)
            SELECT doc_id, n_tokens, token_offset,
                   CAST(token_offset // 512 AS BIGINT) AS first_chunk,
                   CAST(CASE WHEN n_tokens > 0
                             THEN (token_offset + n_tokens - 1) // 512
                             ELSE token_offset // 512 END AS BIGINT)
                       AS last_chunk
            FROM o ORDER BY doc_id
        """,
        "text_wordlen_hist": r"""
            WITH w AS (SELECT unnest(regexp_extract_all(text, '\S+'))
                           AS t
                       FROM documents)
            SELECT CAST(length(t) AS BIGINT) AS word_len,
                   CAST(COUNT(*) AS BIGINT) AS n_words
            FROM w GROUP BY 1 ORDER BY 1
        """,
        "rel_dow_profile": """
            -- day-of-week activity profile (epoch day 0 = Thursday,
            -- +3 makes 0 = Monday); exact cents
            WITH s AS (SELECT event_type,
                              (epoch_us(ts) // 86400000000 + 3) % 7
                                  AS dow,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events)
            SELECT event_type, CAST(dow AS BIGINT) AS dow,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(v) AS BIGINT) AS sum_value_e2
            FROM s GROUP BY event_type, dow ORDER BY event_type, dow
        """,
        "rel_chi2": """
            -- chi-square statistic of the brand x type table as
            -- the SUM OF FLOORED integer cells (the engine's exact
            -- definition): cell = (n*O - r*c)^2 * 1e6 // (n*r*c)
            WITH o AS (SELECT p_brand, p_type, COUNT(*) AS o
                       FROM part GROUP BY 1, 2),
            r AS (SELECT p_brand, SUM(o) AS rb FROM o GROUP BY 1),
            c AS (SELECT p_type, SUM(o) AS cc FROM o GROUP BY 1),
            nn AS (SELECT CAST(SUM(o) AS HUGEINT) AS n FROM o),
            grid AS (SELECT r.p_brand, c.p_type,
                            CAST(r.rb AS HUGEINT) AS rb,
                            CAST(c.cc AS HUGEINT) AS cc
                     FROM r CROSS JOIN c),
            cell AS (SELECT g.rb, g.cc,
                            CAST(COALESCE(o.o, 0) AS HUGEINT) AS o
                     FROM grid g LEFT JOIN o
                          ON o.p_brand = g.p_brand
                          AND o.p_type = g.p_type)
            SELECT CAST(nn.n AS BIGINT) AS n,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM r) AS n_brands,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM c)
                       AS n_types,
                   CAST(SUM((nn.n * cell.o - cell.rb * cell.cc)
                            * (nn.n * cell.o - cell.rb * cell.cc)
                            * 1000000 // (nn.n * cell.rb * cell.cc))
                        AS BIGINT) AS chi2_e6
            FROM cell, nn GROUP BY nn.n
        """,
        "rel_active_users": """
            -- DAU + trailing 7-day WAU per active day: each distinct
            -- (user, day) fans out to the 7 days it keeps the user
            -- active for
            WITH ud AS (SELECT DISTINCT user_id,
                               epoch_us(ts) // 86400000000 AS day
                        FROM events),
            dau AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS dau
                    FROM ud GROUP BY day),
            f AS (SELECT DISTINCT user_id, day + o AS day
                  FROM ud, unnest(range(0, 7)) AS t(o)),
            wau AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS wau
                    FROM f GROUP BY day)
            SELECT CAST(CAST(epoch_ms(d.day * 86400000) AS DATE)
                        AS VARCHAR) AS day,
                   d.dau, w.wau
            FROM dau d JOIN wau w USING (day) ORDER BY 1
        """,
        "rel_retention": """
            -- cohort retention: users cohorted by first active day;
            -- per (cohort, offset<=7) the count active that day.
            -- integer epoch-day arithmetic (positive: floor==trunc)
            WITH ud AS (SELECT DISTINCT user_id,
                               epoch_us(ts) // 86400000000 AS day
                        FROM events),
            c AS (SELECT user_id, MIN(day) AS cohort
                  FROM ud GROUP BY user_id)
            SELECT CAST(CAST(epoch_ms(c.cohort * 86400000) AS DATE)
                        AS VARCHAR) AS cohort_day,
                   CAST(ud.day - c.cohort AS BIGINT) AS day_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM ud JOIN c USING (user_id)
            WHERE ud.day - c.cohort <= 7
            GROUP BY c.cohort, 2
            ORDER BY 1, 2
        """,
        "rel_asof_join": """
            -- backward as-of join, deterministic tie-break (latest
            -- o_orderdate, then smallest o_orderkey); -1 sentinels for
            -- events before any order of that user
            WITH j AS (
                SELECT e.event_id, o.o_orderkey, o.o_totalprice,
                       row_number() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey ASC
                       ) AS rn
                FROM events e
                JOIN orders o ON o.o_custkey = e.user_id
                             AND o.o_orderdate <= e.ts
            )
            SELECT e.event_id,
                   COALESCE(j.o_orderkey, -1) AS asof_orderkey,
                   COALESCE(CAST(FLOOR(j.o_totalprice * 100.0) AS BIGINT),
                            -1) AS asof_price_e2
            FROM events e LEFT JOIN j ON j.event_id = e.event_id AND j.rn = 1
            ORDER BY e.event_id
        """,
        "dedup_ngram": r"""
            -- exact word-3-gram Jaccard >= 7/10 via the string
            -- inverted index; all-integer arithmetic mirrors the
            -- engine (10*i >= 7*(|A|+|B|-i); score = i*1e9 // denom)
            WITH words AS MATERIALIZED (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'), 1) AS i
                FROM documents
            ),
            sh AS MATERIALIZED (
                SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS s
                FROM words a
                JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                JOIN words c ON c.doc_id = a.doc_id AND c.i = a.i + 2
            ),
            sizes AS MATERIALIZED (
                SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
            ),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b,
                   CAST((i * 1000000000) // (sa.n + sb.n - i) AS BIGINT)
                       AS jacc_e9
            FROM inter
            JOIN sizes sa ON sa.doc_id = a JOIN sizes sb ON sb.doc_id = b
            WHERE 10 * i >= 7 * (sa.n + sb.n - i)
            ORDER BY a, b
        """,
        "dedup_containment": r"""
            -- exact word-3-gram CONTAINMENT >= 8/10: same inverted
            -- index as dedup_ngram, denominator = min(|A|, |B|)
            WITH words AS MATERIALIZED (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'), 1) AS i
                FROM documents
            ),
            sh AS MATERIALIZED (
                SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS s
                FROM words a
                JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                JOIN words c ON c.doc_id = a.doc_id AND c.i = a.i + 2
            ),
            sizes AS MATERIALIZED (
                SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
            ),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            )
            SELECT a, b,
                   CAST((i * 1000000000) // least(sa.n, sb.n) AS BIGINT)
                       AS cont_e9
            FROM inter
            JOIN sizes sa ON sa.doc_id = a JOIN sizes sb ON sb.doc_id = b
            WHERE 10 * i >= 8 * least(sa.n, sb.n)
            ORDER BY a, b
        """,
        "dedup_simhash": r"""
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
                -- the engine hashes t.split() or [''] — empty docs get
                -- the empty-string word, they do NOT vanish
                UNION ALL
                SELECT doc_id, '' FROM documents
                WHERE length(regexp_extract_all(text, '\S+')) = 0
            ),
            wh AS (SELECT doc_id, md5_number_lower(w) AS h FROM words),
            bits AS (
                SELECT doc_id, b.j,
                       sum(CASE WHEN (h >> CAST(b.j AS UTINYINT)) & 1 = 1
                                THEN 1 ELSE -1 END) AS score
                FROM wh CROSS JOIN range(64) b(j)
                GROUP BY doc_id, b.j
            ),
            bsign AS (
                SELECT doc_id, j, CASE WHEN score > 0 THEN 1 ELSE 0 END AS bit
                FROM bits
            )
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(count(*) FILTER (x.bit <> y.bit) AS BIGINT) AS hamming
            FROM bsign x JOIN bsign y ON x.j = y.j AND x.doc_id < y.doc_id
            GROUP BY 1, 2
            HAVING count(*) FILTER (x.bit <> y.bit) <= 3
        """,
        "dedup_editdist": r"""
            -- simhash recall (hamming<=3, lossless 4x16-bit banding)
            -- -> exact prefix-200 Levenshtein <= 60 verify
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
                FROM documents
                UNION ALL
                SELECT doc_id, '' FROM documents
                WHERE length(regexp_extract_all(text, '\S+')) = 0
            ),
            wh AS (SELECT doc_id, md5_number_lower(w) AS h FROM words),
            bits AS (
                SELECT doc_id, b.j,
                       sum(CASE WHEN (h >> CAST(b.j AS UTINYINT)) & 1 = 1
                                THEN 1 ELSE -1 END) AS score
                FROM wh CROSS JOIN range(64) b(j)
                GROUP BY doc_id, b.j
            ),
            bsign AS (
                SELECT doc_id, j,
                       CASE WHEN score > 0 THEN 1 ELSE 0 END AS bit
                FROM bits
            ),
            cand AS (
                SELECT x.doc_id AS a, y.doc_id AS b
                FROM bsign x JOIN bsign y
                     ON x.j = y.j AND x.doc_id < y.doc_id
                GROUP BY 1, 2
                HAVING count(*) FILTER (x.bit <> y.bit) <= 3
            )
            SELECT c.a, c.b,
                   CAST(levenshtein(substr(da.text, 1, 200),
                                    substr(db.text, 1, 200)) AS BIGINT)
                       AS dist
            FROM cand c JOIN documents da ON da.doc_id = c.a
                        JOIN documents db ON db.doc_id = c.b
            WHERE levenshtein(substr(da.text, 1, 200),
                              substr(db.text, 1, 200)) <= 60
            ORDER BY c.a, c.b
        """,
        "dedup_embedding": """
            WITH pr AS (
                SELECT list_cosine_similarity(
                           CAST(x.embedding AS DOUBLE[]),
                           CAST(y.embedding AS DOUBLE[])) AS c
                FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
            ), t(threshold_e2) AS (VALUES (30), (50), (90), (98))
            SELECT CAST(threshold_e2 AS BIGINT) AS threshold_e2,
                   CAST(count(*) FILTER (pr.c >= threshold_e2 / 100.0)
                        AS BIGINT) AS n_pairs
            FROM t LEFT JOIN pr ON TRUE GROUP BY threshold_e2
        """,
        "graph_extract_text": "SELECT doc_id, text FROM documents",
        "graph_kcore": _kcore_chain_sql(k=5, rounds=6),
        "graph_core_number": _core_number_chain_sql(k_max=6, rounds=6),
        "graph_squares": f"""
            -- exact 4-cycle census via wedge aggregation:
            -- squares = sum(C(w_uv, 2)) / 2 over common-neighbor
            -- counts of canonical endpoint pairs
            WITH {_LINKS_CTE},
            {_ARCS_CTE},
            wd AS (SELECT a1.dst AS a, a2.dst AS b
                   FROM arcs a1 JOIN arcs a2
                     ON a2.src = a1.src AND a2.dst > a1.dst),
            c AS (SELECT a, b, COUNT(*) AS w FROM wd GROUP BY a, b)
            SELECT CAST((SELECT SUM(w) FROM c) AS BIGINT) AS n_wedges,
                   CAST((SELECT SUM(w * (w - 1) // 2) FROM c) // 2
                        AS BIGINT) AS n_squares""",
        "graph_lang_mixing": f"""
            -- directed lang-mixing matrix over both arc orientations
            WITH {_LINKS_CTE},
            {_ARCS_CTE}
            SELECT ds.lang AS lang_src, dd.lang AS lang_dst,
                   CAST(COUNT(*) AS BIGINT) AS n_arcs
            FROM arcs a JOIN documents ds ON ds.doc_id = a.src
                        JOIN documents dd ON dd.doc_id = a.dst
            GROUP BY 1, 2 ORDER BY 1, 2""",
        "graph_lang_assortativity": f"""
            -- exact integer assortativity by lang:
            -- num = E*tr - sum(a_i^2), den = E^2 - sum(a_i^2)
            WITH {_LINKS_CTE},
            {_ARCS_CTE},
            mix AS (SELECT ds.lang AS i, dd.lang AS j, COUNT(*) AS n
                    FROM arcs a JOIN documents ds ON ds.doc_id = a.src
                                JOIN documents dd ON dd.doc_id = a.dst
                    GROUP BY 1, 2),
            tot AS (SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) AS e2
                    FROM mix),
            tr AS (SELECT CAST(COALESCE(SUM(n), 0) AS BIGINT) AS t
                   FROM mix WHERE i = j),
            ai AS (SELECT i, CAST(SUM(n) AS BIGINT) AS s
                   FROM mix GROUP BY i),
            a2 AS (SELECT CAST(COALESCE(SUM(s * s), 0) AS BIGINT) AS v
                   FROM ai)
            SELECT CAST(tot.e2 * tr.t - a2.v AS BIGINT) AS r_num,
                   CAST(tot.e2 * tot.e2 - a2.v AS BIGINT) AS r_den
            FROM tot CROSS JOIN tr CROSS JOIN a2""",
        "graph_truss": _truss_chain_sql(k=3, rounds=6),
        "graph_walks": _walks_chain_sql(stride=101, steps=5),
        "graph_modularity": f"""
            -- Newman modularity of the 2-pass hedonic partition as
            -- one exact rational: Q = (4m*sum(m_c) - sum(d_c^2))/(4m^2)
            WITH {_LINKS_CTE},
            {_ARCS_CTE},
            {_hedonic_chain_ctes(2)},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            mm AS (SELECT CAST(COUNT(*) AS HUGEINT) AS m FROM und),
            ic AS (SELECT CAST(COUNT(*) AS HUGEINT) AS c
                   FROM und JOIN m2 la ON la.v = und.a
                            JOIN m2 lb ON lb.v = und.b
                   WHERE la.lab = lb.lab),
            deg AS (SELECT src AS v, COUNT(*) AS d FROM arcs
                    GROUP BY src),
            dc AS (SELECT l.lab,
                          CAST(SUM(COALESCE(deg.d, 0)) AS HUGEINT) AS d
                   FROM m2 l LEFT JOIN deg ON deg.v = l.v
                   GROUP BY l.lab),
            st AS (SELECT SUM(d * d) AS sum_dc2, COUNT(*) AS ncomm
                   FROM dc)
            SELECT CAST(mm.m AS BIGINT) AS m,
                   CAST(st.ncomm AS BIGINT) AS n_communities,
                   CAST(ic.c AS BIGINT) AS intra_edges,
                   CAST(st.sum_dc2 AS BIGINT) AS sum_dc2,
                   CAST(CASE WHEN 4 * mm.m * ic.c - st.sum_dc2 >= 0
                        THEN (4 * mm.m * ic.c - st.sum_dc2)
                             * 1000000000 // (4 * mm.m * mm.m)
                        ELSE -((st.sum_dc2 - 4 * mm.m * ic.c)
                               * 1000000000 // (4 * mm.m * mm.m))
                        END AS BIGINT) AS q_e9
            FROM mm, ic, st
        """,
        "graph_hits": _hits_chain_sql(iters=2),
        "graph_edge_jaccard": f"""
            -- neighborhood Jaccard per canonical undirected edge:
            -- common = |N(a) ∩ N(b)|, jacc floored at 1e9 scale
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, count(*) AS d FROM arcs GROUP BY src),
            cn AS (SELECT u.a, u.b, count(*) AS c
                   FROM und u
                   JOIN arcs x ON x.src = u.a
                   JOIN arcs y ON y.src = u.b AND y.dst = x.dst
                   GROUP BY u.a, u.b)
            SELECT u.a, u.b,
                   CAST(COALESCE(cn.c, 0) AS BIGINT) AS common,
                   CAST(COALESCE(cn.c, 0) * 1000000000
                        // (da.d + db.d - COALESCE(cn.c, 0))
                        AS BIGINT) AS jacc_e9
            FROM und u
            JOIN deg da ON da.v = u.a
            JOIN deg db ON db.v = u.b
            LEFT JOIN cn ON cn.a = u.a AND cn.b = u.b
        """,
        "graph_simrank": f"""
            -- SimRank (C=0.8, 2 rounds, e9 fixed point): unrolled to
            -- the engine's round cap; S_r(u,u)=1e9 rides as the
            -- co-citation diagonal term 1e9*common(a,b)
            WITH {_LINKS_CTE},
            ind AS (SELECT dst AS v, CAST(COUNT(*) AS BIGINT) AS d
                    FROM e GROUP BY dst),
            common AS MATERIALIZED (
                SELECT x.dst AS a, y.dst AS b,
                       CAST(COUNT(*) AS BIGINT) AS c
                FROM e x JOIN e y ON y.src = x.src AND x.dst < y.dst
                GROUP BY 1, 2),
            s1 AS MATERIALIZED (
                SELECT a, b,
                       CAST(8 * (c * 1000000000)
                            // (10 * da.d * db.d) AS BIGINT) AS s
                FROM common JOIN ind da ON da.v = a
                            JOIN ind db ON db.v = b
                WHERE 8 * (c * 1000000000)
                      // (10 * da.d * db.d) > 0),
            s1b AS (SELECT a AS u, b AS v, s FROM s1
                    UNION ALL SELECT b, a, s FROM s1),
            contrib AS (
                SELECT ea.dst AS a, eb.dst AS b,
                       CAST(SUM(sb.s) AS BIGINT) AS p
                FROM s1b sb JOIN e ea ON ea.src = sb.u
                            JOIN e eb ON eb.src = sb.v
                WHERE ea.dst < eb.dst
                GROUP BY 1, 2),
            raw2 AS (
                SELECT a, b, CAST(SUM(p) AS BIGINT) AS raw FROM (
                    SELECT a, b, p FROM contrib
                    UNION ALL
                    SELECT a, b, c * 1000000000 FROM common)
                GROUP BY 1, 2),
            s2 AS (SELECT r.a, r.b,
                          CAST(8 * r.raw // (10 * da.d * db.d)
                               AS BIGINT) AS s_e9
                   FROM raw2 r JOIN ind da ON da.v = r.a
                               JOIN ind db ON db.v = r.b
                   WHERE 8 * r.raw // (10 * da.d * db.d) > 0)
            SELECT a, b, s_e9 FROM s2
            ORDER BY s_e9 DESC, a, b LIMIT 50
        """,
        "graph_assortativity": f"""
            -- degree assortativity over the 2m symmetric arcs:
            -- integer sufficient stats; r_e6 = trunc(1e6·num/den)
            -- (operands positive-den; // truncates on both engines)
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, count(*) AS d FROM arcs GROUP BY src),
            s AS (SELECT da.d AS x, db.d AS y
                  FROM arcs
                  JOIN deg da ON da.v = arcs.src
                  JOIN deg db ON db.v = arcs.dst),
            g AS (SELECT count(*) AS m2, sum(x) AS sx,
                         sum(x * x) AS sxx, sum(x * y) AS sxy
                  FROM s)
            SELECT CAST(m2 AS BIGINT) AS m2, CAST(sx AS BIGINT) AS sx,
                   CAST(sxx AS BIGINT) AS sxx, CAST(sxy AS BIGINT) AS sxy,
                   CAST(CASE WHEN m2 * sxx - sx * sx > 0
                             THEN (m2 * sxy - sx * sx) * 1000000
                                  // (m2 * sxx - sx * sx)
                             ELSE 0 END AS BIGINT) AS r_e6
            FROM g
        """,
        "graph_common_neighbors": f"""
            -- top-20 NON-adjacent pairs by common-neighbor count,
            -- deterministic ties (common desc, a, b)
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            cn AS (SELECT x.dst AS a, y.dst AS b, count(*) AS common
                   FROM arcs x
                   JOIN arcs y ON y.src = x.src AND x.dst < y.dst
                   GROUP BY 1, 2)
            SELECT cn.a, cn.b, CAST(cn.common AS BIGINT) AS common
            FROM cn
            LEFT JOIN und ON und.a = cn.a AND und.b = cn.b
            WHERE und.a IS NULL
            ORDER BY cn.common DESC, cn.a, cn.b
            LIMIT 20
        """,
        "graph_neighbor_degree": f"""
            -- average neighbor degree per vertex, exact e9 integer
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, count(*) AS d FROM arcs GROUP BY src),
            snd AS (SELECT a.src AS v, SUM(deg.d) AS s
                    FROM arcs a JOIN deg ON deg.v = a.dst
                    GROUP BY a.src)
            SELECT doc.doc_id AS vertex,
                   CAST(COALESCE(deg.d, 0) AS BIGINT) AS degree,
                   CAST(COALESCE(snd.s, 0) AS BIGINT) AS sum_nbr_deg,
                   CAST(CASE WHEN COALESCE(deg.d, 0) > 0
                             THEN COALESCE(snd.s, 0) * 1000000000
                                  // deg.d
                             ELSE 0 END AS BIGINT) AS avg_nbr_deg_e9
            FROM documents doc
            LEFT JOIN deg ON deg.v = doc.doc_id
            LEFT JOIN snd ON snd.v = doc.doc_id
        """,
        "graph_degree_hist": f"""
            -- degree distribution incl. the isolated-vertex bucket
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
            deg AS (SELECT v, count(*) AS d FROM verts GROUP BY v),
            alldeg AS (SELECT doc.doc_id, COALESCE(deg.d, 0) AS d
                       FROM documents doc LEFT JOIN deg
                            ON deg.v = doc.doc_id)
            SELECT CAST(d AS BIGINT) AS degree,
                   CAST(COUNT(*) AS BIGINT) AS n_vertices
            FROM alldeg GROUP BY d ORDER BY d
        """,
        "graph_two_hop": f"""
            -- distinct <=2-hop neighborhood size per vertex
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            two AS (SELECT DISTINCT x.src AS v, y.dst AS w
                    FROM arcs x JOIN arcs y ON y.src = x.dst
                    WHERE y.dst <> x.src),
            clo AS (SELECT v, w FROM two
                    UNION SELECT src, dst FROM arcs),
            cnt AS (SELECT v, COUNT(*) AS n FROM clo GROUP BY v)
            SELECT d.doc_id AS vertex,
                   CAST(COALESCE(cnt.n, 0) AS BIGINT) AS n_2hop
            FROM documents d LEFT JOIN cnt ON cnt.v = d.doc_id
        """,
        "graph_resource_alloc": f"""
            -- top-20 NON-adjacent pairs by the resource-allocation
            -- index, exact integer: each common neighbor z scores
            -- 10^9 // deg(z); deterministic ties (ra_e9 desc, a, b)
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, count(*) AS d FROM arcs GROUP BY src),
            ra AS (SELECT x.dst AS a, y.dst AS b,
                          SUM(1000000000 // deg.d) AS ra_e9
                   FROM arcs x
                   JOIN arcs y ON y.src = x.src AND x.dst < y.dst
                   JOIN deg ON deg.v = x.src
                   GROUP BY 1, 2)
            SELECT ra.a, ra.b, CAST(ra.ra_e9 AS BIGINT) AS ra_e9
            FROM ra
            LEFT JOIN und ON und.a = ra.a AND und.b = ra.b
            WHERE und.a IS NULL
            ORDER BY ra.ra_e9 DESC, ra.a, ra.b
            LIMIT 20
        """,
        "graph_orbits": f"""
            -- 3-node graphlet orbits per vertex (induced):
            -- deg / path-end / path-center / triangle-corner
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, CAST(COUNT(*) AS BIGINT) AS d
                    FROM arcs GROUP BY src),
            nds AS (SELECT a.src AS v, CAST(SUM(dd.d) AS BIGINT) AS s
                    FROM arcs a JOIN deg dd ON dd.v = a.dst
                    GROUP BY a.src),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM und e1 JOIN und e2 ON e2.a = e1.b
                JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b),
            corners AS (SELECT x AS v FROM tri UNION ALL
                        SELECT y FROM tri UNION ALL SELECT z FROM tri),
            tc AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS t
                   FROM corners GROUP BY v)
            SELECT d.doc_id AS vertex,
                   CAST(COALESCE(dg.d, 0) AS BIGINT) AS deg,
                   CAST(COALESCE(nds.s, 0) - COALESCE(dg.d, 0)
                        - 2 * COALESCE(tc.t, 0) AS BIGINT) AS path_end,
                   CAST(COALESCE(dg.d, 0) * (COALESCE(dg.d, 0) - 1) // 2
                        - COALESCE(tc.t, 0) AS BIGINT) AS path_center,
                   CAST(COALESCE(tc.t, 0) AS BIGINT) AS tri_corner
            FROM documents d
            LEFT JOIN deg dg ON dg.v = d.doc_id
            LEFT JOIN nds ON nds.v = d.doc_id
            LEFT JOIN tc ON tc.v = d.doc_id
            ORDER BY vertex
        """,
        "graph_node2vec": f"""
            -- node2vec (p=4, q=2) 2nd-order transition probabilities
            -- for sampled walk contexts (prev % 17 = 0): integer
            -- weights q/pq/p = 2/8/4, prob_e6 = w*1e6 // sum(w)
            WITH {_LINKS_CTE},
            w AS (SELECT src AS prev, dst AS cur FROM e
                  WHERE src % 17 = 0),
            trip AS (SELECT w.prev, w.cur, h.dst AS nxt
                     FROM w JOIN e h ON h.src = w.cur),
            wt AS (SELECT t.prev, t.cur, t.nxt,
                          CAST(CASE WHEN t.nxt = t.prev THEN 2
                                    WHEN m.src IS NOT NULL THEN 8
                                    ELSE 4 END AS BIGINT) AS w
                   FROM trip t
                   LEFT JOIN e m ON m.src = t.prev AND m.dst = t.nxt)
            SELECT prev, cur, nxt, w,
                   CAST(w * 1000000 // SUM(w) OVER (
                        PARTITION BY prev, cur) AS BIGINT) AS prob_e6
            FROM wt ORDER BY prev, cur, nxt
        """,
        "graph_cocitation": f"""
            -- co-citation (pages linking to both) and bibliographic
            -- coupling (pages both link to) top-20 pairs on the
            -- DIRECTED deduped doc graph; ties -> (cnt desc, a, b)
            WITH {_LINKS_CTE},
            cocite AS (SELECT x.dst AS a, y.dst AS b,
                              CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM e x JOIN e y
                         ON y.src = x.src AND x.dst < y.dst
                       GROUP BY 1, 2),
            couple AS (SELECT x.src AS a, y.src AS b,
                              CAST(COUNT(*) AS BIGINT) AS cnt
                       FROM e x JOIN e y
                         ON y.dst = x.dst AND x.src < y.src
                       GROUP BY 1, 2),
            tc AS (SELECT 'cocite' AS kind, a, b, cnt FROM cocite
                   ORDER BY cnt DESC, a, b LIMIT 20),
            tp AS (SELECT 'couple' AS kind, a, b, cnt FROM couple
                   ORDER BY cnt DESC, a, b LIMIT 20)
            SELECT * FROM tc UNION ALL SELECT * FROM tp
        """,
        "graph_adamic_adar": f"""
            -- top-20 NON-adjacent pairs by the Adamic–Adar index,
            -- exact integer: each common neighbor z scores
            -- 10^12 // floor(10^6 * ln(deg(z))) (deg(z) >= 2 for any
            -- wedge center); deterministic ties (aa_e6 desc, a, b)
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            arcs AS (SELECT a AS src, b AS dst FROM und
                     UNION ALL SELECT b, a FROM und),
            deg AS (SELECT src AS v, count(*) AS d FROM arcs GROUP BY src),
            aa AS (SELECT x.dst AS a, y.dst AS b,
                          SUM(1000000000000 //
                              CAST(FLOOR(1000000 * LN(deg.d)) AS BIGINT))
                              AS aa_e6
                   FROM arcs x
                   JOIN arcs y ON y.src = x.src AND x.dst < y.dst
                   JOIN deg ON deg.v = x.src
                   GROUP BY 1, 2)
            SELECT aa.a, aa.b, CAST(aa.aa_e6 AS BIGINT) AS aa_e6
            FROM aa
            LEFT JOIN und ON und.a = aa.a AND und.b = aa.b
            WHERE und.a IS NULL
            ORDER BY aa.aa_e6 DESC, aa.a, aa.b
            LIMIT 20
        """,
        "graph_bfs_dist": _bfs_chain_sql(rounds=6, stride=101),
        "graph_harmonic": _harmonic_chain_sql(seeds=(0, 1, 2), rounds=6),
        "graph_path_counts": _path_counts_chain_sql(seeds=(0, 1, 2),
                                                    rounds=6),
        "graph_stress": _stress_chain_sql(seeds=(0, 1, 2), rounds=6),
        "graph_bipartite": _bipartite_chain_sql(seed=1, rounds=6),
        "graph_matching": _matching_chain_sql(rounds=8),
        "graph_mst": _mst_chain_sql(rounds=16),
        "graph_mis": _mis_chain_sql(rounds=12),
        "graph_coloring": _coloring_chain_sql(rounds=16),
        "graph_katz": _katz_chain_sql(iters=4, beta_inv=4),
        "graph_sssp": _sssp_chain_sql(rounds=6, seed=1),
        "graph_diameter": _diameter_chain_sql(rounds=6),
        "graph_earliest_arrival": _temporal_chain_sql(rounds=4),
        "graph_extract_anchors": """
            -- raw anchor stream reconstructed from the planted-link
            -- formula: duplicates, self-links and in-page order kept
            -- (pos = j); anchor text is 'to ' || zero-padded dst — the
            -- engine side parses the rendered HTML bytes instead
            SELECT d.doc_id,
                   CAST(t.j AS BIGINT) AS pos,
                   CAST((d.doc_id * 2654435761 + t.j * 40503)
                        % (SELECT count(*) FROM documents) AS BIGINT)
                       AS dst,
                   'to ' || lpad(CAST(CAST(
                       (d.doc_id * 2654435761 + t.j * 40503)
                       % (SELECT count(*) FROM documents)
                       AS BIGINT) AS VARCHAR), 8, '0') AS anchor
            FROM documents d, range(4) t(j)
            WHERE t.j <= d.doc_id % 4
            ORDER BY d.doc_id, pos
        """,
        "graph_anchor_profile": """
            -- per-target anchor index: inlink counts (duplicates
            -- kept), distinct sources, self-links, min source — the
            -- engine aggregates the REAL HTML parse, the oracle the
            -- planted-link arithmetic
            WITH a AS (
                SELECT d.doc_id AS src,
                       CAST((d.doc_id * 2654435761 + t.j * 40503)
                            % (SELECT count(*) FROM documents)
                            AS BIGINT) AS dst
                FROM documents d, range(4) t(j)
                WHERE t.j <= d.doc_id % 4)
            SELECT dst,
                   CAST(count(*) AS BIGINT) AS n_anchors,
                   CAST(count(DISTINCT src) AS BIGINT) AS n_src_docs,
                   CAST(SUM(CASE WHEN src = dst THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_self,
                   CAST(min(src) AS BIGINT) AS first_src
            FROM a GROUP BY dst ORDER BY dst
        """,
        "graph_reciprocity": """
            -- nav click-graph: arcs between consecutive per-user events
            -- (ts, event_id order), per-node reciprocity exact-integer
            WITH ev AS (
                SELECT user_id, ts, event_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS node
                FROM events),
            hop AS (
                SELECT node AS src,
                       lead(node) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS dst
                FROM ev),
            arcs AS MATERIALIZED (
                SELECT DISTINCT src, dst FROM hop
                WHERE dst IS NOT NULL AND src <> dst)
            SELECT a.src AS node,
                   CAST(count(*) AS BIGINT) AS out_deg,
                   CAST(count(b.src) AS BIGINT) AS recip_deg,
                   CAST(count(b.src) * 1000000000 // count(*) AS BIGINT)
                       AS ratio_e9
            FROM arcs a LEFT JOIN arcs b ON b.src = a.dst AND b.dst = a.src
            GROUP BY a.src
        """,
        "graph_clustering_coef": f"""
            -- local clustering coefficient = floor(2*tri*1e9 / (d*(d-1))),
            -- 0 when d < 2; composes the triangle and degree chains
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM und e1 JOIN und e2 ON e2.a = e1.b
                JOIN und e3 ON e3.a = e1.a AND e3.b = e2.b
            ),
            corners AS (SELECT x AS v FROM tri UNION ALL SELECT y FROM tri
                        UNION ALL SELECT z FROM tri),
            cnt AS (SELECT v, count(*) AS t FROM corners GROUP BY v),
            verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und),
            deg AS (SELECT v, count(*) AS d FROM verts GROUP BY v)
            SELECT doc.doc_id AS vertex,
                   CAST(CASE WHEN COALESCE(deg.d, 0) >= 2
                             THEN 2 * COALESCE(cnt.t, 0) * 1000000000
                                  // (deg.d * (deg.d - 1))
                             ELSE 0 END AS BIGINT) AS lcc_e9
            FROM documents doc
            LEFT JOIN deg ON deg.v = doc.doc_id
            LEFT JOIN cnt ON cnt.v = doc.doc_id
        """,
        "graph_degree": f"""
            WITH {_LINKS_CTE},
            und AS (SELECT DISTINCT LEAST(src, dst) AS a, GREATEST(src, dst) AS b FROM e),
            verts AS (SELECT a AS v FROM und UNION ALL SELECT b FROM und)
            SELECT v AS vertex, CAST(count(*) AS BIGINT) AS degree
            FROM verts GROUP BY v
        """,
        "graph_pagerank_onestep": f"""
            WITH {_LINKS_CTE},
            nn AS (SELECT count(*) AS n FROM documents),
            outdeg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
            contrib AS (
                SELECT e.dst AS v, sum(1.0 / (nn.n * outdeg.d)) AS c
                FROM e CROSS JOIN nn JOIN outdeg ON e.src = outdeg.src
                GROUP BY e.dst
            ),
            dang AS (
                SELECT count(*) AS cnt FROM documents d
                WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.src = d.doc_id)
            )
            SELECT d.doc_id AS vertex,
                   CAST(ROUND(((1 - 0.85) / nn.n
                         + 0.85 * (COALESCE(contrib.c, 0)
                                   + dang.cnt * 1.0 / nn.n / nn.n)) * 1e9)
                        AS BIGINT) AS rank_e9
            FROM documents d CROSS JOIN nn CROSS JOIN dang
            LEFT JOIN contrib ON contrib.v = d.doc_id
        """,
        "graph_cc_nation": """
            SELECT CAST(r_regionkey AS BIGINT) AS vertex,
                   CAST(r_regionkey AS BIGINT) AS component FROM region
            UNION ALL
            SELECT CAST(5 + n_nationkey AS BIGINT),
                   CAST(n_regionkey AS BIGINT) FROM nation
        """,
        "graph_triangles_supplier": f"""
            WITH {_SUPPLIER_EDGES_CTE},
            tri AS (
                SELECT e1.u AS a, e1.v AS b, e2.v AS c
                FROM und e1 JOIN und e2 ON e2.u = e1.v
                JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v
            ),
            corners AS (SELECT a AS s FROM tri UNION ALL SELECT b FROM tri
                        UNION ALL SELECT c FROM tri)
            SELECT s AS s_suppkey, CAST(count(*) AS BIGINT) AS triangles
            FROM corners GROUP BY s
        """,
        "graph_lp_onepass": f"""
            WITH {_SUPPLIER_EDGES_CTE}
            SELECT dst AS s_suppkey, CAST(min(src) AS BIGINT) AS label
            FROM arcs GROUP BY dst
        """,
        "rel_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(ROUND(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_c,
                   CAST(ROUND(sum(l_extendedprice) * 100) AS BIGINT) AS sum_base_price_c,
                   CAST(ROUND(sum(l_extendedprice * (1 - l_discount)) * 1e4)
                        AS BIGINT) AS sum_disc_price_c4,
                   CAST(FLOOR(CAST(ROUND(sum(l_quantity) * 100) AS BIGINT)
                              * 1e4 / count(*)) AS BIGINT) AS avg_qty_micro,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "rel_top_revenue_orders": """
            SELECT o_orderkey,
                   CAST(ROUND(revenue * 1e4) AS BIGINT) AS revenue_c4 FROM (
                SELECT l.l_orderkey AS o_orderkey,
                       sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
                FROM lineitem l
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                JOIN customer c ON c.c_custkey = o.o_custkey
                WHERE c.c_mktsegment = 'BUILDING'
                GROUP BY l.l_orderkey
            ) ORDER BY revenue DESC, o_orderkey LIMIT 10
        """,
        "rel_order_priority": """
            SELECT o_orderpriority, count(*) AS n_orders
            FROM orders WHERE o_orderstatus = 'O'
            GROUP BY o_orderpriority
        """,
        "rel_events_hourly": """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                   count(*) AS n_events,
                   CAST(ROUND(sum(value) * 1e6) AS BIGINT) AS sum_value_micro
            FROM events GROUP BY 1, 2
        """,
        "rel_json_extract": """
            -- typed extraction of the integer "k" field from the JSON
            -- props column (regexp on both engines: no json-extension
            -- dependency, identical integer semantics)
            SELECT event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1)
                                 AS BIGINT)) AS BIGINT) AS sum_k,
                   CAST(max(CAST(regexp_extract(props, '"k":\\s*(-?\\d+)', 1)
                                 AS BIGINT)) AS BIGINT) AS max_k
            FROM events GROUP BY event_type
        """,
        "rel_distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
            FROM events GROUP BY event_type
        """,
        "rel_anti_join": """
            -- customers with NO click events, per market segment (Q22
            -- shape); balances floored to integer cents before summing
            SELECT c.c_mktsegment,
                   count(*) AS n_customers,
                   CAST(sum(CAST(FLOOR(c.c_acctbal * 100.0) AS BIGINT))
                        AS BIGINT) AS sum_acctbal_e2
            FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM events e
                              WHERE e.user_id = c.c_custkey)
            GROUP BY c.c_mktsegment
        """,
        "rel_semi_join": """
            -- customers WITH at least one click event (semi-join
            -- complement of rel_anti_join)
            SELECT c.c_mktsegment,
                   count(*) AS n_customers,
                   CAST(sum(CAST(FLOOR(c.c_acctbal * 100.0) AS BIGINT))
                        AS BIGINT) AS sum_acctbal_e2
            FROM customer c
            WHERE EXISTS (SELECT 1 FROM events e
                          WHERE e.user_id = c.c_custkey)
            GROUP BY c.c_mktsegment
        """,
        "rel_unpivot": """
            -- UNPIVOT the part table's numeric attrs to long form,
            -- then aggregate per attribute (exact integer scaling)
            WITH long AS (
                SELECT 'p_size' AS attr,
                       CAST(p_size AS BIGINT) * 100 AS value_e2
                FROM part
                UNION ALL
                SELECT 'p_retailprice',
                       CAST(ROUND(p_retailprice * 100) AS BIGINT)
                FROM part)
            SELECT attr, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(value_e2) AS BIGINT) AS sum_value_e2,
                   CAST(MAX(value_e2) AS BIGINT) AS max_value_e2
            FROM long GROUP BY attr ORDER BY attr
        """,
        "rel_topk_per_brand": """
            -- grouped top-3 by retail price per brand, ties -> smallest
            -- partkey; both engines read the identical parquet doubles
            -- so DESC-order equality is exact
            SELECT p_brand, p_partkey,
                   CAST(FLOOR(p_retailprice * 100.0) AS BIGINT) AS price_e2,
                   CAST(rnk AS BIGINT) AS rnk
            FROM (
                SELECT p_brand, p_partkey, p_retailprice,
                       row_number() OVER (
                           PARTITION BY p_brand
                           ORDER BY p_retailprice DESC, p_partkey
                       ) AS rnk
                FROM part
            )
            WHERE rnk <= 3
            ORDER BY p_brand, rnk
        """,
        "rel_range_join": """
            -- trailing 90-day self range join + aggregate: per order,
            -- count and integer-cent price sum of the same customer's
            -- orders dated within [o_orderdate - 90 days, o_orderdate]
            -- inclusive (every order matches itself, so n_orders >= 1)
            SELECT a.o_orderkey,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(FLOOR(b.o_totalprice * 100.0) AS BIGINT))
                        AS BIGINT) AS sum_price_e2
            FROM orders a
            JOIN orders b
              ON b.o_custkey = a.o_custkey
             AND b.o_orderdate <= a.o_orderdate
             AND b.o_orderdate >= a.o_orderdate - INTERVAL 90 DAY
            GROUP BY a.o_orderkey
            ORDER BY a.o_orderkey
        """,
        "rel_window_hourly": """
            -- trailing 3-hour sliding window per event_type: each event
            -- contributes to the 3 window-end hours [h, h+2]; values are
            -- floored to integer micro-units BEFORE summing (order-free)
            WITH ev AS (
                SELECT event_type,
                       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                       CAST(FLOOR(value * 1e6) AS BIGINT) AS v_micro
                FROM events
            )
            SELECT ev.event_type,
                   ev.hour + d.o AS window_end_hour,
                   count(*) AS n_events,
                   CAST(sum(ev.v_micro) AS BIGINT) AS sum_value_micro
            FROM ev CROSS JOIN (SELECT unnest(generate_series(0, 2)) AS o) d
            GROUP BY 1, 2
        """,
        "rel_sessions_per_user": """
            WITH e AS (
                SELECT user_id, ts,
                       lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
                FROM events
            )
            SELECT user_id,
                   CAST(1 + sum(CASE WHEN prev IS NOT NULL
                                      AND epoch(ts - prev) > 1800
                                     THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions,
                   count(*) AS n_events
            FROM e GROUP BY user_id
        """,
        "rel_rollup": """
            -- ROLLUP(p_brand, p_type); rolled-up dims surface as
            -- the 'ALL' sentinel (part has no real NULLs), prices
            -- floored to cents before summing on both engines
            SELECT COALESCE(p_brand, 'ALL') AS p_brand,
                   COALESCE(p_type, 'ALL') AS p_type,
                   count(*) AS n_parts,
                   CAST(sum(CAST(FLOOR(p_retailprice * 100.0) AS BIGINT))
                        AS BIGINT) AS sum_price_e2
            FROM part
            GROUP BY ROLLUP (p_brand, p_type)
        """,
        "rel_cube": """
            -- CUBE(p_brand, p_type), 'ALL' sentinels, floored cents
            SELECT COALESCE(p_brand, 'ALL') AS p_brand,
                   COALESCE(p_type, 'ALL') AS p_type,
                   count(*) AS n_parts,
                   CAST(sum(CAST(FLOOR(p_retailprice * 100.0) AS BIGINT))
                        AS BIGINT) AS sum_price_e2
            FROM part
            GROUP BY CUBE (p_brand, p_type)
        """,
        "rel_percentiles": """
            -- exact k-th order statistic, k = ceil(q*N) (1-based);
            -- the selected element is a real double from the column,
            -- floored to cents on both engines
            WITH t AS (SELECT l_extendedprice AS v FROM lineitem),
            n AS (SELECT count(*) AS c FROM t),
            ks AS (SELECT q_e2, (n.c * q_e2 + 99) // 100 AS k
                   FROM (VALUES (50), (90), (99)) q(q_e2) CROSS JOIN n),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM t)
            SELECT CAST(ks.q_e2 AS BIGINT) AS q_e2,
                   CAST(FLOOR(r.v * 100.0) AS BIGINT) AS value_e2
            FROM ks JOIN r ON r.rn = ks.k
        """,
        "rel_attribution": """
            -- last-touch attribution: each purchase's cents credit
            -- the user's most recent preceding non-purchase event's
            -- page within 7 days ((ts, event_id) order); packed
            -- (seq*1024 + node) carry-forward window max
            WITH o AS (
                SELECT user_id, event_id, event_type,
                       epoch_us(ts) AS tus,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS node,
                       CAST(ROUND(value * 100) AS BIGINT) AS cents,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS seq
                FROM events),
            w AS (SELECT *,
                         MAX(CASE WHEN event_type <> 'purchase'
                                  THEN seq * 1024 + node END)
                             OVER (PARTITION BY user_id ORDER BY seq
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING) AS pk
                  FROM o),
            conv AS (SELECT w.user_id, w.cents, w.tus,
                            w.pk // 1024 AS pseq, w.pk % 1024 AS pnode
                     FROM w
                     WHERE event_type = 'purchase' AND pk IS NOT NULL),
            att AS (SELECT c.pnode AS node, c.cents
                    FROM conv c JOIN o p ON p.user_id = c.user_id
                                        AND p.seq = c.pseq
                    WHERE c.tus - p.tus <= 7 * 86400 * CAST(1000000
                                                            AS BIGINT))
            SELECT node, CAST(COUNT(*) AS BIGINT) AS n_conversions,
                   CAST(SUM(cents) AS BIGINT) AS revenue_cents
            FROM att GROUP BY node ORDER BY node
        """,
        "rel_entry_exit": """
            -- session entry/exit/bounce page counts (30-min gap
            -- sessions, (ts, event_id) order); only pages that are
            -- some session's boundary appear (the engine emits
            -- boundary nodes only)
            WITH o AS (
                SELECT user_id, event_id, epoch_us(ts) AS tus,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS node,
                       lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev
                FROM events),
            f AS (SELECT *, CASE WHEN prev IS NULL
                                      OR tus - prev > 1800000000
                                 THEN 1 ELSE 0 END AS new_s
                  FROM o),
            s AS (SELECT user_id, node, tus, event_id,
                         SUM(new_s) OVER (
                             PARTITION BY user_id
                             ORDER BY tus, event_id
                             ROWS UNBOUNDED PRECEDING) AS seq
                  FROM f),
            m AS MATERIALIZED (
                SELECT node,
                       row_number() OVER (PARTITION BY user_id, seq
                                          ORDER BY tus, event_id) AS rn,
                       COUNT(*) OVER (PARTITION BY user_id, seq) AS ne
                FROM s),
            entry AS (SELECT node, COUNT(*) AS c FROM m
                      WHERE rn = 1 GROUP BY node),
            exitt AS (SELECT node, COUNT(*) AS c FROM m
                      WHERE rn = ne GROUP BY node),
            bounce AS (SELECT node, COUNT(*) AS c FROM m
                       WHERE rn = 1 AND ne = 1 GROUP BY node),
            nodes AS (SELECT node FROM entry UNION
                      SELECT node FROM exitt UNION
                      SELECT node FROM bounce)
            SELECT n.node,
                   CAST(COALESCE(e.c, 0) AS BIGINT) AS entries,
                   CAST(COALESCE(x.c, 0) AS BIGINT) AS exits,
                   CAST(COALESCE(b.c, 0) AS BIGINT) AS bounces
            FROM nodes n
            LEFT JOIN entry e ON e.node = n.node
            LEFT JOIN exitt x ON x.node = n.node
            LEFT JOIN bounce b ON b.node = n.node
            ORDER BY n.node
        """,
        "rel_sessionize": """
            -- full session table: gap-islands (>30 min) per user,
            -- ordered by (ts, event_id); timestamps as epoch µs
            WITH o AS (
                SELECT user_id, event_id, epoch_us(ts) AS tus,
                       lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev
                FROM events
            ),
            f AS (
                SELECT user_id, event_id, tus,
                       CASE WHEN prev IS NULL
                                 OR tus - prev > 30 * 60 * 1000000
                            THEN 1 ELSE 0 END AS new_s
                FROM o
            ),
            nbr AS (
                SELECT user_id, tus,
                       SUM(new_s) OVER (
                           PARTITION BY user_id ORDER BY tus, event_id
                           ROWS UNBOUNDED PRECEDING
                       ) AS session_seq
                FROM f
            )
            SELECT user_id,
                   CAST(session_seq AS BIGINT) AS session_seq,
                   count(*) AS n_events,
                   CAST(min(tus) AS BIGINT) AS start_us,
                   CAST(max(tus) - min(tus) AS BIGINT) AS dur_us
            FROM nbr GROUP BY user_id, session_seq
        """,
        "rel_percentile_cont": """
            -- PERCENTILE_CONT parity, exact x100 integers:
            -- idx100 = (n-1)*q; v_lo*(100-frac) + v_hi*frac
            WITH v AS (SELECT CAST(ROUND(l_quantity) AS BIGINT) AS x
                       FROM lineitem),
            nn AS (SELECT COUNT(*) AS n FROM v),
            ord AS (SELECT x, row_number() OVER (ORDER BY x) AS r
                    FROM v),
            q(q) AS (VALUES (25), (50), (75), (90)),
            pos AS (SELECT q.q, nn.n, (nn.n - 1) * q.q AS idx100
                    FROM q CROSS JOIN nn),
            sel AS (SELECT p.q,
                           (SELECT x FROM ord
                            WHERE r = p.idx100 // 100 + 1) AS vlo,
                           (SELECT x FROM ord
                            WHERE r = LEAST(p.idx100 // 100 + 2, p.n))
                               AS vhi,
                           p.idx100 % 100 AS frac
                    FROM pos p)
            SELECT CAST(q AS BIGINT) AS q_e2,
                   CAST(vlo * (100 - frac) + vhi * frac AS BIGINT)
                       AS value_x100
            FROM sel ORDER BY q_e2
        """,
        "rel_scd_intervals": """
            -- SCD-2 interval reconstruction: per (user, type) each
            -- event is valid until the next event of that key
            SELECT user_id, event_type, event_id,
                   CAST(epoch_us(ts) AS BIGINT) AS valid_from_us,
                   CAST(COALESCE(lead(epoch_us(ts)) OVER (
                        PARTITION BY user_id, event_type
                        ORDER BY epoch_us(ts), event_id), -1)
                        AS BIGINT) AS valid_to_us
            FROM events
        """,
        "rel_q3_shipping": """
            -- TPC-H Q3 shape: top-10 unshipped BUILDING orders by
            -- exact e4 revenue (cents * (100 - discount pct));
            -- cutoff day 10227 = 1998-01-01
            WITH c AS (SELECT c_custkey FROM customer
                       WHERE c_mktsegment = 'BUILDING'),
            o AS (SELECT o_orderkey,
                         CAST(epoch_us(o_orderdate) // 86400000000
                              AS BIGINT) AS o_day
                  FROM orders
                  WHERE o_custkey IN (SELECT c_custkey FROM c)
                    AND epoch_us(o_orderdate) // 86400000000 < 10227),
            l AS (SELECT l_orderkey,
                         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                             AS rev
                  FROM lineitem
                  WHERE epoch_us(l_shipdate) // 86400000000 > 10227)
            SELECT l.l_orderkey, o.o_day,
                   CAST(SUM(l.rev) AS BIGINT) AS revenue_e4
            FROM l JOIN o ON o.o_orderkey = l.l_orderkey
            GROUP BY 1, 2
            ORDER BY revenue_e4 DESC, l_orderkey LIMIT 10
        """,
        "rel_rfm": """
            -- RFM quintile segmentation of purchasers; explicit rank
            -- formula 1 + (rank-1)*5 // n (engine-stable, not NTILE)
            WITH p AS (
                SELECT user_id,
                       CAST(MAX(epoch_us(ts) // 86400000000) AS BIGINT)
                           AS r_day,
                       CAST(COUNT(*) AS BIGINT) AS f_n,
                       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT))
                            AS BIGINT) AS m_cents
                FROM events WHERE event_type = 'purchase'
                GROUP BY user_id),
            nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM p),
            r AS (SELECT p.*,
                         row_number() OVER (ORDER BY r_day, user_id)
                             AS rr,
                         row_number() OVER (ORDER BY f_n, user_id)
                             AS rf,
                         row_number() OVER (ORDER BY m_cents, user_id)
                             AS rm
                  FROM p)
            SELECT user_id, r_day, f_n, m_cents,
                   CAST(1 + (rr - 1) * 5 // nn.n AS BIGINT) AS r_score,
                   CAST(1 + (rf - 1) * 5 // nn.n AS BIGINT) AS f_score,
                   CAST(1 + (rm - 1) * 5 // nn.n AS BIGINT) AS m_score,
                   CAST(100 * (1 + (rr - 1) * 5 // nn.n)
                        + 10 * (1 + (rf - 1) * 5 // nn.n)
                        + (1 + (rm - 1) * 5 // nn.n) AS BIGINT) AS rfm
            FROM r CROSS JOIN nn ORDER BY user_id
        """,
        "rel_gaps_islands": """
            -- gaps-and-islands on the distinct order-day axis:
            -- contiguous runs via the day - dense_rank constant
            WITH d AS (SELECT CAST(epoch_us(o_orderdate) // 86400000000
                              AS BIGINT) AS day,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM orders GROUP BY 1),
            g AS (SELECT day, n,
                         day - row_number() OVER (ORDER BY day) AS grp
                  FROM d)
            SELECT CAST(row_number() OVER (ORDER BY MIN(day)) AS BIGINT)
                       AS island_seq,
                   CAST(MIN(day) AS BIGINT) AS start_day,
                   CAST(MAX(day) AS BIGINT) AS end_day,
                   CAST(MAX(day) - MIN(day) + 1 AS BIGINT) AS n_days,
                   CAST(SUM(n) AS BIGINT) AS n_orders
            FROM g GROUP BY grp ORDER BY island_seq
        """,
        "rel_basket_rules": """
            -- association rules over the top-20 copurchase pairs
            -- (both directions, support >= 2): exact integer
            -- confidence and lift rationals
            WITH dp AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p
                        FROM lineitem),
            pc AS (SELECT a.p AS pa2, b.p AS pb,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM dp a JOIN dp b ON b.o = a.o AND a.p < b.p
                   GROUP BY 1, 2),
            top AS (SELECT pa2 AS a, pb AS b, n FROM pc
                    ORDER BY n DESC, pa2, pb LIMIT 20),
            topf AS (SELECT * FROM top WHERE n >= 2),
            item AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS ni
                     FROM dp GROUP BY p),
            nt AS (SELECT CAST(COUNT(DISTINCT o) AS BIGINT) AS n
                   FROM dp),
            rules AS (SELECT a AS ante, b AS cons, n FROM topf
                      UNION ALL SELECT b, a, n FROM topf)
            SELECT r.ante, r.cons, r.n AS n_both, ia.ni AS n_ante,
                   CAST(r.n * 1000000 // ia.ni AS BIGINT) AS conf_e6,
                   CAST(r.n * nt.n * 1000000 // (ia.ni * ic.ni)
                        AS BIGINT) AS lift_e6
            FROM rules r JOIN item ia ON ia.p = r.ante
                         JOIN item ic ON ic.p = r.cons
                         CROSS JOIN nt
            ORDER BY ante, cons
        """,
        "rel_q18_large_orders": """
            -- TPC-H Q18 shape: orders whose total lineitem quantity
            -- >= 200, top-100 by (o_totalprice desc, orderkey asc)
            WITH s AS (SELECT l_orderkey,
                              CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT))
                                   AS BIGINT) AS sum_qty
                       FROM lineitem GROUP BY l_orderkey
                       HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT))
                              >= 200)
            SELECT c.c_name, c.c_custkey, s.l_orderkey,
                   CAST(epoch_us(o.o_orderdate) // 86400000000
                        AS BIGINT) AS o_day,
                   CAST(ROUND(o.o_totalprice * 100) AS BIGINT)
                       AS total_cents,
                   s.sum_qty
            FROM s JOIN orders o ON o.o_orderkey = s.l_orderkey
                   JOIN customer c ON c.c_custkey = o.o_custkey
            ORDER BY total_cents DESC, s.l_orderkey LIMIT 100
        """,
        "rel_q2_min_cost": """
            -- TPC-H Q2 shape (no partsupp in fixture): min unit-price
            -- supplier per part from lineitem; argmin via the same
            -- packed key unitp_e2 * 2^20 + suppkey the engine uses
            WITH u AS (
                SELECT l_partkey,
                       MIN((CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            // GREATEST(CAST(ROUND(l_quantity) AS BIGINT),
                                        1)) * 1048576
                           + l_suppkey) AS k
                FROM lineitem GROUP BY l_partkey)
            SELECT u.l_partkey AS p_partkey,
                   CAST(u.k // 1048576 AS BIGINT) AS unitp_e2,
                   CAST(u.k % 1048576 AS BIGINT) AS s_suppkey,
                   s.s_name
            FROM u JOIN supplier s ON s.s_suppkey = u.k % 1048576
            ORDER BY p_partkey
        """,
        "rel_q5_local_volume": """
            -- TPC-H Q5 shape: revenue where customer and supplier sit
            -- in the SAME nation, per (region, nation), orders in
            -- [1995-01-01, 1998-01-01); exact e4 revenue units
            SELECT r.r_name, n.n_name,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100)
                                 AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_e4
            FROM customer c, orders o, lineitem l, supplier s,
                 nation n, region r
            WHERE c.c_custkey = o.o_custkey
              AND l.l_orderkey = o.o_orderkey
              AND l.l_suppkey = s.s_suppkey
              AND c.c_nationkey = s.s_nationkey
              AND s.s_nationkey = n.n_nationkey
              AND n.n_regionkey = r.r_regionkey
              AND o.o_orderdate >= DATE '1995-01-01'
              AND o.o_orderdate < DATE '1998-01-01'
            GROUP BY r.r_name, n.n_name
            ORDER BY revenue_e4 DESC, n.n_name
        """,
        "rel_q6_forecast": """
            -- TPC-H Q6 shape: revenue uplift of discounts 3..7 e2 on
            -- small-quantity lineitems shipped inside one year
            WITH f AS (
                SELECT CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                           AS cents,
                       CAST(ROUND(l_discount * 100) AS BIGINT) AS disc,
                       CAST(ROUND(l_quantity) AS BIGINT) AS qty,
                       CAST(epoch_us(l_shipdate) // 86400000000
                            AS BIGINT) AS day
                FROM lineitem)
            SELECT CAST(COALESCE(SUM(cents * disc), 0) AS BIGINT)
                       AS revenue_e4,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM f
            WHERE day >= 9496 AND day < 9862
              AND disc BETWEEN 3 AND 7 AND qty < 24
        """,
        "rel_q13_custdist": """
            -- TPC-H Q13 shape: order-count distribution per customer
            -- incl. the zero-order bucket; one priority class excluded
            WITH oc AS (
                SELECT o_custkey, COUNT(*) AS c_count
                FROM orders
                WHERE o_orderpriority <> '4-NOT SPECIFIED'
                GROUP BY o_custkey),
            allc AS (
                SELECT c.c_custkey, COALESCE(oc.c_count, 0) AS c_count
                FROM customer c
                LEFT JOIN oc ON oc.o_custkey = c.c_custkey)
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   CAST(COUNT(*) AS BIGINT) AS custdist
            FROM allc GROUP BY c_count
            ORDER BY custdist DESC, c_count DESC
        """,
        "rel_q14_promo": """
            -- TPC-H Q14 shape: promo-part share of one month's
            -- discounted revenue; pct as HUGEINT-safe floor e6
            WITH f AS (
                SELECT l_partkey,
                       CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l_discount * 100)
                                         AS BIGINT)) AS rev,
                       CAST(epoch_us(l_shipdate) // 86400000000
                            AS BIGINT) AS day
                FROM lineitem),
            w AS (
                SELECT f.rev, (p.p_type = 'PROMO') AS is_promo
                FROM f JOIN part p ON p.p_partkey = f.l_partkey
                WHERE f.day >= 9740 AND f.day < 9770)
            SELECT CAST(COALESCE(SUM(CASE WHEN is_promo THEN rev
                                          ELSE 0 END), 0) AS BIGINT)
                       AS promo_e4,
                   CAST(COALESCE(SUM(rev), 0) AS BIGINT) AS total_e4,
                   CAST(CASE WHEN COALESCE(SUM(rev), 0) = 0 THEN 0
                             ELSE (100000000 *
                                   SUM(CASE WHEN is_promo THEN rev
                                            ELSE 0 END)) // SUM(rev)
                        END AS BIGINT) AS promo_pct_e6
            FROM w
        """,
        "rel_q17_small_qty": """
            -- TPC-H Q17 shape: revenue of lineitems below 20% of
            -- their part's average quantity, one brand; the average
            -- predicate exact in integers (5*qty*cnt < sum)
            WITH pr AS (SELECT p_partkey FROM part
                        WHERE p_brand = 'Brand#23'),
            f AS (
                SELECT l.l_partkey AS pk,
                       CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           AS cents
                FROM lineitem l
                JOIN pr ON pr.p_partkey = l.l_partkey),
            st AS (
                SELECT pk, CAST(SUM(qty) AS BIGINT) AS sum_qty,
                       CAST(COUNT(*) AS BIGINT) AS n_li
                FROM f GROUP BY pk)
            SELECT CAST(COALESCE(SUM(f.cents), 0) AS BIGINT)
                       AS total_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_small,
                   CAST(COALESCE(SUM(f.cents), 0) // 7 AS BIGINT)
                       AS avg_yearly_e2
            FROM f JOIN st ON st.pk = f.pk
            WHERE 5 * f.qty * st.n_li < st.sum_qty
        """,
        "rel_q21_late_supplier": """
            -- TPC-H Q21 shape (adapted: no commit/receipt dates in
            -- fixture): latest shipper per finished multi-supplier
            -- order via the packed argmax day*2^20+suppkey
            WITH pp AS (
                SELECT l_orderkey, l_suppkey,
                       MAX(CAST(epoch_us(l_shipdate) // 86400000000
                                AS BIGINT)) AS last_day
                FROM lineitem GROUP BY l_orderkey, l_suppkey),
            po AS (
                SELECT l_orderkey, COUNT(*) AS n_supp,
                       MAX(last_day * 1048576 + l_suppkey) AS latest
                FROM pp GROUP BY l_orderkey
                HAVING COUNT(*) >= 2),
            fo AS (SELECT o_orderkey FROM orders
                   WHERE o_orderstatus = 'F'),
            w AS (
                SELECT CAST(po.latest % 1048576 AS BIGINT) AS s_suppkey
                FROM po JOIN fo ON fo.o_orderkey = po.l_orderkey)
            SELECT w.s_suppkey, s.s_name,
                   CAST(COUNT(*) AS BIGINT) AS numwait
            FROM w JOIN supplier s ON s.s_suppkey = w.s_suppkey
            GROUP BY w.s_suppkey, s.s_name
            ORDER BY numwait DESC, w.s_suppkey LIMIT 100
        """,
        "rel_q22_idle": """
            -- TPC-H Q22 shape: per selected nation, customers above
            -- the subset positive-average balance with no RECENT
            -- order (>= epoch day 11323; every fixture customer has
            -- some order); average exact in integers (e2*n > sum)
            WITH sel AS (
                SELECT c_custkey,
                       CAST(c_nationkey AS BIGINT) AS c_nationkey,
                       CAST(ROUND(c_acctbal * 100) AS BIGINT)
                           AS acctbal_e2
                FROM customer
                WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)),
            avgp AS (
                SELECT CAST(COALESCE(SUM(acctbal_e2), 0) AS BIGINT)
                           AS s,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM sel WHERE acctbal_e2 > 0)
            SELECT sel.c_nationkey,
                   CAST(COUNT(*) AS BIGINT) AS numcust,
                   CAST(SUM(sel.acctbal_e2) AS BIGINT) AS totacctbal_e2
            FROM sel, avgp
            WHERE sel.acctbal_e2 * avgp.n > avgp.s
              AND NOT EXISTS (
                  SELECT 1 FROM orders o
                  WHERE o.o_custkey = sel.c_custkey
                    AND epoch_us(o.o_orderdate) // 86400000000
                        >= 11323)
            GROUP BY sel.c_nationkey ORDER BY sel.c_nationkey
        """,
        "rel_q7_volume": """
            -- TPC-H Q7 shape: cross-REGION trade revenue per
            -- (supp_region, cust_region, ship year), regions {0,1}
            WITH f AS (
                SELECT l.l_orderkey,
                       CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l.l_discount * 100)
                                         AS BIGINT)) AS rev,
                       ns.n_regionkey AS s_reg,
                       CAST(epoch_us(l.l_shipdate) // 86400000000
                            AS BIGINT) AS day
                FROM lineitem l
                JOIN supplier s ON s.s_suppkey = l.l_suppkey
                JOIN nation ns ON ns.n_nationkey = s.s_nationkey)
            SELECT rs.r_name AS supp_region, rc.r_name AS cust_region,
                   f.l_year, CAST(SUM(f.rev) AS BIGINT) AS revenue_e4
            FROM f
            JOIN orders o ON o.o_orderkey = f.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation nc ON nc.n_nationkey = c.c_nationkey
            JOIN region rs ON rs.r_regionkey = f.s_reg
            JOIN region rc ON rc.r_regionkey = nc.n_regionkey
            WHERE f.day >= 9131 AND f.day < 9862
              AND f.s_reg IN (0, 1) AND nc.n_regionkey IN (0, 1)
              AND f.s_reg <> nc.n_regionkey
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "rel_q8_share": """
            -- TPC-H Q8 shape: region-3 suppliers' share of the
            -- region-2 customer market for STANDARD parts, per order
            -- year; share as truncating e6 (SUM is HUGEINT-safe)
            WITH f AS (
                SELECT l.l_orderkey,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l.l_discount * 100)
                                         AS BIGINT)) AS rev,
                       (ns.n_regionkey = 3) AS is_target
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey
                    AND p.p_type = 'STANDARD'
                JOIN supplier s ON s.s_suppkey = l.l_suppkey
                JOIN nation ns ON ns.n_nationkey = s.s_nationkey),
            w AS (
                SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                       f.rev, f.is_target
                FROM f JOIN orders o ON o.o_orderkey = f.l_orderkey
                JOIN customer c ON c.c_custkey = o.o_custkey
                JOIN nation nc ON nc.n_nationkey = c.c_nationkey
                WHERE nc.n_regionkey = 2
                  AND epoch_us(o.o_orderdate) // 86400000000 >= 9131
                  AND epoch_us(o.o_orderdate) // 86400000000 < 9862)
            SELECT o_year, CAST(SUM(rev) AS BIGINT) AS total_e4,
                   CAST(COALESCE(SUM(CASE WHEN is_target THEN rev
                                          ELSE 0 END), 0) AS BIGINT)
                       AS share_e4,
                   CAST(CASE WHEN SUM(rev) = 0 THEN 0
                        ELSE (1000000 * SUM(CASE WHEN is_target
                                                 THEN rev ELSE 0 END))
                             // SUM(rev) END AS BIGINT) AS mkt_share_e6
            FROM w GROUP BY o_year ORDER BY o_year
        """,
        "rel_q9_profit": """
            -- TPC-H Q9 shape (cost adapted to retail price): profit
            -- per (supplier nation, ship year) for '% widget' parts
            WITH f AS (
                SELECT CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
                       s.s_nationkey,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l.l_discount * 100)
                                         AS BIGINT))
                       - CAST(ROUND(l.l_quantity) AS BIGINT)
                           * CAST(ROUND(p.p_retailprice * 100)
                                  AS BIGINT) * 100 AS profit
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey
                JOIN supplier s ON s.s_suppkey = l.l_suppkey
                WHERE p.p_name LIKE '% widget')
            SELECT n.n_name, f.l_year,
                   CAST(SUM(f.profit) AS BIGINT) AS profit_e4
            FROM f JOIN nation n ON n.n_nationkey = f.s_nationkey
            GROUP BY 1, 2 ORDER BY n.n_name, f.l_year DESC
        """,
        "rel_q10_returns": """
            -- TPC-H Q10 shape: lost revenue per customer from 'R'
            -- lineitems of one quarter's orders, top 20
            WITH f AS (
                SELECT o.o_custkey,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l.l_discount * 100)
                                         AS BIGINT)) AS rev
                FROM lineitem l
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                WHERE l.l_returnflag = 'R'
                  AND epoch_us(o.o_orderdate) // 86400000000 >= 9404
                  AND epoch_us(o.o_orderdate) // 86400000000 < 9496)
            SELECT c.c_custkey, c.c_name, n.n_name,
                   CAST(ROUND(c.c_acctbal * 100) AS BIGINT)
                       AS acctbal_e2,
                   CAST(SUM(f.rev) AS BIGINT) AS revenue_e4
            FROM f JOIN customer c ON c.c_custkey = f.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            GROUP BY 1, 2, 3, 4
            ORDER BY revenue_e4 DESC, c.c_custkey LIMIT 20
        """,
        "rel_q11_value": """
            -- TPC-H Q11 shape (value = shipped qty*price; threshold =
            -- above the mean part value, exact integers)
            WITH v AS MATERIALIZED (
                SELECT l.l_partkey,
                       CAST(SUM(CAST(ROUND(l.l_quantity) AS BIGINT)
                                * CAST(ROUND(l.l_extendedprice * 100)
                                       AS BIGINT)) AS BIGINT)
                           AS value_e2
                FROM lineitem l
                JOIN supplier s ON s.s_suppkey = l.l_suppkey
                JOIN nation n ON n.n_nationkey = s.s_nationkey
                WHERE n.n_regionkey = 3 GROUP BY 1),
            tot AS (SELECT CAST(SUM(value_e2) AS HUGEINT) AS t,
                           CAST(COUNT(*) AS HUGEINT) AS n FROM v)
            SELECT v.l_partkey, v.value_e2
            FROM v, tot
            WHERE CAST(v.value_e2 AS HUGEINT) * tot.n > tot.t
            ORDER BY v.value_e2 DESC, v.l_partkey
        """,
        "rel_q12_priority": """
            -- TPC-H Q12 shape (shipmode adapted to ship-delay
            -- buckets): high- vs low-priority line counts per bucket
            WITH f AS (
                SELECT CAST(epoch_us(l.l_shipdate) // 86400000000
                            AS BIGINT)
                       - CAST(epoch_us(o.o_orderdate) // 86400000000
                              AS BIGINT) AS delay,
                       CASE WHEN o.o_orderpriority IN
                                 ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END AS hi
                FROM lineitem l
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                WHERE epoch_us(l.l_shipdate) // 86400000000 >= 9496
                  AND epoch_us(l.l_shipdate) // 86400000000 < 9862)
            SELECT CASE WHEN delay < 30 THEN 'UNDER_30'
                        WHEN delay < 90 THEN 'D30_TO_89'
                        ELSE 'D90_PLUS' END AS delay_bucket,
                   CAST(SUM(hi) AS BIGINT) AS high_line_count,
                   CAST(SUM(1 - hi) AS BIGINT) AS low_line_count
            FROM f GROUP BY 1 ORDER BY 1
        """,
        "rel_q15_top_supplier": """
            -- TPC-H Q15 shape: all suppliers tied at the max quarter
            -- revenue (exact integers make the tie well-defined)
            WITH r AS MATERIALIZED (
                SELECT l_suppkey,
                       CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                     AS BIGINT)
                                * (100 - CAST(ROUND(l_discount * 100)
                                              AS BIGINT))) AS BIGINT)
                           AS total_revenue_e4
                FROM lineitem
                WHERE epoch_us(l_shipdate) // 86400000000 >= 9496
                  AND epoch_us(l_shipdate) // 86400000000 < 9587
                GROUP BY 1)
            SELECT s.s_suppkey, s.s_name, r.total_revenue_e4
            FROM r JOIN supplier s ON s.s_suppkey = r.l_suppkey
            WHERE r.total_revenue_e4 =
                  (SELECT MAX(total_revenue_e4) FROM r)
            ORDER BY s.s_suppkey
        """,
        "rel_q16_partcount": """
            -- TPC-H Q16 shape: distinct suppliers per (brand, type,
            -- size) from the observed supplies relation, exclusions
            -- applied (complaint list = suppkey % 4 == 0)
            WITH su AS (
                SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
                WHERE l_suppkey % 4 <> 0)
            SELECT p.p_brand, p.p_type,
                   CAST(p.p_size AS BIGINT) AS p_size,
                   CAST(COUNT(DISTINCT su.l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM su JOIN part p ON p.p_partkey = su.l_partkey
            WHERE p.p_brand <> 'Brand#5' AND p.p_type <> 'PROMO'
              AND p.p_size IN (1, 5, 10, 15, 20, 25, 30, 35)
            GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p.p_brand, p.p_type, p_size
        """,
        "rel_q19_disjunct": """
            -- TPC-H Q19 shape: 3-clause disjunctive (brand, qty
            -- range, size range) predicate; disjoint brands => the
            -- revenue also reports per clause
            WITH f AS (
                SELECT CASE
                    WHEN p.p_brand = 'Brand#12'
                         AND CAST(ROUND(l.l_quantity) AS BIGINT)
                             BETWEEN 1 AND 11
                         AND p.p_size BETWEEN 1 AND 20 THEN 1
                    WHEN p.p_brand = 'Brand#23'
                         AND CAST(ROUND(l.l_quantity) AS BIGINT)
                             BETWEEN 10 AND 20
                         AND p.p_size BETWEEN 1 AND 30 THEN 2
                    WHEN p.p_brand = 'Brand#24'
                         AND CAST(ROUND(l.l_quantity) AS BIGINT)
                             BETWEEN 20 AND 30
                         AND p.p_size BETWEEN 1 AND 40 THEN 3
                    ELSE 0 END AS clause,
                       CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(ROUND(l.l_discount * 100)
                                         AS BIGINT)) AS rev
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey)
            SELECT CAST(clause AS BIGINT) AS clause,
                   CAST(SUM(rev) AS BIGINT) AS revenue_e4,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM f WHERE clause > 0 GROUP BY 1 ORDER BY 1
        """,
        "rel_q20_promo": """
            -- TPC-H Q20 shape (availqty adapted to a majority-share
            -- test on shipped quantity): region-0 suppliers shipping
            -- > half of some 'large %' part's total
            WITH pq AS MATERIALIZED (
                SELECT l.l_partkey, l.l_suppkey,
                       CAST(SUM(CAST(ROUND(l.l_quantity) AS BIGINT))
                            AS BIGINT) AS sq
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey
                WHERE p.p_name LIKE 'large %'
                  AND epoch_us(l.l_shipdate) // 86400000000 >= 9131
                  AND epoch_us(l.l_shipdate) // 86400000000 < 9862
                GROUP BY 1, 2),
            tot AS (SELECT l_partkey, CAST(SUM(sq) AS BIGINT) AS tq
                    FROM pq GROUP BY 1),
            win AS (SELECT DISTINCT pq.l_suppkey
                    FROM pq JOIN tot ON tot.l_partkey = pq.l_partkey
                    WHERE 2 * pq.sq > tot.tq)
            SELECT s.s_suppkey, s.s_name
            FROM win JOIN supplier s ON s.s_suppkey = win.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            WHERE n.n_regionkey = 0 ORDER BY s.s_suppkey
        """,
        "rel_hll_users": """
            -- HyperLogLog distinct-user audit vs the exact count:
            -- h = (u*K1+K2) mod 2^64 (HUGEINT), bucket = top 6 bits,
            -- rho via exact powers-of-two bit length (no float log2);
            -- raw estimate e = (alpha_e6*m^2*2^59) // (1e6*S), then the
            -- small-range linear-counting branch: with V empty
            -- registers, V > 0 and 2e <= 5m the estimate is
            -- m*(floor(1e6*ln m) - floor(1e6*ln V)) // 1e6
            WITH RECURSIVE pw(k, v) AS (
                SELECT 0, CAST(1 AS HUGEINT)
                UNION ALL SELECT k + 1, v * 2 FROM pw WHERE k < 60),
            u AS (SELECT DISTINCT user_id FROM events),
            h AS (SELECT (CAST(user_id AS HUGEINT)
                          * 11400714819323198485::HUGEINT
                          + 1442695040888963407::HUGEINT)
                         % 18446744073709551616::HUGEINT AS h FROM u),
            f AS (SELECT h // 288230376151711744::HUGEINT AS bucket,
                         h % 288230376151711744::HUGEINT AS rest
                  FROM h),
            bl AS (SELECT f.bucket,
                          COALESCE((SELECT MAX(pw.k) + 1 FROM pw
                                    WHERE pw.k <= 57
                                      AND pw.v <= f.rest), 0) AS bl
                   FROM f),
            reg AS (SELECT bucket,
                           CAST(MAX(59 - bl) AS BIGINT) AS maxrho
                    FROM bl GROUP BY 1),
            allb AS (SELECT t.j AS bucket,
                            COALESCE(reg.maxrho, 0) AS maxrho
                     FROM range(64) t(j)
                     LEFT JOIN reg ON reg.bucket = t.j),
            S AS (SELECT CAST(SUM((SELECT v FROM pw
                                   WHERE k = 59 - allb.maxrho))
                              AS HUGEINT) AS s FROM allb),
            ex AS (SELECT CAST(count(*) AS BIGINT) AS n FROM u),
            raw AS (SELECT CAST((709000::HUGEINT * 64 * 64
                                 * 576460752303423488::HUGEINT)
                                // (1000000::HUGEINT * S.s) AS BIGINT)
                        AS e FROM S),
            zv AS (SELECT CAST(count(*) AS BIGINT) AS v
                   FROM allb WHERE maxrho = 0),
            est AS (SELECT CASE
                        WHEN zv.v > 0 AND 2 * raw.e <= 5 * 64
                        THEN (64 * (CAST(FLOOR(1e6 * ln(64)) AS BIGINT)
                                    - CAST(FLOOR(1e6 * ln(zv.v)) AS BIGINT)))
                             // 1000000
                        ELSE raw.e END AS n_est
                    FROM raw, zv)
            SELECT CAST(64 AS BIGINT) AS m, ex.n AS n_exact,
                   est.n_est,
                   CAST((1000000 * ABS(est.n_est - ex.n))
                        // GREATEST(ex.n, 1) AS BIGINT) AS err_e6
            FROM ex, est
        """,
        "rel_rolling_active": """
            -- rolling 7-day active users: each distinct (day, user)
            -- fact supports the 7 target days it falls in
            WITH du AS MATERIALIZED (
                SELECT DISTINCT CAST(epoch_us(ts) // 86400000000
                                     AS BIGINT) AS day, user_id
                FROM events),
            dau AS (SELECT day, CAST(count(*) AS BIGINT) AS dau
                    FROM du GROUP BY 1),
            exp AS (SELECT DISTINCT du.day + t.j AS day, du.user_id
                    FROM du, range(7) t(j)),
            wau AS (SELECT day, CAST(count(*) AS BIGINT) AS wau
                    FROM exp GROUP BY 1)
            SELECT d.day, d.dau, w.wau
            FROM dau d JOIN wau w USING (day) ORDER BY d.day
        """,
        "rel_holt": """
            -- Holt double exponential smoothing of daily revenue,
            -- alpha=.2 beta=.1 as x1e3 integers; sign-split // since
            -- the trend goes negative; init l1=x1, b1=x2-x1
            WITH RECURSIVE d0 AS (
                SELECT CAST(epoch_us(o_orderdate) // 86400000000
                            AS BIGINT) AS day,
                       CAST(SUM(CAST(ROUND(o_totalprice * 100)
                                     AS BIGINT)) AS BIGINT) AS x
                FROM orders GROUP BY 1),
            d AS MATERIALIZED (
                SELECT day, x, row_number() OVER (ORDER BY day) AS rn
                FROM d0),
            h(rn, l, b) AS (
                SELECT CAST(1 AS BIGINT), d1.x, d2.x - d1.x
                FROM d d1, d d2 WHERE d1.rn = 1 AND d2.rn = 2
                UNION ALL
                SELECT h.rn + 1,
                       CASE WHEN 200 * d.x + 800 * (h.l + h.b) >= 0
                            THEN (200 * d.x + 800 * (h.l + h.b)) // 1000
                            ELSE -((-(200 * d.x + 800 * (h.l + h.b)))
                                   // 1000) END,
                       CASE WHEN 100 * (CASE WHEN 200 * d.x
                                 + 800 * (h.l + h.b) >= 0
                                 THEN (200 * d.x + 800 * (h.l + h.b))
                                      // 1000
                                 ELSE -((-(200 * d.x
                                           + 800 * (h.l + h.b)))
                                        // 1000) END - h.l)
                            + 900 * h.b >= 0
                            THEN (100 * (CASE WHEN 200 * d.x
                                 + 800 * (h.l + h.b) >= 0
                                 THEN (200 * d.x + 800 * (h.l + h.b))
                                      // 1000
                                 ELSE -((-(200 * d.x
                                           + 800 * (h.l + h.b)))
                                        // 1000) END - h.l)
                                  + 900 * h.b) // 1000
                            ELSE -((-(100 * (CASE WHEN 200 * d.x
                                 + 800 * (h.l + h.b) >= 0
                                 THEN (200 * d.x + 800 * (h.l + h.b))
                                      // 1000
                                 ELSE -((-(200 * d.x
                                           + 800 * (h.l + h.b)))
                                        // 1000) END - h.l)
                                     + 900 * h.b)) // 1000) END
                FROM h JOIN d ON d.rn = h.rn + 1)
            SELECT d.day, h.l AS level_c, h.b AS trend_c
            FROM h JOIN d USING (rn) ORDER BY d.day
        """,
        "rel_autocorr": """
            -- lag-1 autocorrelation of daily order revenue: exact
            -- integer sufficient stats over consecutive-day pairs,
            -- separate-sqrt IEEE finish (rel_correlation recipe)
            WITH d AS (
                SELECT CAST(epoch_us(o_orderdate) // 86400000000
                            AS BIGINT) AS day,
                       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                           AS rev
                FROM orders GROUP BY 1),
            p AS (SELECT a.rev AS x, b.rev AS y
                  FROM d a JOIN d b ON b.day = a.day + 1),
            m AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                         SUM(x * x) AS sxx, SUM(y * y) AS syy,
                         SUM(x * y) AS sxy
                  FROM p)
            SELECT CAST(n AS BIGINT) AS n_pairs,
                   CAST(CASE WHEN n > 0 AND n * sxx - sx * sx > 0
                              AND n * syy - sy * sy > 0 THEN
                        FLOOR(1000000.0 * (
                            CAST(n * sxy - sx * sy AS DOUBLE)
                            / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                               * sqrt(CAST(n * syy - sy * sy
                                           AS DOUBLE)))))
                        ELSE 0 END AS BIGINT) AS corr_e6
            FROM m
        """,
        "rel_ema": """
            -- integer EMA per user: ema0 = v0 (cents);
            -- ema_n = (3*ema_{n-1} + v_n) // 4; values non-negative
            -- so // truncation == floor on both engines
            WITH RECURSIVE s AS (
                SELECT user_id, event_id,
                       CAST(ROUND(value * 100) AS BIGINT) AS v,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn
                FROM events
            ),
            r(user_id, event_id, rn, ema) AS (
                SELECT user_id, event_id, rn, v FROM s WHERE rn = 1
                UNION ALL
                SELECT s.user_id, s.event_id, s.rn,
                       (3 * r.ema + s.v) // 4
                FROM r JOIN s ON s.user_id = r.user_id
                            AND s.rn = r.rn + 1
            )
            SELECT user_id, event_id, CAST(ema AS BIGINT) AS ema_e2
            FROM r
        """,
        "rel_late_events": """
            -- watermark late-event audit: arrival = ts + md5 +-1h
            -- jitter; watermark = running max event-time (over the
            -- arrival order) - 5 min; late = arrives below it
            WITH s AS (
                SELECT event_id, CAST(epoch_us(ts) AS BIGINT) AS t,
                       CAST(epoch_us(ts) AS BIGINT)
                       + CAST(md5_number_lower(CAST(event_id AS VARCHAR))
                              % 7200000000 AS BIGINT)
                       - 3600000000 AS a
                FROM events
            ),
            p AS (
                SELECT t, MAX(t) OVER (ORDER BY a, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                    AS pm
                FROM s
            )
            SELECT CAST(t // 3600000000 AS BIGINT) AS hour,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CASE WHEN pm IS NOT NULL
                            AND t < pm - 300000000
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_late
            FROM p GROUP BY hour
        """,
        "rel_hhi": """
            -- Herfindahl index of type concentration per brand,
            -- exact scaled integer (1e8 * sum(c^2)) // N^2
            WITH c AS (
                SELECT p_brand, p_type, count(*) AS n
                FROM part GROUP BY 1, 2
            )
            SELECT p_brand,
                   CAST(SUM(n) AS BIGINT) AS n_parts,
                   CAST(COUNT(*) AS BIGINT) AS n_types,
                   CAST((100000000 * SUM(n * n)) // (SUM(n) * SUM(n))
                        AS BIGINT) AS hhi_e8
            FROM c GROUP BY p_brand
        """,
        "rel_mode": """
            -- grouped MODE, ties broken to the smallest p_type
            WITH c AS (
                SELECT p_brand, p_type, count(*) AS n
                FROM part GROUP BY 1, 2
            ),
            r AS (
                SELECT p_brand, p_type, n,
                       row_number() OVER (
                           PARTITION BY p_brand
                           ORDER BY n DESC, p_type ASC
                       ) AS rn
                FROM c
            )
            SELECT p_brand, p_type AS mode_type,
                   CAST(n AS BIGINT) AS mode_count
            FROM r WHERE rn = 1
        """,
        "rel_deciles": """
            -- decile bucketing by exact cut values (k-th order
            -- statistics); ties sit in the lower bucket
            WITH t AS (SELECT c_acctbal AS v FROM customer),
            n AS (SELECT count(*) AS c FROM t),
            ks AS (SELECT (n.c * q + 99) // 100 AS k
                   FROM (VALUES (10), (20), (30), (40), (50),
                                (60), (70), (80), (90)) q(q)
                   CROSS JOIN n),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM t),
            cuts AS (SELECT r.v AS cut FROM ks JOIN r ON r.rn = ks.k),
            a AS (SELECT t.v,
                         1 + (SELECT count(*) FROM cuts
                              WHERE cut < t.v) AS bucket
                  FROM t)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   count(*) AS n_customers,
                   CAST(FLOOR(min(v) * 100) AS BIGINT) AS min_e2,
                   CAST(FLOOR(max(v) * 100) AS BIGINT) AS max_e2
            FROM a GROUP BY bucket
        """,
        "rel_running_total": """
            -- per-user running total of value-in-cents over the
            -- (ts, event_id) order
            SELECT user_id, event_id,
                   CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
                        PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT)
                       AS cum_value_e2
            FROM events
        """,
        "rel_cdc_upsert": """
            -- CDC merge with tombstones: latest version per user_id
            -- by (ts, event_id); an 'error' event deletes the key
            WITH r AS (
                SELECT user_id, event_id, event_type,
                       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) AS rn
                FROM events)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(event_id AS BIGINT) AS event_id,
                   event_type, ts_us
            FROM r WHERE rn = 1 AND event_type <> 'error'
        """,
        "rel_latest_event": """
            -- latest-record compaction per (user, event_type)
            WITH r AS (
                SELECT user_id, event_type, event_id, epoch_us(ts) AS ts_us,
                       row_number() OVER (
                           PARTITION BY user_id, event_type
                           ORDER BY ts DESC, event_id DESC) AS rn
                FROM events)
            SELECT user_id, event_type, event_id,
                   CAST(ts_us AS BIGINT) AS ts_us
            FROM r WHERE rn = 1
        """,
        "rel_full_outer": """
            -- per-day order stats FULL OUTER per-day shipment stats on
            -- the epoch-day key; outer nulls filled with 0 + flags
            WITH o AS (
                SELECT date_diff('day', DATE '1970-01-01',
                                 CAST(o_orderdate AS DATE)) AS day,
                       count(*) AS n_orders,
                       SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                           AS price_e2
                FROM orders GROUP BY 1),
            s AS (
                SELECT date_diff('day', DATE '1970-01-01',
                                 CAST(l_shipdate AS DATE)) AS day,
                       count(*) AS n_items,
                       SUM(CAST(ROUND(l_quantity * 100) AS BIGINT))
                           AS qty_e2
                FROM lineitem GROUP BY 1)
            SELECT CAST(COALESCE(o.day, s.day) AS BIGINT) AS day,
                   CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders,
                   CAST(COALESCE(o.price_e2, 0) AS BIGINT) AS price_e2,
                   CAST(COALESCE(s.n_items, 0) AS BIGINT) AS n_items,
                   CAST(COALESCE(s.qty_e2, 0) AS BIGINT) AS qty_e2,
                   CAST(CASE WHEN o.day IS NULL THEN 0 ELSE 1 END
                        AS BIGINT) AS has_orders,
                   CAST(CASE WHEN s.day IS NULL THEN 0 ELSE 1 END
                        AS BIGINT) AS has_items
            FROM o FULL OUTER JOIN s ON s.day = o.day
        """,
        "rel_histogram": """
            -- fixed-width histogram of exact integer cents; // floors
            -- toward zero on both engines and values are non-negative
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100) AS BIGINT) AS v
                       FROM events)
            SELECT event_type, CAST(v // 1000 AS BIGINT) AS bin,
                   count(*) AS n,
                   CAST(sum(v) AS BIGINT) AS sum_value_e2
            FROM s GROUP BY event_type, v // 1000
        """,
        "rel_grouped_median": """
            -- grouped exact lower median of integer cents
            WITH s AS (SELECT p_brand,
                              CAST(ROUND(p_retailprice * 100) AS BIGINT) AS x
                       FROM part),
            r AS (SELECT p_brand, x,
                         row_number() OVER (PARTITION BY p_brand
                                            ORDER BY x) AS rn,
                         count(*) OVER (PARTITION BY p_brand) AS n
                  FROM s)
            SELECT p_brand, CAST(n AS BIGINT) AS n_parts,
                   CAST(x AS BIGINT) AS median_e2
            FROM r WHERE rn = (n + 1) // 2
        """,
        "rel_event_sequence": """
            -- per-user '>'-joined path of the first 10 events in
            -- (ts, event_id) order, plus the total event count
            WITH r AS (
                SELECT user_id, event_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS n_events
                FROM events)
            SELECT user_id, CAST(min(n_events) AS BIGINT) AS n_events,
                   string_agg(event_type, '>' ORDER BY rn) AS path
            FROM r WHERE rn <= 10
            GROUP BY user_id
        """,
        "rel_set_ops": """
            -- click/purchase user-set Venn as four labeled counts
            WITH f AS (
                SELECT user_id,
                       max(CASE WHEN event_type = 'click' THEN 1
                                ELSE 0 END) AS c,
                       max(CASE WHEN event_type = 'purchase' THEN 1
                                ELSE 0 END) AS p
                FROM events GROUP BY user_id)
            SELECT op, CAST(n_users AS BIGINT) AS n_users FROM (
                SELECT 'intersect' AS op,
                       count(*) FILTER (c = 1 AND p = 1) AS n_users FROM f
                UNION ALL
                SELECT 'click_only',
                       count(*) FILTER (c = 1 AND p = 0) FROM f
                UNION ALL
                SELECT 'purchase_only',
                       count(*) FILTER (c = 0 AND p = 1) FROM f
                UNION ALL
                SELECT 'union',
                       count(*) FILTER (c = 1 OR p = 1) FROM f
            )
        """,
        "rel_pivot": """
            SELECT user_id,
                   COUNT(*) FILTER (WHERE event_type = 'click') AS n_click,
                   COUNT(*) FILTER (WHERE event_type = 'error') AS n_error,
                   COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
                   COUNT(*) FILTER (WHERE event_type = 'signup') AS n_signup,
                   COUNT(*) FILTER (WHERE event_type = 'view') AS n_view,
                   COUNT(*) AS n_total
            FROM events GROUP BY user_id
        """,
        "rel_interarrival": """
            -- per-user inter-event gap stats over the (ts, event_id)
            -- order; single-event users emit nothing
            WITH o AS (
                SELECT user_id,
                       date_diff('microsecond',
                                 lag(ts) OVER (PARTITION BY user_id
                                               ORDER BY ts, event_id),
                                 ts) AS gap
                FROM events
            )
            SELECT user_id,
                   COUNT(gap) AS n_gaps,
                   CAST(MIN(gap) AS BIGINT) AS min_gap_us,
                   CAST(MAX(gap) AS BIGINT) AS max_gap_us,
                   CAST(SUM(gap) AS BIGINT) AS sum_gap_us
            FROM o GROUP BY user_id HAVING COUNT(gap) > 0
        """,
        "rel_covariance": """
            -- grouped covariance sufficient stats, all-integer;
            -- cov_e4 uses // which truncates toward zero in DuckDB
            WITH s AS (
                SELECT p_brand,
                       CAST(ROUND(p_retailprice * 100) AS BIGINT) AS x,
                       CAST(p_size AS BIGINT) AS y
                FROM part
            ),
            g AS (
                SELECT p_brand, COUNT(*) AS n, SUM(x) AS sx,
                       SUM(y) AS sy, SUM(x * y) AS sxy
                FROM s GROUP BY p_brand
            )
            SELECT p_brand, CAST(n AS BIGINT) AS n,
                   CAST(sx AS BIGINT) AS sx, CAST(sy AS BIGINT) AS sy,
                   CAST(sxy AS BIGINT) AS sxy,
                   CAST((n * sxy - sx * sy) * 10000 // (n * n)
                        AS BIGINT) AS cov_e4
            FROM g
        """,
        "rel_brand_price_stats": """
            SELECT p.p_brand,
                   CAST(FLOOR(ROUND(sum(l.l_extendedprice) * 100)
                              * 1e4 / count(*)) AS BIGINT) AS avg_price_micro,
                   CAST(FLOOR(ROUND(sum(l.l_quantity) * 100)
                              * 1e4 / count(*)) AS BIGINT) AS avg_qty_micro,
                   count(*) AS n_items
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            GROUP BY p.p_brand
        """,
        "text_token_counts": r"""
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
                   CAST(length(regexp_extract_all(text,
                        '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "text_quality": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_calc,
                   CAST(FLOOR(length(regexp_extract_all(text, '[!-/:-@[-`{-~]'))
                         / greatest(length(text), 1) * 1e9) AS BIGINT) AS punct_ratio_e9,
                   CAST(FLOOR(length(text) * 1.0
                         / greatest(length(regexp_extract_all(text, '\\S+')), 1) * 1e9)
                        AS BIGINT) AS mean_word_len_e9
            FROM documents
        """,
        "text_exact_dedup": """
            SELECT CAST(min(doc_id) AS BIGINT) AS doc_id
            FROM documents GROUP BY text
        """,
        "text_repetition": r"""
            -- Gopher-style repetition signals; fractions floored to
            -- 1e9-scaled integers (exact // on both engines).  Word
            -- bigrams join on position; \S+ words contain no spaces so
            -- the ' '-joined group key is unambiguous
            WITH lines AS (
                SELECT doc_id, unnest(string_split(text, chr(10))) AS line
                FROM documents
            ),
            lc AS (
                SELECT doc_id, count(*) AS n_lines,
                       count(DISTINCT line) AS n_uniq
                FROM lines GROUP BY doc_id
            ),
            words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w,
                       generate_subscripts(regexp_extract_all(text, '\S+'), 1) AS i
                FROM documents
            ),
            bc AS (
                SELECT a.doc_id, a.w || ' ' || b.w AS g, count(*) AS c
                FROM words a
                JOIN words b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                GROUP BY 1, 2
            ),
            btop AS (SELECT doc_id, max(c) AS mx, sum(c) AS tot
                     FROM bc GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(lc.n_lines AS BIGINT) AS n_lines,
                   CAST((lc.n_lines - lc.n_uniq) * 1000000000 // lc.n_lines
                        AS BIGINT) AS dup_line_frac_e9,
                   CAST(COALESCE(btop.mx * 1000000000 // btop.tot, 0)
                        AS BIGINT) AS top_bigram_frac_e9
            FROM documents d
            JOIN lc ON lc.doc_id = d.doc_id
            LEFT JOIN btop ON btop.doc_id = d.doc_id
        """,
        "graph_scc": f"""
            -- strongly connected components by mutual reachability;
            -- label = min mutually-reachable id (reach includes self)
            WITH RECURSIVE {_LINKS_CTE},
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, e.dst FROM reach r JOIN e ON e.src = r.u
            )
            SELECT a.v AS vertex, CAST(min(a.u) AS BIGINT) AS scc
            FROM reach a JOIN reach b ON b.v = a.u AND b.u = a.v
            GROUP BY a.v
        """,
        "graph_scc_dag": f"""
            -- SCC condensation: distinct arcs between different
            -- components (labels = min mutually-reachable id)
            WITH RECURSIVE {_LINKS_CTE},
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, e2.dst FROM reach r JOIN e e2 ON e2.src = r.u
            ),
            comp AS MATERIALIZED (
                SELECT a.v, min(a.u) AS scc
                FROM reach a JOIN reach b ON b.v = a.u AND b.u = a.v
                GROUP BY a.v)
            SELECT DISTINCT CAST(c1.scc AS BIGINT) AS src_scc,
                            CAST(c2.scc AS BIGINT) AS dst_scc
            FROM e JOIN comp c1 ON c1.v = e.src
                   JOIN comp c2 ON c2.v = e.dst
            WHERE c1.scc <> c2.scc
            ORDER BY src_scc, dst_scc
        """,
        "graph_bowtie": f"""
            -- Broder bow-tie: classify each vertex against the giant
            -- SCC (largest, ties -> lowest label): core / in (reaches
            -- it) / out (reachable from it) / other
            WITH RECURSIVE {_LINKS_CTE},
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, e.dst FROM reach r JOIN e ON e.src = r.u
            ),
            comp AS MATERIALIZED (
                SELECT a.v, min(a.u) AS scc
                FROM reach a JOIN reach b ON b.v = a.u AND b.u = a.v
                GROUP BY a.v),
            giant AS (SELECT scc FROM comp GROUP BY scc
                      ORDER BY count(*) DESC, scc ASC LIMIT 1),
            core AS MATERIALIZED (
                SELECT comp.v FROM comp, giant WHERE comp.scc = giant.scc),
            fwd AS MATERIALIZED (
                SELECT DISTINCT r.u AS v
                FROM reach r JOIN core c ON c.v = r.v),
            bwd AS MATERIALIZED (
                SELECT DISTINCT r.v AS v
                FROM reach r JOIN core c ON c.v = r.u)
            SELECT d.doc_id AS vertex,
                   CASE WHEN d.doc_id IN (SELECT v FROM core) THEN 'core'
                        WHEN d.doc_id IN (SELECT v FROM bwd) THEN 'in'
                        WHEN d.doc_id IN (SELECT v FROM fwd) THEN 'out'
                        ELSE 'other' END AS cls
            FROM documents d ORDER BY vertex
        """,
        "graph_component_stats": f"""
            -- per-component vertex/edge counts + integer density
            -- 2m*1e9 // (n*(n-1))
            WITH RECURSIVE {_LINKS_CTE},
            arcs AS (SELECT src, dst FROM e UNION SELECT dst, src FROM e),
            reach(v, u) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT r.v, a.dst FROM reach r JOIN arcs a ON a.src = r.u
            ),
            comp AS (SELECT v, min(u) AS c FROM reach GROUP BY v),
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM e),
            ec AS (SELECT comp.c, count(*) AS m
                   FROM und JOIN comp ON comp.v = und.a GROUP BY comp.c),
            vc AS (SELECT c AS component, count(*) AS n FROM comp GROUP BY c)
            SELECT CAST(vc.component AS BIGINT) AS component,
                   CAST(vc.n AS BIGINT) AS n_vertices,
                   CAST(COALESCE(ec.m, 0) AS BIGINT) AS n_edges,
                   CAST(CASE WHEN vc.n > 1
                             THEN 2 * COALESCE(ec.m, 0) * 1000000000
                                  // (vc.n * (vc.n - 1))
                             ELSE 0 END AS BIGINT) AS density_e9
            FROM vc LEFT JOIN ec ON ec.c = vc.component
        """,
        "graph_weighted_pagerank": _nav_wpr_chain_sql(iters=3),
        "graph_weighted_lp": _nav_wlp_chain_sql(iters=2),
        "graph_rich_club": """
            -- rich-club profile of the undirected nav graph: per
            -- degree threshold k, phi = 2*E_k/(N_k*(N_k-1)) over the
            -- deg>k induced subgraph, exact floor e6; N_k<2 dropped
            WITH ev AS (
                SELECT user_id, ts, event_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS node
                FROM events),
            hop AS (
                SELECT node AS src,
                       lead(node) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS dst
                FROM ev),
            arcs AS (SELECT DISTINCT src, dst FROM hop
                     WHERE dst IS NOT NULL AND dst <> src),
            und AS (SELECT DISTINCT LEAST(src, dst) AS a,
                                    GREATEST(src, dst) AS b FROM arcs),
            sym AS (SELECT a AS v FROM und
                    UNION ALL SELECT b FROM und),
            deg AS (SELECT v, CAST(COUNT(*) AS BIGINT) AS d
                    FROM sym GROUP BY v),
            em AS (SELECT LEAST(da.d, db.d) AS md
                   FROM und JOIN deg da ON da.v = und.a
                            JOIN deg db ON db.v = und.b),
            ks AS (SELECT unnest(range(0, (SELECT CAST(MAX(d) AS BIGINT)
                                           FROM deg))) AS k),
            nk AS (SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS n_rich
                   FROM ks JOIN deg ON deg.d > ks.k GROUP BY ks.k),
            ek AS (SELECT ks.k, CAST(COUNT(*) AS BIGINT) AS e_rich
                   FROM ks JOIN em ON em.md > ks.k GROUP BY ks.k)
            SELECT nk.k, nk.n_rich,
                   CAST(COALESCE(ek.e_rich, 0) AS BIGINT) AS e_rich,
                   CAST(CAST(2000000 AS BIGINT)
                        * COALESCE(ek.e_rich, 0)
                        // (nk.n_rich * (nk.n_rich - 1))
                        AS BIGINT) AS phi_e6
            FROM nk LEFT JOIN ek ON ek.k = nk.k
            WHERE nk.n_rich >= 2 ORDER BY nk.k
        """,
        "graph_top_transitions": """
            -- weighted click-graph: top-20 transitions by click count
            WITH ev AS (
                SELECT user_id, ts, event_id,
                       CAST(json_extract_string(props, '$.k') AS BIGINT)
                           AS node
                FROM events),
            hop AS (
                SELECT node AS src,
                       lead(node) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS dst
                FROM ev)
            SELECT src, dst, CAST(count(*) AS BIGINT) AS n
            FROM hop WHERE dst IS NOT NULL AND dst <> src
            GROUP BY src, dst
            ORDER BY n DESC, src, dst
            LIMIT 20
        """,
        "text_zipf": r"""
            -- Zipf rank-frequency slope: FLOOR(ln*1e6) regression
            -- over the top-100 terms, sign-split floor-ratio finish
            WITH toks AS (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents),
            tf AS (SELECT term, CAST(count(*) AS BIGINT) AS tf
                   FROM toks GROUP BY term),
            top AS (SELECT tf, row_number() OVER (
                        ORDER BY tf DESC, term) AS rnk
                    FROM tf ORDER BY tf DESC, term LIMIT 100),
            xy AS (SELECT CAST(FLOOR(ln(CAST(rnk AS DOUBLE)) * 1000000)
                               AS BIGINT) AS x,
                          CAST(FLOOR(ln(CAST(tf AS DOUBLE)) * 1000000)
                               AS BIGINT) AS y
                   FROM top),
            g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(x * y) AS BIGINT) AS sxy,
                         CAST(SUM(x * x) AS BIGINT) AS sxx
                  FROM xy)
            SELECT n AS n_terms, sx, sy, sxy, sxx,
                   CAST(CASE
                        WHEN n * sxx - sx * sx = 0 THEN 0
                        WHEN n * sxy - sx * sy >= 0 THEN
                            (CAST(1000000 AS HUGEINT)
                             * (n * sxy - sx * sy))
                            // (n * sxx - sx * sx)
                        ELSE -((CAST(1000000 AS HUGEINT)
                                * (sx * sy - n * sxy))
                               // (n * sxx - sx * sx))
                        END AS BIGINT) AS slope_e6
            FROM g
        """,
        "text_burstiness": r"""
            -- term burstiness cf/df: top-50 by (burst desc, term asc)
            -- among terms with df >= 5; exact floor e6
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents),
            s AS (SELECT term,
                         CAST(count(*) AS BIGINT) AS cf,
                         CAST(count(DISTINCT doc_id) AS BIGINT) AS df
                  FROM toks GROUP BY term)
            SELECT term, cf, df,
                   CAST(cf * CAST(1000000 AS BIGINT) // df AS BIGINT)
                       AS burst_e6
            FROM s WHERE df >= 5
            ORDER BY burst_e6 DESC, term LIMIT 50
        """,
        "text_term_tf": r"""
            WITH toks AS (
                SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents)
            SELECT term, CAST(count(*) AS BIGINT) AS tf
            FROM toks GROUP BY term
            ORDER BY tf DESC, term LIMIT 100
        """,
        "text_tfidf": r"""
            -- per-doc top-3 keywords by integer score tf*N//df
            -- (rational idf ordering, no float log; ties -> term asc)
            WITH toks AS MATERIALIZED (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf
                   FROM toks GROUP BY 1, 2),
            df AS (SELECT term, count(DISTINCT doc_id) AS df
                   FROM toks GROUP BY term),
            n AS (SELECT count(*) AS n FROM documents),
            s AS (SELECT tf.doc_id, tf.term,
                         tf.tf * n.n // df.df AS score
                  FROM tf JOIN df USING (term) CROSS JOIN n),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY doc_id
                      ORDER BY score DESC, term) AS rn
                  FROM s)
            SELECT doc_id, CAST(rn AS BIGINT) AS rank, term,
                   CAST(score AS BIGINT) AS score
            FROM r WHERE rn <= 3
        """,
        "text_ttr": """
            -- type-token ratio per doc, all-integer (// truncates;
            -- operands are non-negative so trunc ≡ floor)
            WITH w AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w
                FROM documents
            )
            SELECT doc_id, count(*) AS n_tokens,
                   count(DISTINCT w) AS n_types,
                   CAST(count(DISTINCT w) * 1000000 // count(*)
                        AS BIGINT) AS ttr_e6
            FROM w GROUP BY doc_id
        """,
        "text_passage_dedup": """
            -- passages = consecutive 16-word chunks (trailing partial
            -- kept); report every passage occurring more than once
            WITH w AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                       generate_subscripts(string_split(text, ' '), 1)
                           - 1 AS idx
                FROM documents
            ),
            c AS (
                SELECT doc_id, idx // 16 AS chunk,
                       string_agg(w, ' ' ORDER BY idx) AS passage
                FROM w GROUP BY doc_id, idx // 16
            )
            SELECT passage, count(*) AS n_occ,
                   count(DISTINCT doc_id) AS n_docs
            FROM c GROUP BY passage HAVING count(*) > 1
        """,
        "sim_greedy_search": """
            -- greedy routing on the exact 3-NN cosine graph: start at
            -- vector 0, move to the best of cur + neighbors by the
            -- packed (score_e6, -id) key; 8 unrolled rounds == the
            -- engine cap; self-similarity pinned to 1000000
            WITH scored AS MATERIALIZED (
                SELECT a.vec_id AS src, b.vec_id AS nbr,
                       CAST(ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS score_e6
                FROM embeddings a JOIN embeddings b
                     ON a.vec_id <> b.vec_id),
            g AS MATERIALIZED (
                SELECT src, nbr FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY src
                        ORDER BY score_e6 DESC, nbr) AS rank
                    FROM scored) WHERE rank <= 3),
            q AS (SELECT vec_id AS qid FROM embeddings
                  WHERE vec_id % 25 = 0),
            qscores AS MATERIALIZED (
                SELECT q.qid, s.nbr AS node, s.score_e6
                FROM q JOIN scored s ON s.src = q.qid
                UNION ALL
                SELECT qid, qid, CAST(1000000 AS BIGINT) FROM q),
            c0 AS (SELECT q.qid, CAST(0 AS BIGINT) AS cur,
                          CAST(0 AS BIGINT) AS hops FROM q),
            cand1 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c0 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c0 c
                JOIN g ON g.src = c.cur),
            b1 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand1 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c1 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b1 b JOIN c0 c USING (qid)),
            cand2 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c1 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c1 c
                JOIN g ON g.src = c.cur),
            b2 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand2 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c2 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b2 b JOIN c1 c USING (qid)),
            cand3 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c2 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c2 c
                JOIN g ON g.src = c.cur),
            b3 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand3 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c3 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b3 b JOIN c2 c USING (qid)),
            cand4 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c3 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c3 c
                JOIN g ON g.src = c.cur),
            b4 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand4 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c4 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b4 b JOIN c3 c USING (qid)),
            cand5 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c4 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c4 c
                JOIN g ON g.src = c.cur),
            b5 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand5 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c5 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b5 b JOIN c4 c USING (qid)),
            cand6 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c5 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c5 c
                JOIN g ON g.src = c.cur),
            b6 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand6 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c6 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b6 b JOIN c5 c USING (qid)),
            cand7 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c6 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c6 c
                JOIN g ON g.src = c.cur),
            b7 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand7 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c7 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b7 b JOIN c6 c USING (qid)),
            cand8 AS MATERIALIZED (
                SELECT c.qid, c.cur AS cand FROM c7 c
                UNION ALL
                SELECT c.qid, g.nbr FROM c7 c
                JOIN g ON g.src = c.cur),
            b8 AS MATERIALIZED (
                SELECT d.qid,
                       MAX((qs.score_e6 + 1000001) * 4294967296
                           + (4294967295 - d.cand)) AS pk
                FROM cand8 d JOIN qscores qs
                  ON qs.qid = d.qid AND qs.node = d.cand
                GROUP BY d.qid),
            c8 AS MATERIALIZED (
                SELECT b.qid,
                       CAST(4294967295 - (b.pk % 4294967296)
                            AS BIGINT) AS cur,
                       c.hops + CASE WHEN 4294967295
                                - (b.pk % 4294967296) <> c.cur
                                THEN 1 ELSE 0 END AS hops
                FROM b8 b JOIN c7 c USING (qid))
            SELECT c.qid AS query_id, c.cur AS found,
                   qs.score_e6, c.hops
            FROM c8 c JOIN qscores qs
              ON qs.qid = c.qid AND qs.node = c.cur
            ORDER BY query_id
        """,
        "sim_pca_power": """
            -- leading PCA direction by 4-round integer power
            -- iteration on M = sum q q^T (q = FLOOR(x*1e4)); each
            -- round rescales by the sign-split // of max|Mv|/2^17 --
            -- identical trunc arithmetic on both engines
            WITH E AS MATERIALIZED (
                SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS i,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 10000)
                            AS BIGINT) AS q
                FROM embeddings),
            M AS MATERIALIZED (
                SELECT a.i AS i, b.i AS j, CAST(SUM(a.q * b.q) AS BIGINT) AS m
                FROM E a JOIN E b USING (vec_id) GROUP BY 1, 2),
            v0 AS (SELECT DISTINCT i, CAST(1 AS BIGINT) AS val FROM E),
            w1 AS (SELECT m.i, CAST(SUM(m.m * v.val) AS BIGINT) AS val
                   FROM M m JOIN v0 v ON v.i = m.j GROUP BY 1),
            d1 AS (SELECT GREATEST(1, CAST(MAX(ABS(val)) AS BIGINT) // 131072) AS d FROM w1),
            v1 AS (SELECT i, CAST(CASE WHEN val >= 0 THEN val // d
                                  ELSE -((-val) // d) END AS BIGINT) AS val FROM w1, d1),
            w2 AS (SELECT m.i, CAST(SUM(m.m * v.val) AS BIGINT) AS val
                   FROM M m JOIN v1 v ON v.i = m.j GROUP BY 1),
            d2 AS (SELECT GREATEST(1, CAST(MAX(ABS(val)) AS BIGINT) // 131072) AS d FROM w2),
            v2 AS (SELECT i, CAST(CASE WHEN val >= 0 THEN val // d
                                  ELSE -((-val) // d) END AS BIGINT) AS val FROM w2, d2),
            w3 AS (SELECT m.i, CAST(SUM(m.m * v.val) AS BIGINT) AS val
                   FROM M m JOIN v2 v ON v.i = m.j GROUP BY 1),
            d3 AS (SELECT GREATEST(1, CAST(MAX(ABS(val)) AS BIGINT) // 131072) AS d FROM w3),
            v3 AS (SELECT i, CAST(CASE WHEN val >= 0 THEN val // d
                                  ELSE -((-val) // d) END AS BIGINT) AS val FROM w3, d3),
            w4 AS (SELECT m.i, CAST(SUM(m.m * v.val) AS BIGINT) AS val
                   FROM M m JOIN v3 v ON v.i = m.j GROUP BY 1),
            d4 AS (SELECT GREATEST(1, CAST(MAX(ABS(val)) AS BIGINT) // 131072) AS d FROM w4),
            v4 AS (SELECT i, CAST(CASE WHEN val >= 0 THEN val // d
                                  ELSE -((-val) // d) END AS BIGINT) AS val FROM w4, d4)
            SELECT i AS dim, val AS v FROM v4 ORDER BY dim
        """,
        "sim_centroid_classify": """
            -- exact nearest-centroid (Rocchio) re-assignment: quantize
            -- to floor(x*1e6) ints, truncated-mean centroids (// is
            -- trunc-toward-zero — the engine matches with
            -- sign(s)*(abs(s)//n)), Euclidean argmin, ties -> lowest
            -- label; every compared quantity is an exact BIGINT
            WITH q AS MATERIALIZED (
                SELECT vec_id, label,
                       generate_subscripts(embedding, 1) AS dim,
                       CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                                  * 1000000) AS BIGINT) AS v
                FROM embeddings
            ),
            cs AS (SELECT label, dim, CAST(SUM(v) AS BIGINT) AS s,
                          CAST(COUNT(*) AS BIGINT) AS n
                   FROM q GROUP BY 1, 2),
            cent AS MATERIALIZED (
                SELECT label, dim,
                       CAST(sign(s) * (abs(s) // n) AS BIGINT) AS c
                FROM cs),
            dist AS (SELECT q.vec_id, cent.label AS clabel,
                            CAST(SUM((q.v - cent.c) * (q.v - cent.c))
                                 AS BIGINT) AS d2
                     FROM q JOIN cent ON cent.dim = q.dim
                     GROUP BY 1, 2),
            best AS (SELECT vec_id, clabel, d2, row_number() OVER (
                         PARTITION BY vec_id ORDER BY d2, clabel) AS rn
                     FROM dist)
            SELECT e.vec_id, CAST(e.label AS BIGINT) AS label,
                   CAST(b.clabel AS BIGINT) AS assigned, b.d2
            FROM embeddings e JOIN best b
              ON b.vec_id = e.vec_id AND b.rn = 1
            ORDER BY e.vec_id
        """,
        "sim_topk_cosine": """
            WITH qq AS (
                SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                       embedding AS qv
                FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings
                                 ORDER BY vec_id LIMIT 3)
            ),
            scored AS (
                SELECT qq.query_id, e.vec_id,
                       list_cosine_similarity(CAST(qq.qv AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[])) AS score
                FROM qq CROSS JOIN embeddings e
            ),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id ORDER BY score DESC, vec_id) AS rank
                FROM scored
            )
            SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
                   CAST(ROUND(score * 1e6) AS BIGINT) AS score_e6
            FROM ranked WHERE rank <= 5
        """,
        "sim_filtered_topk": """
            -- label-filtered top-k: each query ranks only vectors
            -- sharing its label
            WITH qq AS (
                SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                       embedding AS qv, label AS qlabel
                FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings
                                 ORDER BY vec_id LIMIT 3)
            ),
            scored AS (
                SELECT qq.query_id, e.vec_id,
                       list_cosine_similarity(CAST(qq.qv AS DOUBLE[]),
                                              CAST(e.embedding AS DOUBLE[]))
                           AS score
                FROM qq JOIN embeddings e ON e.label = qq.qlabel
            ),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id ORDER BY score DESC, vec_id) AS rank
                FROM scored
            )
            SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
                   CAST(ROUND(score * 1e6) AS BIGINT) AS score_e6
            FROM ranked WHERE rank <= 5
        """,
        "sim_knn_graph": """
            -- k-NN graph: per vector, top-3 OTHER vectors ranked on
            -- the ROUNDED x1e6 integer cosine (ties -> lowest nbr)
            WITH scored AS (
                SELECT a.vec_id AS src, b.vec_id AS nbr,
                       CAST(ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS score_e6
                FROM embeddings a JOIN embeddings b
                     ON a.vec_id <> b.vec_id
            ),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY src
                    ORDER BY score_e6 DESC, nbr) AS rank
                FROM scored
            )
            SELECT src, CAST(rank AS BIGINT) AS rank, nbr, score_e6
            FROM ranked WHERE rank <= 3
            ORDER BY src, rank
        """,
        "sim_hard_negatives": """
            -- hard-negative mining: per vector, top-3 DIFFERENT-label
            -- vectors on the ROUNDED x1e6 integer cosine (ties ->
            -- lowest nbr) — the contrastive-training impostor set
            WITH scored AS (
                SELECT a.vec_id AS src, b.vec_id AS nbr,
                       CAST(ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS score_e6
                FROM embeddings a JOIN embeddings b
                     ON a.label <> b.label
            ),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY src
                    ORDER BY score_e6 DESC, nbr) AS rank
                FROM scored
            )
            SELECT src, CAST(rank AS BIGINT) AS rank, nbr, score_e6
            FROM ranked WHERE rank <= 3
            ORDER BY src, rank
        """,
        "sim_knn_clusters": """
            -- mutual-kNN clustering: components over edges present in
            -- BOTH endpoints' integer-ranked top-3; label = min vec_id
            WITH RECURSIVE scored AS (
                SELECT a.vec_id AS src, b.vec_id AS nbr,
                       CAST(ROUND(list_cosine_similarity(
                           CAST(a.embedding AS DOUBLE[]),
                           CAST(b.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS score_e6
                FROM embeddings a JOIN embeddings b
                     ON a.vec_id <> b.vec_id
            ),
            ranked AS (SELECT *, row_number() OVER (
                           PARTITION BY src
                           ORDER BY score_e6 DESC, nbr) AS rank
                       FROM scored),
            knn AS MATERIALIZED (SELECT src, nbr FROM ranked
                                 WHERE rank <= 3),
            mut AS MATERIALIZED (
                SELECT x.src AS a, x.nbr AS b
                FROM knn x JOIN knn y ON y.src = x.nbr AND y.nbr = x.src
                WHERE x.src < x.nbr),
            arcs AS (SELECT a AS src, b AS dst FROM mut
                     UNION ALL SELECT b, a FROM mut),
            reach(v, u) AS (
                SELECT vec_id, vec_id FROM embeddings
                UNION
                SELECT r.v, a.dst FROM reach r JOIN arcs a ON a.src = r.u
            )
            SELECT v AS vec_id, CAST(min(u) AS BIGINT) AS cluster
            FROM reach GROUP BY v ORDER BY vec_id
        """,
        "sim_kmeans_iters": _kmeans_iters_sql(n_clusters=4, iters=3),
        "dedup_semantic": _semantic_dedup_sql(n_clusters=4, iters=3),
        "sim_sq8_audit": """
            -- SQ8 scalar-quantization audit on the FLOOR(x*1e5) grid:
            -- per-dim min/max, code = (q-mn)*255 // range, recon =
            -- mn + code*range // 255; exact L1 error + code checksum
            WITH q AS MATERIALIZED (
                SELECT vec_id, j,
                       CAST(FLOOR(CAST(x AS DOUBLE) * 100000) AS BIGINT)
                           AS qv
                FROM (SELECT vec_id, unnest(embedding) AS x,
                             generate_subscripts(embedding, 1) AS j
                      FROM embeddings)),
            st AS MATERIALIZED (
                SELECT j, MIN(qv) AS mn,
                       GREATEST(MAX(qv) - MIN(qv), 1) AS rng
                FROM q GROUP BY j),
            c AS (SELECT q.vec_id, q.qv, st.mn, st.rng,
                         (q.qv - st.mn) * 255 // st.rng AS code
                  FROM q JOIN st ON st.j = q.j)
            SELECT vec_id,
                   CAST(SUM(ABS(qv - (mn + code * rng // 255)))
                        AS BIGINT) AS err_l1,
                   CAST(SUM(code) AS BIGINT) AS code_sum
            FROM c GROUP BY vec_id ORDER BY vec_id
        """,
        "sim_dbscan": """
            -- DBSCAN, cosine eps-ball on the ROUNDED x1e6 score
            -- (>= 300000), core iff >= 4 strict neighbors; clusters =
            -- components over core-core pairs (min core id), border
            -- takes the min label among its core neighbors
            WITH RECURSIVE scored AS (
                SELECT a.vec_id AS a, b.vec_id AS b,
                       CAST(ROUND(list_cosine_similarity(
                                CAST(a.embedding AS DOUBLE[]),
                                CAST(b.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS s
                FROM embeddings a JOIN embeddings b
                     ON a.vec_id < b.vec_id
            ),
            nbr AS MATERIALIZED (SELECT a, b FROM scored
                                 WHERE s >= 300000),
            arcs AS MATERIALIZED (SELECT a AS u, b AS v FROM nbr
                                  UNION ALL SELECT b, a FROM nbr),
            core AS MATERIALIZED (
                SELECT u AS vec_id FROM arcs GROUP BY u
                HAVING COUNT(*) >= 4),
            carcs AS MATERIALIZED (
                SELECT ar.u, ar.v FROM arcs ar
                JOIN core cu ON cu.vec_id = ar.u
                JOIN core cv ON cv.vec_id = ar.v),
            reach(v, u) AS (
                SELECT vec_id, vec_id FROM core
                UNION
                SELECT r.v, a.v FROM reach r JOIN carcs a ON a.u = r.u
            ),
            clab AS MATERIALIZED (
                SELECT v AS vec_id, MIN(u) AS cluster
                FROM reach GROUP BY v),
            blab AS (
                SELECT ar.u AS vec_id, MIN(cl.cluster) AS cluster
                FROM arcs ar
                JOIN core cv ON cv.vec_id = ar.v
                JOIN clab cl ON cl.vec_id = ar.v
                LEFT JOIN core cu ON cu.vec_id = ar.u
                WHERE cu.vec_id IS NULL
                GROUP BY ar.u)
            SELECT e.vec_id,
                   CASE WHEN co.vec_id IS NOT NULL THEN 'core'
                        WHEN bl.vec_id IS NOT NULL THEN 'border'
                        ELSE 'noise' END AS role,
                   CAST(COALESCE(cl.cluster, bl.cluster, -1)
                        AS BIGINT) AS cluster
            FROM embeddings e
            LEFT JOIN core co ON co.vec_id = e.vec_id
            LEFT JOIN clab cl ON cl.vec_id = e.vec_id
                              AND co.vec_id IS NOT NULL
            LEFT JOIN blab bl ON bl.vec_id = e.vec_id
            ORDER BY e.vec_id
        """,
        "sim_range_search": """
            -- radius search: membership decided on the ROUNDED ×1e6
            -- score, so the set is integer-stable across engines
            WITH qq AS (
                SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
                       embedding AS qv
                FROM embeddings
                WHERE vec_id IN (SELECT vec_id FROM embeddings
                                 ORDER BY vec_id LIMIT 3)
            ),
            scored AS (
                SELECT qq.query_id, e.vec_id,
                       CAST(ROUND(list_cosine_similarity(
                                CAST(qq.qv AS DOUBLE[]),
                                CAST(e.embedding AS DOUBLE[])) * 1e6)
                            AS BIGINT) AS score_e6
                FROM qq CROSS JOIN embeddings e
            )
            SELECT query_id, vec_id, score_e6
            FROM scored WHERE score_e6 >= 300000
        """,
        "text_weighted_sample": """
            -- length-weighted priority sample: bottom-50 by
            -- md5_low64(id) // max(n_chars, 2); ties -> doc_id
            WITH pr AS (
                SELECT doc_id, CAST(n_chars AS BIGINT) AS w,
                       CAST(md5_number_lower(CAST(doc_id AS VARCHAR))
                            // GREATEST(CAST(n_chars AS BIGINT), 2)
                            AS BIGINT) AS priority
                FROM documents)
            SELECT doc_id, w, priority
            FROM pr ORDER BY priority, doc_id LIMIT 50
        """,
        "multimodal_phash": """
            -- aHash near-dup pairs over the grid-body fake decode:
            -- 60-bit average hash (bit j iff 60*s_j > total), pairs
            -- with Hamming <= 3; every pixel is doc_id arithmetic
            WITH pos AS (SELECT unnest(range(0, 240)) AS i),
            body AS (
                SELECT d.doc_id, CAST(p.i AS BIGINT) AS i,
                       ((d.doc_id % 20) * 31 + CAST(p.i AS BIGINT) * 17
                        + CASE WHEN CAST(p.i AS BIGINT) // 4
                                    = d.doc_id % 60
                               THEN 200 ELSE 0 END) % 256 AS b
                FROM documents d CROSS JOIN pos p),
            bsum AS (SELECT doc_id, i // 4 AS j,
                            CAST(SUM(b) AS BIGINT) AS s
                     FROM body GROUP BY 1, 2),
            tot AS (SELECT doc_id, CAST(SUM(s) AS BIGINT) AS t
                    FROM bsum GROUP BY doc_id),
            ph AS MATERIALIZED (
                SELECT b.doc_id,
                       CAST(SUM(CASE WHEN 60 * b.s > t.t
                                THEN CAST(1 AS BIGINT)
                                     << CAST(b.j AS INTEGER)
                                ELSE 0 END) AS BIGINT) AS h
                FROM bsum b JOIN tot t ON t.doc_id = b.doc_id
                GROUP BY b.doc_id)
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(bit_count(xor(x.h, y.h)) AS BIGINT) AS hamming
            FROM ph x JOIN ph y ON x.doc_id < y.doc_id
            WHERE bit_count(xor(x.h, y.h)) <= 3
            ORDER BY a, b
        """,
        "multimodal_decode": """
            SELECT doc_id,
                   CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                        ELSE 'video' END AS kind,
                   CAST(16 + (doc_id * 7) % 64 AS BIGINT) AS width,
                   CAST(16 + (doc_id * 13) % 48 AS BIGINT) AS height,
                   CAST(CASE WHEN doc_id % 3 = 2 THEN 1 + doc_id % 8
                             ELSE 1 END AS BIGINT) AS frames
            FROM documents
        """,
        "multimodal_tiles": """
            -- ViT-patch tile grid over each blob's (w, h), 16x16
            -- non-overlapping with edge remainders; geometry is the
            -- fake codec's doc_id arithmetic
            WITH docs AS (SELECT doc_id,
                                 CAST(16 + (doc_id * 7) % 64 AS BIGINT) AS w,
                                 CAST(16 + (doc_id * 13) % 48 AS BIGINT) AS h
                          FROM documents),
            xs AS (SELECT doc_id, w, h,
                          unnest(range(0, CAST((w + 15) // 16 AS BIGINT)))
                              AS tx
                   FROM docs),
            tiles AS (SELECT doc_id, w, h, tx,
                             unnest(range(0, CAST((h + 15) // 16
                                                  AS BIGINT))) AS ty
                      FROM xs)
            SELECT doc_id, CAST(tx AS BIGINT) AS tile_x,
                   CAST(ty AS BIGINT) AS tile_y,
                   CAST(LEAST(16, w - tx * 16) AS BIGINT) AS tile_w,
                   CAST(LEAST(16, h - ty * 16) AS BIGINT) AS tile_h
            FROM tiles ORDER BY doc_id, tile_x, tile_y
        """,
        "multimodal_resize": """
            WITH geom AS (
                SELECT doc_id,
                       CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                            ELSE 'video' END AS kind,
                       16 + (doc_id * 7) % 64 AS w,
                       16 + (doc_id * 13) % 48 AS h
                FROM documents
            )
            SELECT doc_id, kind,
                   CAST(greatest(1, w * 32 // greatest(w, h)) AS BIGINT) AS width,
                   CAST(greatest(1, h * 32 // greatest(w, h)) AS BIGINT) AS height
            FROM geom
        """,
        "multimodal_frames": """
            SELECT d.doc_id, CAST(t.j * 2 AS BIGINT) AS frame
            FROM documents d, range(4) t(j)
            WHERE d.doc_id % 3 = 2 AND t.j * 2 < 1 + d.doc_id % 8
        """,
    }
    # the gate's IVF query runs a full probe sweep (nprobe = n_clusters
    # — exact by construction, asserted at runtime), so the exact top-k
    # SQL is its oracle structurally; partial-probe recall is
    # pytest-characterized
    out["sim_ivf_topk"] = out["sim_topk_cosine"]
    out["sim_mmr"] = _mmr_chain_sql(k=8, pool=32)
    out["sim_kmeans_step"] = _kmeans_step_sql(n_clusters=4)
    out["sim_recall_audit"] = """
        -- recall@5 audit of the single-probe label-centroid bucket ANN
        -- vs exact brute force, all-integer (quantize floor(x*1e6),
        -- truncated-mean centroids, integer Euclidean d², rank order
        -- (d², id) — the centroid_classify arithmetic)
        WITH q AS MATERIALIZED (
            SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
                   CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE)
                              * 1000000) AS BIGINT) AS v
            FROM embeddings
        ),
        cs AS (SELECT e.label, q.dim, CAST(SUM(q.v) AS BIGINT) AS s,
                      CAST(COUNT(*) AS BIGINT) AS n
               FROM q JOIN embeddings e ON e.vec_id = q.vec_id
               GROUP BY 1, 2),
        cent AS MATERIALIZED (
            SELECT label, dim,
                   CAST(sign(s) * (abs(s) // n) AS BIGINT) AS c
            FROM cs),
        cdist AS (SELECT q.vec_id, cent.label AS clabel,
                         CAST(SUM((q.v - cent.c) * (q.v - cent.c))
                              AS BIGINT) AS d2
                  FROM q JOIN cent ON cent.dim = q.dim
                  GROUP BY 1, 2),
        bkt AS MATERIALIZED (
            SELECT vec_id, clabel AS bucket FROM (
                SELECT vec_id, clabel, row_number() OVER (
                    PARTITION BY vec_id ORDER BY d2, clabel) AS rn
                FROM cdist) WHERE rn = 1),
        pair AS MATERIALIZED (
            SELECT qa.vec_id AS query_id, qb.vec_id AS cand,
                   CAST(SUM((qa.v - qb.v) * (qa.v - qb.v)) AS BIGINT)
                       AS d2
            FROM q qa JOIN q qb
              ON qb.dim = qa.dim AND qb.vec_id <> qa.vec_id
            WHERE qa.vec_id % 10 = 0
            GROUP BY 1, 2),
        ex AS (SELECT query_id, cand, row_number() OVER (
                   PARTITION BY query_id ORDER BY d2, cand) AS rn
               FROM pair),
        an AS (SELECT p.query_id, p.cand, row_number() OVER (
                   PARTITION BY p.query_id ORDER BY p.d2, p.cand) AS rn
               FROM pair p
               JOIN bkt bq ON bq.vec_id = p.query_id
               JOIN bkt bc ON bc.vec_id = p.cand
                          AND bc.bucket = bq.bucket),
        hits AS (SELECT e.query_id, COUNT(*) AS n_hit
                 FROM ex e JOIN an a ON a.query_id = e.query_id
                                    AND a.cand = e.cand AND a.rn <= 5
                 WHERE e.rn <= 5 GROUP BY 1)
        SELECT b.vec_id AS query_id, CAST(b.bucket AS BIGINT) AS bucket,
               CAST(COALESCE(h.n_hit, 0) AS BIGINT) AS n_hit,
               CAST(CAST(1000000 AS BIGINT) * COALESCE(h.n_hit, 0) // 5
                    AS BIGINT) AS recall_e6
        FROM bkt b LEFT JOIN hits h ON h.query_id = b.vec_id
        WHERE b.vec_id % 10 = 0 ORDER BY query_id
    """
    out["graph_critical_path"] = _critpath_chain_sql(rounds=6)
    out["dedup_bloom"] = """
        -- streaming Bloom-filter dedup pre-filter audit: kh=2 md5 bit
        -- positions mod m=65536; a position is preset for doc d iff
        -- the min doc_id hashing to it is < d; flagged = every
        -- position preset (the exact-compare divert set — an FP audit
        -- on this dup-free corpus)
        WITH pos AS MATERIALIZED (
            SELECT DISTINCT doc_id,
                   md5_number_lower('bloom' || i || '-' || text) % 65536
                       AS p
            FROM documents, range(2) t(i)
        ),
        setter AS MATERIALIZED (
            SELECT p, MIN(doc_id) AS first_id FROM pos GROUP BY p
        ),
        audit AS (
            SELECT pos.doc_id, COUNT(*) AS n_pos,
                   SUM(CASE WHEN s.first_id < pos.doc_id
                            THEN 1 ELSE 0 END) AS n_preset
            FROM pos JOIN setter s ON s.p = pos.p
            GROUP BY pos.doc_id
        )
        SELECT doc_id, CAST(n_pos AS BIGINT) AS n_pos,
               CAST(n_preset AS BIGINT) AS n_preset,
               CAST(CASE WHEN n_preset = n_pos THEN 1 ELSE 0 END
                    AS BIGINT) AS flagged
        FROM audit ORDER BY doc_id
    """
    return out
