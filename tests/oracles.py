"""Executable reference specifications the parity tests compare against.

Nothing here runs in production: these are the readable, scalar forms
of arithmetic the engine performs in vectorized kernels, kept so a test
can state *what* float a kernel must produce without calling the kernel.
:func:`blocking_context` is one exception: the blocking stages'
artifacts, run the way every graph runs, for tests that build their
indices by hand from them.  The other is the last section: the
whole-column NumPy forms of the passes the engine now walks in pieces.
"""

import zlib
from array import array
from typing import Callable, Iterable, TypeVar

import numpy

from repro.blocking.base import Block
from repro.blocking.name_blocking import name_keys, names_from_attributes
from repro.core.candidates import CandidateLists
from repro.core.heuristics import Match
from repro.core.rank_aggregation import top_aggregate_candidate
from repro.core.similarity import block_token_weight
from repro.engine.partitioner import stable_hash
from repro.engine.similarity import _PAIR_KEY_SEPARATOR
from repro.ids import PAIR_ID_BITS, PAIR_ID_MASK, EntityInterner
from repro.ids.arrays import (
    crc32_combined,
    crc32_shift_tables,
    pair_ids,
    ragged_indices,
    ranked_side,
)
from repro.kb.tokenizer import Tokenizer
from repro.pipeline import (
    MatchSession,
    NameBlockingStage,
    PipelineContext,
    StageGraph,
    TokenBlockingStage,
)

Pair = tuple[str, str]
PairSums = dict[Pair, float]
T = TypeVar("T")


def blocking_context(kb1, kb2, config=None) -> PipelineContext:
    """``name_blocks`` / ``token_blocks`` and the rest of the two blocking
    stages' artifacts: a session's ``run_context()`` over a graph of just
    those stages."""
    graph = StageGraph([NameBlockingStage(), TokenBlockingStage()])
    return MatchSession(kb1, kb2, config, graph=graph).run_context()


def hash_partitions(
    items: Iterable[T], n_partitions: int, key: Callable[[T], str]
) -> list[list[T]]:
    """Assign each item to ``stable_hash(key(item)) % n_partitions``.

    Items keep their relative input order within a shard: the shard
    layout the string-keyed reference accumulations below fold over.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    shards: list[list[T]] = [[] for _ in range(n_partitions)]
    for item in items:
        shards[stable_hash(key(item)) % n_partitions].append(item)
    return shards


def block_shards(blocks: Iterable[Block], n_partitions: int) -> list[list[Block]]:
    """Blocks sorted by key, then hash-sharded by key (the valueSim
    reference layout)."""
    ordered = sorted(blocks, key=lambda block: block.key)
    return hash_partitions(ordered, n_partitions, key=lambda block: block.key)


def value_pair_key(pair: Pair) -> str:
    """The shard key of one value pair (stable across runs/processes)."""
    return pair[0] + _PAIR_KEY_SEPARATOR + pair[1]


def merge_pair_sums(accumulated: PairSums, partial_sums: PairSums) -> PairSums:
    """Fold one shard's partial sums into the running total (associative)."""
    for pair, value in partial_sums.items():
        accumulated[pair] = accumulated.get(pair, 0.0) + value
    return accumulated


def _value_partial(blocks: list[Block]) -> PairSums:
    """valueSim contributions of one block shard (string-keyed reference).

    Entities are scanned in sorted order so the shard's output — dict
    order included — does not depend on the interpreter's set-hash seed.
    Kept as the executable specification of the per-shard scan order;
    the live builder (``repro.engine.similarity.build_value_index``)
    walks it row by row: per output pair, blocks ascending by key.
    """
    sums: PairSums = {}
    for block in blocks:
        weight = block_token_weight(len(block.entities1), len(block.entities2))
        for uri1 in sorted(block.entities1):
            for uri2 in sorted(block.entities2):
                pair = (uri1, uri2)
                sums[pair] = sums.get(pair, 0.0) + weight
    return sums


def shard_merged_sum(
    contributions: Iterable[tuple[str, float]], n_shards: int
) -> float:
    """The batch builders' shard-ordered fold, for one pair.

    ``contributions`` are ``(shard key, weight)`` terms **in the batch
    scan order** (sorted by the stage's sort domain: block key for
    valueSim, value pair for neighborNSim).  Grouping by
    ``stable_hash(key) % n_shards``, subtotalling within each shard in
    scan order, and adding subtotals in ascending shard order is the
    float order ``build_value_index`` / ``build_neighbor_index`` commit
    to — a function of keys alone, never of position, which is why a
    rebuild on a post-delta state lands on the floats of a cold run.
    The row-owned kernels fold every pair of a run of output rows this
    way at once (``repro.ids.arrays.shard_ordered_sums``); this is
    their oracle (``tests/test_row_kernels.py``).
    """
    subtotals: dict[int, float] = {}
    for key, weight in contributions:
        shard = stable_hash(key) % n_shards
        subtotals[shard] = subtotals.get(shard, 0.0) + weight
    total = 0.0
    for shard in sorted(subtotals):
        total += subtotals[shard]
    return total


def value_sims_by_uri(blocks, n_shards: int) -> PairSums:
    """Every co-occurring pair's valueSim, folded as ``build_value_index``
    folds it: the pair's ``(block key, token weight)`` terms in block-key
    order, through :func:`shard_merged_sum`."""
    terms: dict[Pair, list] = {}
    for block in sorted(blocks.drop_empty(), key=lambda block: block.key):
        weight = block_token_weight(len(block.entities1), len(block.entities2))
        for uri1 in block.entities1:
            for uri2 in block.entities2:
                terms.setdefault((uri1, uri2), []).append((block.key, weight))
    return {pair: shard_merged_sum(row, n_shards) for pair, row in terms.items()}


def neighbor_sims_by_uri(
    value_sims: PairSums,
    top_neighbors1: dict[str, set[str]],
    top_neighbors2: dict[str, set[str]],
    n_shards: int,
) -> PairSums:
    """Every parent pair's neighborNSim, folded as ``build_neighbor_index``
    folds it: the ``(value pair key, valueSim)`` terms of the value pairs
    its top neighbors form, in value-pair order, through
    :func:`shard_merged_sum`."""
    reverse: list[dict[str, list[str]]] = [{}, {}]
    for parents, top_neighbors in zip(reverse, (top_neighbors1, top_neighbors2)):
        for parent, neighbors in top_neighbors.items():
            for neighbor in neighbors:
                parents.setdefault(neighbor, []).append(parent)
    terms: dict[Pair, list] = {}
    for pair, sim in sorted(value_sims.items()):
        for parent1 in reverse[0].get(pair[0], ()):
            for parent2 in reverse[1].get(pair[1], ()):
                terms.setdefault((parent1, parent2), []).append(
                    (value_pair_key(pair), sim)
                )
    return {pair: shard_merged_sum(row, n_shards) for pair, row in terms.items()}


def decoded_pairs(index) -> PairSums:
    """The ``{(uri1, uri2): sim}`` map an index's columns encode."""
    uris1, uris2 = (interner.uris() for interner in index.interners())
    keys, sims = index.packed_columns()
    return {
        (uris1[key >> PAIR_ID_BITS], uris2[key & PAIR_ID_MASK]): sim
        for key, sim in zip(keys.tolist(), sims.tolist())
    }


def index_of_pairs(sims: PairSums, index_type):
    """An ``index_type`` over a ``{(uri1, uri2): sim}`` map: the columns
    over interners of exactly the URIs the pairs name."""
    interner1 = EntityInterner(uri1 for uri1, _ in sims)
    interner2 = EntityInterner(uri2 for _, uri2 in sims)
    packed = sorted(
        ((interner1.id_of(uri1) << PAIR_ID_BITS) | interner2.id_of(uri2), sim)
        for (uri1, uri2), sim in sims.items()
    )
    return index_type.from_packed_columns(
        array("q", (key for key, _ in packed)),
        array("d", (sim for _, sim in packed)),
        interner1,
        interner2,
    )


def candidate_lists_by_uri(
    value_index, neighbor_index, uri: str, side: int, k: int, restrict: bool
) -> CandidateLists:
    """One entity's top-``k`` candidate lists, decided on decoded URIs.

    ``CandidateIndex._build`` as it stood before the id-level trim: the
    whole ranked neighbor row and the whole value partner set are
    decoded, filtered by URI membership, then cut to ``k``.
    """
    if side == 1:
        value_ranked = value_index.candidates_of_entity1(uri, k)
        neighbor_ranked = neighbor_index.candidates_of_entity1(uri)
    else:
        value_ranked = value_index.candidates_of_entity2(uri, k)
        neighbor_ranked = neighbor_index.candidates_of_entity2(uri)

    if restrict:
        cooccurring = {
            candidate
            for candidate, _ in (
                value_index.candidates_of_entity1(uri)
                if side == 1
                else value_index.candidates_of_entity2(uri)
            )
        }
        neighbor_ranked = [
            (candidate, sim)
            for candidate, sim in neighbor_ranked
            if candidate in cooccurring
        ]
    neighbor_ranked = neighbor_ranked[:k]

    return CandidateLists(
        value=tuple(candidate for candidate, _ in value_ranked),
        neighbor=tuple(candidate for candidate, _ in neighbor_ranked),
    )


def resolve_scores_by_uri(
    record, tokenizer, token_blocks, value_index, top_neighbors2, top_relations1
):
    """A never-seen record's ``(value, neighbor)`` score dicts, on URIs.

    The online resolver's dict-loop scorer, kept as its reference.
    Value: the record's tokens, sorted, each pick a block, which adds
    ``block_token_weight(|b1|, |b2|)`` to every side-2 URI in it.
    Neighbor: each top-relation target, sorted, walks its ranked value
    row and adds each ``(uri2, sim)`` to the KB2 entities listing
    ``uri2`` as a top neighbor; the per-target rows then merge, each
    walked in URI order.
    """
    value: dict[str, float] = {}
    for token in sorted(tokenizer.token_set(record)):
        block = token_blocks.get(token)
        if block is None or block.is_empty():
            continue
        weight = block_token_weight(len(block.entities1), len(block.entities2))
        for uri2 in block.entities2:
            value[uri2] = value.get(uri2, 0.0) + weight

    parents: dict[str, list[str]] = {}
    for parent in sorted(top_neighbors2):
        for neighbor in top_neighbors2[parent]:
            parents.setdefault(neighbor, []).append(parent)
    wanted = set(top_relations1)
    targets = sorted(
        {
            target
            for relation, target in record.relation_pairs()
            if relation in wanted
        }
    )
    neighbor: dict[str, float] = {}
    for target in targets:
        row: dict[str, float] = {}
        for uri2, sim in value_index.candidates_of_entity1(target):
            for parent in parents.get(uri2, ()):
                row[parent] = row.get(parent, 0.0) + sim
        for parent in sorted(row):
            neighbor[parent] = neighbor.get(parent, 0.0) + row[parent]
    return value, neighbor


def ranked_by_uri(rows: dict[str, float]) -> list[tuple[str, float]]:
    """``(uri, score)`` rows by ``(-score, uri)``."""
    return sorted(rows.items(), key=lambda item: (-item[1], item[0]))


def resolve_rows_by_uri(
    record,
    tokenizer,
    token_blocks,
    value_index,
    top_neighbors2,
    top_relations1,
    k,
):
    """A never-seen record's ``(value, neighbor, best)`` rows, on URIs:
    :func:`resolve_scores_by_uri`'s dicts ranked by ``(-score, uri)``,
    cut to ``k``; ``best`` is the top value row, uncut."""
    value, neighbor = resolve_scores_by_uri(
        record, tokenizer, token_blocks, value_index, top_neighbors2, top_relations1
    )
    value_rows = ranked_by_uri(value)
    return (
        tuple(value_rows[:k]),
        tuple(ranked_by_uri(neighbor)[:k]),
        value_rows[0] if value_rows else None,
    )


def resolve_decision_by_uri(record, ctx, k, h1_names=None):
    """A never-seen record's online decision, on URIs: the resolver's
    H1–H4 ladder as a dict loop over :func:`resolve_scores_by_uri`.

    - the H3 lists: the top ``k`` value URIs by ``(-score, uri)``, and
      the top ``k`` neighbor URIs — under the conference H3 only those
      with a value score too;
    - the ladder walks ``ctx.config.heuristics``: H1 (over ``h1_names``,
      :func:`h1_names_by_kb_walk`'s tables; skipped when ``None``), H2
      (the best value score is ``>= 1.0``), H3
      (``top_aggregate_candidate``); the first that fires decides;
    - H4, if listed, keeps it only when its KB2 entity is in one of the
      record's lists and the record's value score, or its neighbor
      score, would enter that entity's top ``k`` — the counterfactual
      bar is the ``k``-th of ``csr_row(2, uri2, k)``, none when the row
      is shorter.
    """
    config = ctx.config
    restrict = config.restrict_h3_to_cooccurring
    value, neighbor = resolve_scores_by_uri(
        record,
        Tokenizer(),
        ctx.get("token_blocks"),
        ctx.get("value_index"),
        ctx.get("top_neighbors2"),
        ctx.get_or("top_relations1", ()),
    )
    if restrict:
        neighbor_rows = {uri: s for uri, s in neighbor.items() if uri in value}
    else:
        neighbor_rows = neighbor
    value_uris = [uri for uri, _ in ranked_by_uri(value)[:k]]
    neighbor_uris = [uri for uri, _ in ranked_by_uri(neighbor_rows)[:k]]

    match = None
    for name in config.heuristics:
        if name == "h1" and h1_names is not None:
            match = h1_match_by_kb_walk(
                record, h1_names, ctx.get("name_attributes1")
            )
        elif name == "h2" and value_uris and value[value_uris[0]] >= 1.0:
            match = Match(record.uri, value_uris[0], "H2", value[value_uris[0]])
        elif name == "h3":
            best = top_aggregate_candidate(value_uris, neighbor_uris, config.theta)
            if best is not None:
                match = Match(record.uri, best[0], "H3", best[1])
        if match is not None:
            break
    if match is None or "h4" not in config.heuristics:
        return match

    uri2 = match.uri2
    if uri2 not in value_uris and uri2 not in neighbor_uris:
        return None
    bars = []
    for index in (ctx.get("value_index"), ctx.get("neighbor_index")):
        _, sims = index.csr_row(2, uri2, k)
        bars.append(sims[-1] if len(sims) == k else None)
    value_score = value.get(uri2, 0.0)
    neighbor_score = neighbor.get(uri2, 0.0)
    if value_score > 0.0 and (bars[0] is None or value_score >= bars[0]):
        return match
    if neighbor_score > 0.0 and (value_score > 0.0 or not restrict):
        if bars[1] is None or neighbor_score >= bars[1]:
            return match
    return None


def h1_names_by_kb_walk(kb1, kb2, name_attributes1, name_attributes2):
    """Online H1's tables, derived by re-keying every entity of both KBs:
    the name keys some KB1 entity carries, and per KB2 name key its sole
    carrier (``None`` when two or more KB2 entities share it).

    The online resolver built these from the live KBs until it read them
    off the published name placements instead; kept as their reference.
    """
    extractor1 = names_from_attributes(name_attributes1)
    names1 = frozenset().union(*(name_keys(e, extractor1) for e in kb1))
    names2: dict[str, str | None] = {}
    extractor2 = names_from_attributes(name_attributes2)
    for entity in kb2:
        for key in name_keys(entity, extractor2):
            names2[key] = None if key in names2 else entity.uri
    return names1, names2


def h1_match_by_kb_walk(record, names, name_attributes1):
    """A never-seen record's online H1 decision over
    :func:`h1_names_by_kb_walk`'s tables: its first name key, in sorted
    order, that no KB1 entity carries and exactly one KB2 entity does."""
    names1, names2 = names
    extractor = names_from_attributes(name_attributes1)
    for key in sorted(name_keys(record, extractor)):
        if key not in names1 and names2.get(key) is not None:
            return Match(record.uri, names2[key], "H1")
    return None


def h4_bars_by_uri(
    value_index, neighbor_index, uri2: str, k: int, restrict: bool
) -> tuple[float | None, float | None]:
    """A KB2 entity's online-H4 entry bars, decided on decoded rows.

    ``OnlineResolver._h4_bars`` as it stood before it read the CSR
    ``sims`` column at the positions the id-level trim keeps: the k-th
    value score and the k-th (co-occurrence-restricted) neighbor score,
    ``None`` where the list is shorter than ``k``.
    """
    row = value_index.candidates_of_entity2(uri2, k)
    value_bar = row[-1][1] if len(row) >= k else None
    nbr_row = neighbor_index.candidates_of_entity2(uri2)
    if restrict:
        partners = {u for u, _ in value_index.candidates_of_entity2(uri2)}
        nbr_row = [(uri1, sim) for uri1, sim in nbr_row if uri1 in partners]
    nbr_row = nbr_row[:k]
    neighbor_bar = nbr_row[-1][1] if len(nbr_row) >= k else None
    return value_bar, neighbor_bar


def ranked_rows_by_uri(index, side: int) -> dict[str, list[str]]:
    """Every ``side`` row of an index, its counterpart URIs sorted by
    ``(-sim, uri)``: decoded pairs and one sort, no ranked CSR rows."""
    rows: dict[str, list[tuple[float, str]]] = {}
    for (uri1, uri2), sim in decoded_pairs(index).items():
        own, other = (uri1, uri2) if side == 1 else (uri2, uri1)
        rows.setdefault(own, []).append((-sim, other))
    return {uri: [other for _, other in sorted(row)] for uri, row in rows.items()}


def h4_filter_by_uri(
    matches, value_index, neighbor_index, k: int
) -> tuple[list[Match], list[Match]]:
    """H4 on URI lists, as it stood before the rank count: a match is
    kept when each entity's top-``k`` value or neighbor list holds the
    other.  Each index lists only the URIs it interned."""
    tops = {
        side: [
            {uri: row[:k] for uri, row in ranked_rows_by_uri(index, side).items()}
            for index in (value_index, neighbor_index)
        ]
        for side in (1, 2)
    }

    def listed(side: int, uri: str, other: str) -> bool:
        return any(other in top.get(uri, ()) for top in tops[side])

    kept: list[Match] = []
    discarded: list[Match] = []
    for match in matches:
        mutual = listed(1, match.uri1, match.uri2) and listed(
            2, match.uri2, match.uri1
        )
        (kept if mutual else discarded).append(match)
    return kept, discarded


def csr_candidate_lists(
    value_index, neighbor_index, uri: str, side: int, k: int
) -> CandidateLists:
    """One entity's lists as the id path cuts them: the first ``k`` ids
    of its ranked ``csr_row`` in each index, decoded — what
    ``CandidateIndex.of_entity1`` holds, on either side."""
    value_ids, _ = value_index.csr_row(side, uri, k)
    neighbor_ids, _ = neighbor_index.csr_row(side, uri, k)
    value_decode = value_index.interners()[2 - side].uris()
    neighbor_decode = neighbor_index.interners()[2 - side].uris()
    return CandidateLists(
        value=tuple(value_decode[i] for i in value_ids),
        neighbor=tuple(neighbor_decode[i] for i in neighbor_ids),
    )


# ----------------------------------------------------------------------
# Whole-column forms of the piecewise passes
# ----------------------------------------------------------------------
# Each pass below once ran over its whole column at once; the engine now
# walks the column in pieces sized from ``repro.ids.arrays.RUN_SIZE``.
# These are the whole-column forms, verbatim: the piecewise passes must
# equal them, and the memory guard checks that they would exceed it.
def packed_pair_shards_whole(keys, interner1, interner2, separator, n_shards):
    """The value pairs' shard column, every temporary column-sized."""
    prefixes = [(uri + separator).encode("utf-8") for uri in interner1.uris()]
    suffixes = [uri.encode("utf-8") for uri in interner2.uris()]
    prefix_crcs = numpy.fromiter(
        map(zlib.crc32, prefixes), numpy.uint32, len(prefixes)
    )
    suffix_crcs = numpy.fromiter(
        map(zlib.crc32, suffixes), numpy.uint32, len(suffixes)
    )
    tables, rows = crc32_shift_tables(list(map(len, suffixes)))
    keys = numpy.asarray(keys)
    id1 = keys >> PAIR_ID_BITS
    id2 = keys & PAIR_ID_MASK
    hashes = crc32_combined(
        prefix_crcs[id1], suffix_crcs[id2], rows[id2], tables
    )
    return (hashes % n_shards).astype(numpy.int32)


def row_work_whole(row_starts, row_ids, span_starts, members, starts2):
    """The kernels' cumulative contributions before each output row,
    by whole-column prefix sums."""
    row_starts, row_ids, span_starts, members, starts2 = map(
        numpy.asarray, (row_starts, row_ids, span_starts, members, starts2)
    )
    fans = numpy.cumsum(numpy.diff(starts2)[members])
    fans = numpy.concatenate(([0], fans))
    work = numpy.cumsum(numpy.diff(fans[span_starts])[row_ids])
    return numpy.concatenate(([0], work))[row_starts]


def in_top_k_whole(keys, sims, side, ids1, ids2, k):
    """H4's rank count, each round one masked pass over the whole key
    column."""
    keys = numpy.asarray(keys, dtype=numpy.int64)
    sims = numpy.asarray(sims, dtype=numpy.float64)
    ids1 = numpy.asarray(ids1, dtype=numpy.int64)
    ids2 = numpy.asarray(ids2, dtype=numpy.int64)
    listed = numpy.zeros(len(ids1), dtype=bool)
    query = (ids1 << 32) | ids2
    at = numpy.searchsorted(keys, query)
    found = (ids1 >= 0) & (ids2 >= 0) & (at < len(keys))
    found[found] = keys[at[found]] == query[found]
    pending = numpy.flatnonzero(found)
    if k < 1 or not len(pending):
        return listed
    rows, others = (ids1, ids2) if side == 1 else (ids2, ids1)
    n = int(rows[pending].max()) + 1
    pair_rows = keys >> 32 if side == 1 else keys & 0xFFFFFFFF
    numpy.minimum(pair_rows, n, out=pair_rows)  # row n: no query's
    while len(pending):
        _, firsts = numpy.unique(rows[pending], return_index=True)
        now = pending[firsts]
        pending = numpy.delete(pending, firsts)
        bars = numpy.full(n + 1, numpy.inf)
        bars[rows[now]] = sims[at[now]]
        bar_others = numpy.zeros(n + 1, dtype=numpy.int64)
        bar_others[rows[now]] = others[now]
        pair_bars = bars[pair_rows]
        ahead = numpy.bincount(pair_rows[sims > pair_bars], minlength=n + 1)
        tied = numpy.flatnonzero(sims == pair_bars)
        tied_rows = pair_rows[tied]
        tied_others = keys[tied] & 0xFFFFFFFF if side == 1 else keys[tied] >> 32
        ahead += numpy.bincount(
            tied_rows[tied_others < bar_others[tied_rows]], minlength=n + 1
        )
        listed[now] = ahead[rows[now]] < k
    return listed


def ranked_side_whole(keys, sims, side, n, depth, rows=None):
    """One side's ranked rows in one ``ranked_side`` pass over every
    pair it ranks — the side-1 ``rows`` (ascending ids) gathered run by
    run when given."""
    keys = numpy.asarray(keys, dtype=numpy.int64)
    sims = numpy.asarray(sims, dtype=numpy.float64)
    if rows is not None:
        rows = numpy.asarray(rows, dtype=numpy.int64)
        starts = numpy.searchsorted(keys, rows << 32)
        stops = numpy.searchsorted(keys, (rows + 1) << 32)
        _, positions = ragged_indices(starts, stops - starts)
        keys, sims = keys[positions], sims[positions]
    ids = pair_ids(keys)
    return ranked_side(ids[side - 1], ids[2 - side], sims, n, depth)
