"""One in-memory form of the similarity indices: sorted pair columns.

``PackedSimilarityIndex`` state is an ascending packed-key column plus a
parallel similarity column — whichever buffers the producer emitted —
and everything else (ranked CSR rows, ``similarity()``, the canonical
digest form) derives from them.  These suites pin that:

- every column form (``array``, ``memoryview``, NumPy) lands on the same
  index, for arbitrary sparse pair sets (ties, ``0.0``, subnormal and
  huge sums, empty sides);
- the kernels (``sequential_unique_sums``, ``ranked_side``) equal the
  pure-Python fold / 3-key sort they replace, float for float, and a
  side ranked to a depth is the whole rows' prefixes, bytes equal;
- the row digest (``rows_digest``, the oracle) renders byte-identically
  to the ``sorted(pairs)`` JSON form, and the column digest
  (``artifact_digest``) is a function of the pair map alone: equal
  exactly when the row digests are, whatever interner padding or buffer
  type produced the columns.
"""

import hashlib
import json
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    blocking_context,
    decoded_pairs,
    index_of_pairs,
    in_top_k_whole,
    neighbor_sims_by_uri,
    packed_pair_shards_whole,
    ranked_side_whole,
    row_work_whole,
    value_sims_by_uri,
)

from repro.blocking.base import Block, BlockCollection
from repro.core import MinoanERConfig
from repro.core.neighbors import NeighborSimilarityIndex, top_neighbors
from repro.core.similarity import PackedSimilarityIndex, ValueSimilarityIndex
from repro.core.statistics import top_relations
from repro.datasets import generate_benchmark
from repro.engine import (
    build_neighbor_index,
    build_value_index,
    partition_count,
    similarity,
)
from repro.ids import EntityInterner, PAIR_ID_BITS, arrays
from repro.kb.io_ntriples import read_ntriples
from repro.obs import Telemetry, activate
from repro.pipeline import MatchSession, artifact_digest, context_digests
from repro.pipeline.digest import rows_digest

GOLDEN = Path(__file__).parent / "golden"

_RELAXED = settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
#: Sums an index must carry unchanged: exact ties, zero, the smallest
#: subnormal and normal doubles, and sums at the top of the range.
SPECIAL_SIMS = [
    0.0,
    5e-324,
    2.2250738585072014e-308,
    0.1,
    0.5,
    1.0,
    1.0000000000000002,
    3.0,
    1e308,
    1.7976931348623157e308,
]

sims_values = st.one_of(
    st.sampled_from(SPECIAL_SIMS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)

#: Sparse pair maps over small id ranges (so rows share entities and
#: similarities collide), the empty map included.
pair_maps = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    sims_values,
    max_size=24,
)


def uri(side: int, position: int) -> str:
    return f"urn:kb{side}:e{position}"


def as_uri_map(id_pairs: dict) -> dict:
    return {
        (uri(1, id1), uri(2, id2)): sim for (id1, id2), sim in id_pairs.items()
    }


def columns_of(sims: dict, interner1, interner2) -> tuple[array, array]:
    """The ascending ``(keys, sims)`` columns of a URI-keyed pair map."""
    packed = {
        (interner1.id_of(uri1) << PAIR_ID_BITS) | interner2.id_of(uri2): sim
        for (uri1, uri2), sim in sims.items()
    }
    keys = array("q", sorted(packed))
    return keys, array("d", (packed[key] for key in keys))


def ranked_rows(sims: dict) -> tuple[dict, dict]:
    """Per-entity candidate lists, best first, URI breaking ties."""
    rows1: dict = {}
    rows2: dict = {}
    for (uri1, uri2), sim in sims.items():
        rows1.setdefault(uri1, []).append((uri2, sim))
        rows2.setdefault(uri2, []).append((uri1, sim))
    for rows in (rows1, rows2):
        for ranked in rows.values():
            ranked.sort(key=lambda item: (-item[1], item[0]))
    return rows1, rows2


def assert_answers(index: PackedSimilarityIndex, sims: dict) -> None:
    """Every URI-facing query of ``index`` equals the plain-dict answer."""
    rows1, rows2 = ranked_rows(sims)
    assert len(index) == len(sims)
    assert decoded_pairs(index) == sims  # float ==, not approx
    decode1, decode2 = (interner.uris() for interner in index.interners())
    for uri1, ranked in rows1.items():
        assert index.candidates_of_entity1(uri1) == ranked
        assert index.candidates_of_entity1(uri1, 2) == ranked[:2]
        assert [
            (decode2[col], sim) for col, sim in zip(*index.csr_row(1, uri1))
        ] == ranked
        assert index.best_candidate(uri1) == ranked[0]
        runner_up = ranked[1] if len(ranked) > 1 else None
        assert index.best_candidate(uri1, exclude={ranked[0][0]}) == runner_up
    for uri2, ranked in rows2.items():
        assert index.candidates_of_entity2(uri2) == ranked
        assert [
            (decode1[col], sim) for col, sim in zip(*index.csr_row(2, uri2))
        ] == ranked
    for (uri1, uri2), sim in sims.items():
        found = index.similarity(uri1, uri2)
        assert type(found) is float and found == sim
    for uri1 in [uri(1, i) for i in range(9)]:
        for uri2 in [uri(2, j) for j in range(9)]:
            if (uri1, uri2) not in sims:
                assert index.similarity(uri1, uri2) == 0.0
    assert index.similarity("urn:absent", uri(2, 0)) == 0.0
    assert index.similarity(uri(1, 0), "urn:absent") == 0.0
    assert index.candidates_of_entity1("urn:absent") == []
    assert index.best_candidate("urn:absent") is None


def csr_state(index: PackedSimilarityIndex) -> list:
    return [
        [list(column) for column in index.csr_columns(side)] for side in (1, 2)
    ]


# ----------------------------------------------------------------------
# Every constructor, one form
# ----------------------------------------------------------------------
@_RELAXED
@given(id_pairs=pair_maps)
def test_adopting_constructors_agree(numpy_arm, id_pairs):
    """``from_packed_columns`` adopts ``array``, ``memoryview`` (the mmap
    form) and NumPy columns as they are, and every form answers alike."""
    sims = as_uri_map(id_pairs)
    interner1 = EntityInterner(uri1 for uri1, _ in sims)
    interner2 = EntityInterner(uri2 for _, uri2 in sims)
    keys, values = columns_of(sims, interner1, interner2)
    forms = [
        (keys, values),
        # the mmap form: read-only typed views over foreign bytes
        (
            memoryview(keys.tobytes()).cast("q"),
            memoryview(values.tobytes()).cast("d"),
        ),
        (
            numpy.array(keys, dtype=numpy.int64),
            numpy.array(values, dtype=numpy.float64),
        ),
    ]
    built = [
        PackedSimilarityIndex.from_packed_columns(*form, interner1, interner2)
        for form in forms
    ]
    for form, index in zip(forms, built):
        assert_answers(index, sims)
        assert csr_state(index) == csr_state(built[0])
        stored_keys, stored_values = index.packed_columns()
        assert stored_keys is form[0] and stored_values is form[1]


blocks_strategy = st.lists(
    st.tuples(
        st.sets(st.integers(0, 5), min_size=1, max_size=4),
        st.sets(st.integers(0, 5), min_size=1, max_size=4),
    ),
    max_size=8,
)


@_RELAXED
@given(raw_blocks=blocks_strategy)
def test_reference_block_constructor_agrees(numpy_arm, raw_blocks):
    """The engine builders answer identically to an index adopted from
    the per-pair oracles' own maps, float ``==`` — the empty collection
    included."""
    blocks = BlockCollection("BT")
    for position, (side1, side2) in enumerate(raw_blocks):
        blocks.add(
            Block(
                f"t{position}",
                {uri(1, i) for i in side1},
                {uri(2, j) for j in side2},
            )
        )
    sims = value_sims_by_uri(blocks, partition_count(len(blocks)))
    value_index = build_value_index(blocks)
    assert_answers(value_index, sims)
    assert_answers(index_of_pairs(sims, ValueSimilarityIndex), sims)
    neighbors = {uri(1, i): {uri(1, (i + 1) % 6)} for i in range(6)}
    neighbors2 = {uri(2, j): {uri(2, (j + 1) % 6)} for j in range(6)}
    assert_answers(
        build_neighbor_index(value_index, neighbors, neighbors2),
        neighbor_sims_by_uri(
            sims, neighbors, neighbors2, partition_count(len(sims))
        ),
    )


# ----------------------------------------------------------------------
# The two kernels, against what they replace
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 12), sims_values),
        max_size=120,
    )
)
def test_sequential_unique_sums_equals_dict_fold(contributions):
    from repro.ids.arrays import sequential_unique_sums

    reference: dict[int, float] = {}
    for key, weight in contributions:
        reference[key] = reference.get(key, 0.0) + weight
    unique, sums = sequential_unique_sums(
        numpy.array([k for k, _ in contributions], dtype=numpy.int64),
        numpy.array([w for _, w in contributions], dtype=numpy.float64),
    )
    assert sums.dtype == numpy.float64
    assert unique.tolist() == sorted(reference)
    assert sums.tolist() == [reference[key] for key in sorted(reference)]


def side_columns(id_pairs: dict, side: int) -> tuple:
    """``(rows, other, sims)`` of one side of an id-keyed pair map, in
    ascending packed-key order (what ``ranked_side`` reads)."""
    packed = sorted(
        ((id1 << PAIR_ID_BITS) | id2, sim) for (id1, id2), sim in id_pairs.items()
    )
    keys = numpy.array([key for key, _ in packed], dtype=numpy.int64)
    ids = (keys >> PAIR_ID_BITS, keys & 0xFFFFFFFF)
    sims = array("d", (sim for _, sim in packed))
    return ids[side - 1], ids[2 - side], sims


@given(id_pairs=pair_maps)
def test_ranked_side_equals_three_key_sort(id_pairs):
    """The stability-ranked build of each side equals the explicit
    3-key sort it replaces (and with it the per-entity ``(-sim, uri)``
    sorts), as ``array`` columns."""
    from repro.ids.arrays import ranked_side

    triples = [(id1, id2, sim) for (id1, id2), sim in sorted(id_pairs.items())]
    for side in (1, 2):
        ranked = sorted(
            triples, key=lambda t: (t[side - 1], -t[2], t[2 - side])
        )
        lengths = [
            sum(t[side - 1] == i for t in triples) for i in range(8)
        ]
        starts, cols, sims, true_lengths, kept = ranked_side(
            *side_columns(id_pairs, side), 8
        )
        assert [c.typecode for c in (starts, cols, sims)] == list("qid")
        assert list(starts) == [sum(lengths[:i]) for i in range(9)]
        assert list(cols) == [t[2 - side] for t in ranked]
        assert list(sims) == [t[2] for t in ranked]  # float ==
        assert list(true_lengths) == lengths
        assert kept == len(triples)


#: Similarities that stress the depth cut's coarse key: heavy ties,
#: floats one ulp apart (their top 31 bits collide), ``-0.0`` beside
#: ``+0.0``, negatives and the subnormal edges.
DEPTH_SIMS = [
    1.0,
    1.0000000000000002,
    1.0000000000000004,
    0.9999999999999999,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    -1.0,
    -1.0000000000000002,
    -2.5,
    3.0,
]

#: Pair maps with rows shorter than, equal to and longer than small
#: depths: side 1 has few ids, side 2 many, so rows of both lengths
#: occur on both sides; ids that never occur leave empty rows.
deep_pair_maps = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 15)),
    st.one_of(
        st.sampled_from(DEPTH_SIMS),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=48,
)


@given(id_pairs=deep_pair_maps, depth=st.integers(1, 7))
# -0.0 ties +0.0: the smaller counterpart id wins, whatever its sign
@example(
    id_pairs={
        (0, 1): -0.0,
        (0, 2): 0.0,
        (0, 3): 0.0,
        (1, 1): 0.0,
        (2, 1): -0.0,
    },
    depth=1,
)
# one ulp apart: the coarse keys collide, the exact rank separates them
@example(
    id_pairs={
        (0, 1): 1.0,
        (0, 2): 1.0000000000000002,
        (0, 3): 1.0000000000000004,
        (0, 4): 0.9999999999999999,
    },
    depth=2,
)
@example(
    id_pairs={
        (0, 1): -1.0,
        (0, 2): -1.0000000000000002,
        (0, 3): -2.5,
        (0, 4): -5e-324,
    },
    depth=2,
)
def test_depth_rows_are_whole_row_prefixes(id_pairs, depth):
    """A side ranked to ``depth`` holds the first ``depth`` entries of
    each whole ranked row — ids ``==``, similarity bytes ``==`` — and
    every row's true length; it ranks no more pairs than the whole."""
    from repro.ids.arrays import ranked_side

    for side, n in ((1, 5), (2, 17)):
        columns = side_columns(id_pairs, side)
        whole_starts, whole_cols, whole_sims, lengths, _ = ranked_side(
            *columns, n
        )
        starts, cols, sims, cut_lengths, kept = ranked_side(
            *columns, n, depth
        )
        assert list(cut_lengths) == list(lengths)
        assert kept <= len(id_pairs)
        for row in range(n):
            lo = whole_starts[row]
            hi = min(whole_starts[row + 1], lo + depth)
            assert list(cols[starts[row] : starts[row + 1]]) == list(
                whole_cols[lo:hi]
            )
            assert (
                sims[starts[row] : starts[row + 1]].tobytes()
                == whole_sims[lo:hi].tobytes()
            )
            assert lengths[row] == whole_starts[row + 1] - lo


@given(
    id_pairs=deep_pair_maps,
    depth=st.one_of(st.none(), st.integers(1, 7)),
    subset=st.one_of(st.none(), st.sets(st.integers(0, 4))),
)
# row 0 is longer than a group of one or of three pairs
@example(
    id_pairs={(0, j): float(j % 3) for j in range(9)} | {(1, 0): 1.0},
    depth=2,
    subset=None,
)
@example(
    id_pairs={(0, j): float(j % 3) for j in range(9)} | {(2, 3): 1.0},
    depth=None,
    subset={0, 2, 4},
)
def test_grouped_side1_ranking_equals_one_pass(id_pairs, depth, subset):
    """Side 1 ranked in row groups — of one pair, three pairs or every
    pair, a group being at least one row — holds exactly the rows one
    ``ranked_side`` pass over every ranked pair holds: for the whole
    side and for a subset of rows, whole and cut at a depth; ``csr_row``
    reads them, ids ``==`` and similarity bytes ``==``, and
    ``similarity.ranked_pairs_kept`` counts the same pairs."""
    index = index_of_pairs(as_uri_map(id_pairs), ValueSimilarityIndex)
    interner1 = index.interners()[0]
    rows = None
    if subset is not None:
        rows = [uri(1, position) for position in subset]
        present = [interner1.get(row) for row in rows]
        subset = sorted(entity for entity in present if entity is not None)
    expected = ranked_side_whole(
        *index.packed_columns(), 1, len(interner1), depth, subset
    )
    # a group holds at most RUN_SIZE // 4 pairs, and at least one row
    for run_size in (1, 12, 1 << 40):
        ranked = index_of_pairs(as_uri_map(id_pairs), ValueSimilarityIndex)
        telemetry = Telemetry.create()
        with mock.patch.object(arrays, "RUN_SIZE", run_size), activate(
            telemetry
        ):
            ranked.rank(1, depth, rows)
        (span,) = [
            record.args
            for record in telemetry.tracer.records()
            if record.name == "similarity.ranked_rows"
        ]
        if run_size == 1 << 40:
            assert span["groups"] == (1 if len(interner1) and subset != [] else 0)
        cut = ranked._ranked[0]
        assert list(cut.starts) == list(expected[0]), run_size
        assert list(cut.cols) == list(expected[1]), run_size
        assert cut.sims.tobytes() == expected[2].tobytes(), run_size
        assert list(cut.lengths) == list(expected[3]), run_size
        counters = telemetry.metrics.counters()
        assert counters["similarity.ranked_pairs_kept"] == expected[4]
        for entity in subset if subset is not None else range(len(interner1)):
            lo, hi = expected[0][entity], expected[0][entity + 1]
            ids, sims = ranked.csr_row(1, interner1.uris()[entity], depth)
            assert list(ids) == list(expected[1][lo:hi])
            assert sims.tobytes() == expected[2][lo:hi].tobytes()


def long_row_index() -> ValueSimilarityIndex:
    """Side-1 row ``e0`` of 20 candidates, ``e1`` of 2, the others of
    one; side-2 row ``e0`` of 10 candidates, the others of one or two.
    Ties sit across the depth-3 cut of both long rows."""
    sims = {(uri(1, 0), uri(2, j)): float(20 - j) for j in range(20)}
    sims[(uri(1, 0), uri(2, 3))] = 18.0  # ties with e2 at the cut
    sims.update({(uri(1, 1), uri(2, 0)): 0.5, (uri(1, 1), uri(2, 1)): 0.5})
    sims.update({(uri(1, i), uri(2, 0)): float(i % 3) for i in range(2, 10)})
    return index_of_pairs(sims, ValueSimilarityIndex)


def fallbacks(telemetry) -> int:
    counters = telemetry.metrics.counters()
    return counters.get("similarity.whole_side_fallbacks", 0)


def test_best_candidate_walks_past_an_exhausted_depth_cut():
    """H2's walk on a row cut at depth 3 whose prefix is all excluded
    goes on over that row ranked whole — the whole-row walk's answer —
    and ranks no side again: the side stays cut."""
    whole = long_row_index()
    excludes = [{uri(2, j) for j in range(n)} for n in (3, 4, 19, 20)]
    walks = [whole.best_candidate(uri(1, 0), exclude) for exclude in excludes]
    assert walks[-1] is None
    cut = long_row_index()
    telemetry = Telemetry.create()
    with activate(telemetry):
        assert cut.best_candidate(uri(1, 1), depth=3) == (uri(2, 0), 0.5)
        for exclude, walk in zip(excludes, walks):
            assert cut.best_candidate(uri(1, 0), exclude, depth=3) == walk
        first_three = {uri(2, 0), uri(2, 1), uri(2, 2)}
        assert cut.best_candidate(uri(1, 0), first_three) == (uri(2, 3), 18.0)
    assert [
        record.args
        for record in telemetry.tracer.records()
        if record.name == "similarity.ranked_rows"
    ] == [{"side": 1, "depth": 3, "rows": None, "groups": 1}]
    assert fallbacks(telemetry) == 0
    assert type(cut.best_candidate(uri(1, 0), {uri(2, 0)})[1]) is float


def test_csr_row_deeper_than_the_cut_reads_the_whole_row():
    """``csr_row`` with ``k`` above the depth a side was first read at
    answers the whole row's prefix: a side-1 row is ranked alone (one
    run of the key column), a side-2 row ranks its side whole once, a
    counted fallback.  A row the cut did not shorten is served from the
    cut rows."""
    whole = long_row_index()
    rows = {
        (side, position, k): whole.csr_row(side, uri(side, position), k)
        for side, position in ((1, 0), (1, 1), (2, 0), (2, 1))
        for k in (1, 3, 4, 15, None)
    }
    cut = long_row_index()
    telemetry = Telemetry.create()
    with activate(telemetry):
        assert cut.csr_row(1, uri(1, 0), 3) == rows[1, 0, 3]
        assert cut.csr_row(1, uri(1, 1), 15) == rows[1, 1, 15]
        assert cut.csr_row(2, uri(2, 0), 3) == rows[2, 0, 3]
        assert cut.csr_row(2, uri(2, 1), None) == rows[2, 1, None]
        for k in (4, 15, None):
            assert cut.csr_row(1, uri(1, 0), k) == rows[1, 0, k]
        assert fallbacks(telemetry) == 0
        for k in (4, None, 1):
            assert cut.csr_row(2, uri(2, 0), k) == rows[2, 0, k]
        assert fallbacks(telemetry) == 1
        assert cut.csr_row(1, uri(1, 0), 4) == rows[1, 0, 4]
    assert [
        record.args
        for record in telemetry.tracer.records()
        if record.name == "similarity.ranked_rows"
    ] == [
        {"side": 1, "depth": 3, "rows": None, "groups": 1},
        {"side": 2, "depth": 3, "rows": None, "groups": 1},
        {"side": 2, "depth": None, "rows": None, "groups": 1},
    ]


# ----------------------------------------------------------------------
# Digests: the row oracle keeps its bytes, the columns say the same thing
# ----------------------------------------------------------------------
def old_rows_digest(index) -> str:
    """SHA-256 of the ``sorted`` pair-map JSON rendering."""
    rendered = json.dumps(
        [
            [uri1, uri2, sim]
            for (uri1, uri2), sim in sorted(decoded_pairs(index).items())
        ],
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


@_RELAXED
@given(id_pairs=pair_maps)
def test_canonical_form_is_byte_identical(numpy_arm, id_pairs):
    index = index_of_pairs(as_uri_map(id_pairs), ValueSimilarityIndex)
    assert rows_digest(index) == old_rows_digest(index)


def test_canonical_form_on_golden_fixture(numpy_arm):
    kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
    kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
    session = MatchSession(kb1, kb2)
    session.match()
    ctx = session.run_context()
    full = MatchSession(
        kb1, kb2, MinoanERConfig(restrict_h3_to_cooccurring=False)
    ).run_context()
    expected = json.loads((GOLDEN / "digests.json").read_text("utf-8"))
    digests = context_digests(ctx)
    for pinned, run, name in (
        ("value_index", ctx, "value_index"),
        ("neighbor_index", full, "neighbor_index"),
        ("neighbor_index.cooccurring", ctx, "neighbor_index"),
    ):
        index = run.get(name)
        assert rows_digest(index) == old_rows_digest(index) == expected[pinned]
        assert artifact_digest(index) == expected[f"{pinned}.columns"]
    assert digests["neighbor_index"] == expected[
        "neighbor_index.cooccurring.columns"
    ]


#: What a digest must tell apart although ``==`` cannot (``-0.0``), what
#: a decimal rendering could blur (neighbouring doubles, subnormals) and
#: what a careless byte layout could overflow or truncate (``1e300``).
DIGEST_SIMS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
    1.0000000000000002, -1.0, 1e300, -1e300, 1.7976931348623157e308,
]  # fmt: skip

digest_pair_maps = st.dictionaries(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    st.one_of(
        st.sampled_from(DIGEST_SIMS),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=24,
)


def digest_uri(side: int, position: int) -> str:
    """URIs whose order is not their position's (``e10`` < ``e2``), of
    differing and non-ASCII lengths (``é`` is two UTF-8 bytes)."""
    return f"urn:kb{side}:{'é' * (position % 3)}e{position}"


def index_routes(sims: dict) -> list:
    """One ``{(uri1, uri2): sim}`` map as every index a producer can
    hand the digest: exactly-referenced interners, interners carrying
    unreferenced URIs on both sides, and ``array`` / ``memoryview`` /
    NumPy columns."""
    routes = [index_of_pairs(sims, ValueSimilarityIndex)]
    padded1 = [uri1 for uri1, _ in sims] + [
        f"urn:kb1:unreferenced{i}" for i in range(3)
    ]
    padded2 = ["urn:kb2:", *(uri2 for _, uri2 in sims), "urn:kb2:zz-unreferenced"]
    interner1, interner2 = EntityInterner(padded1), EntityInterner(padded2)
    keys, values = columns_of(sims, interner1, interner2)
    columns = [
        (keys, values),
        (
            memoryview(keys.tobytes()).cast("q"),
            memoryview(values.tobytes()).cast("d"),
        ),
        (numpy.array(keys, numpy.int64), numpy.array(values, float)),
    ]
    routes.extend(
        NeighborSimilarityIndex.from_packed_columns(*pair, interner1, interner2)
        for pair in columns
    )
    return routes


@_RELAXED
@given(
    id_pairs=digest_pair_maps,
    other=st.one_of(st.none(), digest_pair_maps),
    data=st.data(),
)
def test_column_digest_equal_iff_row_digest_equal(id_pairs, other, data):
    """The column digest is a function of the pair map alone — every
    route of one map gives one hex — and it separates two
    maps exactly when the row oracle does."""
    if other is None:  # a near miss: the same pairs, at most one sim moved
        other = dict(id_pairs)
        if other:
            moved = data.draw(st.sampled_from(sorted(other)))
            other[moved] = data.draw(st.sampled_from(DIGEST_SIMS))
    digests = []
    for id_map in (id_pairs, other):
        sims = {
            (digest_uri(1, id1), digest_uri(2, id2)): sim
            for (id1, id2), sim in id_map.items()
        }
        routes = index_routes(sims)
        rows = {rows_digest(index) for index in routes}
        columns = {artifact_digest(index) for index in routes}
        assert len(rows) == 1 and len(columns) == 1
        digests.append((rows.pop(), columns.pop()))
    (rows_a, columns_a), (rows_b, columns_b) = digests
    assert (rows_a == rows_b) == (columns_a == columns_b)
    same_map = {k: repr(v) for k, v in id_pairs.items()} == {
        k: repr(v) for k, v in other.items()
    }
    assert (columns_a == columns_b) == same_map


def test_column_digest_length_prefixes_the_uris(numpy_arm):
    """``("a", "bc")`` and ``("ab", "c")`` concatenate alike; the
    length prefixes (and the per-side counts) keep them apart."""
    split = [
        index_of_pairs({pair: 1.0}, ValueSimilarityIndex)
        for pair in (("a", "bc"), ("ab", "c"), ("abc", ""), ("", "abc"))
    ]
    assert len({artifact_digest(index) for index in split}) == len(split)
    # ... and the two index types share one digest function of the map
    sims = {("a", "b"): 0.5}
    assert artifact_digest(
        index_of_pairs(sims, ValueSimilarityIndex)
    ) == artifact_digest(index_of_pairs(sims, NeighborSimilarityIndex))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_similarity_refuses_to_digest(numpy_arm, bad):
    """As ``allow_nan=False`` always made the row form refuse."""
    index = index_of_pairs(
        {("urn:a", "urn:b"): 1.0, ("urn:a", "urn:c"): bad}, ValueSimilarityIndex
    )
    with pytest.raises(ValueError):
        artifact_digest(index)
    with pytest.raises(ValueError):
        rows_digest(index)


def test_digest_builds_no_per_pair_objects(numpy_arm):
    """``artifact_digest`` of an index allocates a few column-sized
    temporaries (per-side ids, gathered ranks, re-packed keys: measured
    1.5-2.8x the 16 B/pair of the columns), never an object per pair —
    the row form it replaced peaks at 22-30x on the same indices."""
    kb1 = read_ntriples(GOLDEN / "kb1.nt", name="golden1")
    kb2 = read_ntriples(GOLDEN / "kb2.nt", name="golden2")
    session = MatchSession(kb1, kb2)
    session.match()
    for name in ("value_index", "neighbor_index"):
        index = session.run_context().get(name)
        peaks = {}
        for digest in (artifact_digest, rows_digest):
            digest(index)  # warm caches, untraced
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                digest(index)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[digest] = (peak - before) / (16 * len(index))
        assert peaks[artifact_digest] < 4.0 < 10.0 < peaks[rows_digest]


# ----------------------------------------------------------------------
# Memory guard
# ----------------------------------------------------------------------
def test_neighbor_build_memory_stays_unboxed(monkeypatch):
    """``build_neighbor_index`` on ``rexa_dblp`` 0.2 (82 k value pairs ->
    104 k neighbor pairs), traced with ``tracemalloc``.

    Retained: the dict-backed index (NumPy 2.4) kept **13.7 MB**, ~11 MB
    of it the boxed ``dict[int, float]`` (~110 B per pair); on columns
    the index keeps 4.4 MB (two 0.8 MB pair columns + the CSR rows), so
    the guard is 0.6x of 13.7 MB.

    Whole build: **20.9 MB** while shards were merged through
    ``np.unique(return_inverse)`` over the concatenated partials.  Since
    the merge sorts key columns only, and now that rows are born whole,
    the peak sits in the ranked-row build: 9.3 MB before the row-owned
    kernels, 10.0 MB with them (the operand columns are still
    referenced there), so the guard is 0.6x of 20.9 MB.  An index now
    ranks its rows on first read, so a build retains only the pair
    columns and peaks in the kernels; both guards hold with room.

    Before ``from_packed_columns``: the hash-sharded builders peaked at
    8.4 MB here and 111.0 MB at 0.7 scale (partials of ~2.7 rows per
    pair plus the merge's sort); the row-owned kernels at 4.8 MB and
    55.0 MB — the finished columns twice (per task, then joined), the
    operands, one run's working set, and the value pairs' whole-column
    shard hashes.  Now that the shards are written piece by piece, the
    build peaks where the task results are joined: 4.8 MB here and
    51.9 MB at 0.7 scale (56.1 MB with the hash column).  The guard is
    0.75x of 8.4 MB.

    One task (``_row_sums``) beyond the rows it returns: 3.1 MB here,
    4.3 MB at 0.7 scale and 3.6 MB on ``yago_imdb`` 1.0 with 22x the
    pairs — a run's cells, contributions and slab are each cut at
    ``_RUN_SIZE``, so the guard is a multiple of that constant, not of
    the KB: 32 B per unit (8.4 MB).

    The co-occurring build (42 k pairs) folds only the cells that are
    value pairs: 2.0 MB per task against 3.1 MB, 3.9 MB whole against
    4.8 MB (28.0 against 51.9 MB at 0.7 scale, where the hash column
    had set both at 55–56 MB).  Its task is held to the same guard, its
    whole build below the full one's.
    """
    data = generate_benchmark("rexa_dblp", 0.2, 13)
    config = MinoanERConfig()
    blocks = blocking_context(data.kb1, data.kb2).get("token_blocks")
    neighbors = [
        top_neighbors(kb, top_relations(kb, config.top_n_relations))
        for kb in (data.kb1, data.kb2)
    ]
    value_index = build_value_index(blocks)
    build_neighbor_index(value_index, *neighbors)  # warm caches, untraced

    def traced_build(**options) -> tuple:
        """The index, what it retains and its build's peaks (``build``,
        ``kernel``: before the index is made, ``task``), all above the
        bytes traced before it."""
        # tracemalloc keeps one peak: each task resets it to read its
        # own, after folding the peak so far into the build's.
        peaks = {"build": 0, "kernel": 0, "task": 0}

        def fold_peak() -> int:
            current, peak = tracemalloc.get_traced_memory()
            peaks["build"] = max(peaks["build"], peak)
            return current

        def traced_rows(*columns, real=similarity._row_sums):
            start = fold_peak()
            tracemalloc.reset_peak()
            keys, sums = real(*columns)
            _, peak = tracemalloc.get_traced_memory()
            own = peak - start - keys.nbytes - sums.nbytes
            peaks["task"] = max(peaks["task"], own)
            return keys, sums

        def traced_ranked_rows(
            *columns, real=NeighborSimilarityIndex.from_packed_columns
        ):
            fold_peak()
            peaks["kernel"] = peaks["build"]
            return real(*columns)

        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_row_sums", traced_rows)
            patch.setattr(
                NeighborSimilarityIndex, "from_packed_columns", traced_ranked_rows
            )
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                index = build_neighbor_index(value_index, *neighbors, **options)
                after = fold_peak()
            finally:
                tracemalloc.stop()
        peaks["build"] -= before
        peaks["kernel"] -= before
        return index, after - before, peaks

    index, retained, peaks = traced_build()
    assert len(index) > 100_000
    assert retained < 0.6 * 13.7e6
    assert peaks["build"] < 0.6 * 20.9e6
    assert 0 < peaks["kernel"] < 0.75 * 8.4e6
    assert 0 < peaks["task"] < 32 * arrays.RUN_SIZE

    # Folding only the co-occurring cells: one run's working set stays
    # cut at the same constant, and the build peaks below the full one.
    restricted, _, restricted_peaks = traced_build(cooccurring=True)
    assert 0 < len(restricted) < len(index)
    assert 0 < restricted_peaks["task"] < 32 * arrays.RUN_SIZE
    assert 0 < restricted_peaks["build"] < peaks["build"]


def own_transient(call, returned) -> tuple:
    """``call()``'s result and its own traced transient: its peak above
    the bytes traced when it began, less the bytes ``returned(result)``
    keeps (tracing must be on)."""
    start, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = call()
    _, peak = tracemalloc.get_traced_memory()
    return result, peak - start - returned(result)


def test_piecewise_passes_hold_one_piece(monkeypatch):
    """A default match on ``rexa_dblp`` 0.2 — 82 k value pairs, over 20
    pieces at the run size patched to 2¹² — then side 1 of its value
    index ranked whole, traced with ``tracemalloc``.  The passes around
    the kernels each hold one piece at a time, so each pass's own
    transient stays below a multiple of the run size plus the
    entity-sized terms it keeps: the shards' per-entity CRC tables and
    encoded URIs, the row work's per-row sums, the rank count's
    per-row bars and per-query columns, the ranking's per-row offsets
    and its cut rows' growth.  The whole-column form of each pass, on
    the same operands, exceeds its bound: the bound does not scale with
    the pairs, the old passes did."""
    from repro.core import similarity as core_similarity

    monkeypatch.setattr(arrays, "RUN_SIZE", 1 << 12)
    data = generate_benchmark("rexa_dblp", 0.2, 13)

    def ranked_bytes(ranked) -> int:
        return sum(
            memoryview(column).nbytes
            for column in ranked
            if isinstance(column, array)
        )

    passes = {  # module, name, the bytes its result keeps, the whole form
        "shards": (
            similarity,
            "packed_pair_shards",
            lambda shards: shards.nbytes,
            packed_pair_shards_whole,
        ),
        "row work": (
            similarity,
            "_row_work",
            lambda work: work.nbytes,
            row_work_whole,
        ),
        "rank count": (
            core_similarity,
            "in_top_k",
            lambda listed: listed.nbytes,
            in_top_k_whole,
        ),
        "ranking": (
            core_similarity.PackedSimilarityIndex,
            "_rank",
            ranked_bytes,
            lambda index, side, depth, rows: ranked_side_whole(
                *index.packed_columns(),
                side,
                len(index.interners()[side - 1]),
                depth,
                None if rows is None else sorted(rows),
            ),
        ),
    }
    calls = {name: [] for name in passes}

    def traced(name, real, returned):
        def run(*args):
            result, own = own_transient(lambda: real(*args), returned)
            calls[name].append((own, args))
            return result

        return run

    for name, (owner, attribute, returned, _) in passes.items():
        real = getattr(owner, attribute)
        monkeypatch.setattr(owner, attribute, traced(name, real, returned))
    tracemalloc.start()
    try:
        ctx = MatchSession(data.kb1, data.kb2).run_context()
        value_index = ctx.get("value_index")
        whole_side = ValueSimilarityIndex.from_packed_columns(
            *value_index.packed_columns(), *value_index.interners()
        )
        whole_side.rank(1, ctx.config.top_k_candidates)
        n1, n2 = map(len, value_index.interners())
        assert len(value_index) > 20 * arrays.RUN_SIZE
        piece = 32 * arrays.RUN_SIZE
        bounds = {
            # a CRC, a shift-table offset and the encoded URI per entity
            "shards": lambda keys, *_: piece + 256 * (n1 + n2),
            # the per-row offsets read and their sums
            "row work": lambda starts, ids, spans, members, starts2: piece
            + 32 * (len(starts) + len(spans) + len(starts2)),
            # the bars, counts and query columns
            "rank count": lambda keys, sims, side, ids1, *_: piece
            + 64 * (n1 + n2 + len(ids1)),
            # per-row offsets, and the cut rows grown group by group
            "ranking": lambda index, side, depth, rows: piece
            + 64 * (n1 + n2 + depth * n1),
        }
        assert [len(calls[name]) for name in passes] == [1, 2, 4, 3]
        for name, (_, _, returned, whole) in passes.items():
            for own, args in calls[name]:
                bound = bounds[name](*args)
                assert 0 < own < bound, (name, own, bound)
            # the largest call, in its whole-column form, breaks it
            own, args = max(calls[name], key=lambda call: call[0])
            _, whole_own = own_transient(lambda: whole(*args), returned)
            assert whole_own > bounds[name](*args), (name, whole_own)
    finally:
        tracemalloc.stop()
