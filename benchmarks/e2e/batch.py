"""``batch_rexa`` / ``batch_yago``: cold ``MinoanER().match`` on fresh KBs.

Every iteration regenerates the KB pair and leaves out the run's seeded
1% of its entities (so the token-bag memo is cold and the matches must
be identical), outside the timed region.  The untraced form times one
iteration per four seconds of the run's measuring time; the traced form
is a fixed, shorter pass that reads the per-stage seconds and counters
the program already publishes, times the tokenizer on its own, and makes
one pass on the process engine.
"""

from __future__ import annotations

import gc
import random
import resource
from dataclasses import dataclass

from common import (
    CORPUS_SEED,
    DEFAULT_SEED,
    SMOKE_DATASET,
    Run,
    calibration_s,
    clock,
)

from repro import MinoanER, MinoanERConfig, evaluate_matching
from repro.datasets import generate_benchmark
from repro.obs import Telemetry, activate
from repro.pipeline import artifact_digest

#: ``artifact_digest(matches)`` of the default seed's cold match; a run
#: on that seed must reproduce it bit for bit.
PINNED_DIGESTS = {
    "batch_rexa": "19ee68ba0accae4b5c27d1c9c753f256f2585b6a5714c545143a974eadfaa091",
    "batch_yago": "05c9386275bc9dd89748dffd2da295854a6a9d9667c04f13a6511c828e6878bb",
}

#: Share of each KB's entities a run leaves out, chosen by its seed.
LEFT_OUT = 0.01
#: One calibration, one generation and one cold match of either workload
#: on the quiet sandbox; sizes an untraced run's iteration count.
NOMINAL_MATCH_S = 4.0

#: MatchResult.stage_seconds key -> per-layer metric.
STAGE_METRICS = {
    "name_blocking": "blocking.name_s",
    "token_blocking": "blocking.token_s",
    "value_index": "similarity.value_index_s",
    "neighbor_index": "similarity.neighbor_index_s",
    "candidates": "heuristics.candidates_s",
    "matching": "heuristics.matching_s",
}
#: Telemetry counter -> per-layer metric.
COUNTER_METRICS = {
    "blocking.token_blocks_built": "blocking.token_blocks",
    "blocking.purged_keys": "blocking.purged_keys",
    "similarity.value_pairs_scored": "similarity.value_pairs",
    "similarity.neighbor_pairs_scored": "similarity.neighbor_pairs",
    "matching.pairs_matched": "heuristics.pairs_matched",
    "matching.pairs_discarded": "heuristics.pairs_discarded",
}
ENGINE_COUNTERS = ("engine.bytes_shipped", "engine.dispatches", "engine.partition_tasks")


@dataclass
class Iteration:
    generate_s: float
    wall_s: float
    digest: str
    f1: float
    stage_seconds: dict[str, float]


def fresh_kbs(dataset: tuple[str, float], seed: int):
    """The workload's KB pair without a seeded :data:`LEFT_OUT` of each KB."""
    data = generate_benchmark(*dataset, CORPUS_SEED)
    rng = random.Random(seed)
    for kb in (data.kb1, data.kb2):
        for uri in rng.sample(sorted(kb.uris()), round(LEFT_OUT * len(kb))):
            kb.remove(uri)
    return data


def match_once(
    run: Run,
    dataset: tuple[str, float],
    label: str,
    config: MinoanERConfig | None = None,
    telemetry: Telemetry | None = None,
) -> Iteration:
    """Generate fresh KBs and time one cold match on them.

    Only small facts are returned, so the KBs and the result are freed
    before the next iteration collects garbage outside its timed region.
    """
    with run.recorder.span("iteration", request_id=label):
        gc.collect()
        with run.recorder.span("datasets.generate", request_id=label):
            began = clock()
            data = fresh_kbs(dataset, run.seed)
            generate_s = clock() - began
        gc.collect()
        with activate(telemetry), run.recorder.span("pipeline.match", request_id=label):
            began = clock()
            result = MinoanER(config).match(data.kb1, data.kb2)
            wall_s = clock() - began
        return Iteration(
            generate_s=generate_s,
            wall_s=wall_s,
            digest=artifact_digest(result.matches),
            f1=evaluate_matching(result.pairs(), data.ground_truth).f1,
            stage_seconds=dict(result.stage_seconds),
        )


def batch(run: Run) -> None:
    # Pays lazy imports and first-call caches before the first timed match.
    match_once(run, SMOKE_DATASET, "warm-up")
    iterations = (traced if run.trace else untraced)(run)
    run.ops(len(iterations), 0, "cold matches")
    digests = [iteration.digest for iteration in iterations]
    for digest in digests[1:]:
        run.check(digest == digests[0], "matches digest differs across iterations")
    if run.seed == DEFAULT_SEED and not run.smoke:
        run.check(
            digests[0] == PINNED_DIGESTS[run.workload],
            f"matches digest {digests[0]} differs from the pinned one",
        )
    run.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )


def untraced(run: Run) -> list[Iteration]:
    # The count comes from the measuring time, not from how many matches
    # happened to fit it: successive matches in one process get faster
    # (5.0 -> 3.5 s over five on batch_yago, as the allocator adapts), so
    # the median of four is not the median of five.
    count = run.pick(max(3, round(run.seconds / NOMINAL_MATCH_S)), 2)
    iterations: list[Iteration] = []
    calibrations: list[float] = []
    for index in range(count):
        calibrations.append(calibration_s())
        iterations.append(match_once(run, run.dataset(), f"iter-{index}"))
    run.median("setup_s", [it.generate_s for it in iterations])
    run.median("batch_wall_s", [it.wall_s for it in iterations])
    run.headline([it.wall_s for it in iterations], calibrations)
    run.metrics["match_f1"] = iterations[0].f1
    return iterations


def traced(run: Run) -> list[Iteration]:
    dataset = run.dataset()
    _tokenize(run, dataset)
    observed = []
    for index in range(2):
        telemetry = Telemetry.create()
        observed.append(
            match_once(run, dataset, f"traced-{index}", telemetry=telemetry)
        )
    for stage, name in STAGE_METRICS.items():
        run.median(name, [it.stage_seconds.get(stage, 0.0) for it in observed])
    run.median(
        "pipeline.overhead_s",
        [it.wall_s - sum(it.stage_seconds.values()) for it in observed],
    )
    counters = telemetry.metrics.counters()
    for counter, name in COUNTER_METRICS.items():
        run.metrics[name] = float(counters.get(counter, 0))
    run.metrics["pipeline.match_f1"] = observed[0].f1
    plain = match_once(run, dataset, "untraced")
    run.overhead_ratio([it.wall_s for it in observed], [plain.wall_s])
    # One pass on the process engine: the counts are exact, the wall
    # time is informational on two shared cores.
    telemetry = Telemetry.create()
    process = match_once(
        run,
        dataset,
        "process-engine",
        config=MinoanERConfig(engine="process", workers=2),
        telemetry=telemetry,
    )
    run.metrics["engine.process_wall_s"] = process.wall_s
    counters = telemetry.metrics.counters()
    for counter in ENGINE_COUNTERS:
        run.metrics[counter] = float(counters.get(counter, 0))
    return [*observed, plain, process]


def _tokenize(run: Run, dataset: tuple[str, float]) -> None:
    """``Tokenizer.tokens`` over every entity of fresh KBs, on its own."""
    data = fresh_kbs(dataset, run.seed)
    tokenizer = MinoanER().build_tokenizer()
    with run.recorder.span("kb.tokenize"):
        began = clock()
        tokens = sum(
            len(tokenizer.tokens(entity))
            for kb in (data.kb1, data.kb2)
            for entity in kb
        )
        run.metrics["kb.tokenize_s"] = clock() - began
    run.metrics["kb.tokens"] = float(tokens)
