"""Configuration of the MinoanER pipeline.

The paper reports one configuration as robust across all datasets:
``K=15`` (candidate matches per entity from values and from neighbors),
``N=3`` (most important relations per KB), ``k=2`` (most distinctive
attributes per KB serving as names) and ``θ=0.6`` (trade-off between
value- and neighbor-based candidate ranks).  Those are the defaults here.

Each of the nine fields has a caller that sets it:

=============================  ==============================================
field                          set by
=============================  ==============================================
``top_k_candidates`` (K)       CLI ``--top-k``, the parameter ablation bench
``top_n_relations`` (N)        CLI ``--top-n-relations``, the same bench
``name_attributes`` (k)        CLI ``--name-attributes``, the same bench
``theta`` (θ)                  CLI ``--theta``, the same bench
``purge_token_blocks``         CLI ``--disable-stage purging``, the purging
                               ablation bench
``restrict_h3_to_cooccurring`` the extensions ablation bench
``engine``, ``workers``        CLI ``--engine`` / ``--workers``
``heuristics``                 CLI ``--disable-stage h1``…``h4``, the
                               heuristic ablation bench
=============================  ==============================================

Everything else is a constant of the method: tokens are the
alphanumeric runs of literal values, of any length; relations are
scored in both directions (inverse ones ``~``-tagged); and Block
Purging picks its threshold automatically
(:data:`~repro.blocking.purging.DEFAULT_GAIN_FACTOR`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.executor import EXECUTOR_NAMES


@dataclass(frozen=True)
class MinoanERConfig:
    """All tunables of the matching pipeline (paper defaults)."""

    #: Candidate matches kept per entity, per evidence type (paper: K=15).
    top_k_candidates: int = 15
    #: Most important relations whose objects count as top neighbors (N=3).
    top_n_relations: int = 3
    #: Most distinctive attributes per KB serving as names (k=2).
    name_attributes: int = 2
    #: Weight of value-based vs neighbor-based ranks in H3 (θ=0.6).
    theta: float = 0.6

    # ------------------------------------------------------------------
    # Ablation switches
    # ------------------------------------------------------------------
    #: Apply Block Purging to the token blocks.
    purge_token_blocks: bool = True
    #: Restrict H3 candidates to pairs co-occurring in token blocks, as the
    #: conference paper describes (the journal version also admits
    #: neighbor-derived candidates that never share a token).  Restricted,
    #: the neighbor stage publishes only the neighbor pairs that are also
    #: value pairs — all that H3, H4, the online H4 bars and a KB1
    #: entity's served neighbor rows read — and keeps no full index.
    restrict_h3_to_cooccurring: bool = True

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------
    #: How pipeline stages execute: ``serial`` (default), ``thread`` or
    #: ``process``.  All three produce identical matches; the parallel
    #: executors split the hot stages across workers.
    engine: str = "serial"
    #: Worker count for the parallel executors (None = one per CPU).
    workers: int | None = None

    # ------------------------------------------------------------------
    # Heuristics
    # ------------------------------------------------------------------
    #: Registered heuristic names in execution order: the paper's ladder
    #: ``(H1 ∨ H2 ∨ H3) ∧ H4`` by default.  Batch matching, online
    #: resolution and snapshots all read this one list.
    heuristics: tuple[str, ...] = ("h1", "h2", "h3", "h4")

    def __post_init__(self) -> None:
        if isinstance(self.heuristics, str):
            # tuple("h1") would silently become ("h", "1")
            raise ValueError(
                "heuristics must be a list of heuristic names, "
                f"not the string {self.heuristics!r}"
            )
        # A list (a config decoded from JSON) becomes a tuple, so every
        # config stays hashable.
        object.__setattr__(self, "heuristics", tuple(self.heuristics))
        if len(set(self.heuristics)) != len(self.heuristics):
            raise ValueError(f"duplicate heuristic in {self.heuristics}")
        if self.top_k_candidates < 1:
            raise ValueError("top_k_candidates must be >= 1")
        if self.top_n_relations < 0:
            raise ValueError("top_n_relations must be >= 0")
        if self.name_attributes < 0:
            raise ValueError("name_attributes must be >= 0")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        if self.engine not in EXECUTOR_NAMES:
            raise ValueError(
                f"engine must be one of {EXECUTOR_NAMES}, got {self.engine!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for auto)")
        if self.engine == "serial" and self.workers is not None:
            raise ValueError(
                "workers has no effect with the serial engine; "
                "choose engine='thread' or 'process' (or leave workers unset)"
            )


#: The configuration the paper evaluates everywhere.
PAPER_DEFAULTS = MinoanERConfig()
