"""Synthetic KB-pair generator with controlled heterogeneity.

The paper evaluates on four RDF benchmark pairs that this repository does
not ship; this generator substitutes KB pairs that exercise the same code
paths and regimes (one profile per pair, :mod:`repro.datasets.profiles`).

The model is latent-entity based.  A *latent entity* is the real-world
object both KBs may describe: it has a type, a unique name (a token
sequence), a bag of latent fact tokens, and edges to other latent
entities.  Each KB *side* renders latent entities into
:class:`~repro.kb.entity.EntityDescription` objects under its own schema:
its own attribute/relation names, its own retention and noise levels, and
its own treatment of names.  Matched latent entities are rendered on both
sides; extras on one side only.  Ground truth is known by construction.

The *name class* of a matched pair is the lever reproducing the paper's
three match populations:

- ``exact``   — the side renders the name verbatim under its name
  attribute (found by H1 and by value baselines);
- ``partial`` — the name tokens appear in the values but the name
  attribute's value is corrupted, so whole-name blocking fails while token
  evidence survives (found by H2/H3 and partially by BSL);
- ``hidden``  — no name token appears on this side at all; only neighbor
  evidence can identify the match (found by H3 via top neighbors).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..kb.entity import EntityDescription
from ..kb.knowledge_base import KnowledgeBase
from .ground_truth import GroundTruth
from .vocab import ZipfSampler, word_pool

NAME_CLASSES = ("exact", "partial", "hidden")


@dataclass(frozen=True)
class RelationSpec:
    """One latent relation leaving entities of a type."""

    name: str
    target_type: str
    min_edges: int = 1
    max_edges: int = 1

    def __post_init__(self) -> None:
        if self.min_edges < 0 or self.max_edges < self.min_edges:
            raise ValueError("need 0 <= min_edges <= max_edges")


@dataclass(frozen=True)
class TypeSpec:
    """A latent entity type and how its instances look."""

    name: str
    proportion: float
    name_tokens: tuple[int, int] = (2, 3)
    name_pool_size: int = 500
    fact_tokens: tuple[int, int] = (8, 16)
    relations: tuple[RelationSpec, ...] = ()
    #: Probability that a new instance's name extends an existing
    #: instance's name by one token ("kato zube" → "kato zube raba").
    #: Creates families of entities with near-identical token sets whose
    #: full names remain unique: whole-name blocking still works, while
    #: bag-of-token similarity becomes ambiguous (sequels).
    name_reuse_probability: float = 0.0
    #: Probability that a new instance is a *namesake*: it copies an
    #: existing instance's name exactly, as distinct real-world entities
    #: sharing a name do at Web scale.  Namesakes defeat every purely
    #: value-based signal — including whole-name blocking, whose "they and
    #: only they" rule correctly refuses to guess — leaving neighbor
    #: evidence as the only disambiguator.
    name_duplicate_probability: float = 0.0
    #: Maximum number of instances sharing one name (namesake family cap).
    #: Small families keep name blocks far below stop-word cardinality, so
    #: Block Purging has a clean separation to exploit.
    name_family_cap: int = 4

    def __post_init__(self) -> None:
        if self.proportion <= 0:
            raise ValueError("proportion must be positive")
        low, high = self.name_tokens
        if low < 1 or high < low:
            raise ValueError("invalid name_tokens range")
        low, high = self.fact_tokens
        if low < 0 or high < low:
            raise ValueError("invalid fact_tokens range")


@dataclass(frozen=True)
class SideSpec:
    """How one KB renders latent entities (its schema and noise levels)."""

    label: str
    uri_prefix: str
    #: Attribute carrying the entity name (the side's rdfs:label analogue).
    name_attribute: str = "name"
    #: Probabilities of the exact/partial/hidden name classes for matched
    #: entities rendered on this side (must sum to 1).
    name_class_weights: tuple[float, float, float] = (1.0, 0.0, 0.0)
    #: Slice of the latent fact list this side describes, as fractions.
    #: Two sides with disjoint windows describe different aspects of the
    #: same entity (YAGO facts vs IMDb filmographies) and share no fact
    #: tokens at all; overlapping windows share the intersection.
    fact_window: tuple[float, float] = (0.0, 1.0)
    #: Fraction of latent fact tokens this side's description retains.
    fact_retention: float = 0.9
    #: Fact retention override for hidden-name entities (None = same as
    #: fact_retention).  Low values make hidden matches value-poor, so
    #: only neighbor evidence can identify them — the population MinoanER
    #: wins on in the heterogeneous datasets.
    hidden_fact_retention: float | None = None
    #: Distinct content attribute names the side spreads values over.
    attribute_pool_size: int = 5
    #: Probability that a value lands under a fresh per-entity attribute
    #: name instead of a pool attribute (drives huge attribute counts).
    random_attribute_probability: float = 0.0
    #: Tokens per rendered value (facts are chunked into values).
    tokens_per_value: tuple[int, int] = (2, 4)
    #: Side-specific noise tokens per entity (from a side-local vocab).
    noise_tokens: tuple[int, int] = (0, 2)
    noise_vocab_size: int = 2000
    #: Ambient (cross-KB, highly ambiguous) tokens per entity.
    ambient_tokens: tuple[int, int] = (0, 2)
    #: Stop-word tokens per entity, drawn from the profile's tiny shared
    #: stop pool.  Stop-words appear in a large share of both KBs'
    #: descriptions and are what Block Purging exists to remove.
    stop_tokens: tuple[int, int] = (0, 0)
    #: Probability that an exact name is rendered with punctuation-only
    #: decoration ("john smith." / "john, smith").  Token-based methods
    #: see the same key after normalization; exact-literal systems (PARIS)
    #: do not — the formatting divergence of real Web data.
    name_decoration_probability: float = 0.0
    #: Rename latent relation names on this side (schema divergence).
    relation_rename: tuple[tuple[str, str], ...] = ()
    #: Probability a latent edge is rendered (when the target exists here).
    relation_retention: float = 0.95
    #: Distinct type labels the side uses; 0 disables type triples.
    type_labels: int = 0

    def relation_name(self, latent_name: str) -> str:
        """This side's name for a latent relation."""
        for source, renamed in self.relation_rename:
            if source == latent_name:
                return renamed
        return latent_name


@dataclass(frozen=True)
class PairProfile:
    """Everything needed to generate one benchmark-like KB pair."""

    name: str
    seed: int
    n_matches: int
    n_extra1: int
    n_extra2: int
    types: tuple[TypeSpec, ...]
    side1: SideSpec
    side2: SideSpec
    #: Size of the shared long-tail content vocabulary.
    fact_vocab_size: int = 5000
    #: Size of the shared ambient (ambiguous) token pool.
    ambient_pool_size: int = 40
    #: Size of the shared stop-word pool (a handful of near-universal
    #: tokens; their blocks should be removed by Block Purging).
    stop_pool_size: int = 6
    #: Probability an edge from a matched entity targets a matched entity
    #: (high fidelity makes neighbor evidence reliable).
    edge_fidelity: float = 0.9

    def __post_init__(self) -> None:
        if self.n_matches < 0 or self.n_extra1 < 0 or self.n_extra2 < 0:
            raise ValueError("entity counts must be >= 0")
        if not self.types:
            raise ValueError("at least one TypeSpec is required")
        if not 0.0 <= self.edge_fidelity <= 1.0:
            raise ValueError("edge_fidelity must lie in [0, 1]")


@dataclass
class LatentEntity:
    """A real-world object that one or both KBs describe."""

    identifier: int
    type_name: str
    kind: str  # "match" | "extra1" | "extra2"
    name_tokens: list[str]
    fact_tokens: list[str]
    edges: list[tuple[str, int]] = field(default_factory=list)
    #: Per-side name class, drawn per rendered side ("exact" for extras).
    name_class1: str = "exact"
    name_class2: str = "exact"


@dataclass
class GeneratedDataset:
    """A generated KB pair with ground truth and generation metadata."""

    profile: PairProfile
    kb1: KnowledgeBase
    kb2: KnowledgeBase
    ground_truth: GroundTruth
    #: side1 relation name -> side2 relation name (domain knowledge for
    #: the baselines that need pre-aligned relations).
    relation_alignment: dict[str, str]
    latents: list[LatentEntity] = field(default_factory=list)


class KbPairGenerator:
    """Generates a :class:`GeneratedDataset` from a :class:`PairProfile`."""

    def __init__(self, profile: PairProfile) -> None:
        self.profile = profile

    # ------------------------------------------------------------------
    # Latent layer
    # ------------------------------------------------------------------
    def _assign_types(self, rng: random.Random, count: int) -> list[TypeSpec]:
        """Type of each of ``count`` latent entities, by proportions."""
        total = sum(spec.proportion for spec in self.profile.types)
        assigned: list[TypeSpec] = []
        for spec in self.profile.types:
            share = round(count * spec.proportion / total)
            assigned.extend([spec] * share)
        while len(assigned) < count:
            assigned.append(self.profile.types[-1])
        del rng
        return assigned[:count]

    def _build_latents(self, rng: random.Random) -> list[LatentEntity]:
        profile = self.profile
        self._family_sizes: dict[tuple[str, ...], int] = {}
        fact_words = word_pool(rng, profile.fact_vocab_size, syllables=3)
        fact_sampler = ZipfSampler(fact_words)
        name_pools = {
            spec.name: word_pool(rng, spec.name_pool_size, syllables=2, prefix="")
            for spec in profile.types
        }

        counts = (
            ("match", profile.n_matches),
            ("extra1", profile.n_extra1),
            ("extra2", profile.n_extra2),
        )
        latents: list[LatentEntity] = []
        used_names: set[tuple[str, ...]] = set()
        names_by_type: dict[str, list[list[str]]] = {
            spec.name: [] for spec in profile.types
        }
        identifier = 0
        for kind, count in counts:
            for spec in self._assign_types(rng, count):
                name = self._unique_name(
                    rng,
                    name_pools[spec.name],
                    spec,
                    used_names,
                    names_by_type[spec.name],
                )
                names_by_type[spec.name].append(name)
                n_facts = rng.randint(*spec.fact_tokens)
                facts = fact_sampler.sample_many(rng, n_facts)
                latents.append(
                    LatentEntity(
                        identifier=identifier,
                        type_name=spec.name,
                        kind=kind,
                        name_tokens=name,
                        fact_tokens=facts,
                    )
                )
                identifier += 1
        self._wire_edges(rng, latents)
        self._draw_name_classes(rng, latents)
        return latents

    def _unique_name(
        self,
        rng: random.Random,
        pool: list[str],
        spec: TypeSpec,
        used: set[tuple[str, ...]],
        existing: list[list[str]],
    ) -> list[str]:
        """A name whose full token sequence is globally unique.

        Individual tokens are reused freely (pool-limited), creating the
        token-level ambiguity the hard profiles need, while whole names
        stay unique so H1's 1-1 blocks are well defined.  With
        ``name_reuse_probability``, names may extend an existing name of
        the same type by one token (sequel/namesake families).
        """
        if existing and rng.random() < spec.name_duplicate_probability:
            for _ in range(12):
                candidate = rng.choice(existing)
                key = tuple(candidate)
                if self._family_sizes.get(key, 0) < spec.name_family_cap:
                    self._family_sizes[key] = self._family_sizes.get(key, 0) + 1
                    return list(candidate)
        if existing and rng.random() < spec.name_reuse_probability:
            for _ in range(16):
                base = rng.choice(existing)
                name = tuple(base) + (rng.choice(pool),)
                if name not in used:
                    used.add(name)
                    return list(name)
        for attempt in range(64):
            length = rng.randint(*spec.name_tokens)
            if attempt > 8:
                length += 1  # widen the combination space when colliding
            name = tuple(rng.choice(pool) for _ in range(length))
            if name not in used:
                used.add(name)
                return list(name)
        # Deterministic fallback: extend with a guaranteed-new token.
        base = tuple(rng.choice(pool) for _ in range(spec.name_tokens[0]))
        name = base + (f"nx{len(used)}",)
        used.add(name)
        return list(name)

    def _wire_edges(self, rng: random.Random, latents: list[LatentEntity]) -> None:
        profile = self.profile
        by_type_kind: dict[tuple[str, str], list[LatentEntity]] = {}
        for latent in latents:
            by_type_kind.setdefault((latent.type_name, latent.kind), []).append(latent)

        def target_pool(source_kind: str, target_type: str, prefer_match: bool) -> list[LatentEntity]:
            matches = by_type_kind.get((target_type, "match"), [])
            if prefer_match and matches:
                return matches
            if source_kind == "match":
                extras = by_type_kind.get((target_type, "extra1"), []) + by_type_kind.get(
                    (target_type, "extra2"), []
                )
            else:
                extras = by_type_kind.get((target_type, source_kind), [])
            pool = matches + extras
            return pool

        spec_by_type = {spec.name: spec for spec in profile.types}
        for latent in latents:
            for relation in spec_by_type[latent.type_name].relations:
                n_edges = rng.randint(relation.min_edges, relation.max_edges)
                for _ in range(n_edges):
                    prefer_match = (
                        latent.kind == "match"
                        and rng.random() < profile.edge_fidelity
                    )
                    pool = target_pool(latent.kind, relation.target_type, prefer_match)
                    pool = [p for p in pool if p.identifier != latent.identifier]
                    if not pool:
                        continue
                    target = rng.choice(pool)
                    latent.edges.append((relation.name, target.identifier))

    def _draw_name_classes(self, rng: random.Random, latents: list[LatentEntity]) -> None:
        for latent in latents:
            latent.name_class1 = self._draw_class(rng, self.profile.side1)
            latent.name_class2 = self._draw_class(rng, self.profile.side2)

    @staticmethod
    def _draw_class(rng: random.Random, side: SideSpec) -> str:
        point = rng.random()
        cumulative = 0.0
        for name_class, weight in zip(NAME_CLASSES, side.name_class_weights):
            cumulative += weight
            if point < cumulative:
                return name_class
        return "exact"

    # ------------------------------------------------------------------
    # Rendering layer
    # ------------------------------------------------------------------
    def _render_side(
        self,
        rng: random.Random,
        latents: list[LatentEntity],
        side: SideSpec,
        side_number: int,
        ambient_pool: list[str],
        stop_pool: list[str],
    ) -> KnowledgeBase:
        profile = self.profile
        kb = KnowledgeBase(side.label)
        noise_pool = word_pool(
            rng, side.noise_vocab_size, syllables=3, prefix="n" if side_number == 1 else "m"
        )
        noise_sampler = ZipfSampler(noise_pool)
        rendered_kinds = {"match", f"extra{side_number}"}
        type_label_pool = word_pool(rng, max(side.type_labels, 0), syllables=2, prefix="t")

        present = [latent for latent in latents if latent.kind in rendered_kinds]
        uri_of = {
            latent.identifier: f"{side.uri_prefix}{latent.identifier}"
            for latent in present
        }

        attribute_pool = [
            f"{side.label.lower()}_attr{i}" for i in range(side.attribute_pool_size)
        ]

        for latent in present:
            entity = EntityDescription(uri_of[latent.identifier])
            name_class = latent.name_class1 if side_number == 1 else latent.name_class2
            if latent.kind != "match":
                name_class = "exact"  # extras always carry their own name
            self._render_name(rng, entity, latent, side, name_class, noise_sampler)
            self._render_values(
                rng,
                entity,
                latent,
                side,
                name_class,
                attribute_pool,
                noise_sampler,
                ambient_pool,
                stop_pool,
            )
            if side.type_labels > 0 and type_label_pool:
                # crc32, not hash(): str hashing is salted per process, so
                # builtin hash() would assign different labels run-to-run
                # and make Table I's distinct-type counts nondeterministic.
                digest = zlib.crc32(latent.type_name.encode("utf-8"))
                entity.add_literal(
                    "rdf:type", type_label_pool[digest % len(type_label_pool)]
                )
            for relation_name, target_id in latent.edges:
                target_uri = uri_of.get(target_id)
                if target_uri is None:
                    continue
                if rng.random() < side.relation_retention:
                    entity.add_relation(side.relation_name(relation_name), target_uri)
            kb.add(entity)
        return kb

    def _render_name(
        self,
        rng: random.Random,
        entity: EntityDescription,
        latent: LatentEntity,
        side: SideSpec,
        name_class: str,
        noise_sampler: ZipfSampler,
    ) -> None:
        full_name = " ".join(latent.name_tokens)
        if name_class == "exact":
            rendered = full_name
            if rng.random() < side.name_decoration_probability:
                rendered = _decorate_name(rng, latent.name_tokens)
            entity.add_literal(side.name_attribute, rendered)
        elif name_class == "partial":
            # Whole-name blocking must fail; token evidence must survive.
            corrupted = f"{full_name} {noise_sampler.sample(rng)}"
            entity.add_literal(side.name_attribute, corrupted)
        else:  # hidden: no name token on this side at all
            opaque = f"rec {noise_sampler.sample(rng)}{latent.identifier}"
            entity.add_literal(side.name_attribute, opaque)

    def _render_values(
        self,
        rng: random.Random,
        entity: EntityDescription,
        latent: LatentEntity,
        side: SideSpec,
        name_class: str,
        attribute_pool: list[str],
        noise_sampler: ZipfSampler,
        ambient_pool: list[str],
        stop_pool: list[str],
    ) -> None:
        retention = side.fact_retention
        if name_class == "hidden" and side.hidden_fact_retention is not None:
            retention = side.hidden_fact_retention
        low, high = side.fact_window
        n_facts = len(latent.fact_tokens)
        # floor on both ends so that complementary windows (0, x) and
        # (x, 1) never overlap, whatever the fact count's parity
        end = n_facts if high >= 1.0 else math.floor(high * n_facts)
        window = latent.fact_tokens[math.floor(low * n_facts) : end]
        tokens: list[str] = [
            token for token in window if rng.random() < retention
        ]
        n_noise = rng.randint(*side.noise_tokens)
        tokens.extend(noise_sampler.sample_many(rng, n_noise))
        n_ambient = rng.randint(*side.ambient_tokens)
        if ambient_pool:
            tokens.extend(rng.choice(ambient_pool) for _ in range(n_ambient))
        n_stop = rng.randint(*side.stop_tokens)
        if stop_pool:
            tokens.extend(rng.choice(stop_pool) for _ in range(n_stop))
        rng.shuffle(tokens)

        position = 0
        while position < len(tokens):
            width = rng.randint(*side.tokens_per_value)
            chunk = tokens[position : position + width]
            position += width
            if rng.random() < side.random_attribute_probability:
                attribute = f"{side.label.lower()}_rand_{noise_sampler.sample(rng)}"
            else:
                # Random pool attribute, not round-robin: keeps each content
                # attribute's support well below 1.0 so the name attribute
                # stays the most important one, as in real KBs.
                attribute = rng.choice(attribute_pool)
            entity.add_literal(attribute, " ".join(chunk))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def generate(self) -> GeneratedDataset:
        """Build the KB pair, ground truth and relation alignment."""
        profile = self.profile
        rng = random.Random(profile.seed)
        latents = self._build_latents(rng)
        ambient_pool = word_pool(rng, profile.ambient_pool_size, syllables=2, prefix="a")
        stop_pool = word_pool(rng, profile.stop_pool_size, syllables=1, prefix="s")

        kb1 = self._render_side(rng, latents, profile.side1, 1, ambient_pool, stop_pool)
        kb2 = self._render_side(rng, latents, profile.side2, 2, ambient_pool, stop_pool)

        truth = GroundTruth()
        for latent in latents:
            if latent.kind == "match":
                truth.add(
                    f"{profile.side1.uri_prefix}{latent.identifier}",
                    f"{profile.side2.uri_prefix}{latent.identifier}",
                )

        latent_relations = {
            relation.name
            for spec in profile.types
            for relation in spec.relations
        }
        # Sorted iteration: the set's order is hash-salt dependent, and the
        # alignment's insertion order leaks into baseline reports.
        alignment = {
            profile.side1.relation_name(name): profile.side2.relation_name(name)
            for name in sorted(latent_relations)
        }
        return GeneratedDataset(
            profile=profile,
            kb1=kb1,
            kb2=kb2,
            ground_truth=truth,
            relation_alignment=alignment,
            latents=latents,
        )


def _decorate_name(rng: random.Random, name_tokens: Sequence[str]) -> str:
    """A punctuation-only variant of a name (same tokens, same order).

    Token normalization maps every variant back to the plain name, so
    schema-agnostic blocking still collides them; exact string equality
    does not, reproducing the formatting divergence of crawled Web data.
    """
    style = rng.randrange(3)
    plain = " ".join(name_tokens)
    if style == 0:
        return plain + "."
    if style == 1:
        return f'"{plain}"'
    return ", ".join(name_tokens)


def generate(profile: PairProfile) -> GeneratedDataset:
    """Convenience wrapper: ``generate(profile)``."""
    return KbPairGenerator(profile).generate()


# ----------------------------------------------------------------------
# Held-out query records (the online-resolution workload)
# ----------------------------------------------------------------------
@dataclass
class QueryRecord:
    """One held-out record for the resolve path, with its expected match.

    ``record`` carries a fresh never-seen URI (``urn:query:<n>``);
    ``expected`` is the KB2 entity the record was derived from, and
    ``variant`` names how it was dirtied (``"clean"``,
    ``"token_dropped"`` or ``"near_miss"``).
    """

    record: EntityDescription
    expected: str
    variant: str


def query_stream(
    source: GeneratedDataset | PairProfile,
    n: int,
    dirtiness: float = 0.3,
    seed: int = 0,
) -> list[QueryRecord]:
    """Held-out never-seen records derived from KB2 entities.

    The online-resolution workload generator: each emitted record is a
    fresh-URI re-rendering of one matched KB2 entity, cycling through
    three variants —

    - **clean**: every literal copied verbatim (the resolver should
      find the counterpart with maximal evidence);
    - **token_dropped**: each literal dropped with probability
      ``dirtiness`` (at least one always survives), modelling a query
      with partial evidence;
    - **near_miss**: within each kept literal every token is dropped
      with probability ``dirtiness`` and one noise token is appended,
      modelling OCR-grade dirt.

    Relation links are translated into the record's (KB1-style) frame:
    each outgoing KB2 edge becomes an edge under the aligned KB1
    relation name pointing at the target's KB1 counterpart, when both
    exist — exactly what a client holding partial knowledge of KB1
    would submit.  Entities are drawn in sorted-URI order from a seeded
    RNG, so a ``(source, n, dirtiness, seed)`` tuple is reproducible.
    """
    if isinstance(source, PairProfile):
        source = generate(source)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 <= dirtiness <= 1.0:
        raise ValueError("dirtiness must be in [0, 1]")
    matched2 = sorted(source.ground_truth.entities2())
    if not matched2:
        raise ValueError("dataset has no matched KB2 entities to query")
    rng = random.Random(seed)
    reverse_alignment = {
        name2: name1 for name1, name2 in source.relation_alignment.items()
    }
    variants = ("clean", "token_dropped", "near_miss")
    out: list[QueryRecord] = []
    for index in range(n):
        uri2 = matched2[rng.randrange(len(matched2))]
        entity = source.kb2.get(uri2)
        variant = variants[index % len(variants)]
        record = EntityDescription(f"urn:query:{index}")
        literals = list(entity.literal_pairs())
        if variant == "token_dropped":
            kept = [
                pair for pair in literals if rng.random() >= dirtiness
            ]
            literals = kept or [literals[rng.randrange(len(literals))]]
        for attribute, value in literals:
            if variant == "near_miss":
                tokens = value.split()
                surviving = [
                    token for token in tokens if rng.random() >= dirtiness
                ]
                surviving.append(f"qnoise{rng.randrange(10_000)}")
                value = " ".join(surviving)
            record.add_literal(attribute, value)
        for relation2, target2 in entity.relation_pairs():
            relation1 = reverse_alignment.get(relation2)
            target1 = source.ground_truth.match_of_entity2(target2)
            if relation1 is not None and target1 is not None:
                record.add_relation(relation1, target1)
        out.append(QueryRecord(record=record, expected=uri2, variant=variant))
    return out
