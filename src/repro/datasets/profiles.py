"""Profiles mimicking the paper's four benchmark dataset pairs.

Each profile reproduces the *regime* of one benchmark at laptop scale,
standing in for the real RDF pair (see :mod:`repro.datasets.generator`):

- **Restaurant** — tiny, low heterogeneity, strongly similar matches:
  every method should saturate near 100% F1.
- **Rexa-DBLP** — bibliographic KBs, much larger second side, mostly
  value-findable matches with some author-name ambiguity: value baselines
  reach ~90 F1, relational evidence buys a few extra points.
- **BBCmusic-DBpedia** — extreme schema/value heterogeneity on the second
  side (thousands of attribute names, noisy verbose descriptions, a large
  share of matches with corrupted or absent names): value-only baselines
  drop to ~50 F1, exact-literal systems (PARIS) collapse, neighbor
  evidence is required.
- **YAGO-IMDb** — token-poor, relation-rich movie KBs with heavily reused
  name tokens: value-only matching collapses, while names + neighbors
  still identify ~90%.

All profiles keep the first KB the smaller one, as in the paper.
``scale`` shrinks/grows entity counts (tests use ``scale≈0.15``).
"""

from __future__ import annotations

from .generator import (
    GeneratedDataset,
    KbPairGenerator,
    PairProfile,
    RelationSpec,
    SideSpec,
    TypeSpec,
)


def _scaled(count: int, scale: float, minimum: int = 4) -> int:
    return max(minimum, round(count * scale))


def restaurant_profile(scale: float = 1.0, seed: int = 41) -> PairProfile:
    """Restaurant (OAEI): small, clean, strongly similar matches."""
    return PairProfile(
        name="restaurant",
        seed=seed,
        n_matches=_scaled(90, scale),
        n_extra1=_scaled(25, scale, minimum=2),
        n_extra2=_scaled(500, scale),
        types=(
            TypeSpec(
                name="restaurant",
                proportion=0.5,
                name_tokens=(2, 3),
                name_pool_size=600,
                fact_tokens=(8, 14),
                relations=(RelationSpec("address", "address", 1, 1),),
            ),
            TypeSpec(
                name="address",
                proportion=0.5,
                name_tokens=(2, 4),
                name_pool_size=700,
                fact_tokens=(5, 9),
            ),
        ),
        side1=SideSpec(
            label="Restaurant1",
            uri_prefix="http://restaurants1.example.org/a",
            name_attribute="name",
            name_class_weights=(1.0, 0.0, 0.0),
            fact_retention=0.95,
            attribute_pool_size=6,
            tokens_per_value=(2, 4),
            noise_tokens=(0, 1),
            ambient_tokens=(0, 1),
            stop_tokens=(2, 5),
            relation_retention=1.0,
            type_labels=3,
        ),
        side2=SideSpec(
            label="Restaurant2",
            uri_prefix="http://restaurants2.example.org/b",
            name_attribute="label",
            name_class_weights=(0.97, 0.03, 0.0),
            fact_retention=0.92,
            attribute_pool_size=6,
            tokens_per_value=(2, 4),
            noise_tokens=(0, 2),
            ambient_tokens=(0, 1),
            stop_tokens=(2, 5),
            relation_rename=(("address", "located_at"),),
            relation_retention=1.0,
            type_labels=3,
        ),
        fact_vocab_size=4000,
        ambient_pool_size=20,
        stop_pool_size=4,
        edge_fidelity=0.97,
    )


def rexa_dblp_profile(scale: float = 1.0, seed: int = 42) -> PairProfile:
    """Rexa-DBLP: bibliographic, large clean second side, name ambiguity."""
    return PairProfile(
        name="rexa_dblp",
        seed=seed,
        n_matches=_scaled(900, scale),
        n_extra1=_scaled(120, scale),
        n_extra2=_scaled(3600, scale),
        types=(
            TypeSpec(
                name="publication",
                proportion=0.55,
                name_tokens=(4, 7),
                name_pool_size=900,
                fact_tokens=(10, 18),
                relations=(RelationSpec("creator", "person", 1, 3),),
            ),
            TypeSpec(
                name="person",
                proportion=0.45,
                name_tokens=(2, 2),
                name_pool_size=320,
                fact_tokens=(3, 7),
            ),
        ),
        side1=SideSpec(
            label="Rexa",
            uri_prefix="http://rexa.example.org/a",
            name_attribute="title",
            name_class_weights=(0.96, 0.04, 0.0),
            fact_retention=0.9,
            attribute_pool_size=8,
            tokens_per_value=(2, 5),
            noise_tokens=(0, 3),
            ambient_tokens=(1, 2),
            stop_tokens=(2, 5),
            relation_retention=0.95,
            type_labels=4,
        ),
        side2=SideSpec(
            label="DBLP",
            uri_prefix="http://dblp.example.org/b",
            name_attribute="label",
            name_class_weights=(0.92, 0.06, 0.02),
            hidden_fact_retention=0.35,
            fact_retention=0.85,
            attribute_pool_size=10,
            random_attribute_probability=0.02,
            tokens_per_value=(2, 5),
            noise_tokens=(2, 8),
            ambient_tokens=(1, 3),
            stop_tokens=(2, 5),
            relation_rename=(("creator", "author"),),
            relation_retention=0.95,
            type_labels=8,
        ),
        fact_vocab_size=6000,
        ambient_pool_size=30,
        stop_pool_size=4,
        edge_fidelity=0.93,
    )


def bbc_dbpedia_profile(scale: float = 1.0, seed: int = 43) -> PairProfile:
    """BBCmusic-DBpedia: extreme schema and value heterogeneity."""
    return PairProfile(
        name="bbc_dbpedia",
        seed=seed,
        n_matches=_scaled(700, scale),
        n_extra1=_scaled(120, scale),
        n_extra2=_scaled(1400, scale),
        types=(
            TypeSpec(
                name="musician",
                proportion=0.5,
                name_tokens=(2, 3),
                name_pool_size=420,
                fact_tokens=(7, 13),
                name_duplicate_probability=0.08,
                relations=(
                    RelationSpec("birthplace", "place", 1, 2),
                    RelationSpec("member_of", "band", 0, 2),
                ),
            ),
            TypeSpec(
                name="band",
                proportion=0.25,
                name_tokens=(1, 3),
                name_pool_size=380,
                fact_tokens=(7, 13),
                name_duplicate_probability=0.06,
                relations=(RelationSpec("origin", "place", 1, 2),),
            ),
            TypeSpec(
                name="place",
                proportion=0.25,
                name_tokens=(1, 2),
                name_pool_size=300,
                fact_tokens=(5, 9),
            ),
        ),
        side1=SideSpec(
            label="BBCmusic",
            uri_prefix="http://bbc.example.org/a",
            name_attribute="name",
            name_class_weights=(0.92, 0.08, 0.0),
            fact_retention=0.85,
            attribute_pool_size=9,
            tokens_per_value=(2, 4),
            noise_tokens=(0, 3),
            ambient_tokens=(1, 2),
            stop_tokens=(2, 5),
            relation_retention=0.95,
            type_labels=4,
        ),
        side2=SideSpec(
            label="DBpedia",
            uri_prefix="http://dbpedia.example.org/b",
            name_attribute="label",
            name_class_weights=(0.5, 0.26, 0.24),
            name_decoration_probability=0.96,
            fact_retention=0.7,
            hidden_fact_retention=0.18,
            attribute_pool_size=12,
            random_attribute_probability=0.45,
            tokens_per_value=(2, 5),
            noise_tokens=(25, 55),
            noise_vocab_size=4500,
            ambient_tokens=(2, 5),
            stop_tokens=(2, 5),
            relation_rename=(
                ("birthplace", "dbp_birthPlace"),
                ("member_of", "dbp_bandMember"),
                ("origin", "dbp_hometown"),
            ),
            relation_retention=0.9,
            type_labels=60,
        ),
        fact_vocab_size=5000,
        ambient_pool_size=35,
        stop_pool_size=4,
        edge_fidelity=0.92,
    )


def yago_imdb_profile(scale: float = 1.0, seed: int = 44) -> PairProfile:
    """YAGO-IMDb: token-poor, relation-rich, heavy name-token reuse."""
    return PairProfile(
        name="yago_imdb",
        seed=seed,
        n_matches=_scaled(1400, scale),
        n_extra1=_scaled(500, scale),
        n_extra2=_scaled(550, scale),
        types=(
            TypeSpec(
                name="movie",
                proportion=0.4,
                name_tokens=(2, 3),
                name_pool_size=900,
                fact_tokens=(2, 6),
                name_reuse_probability=0.03,
                name_duplicate_probability=0.06,
                relations=(RelationSpec("cast", "person", 4, 8),),
            ),
            TypeSpec(
                name="person",
                proportion=0.6,
                name_tokens=(2, 2),
                name_pool_size=200,
                fact_tokens=(2, 6),
                name_reuse_probability=0.03,
                name_duplicate_probability=0.72,
            ),
        ),
        side1=SideSpec(
            label="YAGO",
            uri_prefix="http://yago.example.org/a",
            name_attribute="label",
            name_class_weights=(0.97, 0.02, 0.01),
            hidden_fact_retention=0.3,
            fact_window=(0.0, 0.5),
            fact_retention=0.85,
            attribute_pool_size=5,
            tokens_per_value=(1, 3),
            noise_tokens=(0, 2),
            ambient_tokens=(0, 1),
            stop_tokens=(2, 5),
            relation_retention=0.96,
            type_labels=40,
        ),
        side2=SideSpec(
            label="IMDb",
            uri_prefix="http://imdb.example.org/b",
            name_attribute="title",
            name_class_weights=(0.95, 0.03, 0.02),
            hidden_fact_retention=0.3,
            fact_window=(0.5, 1.0),
            fact_retention=0.8,
            attribute_pool_size=5,
            tokens_per_value=(1, 3),
            noise_tokens=(0, 2),
            ambient_tokens=(0, 1),
            stop_tokens=(2, 5),
            relation_rename=(("cast", "appears_in"),),
            relation_retention=0.96,
            type_labels=8,
        ),
        fact_vocab_size=2500,
        ambient_pool_size=100,
        stop_pool_size=4,
        edge_fidelity=0.97,
    )


PROFILE_BUILDERS = {
    "restaurant": restaurant_profile,
    "rexa_dblp": rexa_dblp_profile,
    "bbc_dbpedia": bbc_dbpedia_profile,
    "yago_imdb": yago_imdb_profile,
}

#: Dataset order used by all paper tables.
PROFILE_ORDER = ("restaurant", "rexa_dblp", "bbc_dbpedia", "yago_imdb")


def load_profile(name: str, scale: float = 1.0, seed: int | None = None) -> PairProfile:
    """Look up a benchmark profile by name."""
    try:
        builder = PROFILE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(PROFILE_BUILDERS))
        raise ValueError(f"unknown profile {name!r}; known: {known}") from None
    if seed is None:
        return builder(scale=scale)
    return builder(scale=scale, seed=seed)


def generate_benchmark(
    name: str, scale: float = 1.0, seed: int | None = None
) -> GeneratedDataset:
    """Generate one of the four benchmark-like datasets."""
    return KbPairGenerator(load_profile(name, scale, seed)).generate()
