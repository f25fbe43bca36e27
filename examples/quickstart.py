"""Quickstart: match two tiny hand-written KBs with MinoanER.

Run with::

    python examples/quickstart.py

Builds two four-entity knowledge bases about music venues and their
cities, with different attribute names on each side (schema-agnostic
matching needs no alignment), and prints the discovered matches with the
heuristic that produced each.
"""

from repro import EntityDescription, KnowledgeBase, MinoanER, MinoanERConfig


def build_left() -> KnowledgeBase:
    kb = KnowledgeBase("VenueGuide")
    venue = EntityDescription("http://left.example.org/venue/1")
    venue.add_literal("name", "Blue Note Jazz Club")
    venue.add_literal("description", "legendary smoky jazz basement stage")
    venue.add_relation("locatedIn", "http://left.example.org/city/1")
    kb.add(venue)

    second = EntityDescription("http://left.example.org/venue/2")
    second.add_literal("name", "Village Vanguard")
    second.add_literal("description", "historic wedge shaped listening room")
    second.add_relation("locatedIn", "http://left.example.org/city/1")
    kb.add(second)

    city = EntityDescription("http://left.example.org/city/1")
    city.add_literal("name", "New York City")
    city.add_literal("nickname", "the big apple")
    kb.add(city)

    lonely = EntityDescription("http://left.example.org/venue/3")
    lonely.add_literal("name", "Preservation Hall")
    lonely.add_literal("description", "acoustic brass traditions nightly")
    kb.add(lonely)
    return kb


def build_right() -> KnowledgeBase:
    kb = KnowledgeBase("CityMusic")
    venue = EntityDescription("http://right.example.org/e/10")
    venue.add_literal("label", "Blue Note Jazz Club")
    venue.add_literal("blurb", "famous jazz basement in greenwich village")
    venue.add_relation("city", "http://right.example.org/e/30")
    kb.add(venue)

    second = EntityDescription("http://right.example.org/e/20")
    second.add_literal("label", "The Village Vanguard")
    second.add_literal("blurb", "wedge shaped room with historic recordings")
    second.add_relation("city", "http://right.example.org/e/30")
    kb.add(second)

    city = EntityDescription("http://right.example.org/e/30")
    city.add_literal("label", "new york city")
    city.add_literal("note", "big apple metropolis")
    kb.add(city)
    return kb


def main() -> None:
    kb1, kb2 = build_left(), build_right()
    result = MinoanER().match(kb1, kb2)

    print(f"Discovered name attributes: {result.name_attributes1} / "
          f"{result.name_attributes2}")
    print(f"Token blocks: {len(result.token_blocks)}, "
          f"name blocks: {len(result.name_blocks)}")
    print()
    print("Matches:")
    for match in result.matches:
        print(f"  [{match.heuristic}] {match.uri1}  <->  {match.uri2}")
    unmatched = set(kb1.uris()) - {m.uri1 for m in result.matches}
    print(f"Unmatched in {kb1.name}: {sorted(unmatched)}")

    # The config's heuristics field picks which heuristics run (and in
    # what order) without touching the core.
    names_only = MinoanER(MinoanERConfig(heuristics=("h1",)))
    print()
    print(f"H1-only matches: {sorted(names_only.match(kb1, kb2).pairs())}")


if __name__ == "__main__":
    main()
