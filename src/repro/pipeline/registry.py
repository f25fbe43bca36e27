"""Named registries for pluggable pipeline units.

Two registries ship with the package: :data:`BLOCKING_SCHEMES` (stages
that build block collections — the built-ins ``name`` and ``token``
register themselves on import) and :data:`HEURISTICS` (the matching
units ``h1``-``h4``).  User code registers its own::

    from repro.pipeline import HEURISTICS

    @HEURISTICS.register("h5")
    class MyHeuristic:
        name = "h5"
        ...

    MinoanER.builder().with_config(heuristics=("h1", "h2", "h5")).build()

Registration is by factory (class or zero-argument callable);
``create`` instantiates a fresh unit per pipeline.  Re-registering an
existing name requires ``override=True`` so accidental collisions fail
loudly.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator


class RegistryError(KeyError):
    """Unknown name, or a name registered twice without ``override``."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


class Registry:
    """A name -> factory map with decorator-style registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[[], Any]] = {}

    def register(
        self,
        name: str,
        factory: Callable[[], Any] | None = None,
        *,
        override: bool = False,
    ):
        """Register a factory, directly or as a class decorator."""

        def _bind(bound_factory: Callable[[], Any]):
            if not override and name in self._factories:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass override=True to replace it"
                )
            self._factories[name] = bound_factory
            return bound_factory

        if factory is None:
            return _bind
        return _bind(factory)

    def unregister(self, name: str) -> None:
        """Remove a registration (tests and plugin teardown)."""
        self._factories.pop(name, None)

    def create(self, name: str) -> Any:
        """Instantiate a fresh unit by name."""
        factory = self._factories.get(name)
        if factory is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; "
                f"registered: {', '.join(self.names()) or '(none)'}"
            )
        return factory()

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}: {self.names()})"


#: Stages that build block collections (``name``, ``token``, yours).
BLOCKING_SCHEMES = Registry("blocking scheme")

#: Matching units applied by the matching stage (``h1``-``h4``, yours).
HEURISTICS = Registry("heuristic")
