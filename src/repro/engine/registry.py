"""Scenario registry: name -> (scenario, presenter) for the CLI.

Experiment modules call :func:`register` at import time; the CLI (and
anything else that wants "every experiment in the repo") calls
:func:`load_all` to trigger those imports, then looks scenarios up by
canonical name or alias.  Presenters render a finished
:class:`~repro.engine.scenario.ScenarioResult` to stdout — the engine
itself never prints.  A registered scenario is the one way to run an
experiment: ``repro run <name>`` applies the command-line overrides to
it and hands the engine's result to its presenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.engine.scenario import Scenario, ScenarioResult
from repro.errors import EngineError

__all__ = ["RegisteredScenario", "register", "get", "names", "load_all", "entries"]

Presenter = Callable[[ScenarioResult], None]


@dataclass(frozen=True)
class RegisteredScenario:
    """One registry row: the default scenario plus its renderer."""

    scenario: Scenario
    present: Presenter
    aliases: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.scenario.name


_REGISTRY: dict[str, RegisteredScenario] = {}
_ALIASES: dict[str, str] = {}


def register(
    scenario: Scenario,
    present: Presenter,
    *,
    aliases: tuple[str, ...] = (),
) -> RegisteredScenario:
    """Register ``scenario`` under its canonical name (plus aliases).

    Re-registering the same name replaces the entry (supports module
    reloads); an alias may not shadow a different scenario's name.
    """
    entry = RegisteredScenario(scenario, present, aliases)
    if _ALIASES.get(scenario.name, scenario.name) != scenario.name:
        raise EngineError(
            f"scenario name {scenario.name!r} collides with an alias of "
            f"{_ALIASES[scenario.name]!r}"
        )
    _REGISTRY[scenario.name] = entry
    for alias in aliases:
        existing = _ALIASES.get(alias)
        if alias in _REGISTRY or (existing is not None and existing != scenario.name):
            raise EngineError(f"alias {alias!r} collides with an existing scenario")
        _ALIASES[alias] = scenario.name
    return entry


def get(name: str) -> RegisteredScenario:
    """Look up a scenario by canonical name or alias."""
    load_all()
    canonical = _ALIASES.get(name, name)
    entry = _REGISTRY.get(canonical)
    if entry is None:
        raise EngineError(
            f"unknown scenario {name!r}; registered: {', '.join(names())}"
        )
    return entry


def names() -> list[str]:
    """Canonical scenario names in registration order."""
    load_all()
    return list(_REGISTRY)


def entries() -> Iterator[RegisteredScenario]:
    load_all()
    return iter(list(_REGISTRY.values()))


def load_all() -> None:
    """Import the experiment modules so their scenarios register."""
    import repro.experiments  # noqa: F401  (import-time registration)
