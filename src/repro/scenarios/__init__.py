"""Curated, versioned scenario pack.

Each ``*.json`` file in this package is a named, replayable scenario in
the fuzzer's :class:`~repro.verify.fuzzer.ScenarioSpec` repro format
(``format`` 3 or 4), plus pack metadata keys (``name``, ``description``,
``tags``, ``pack_version``) which the spec loader ignores. Every build
goes through the scenario loader: ``spec.to_config()`` is a plain
:mod:`repro.platform.loader` config, so each entry can also be written
out as JSON and run with ``repro run``. One file, three consumers:

* the arena (``repro arena``) replays every pack entry under every
  registered autoscaler policy and scores the result;
* the benchmark runner replays them through R-T13 (``repro bench``);
* the fuzzer replays any single entry directly —
  ``repro fuzz --replay src/repro/scenarios/<name>.json`` — with the
  full invariant registry attached.

Pack contract: entries are append-only within a ``PACK_VERSION``; any
edit to an existing entry's spec (which would silently shift every
policy's scorecard) requires a version bump and a CHANGES.md note.
Scenario themes cover the load taxonomy: ``calm`` (steady baseline),
``diurnal`` (cyclic load + batch/HPC mix), ``flash-crowd`` (a 4x
surge on one service), ``overload-surge`` (correlated surges with the
overload stack armed), ``zone-outage`` (correlated zone failure),
``data-fault`` (data-plane faults with FT armed). Pack v2 appends the
trace-realism entries (ScenarioSpec v4): ``diurnal-replay`` (a recorded
rate curve replayed sample-by-sample, driving open-loop Poisson
arrivals), ``heavy-tail`` (MMPP arrivals with Pareto request-size
marks), and ``correlated-surge`` (the CorrelatedSurge coordinator
hitting every service on one shared schedule).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.verify.fuzzer import ScenarioSpec

#: Bump when any existing entry's spec changes (see the pack contract).
#: v2 appended diurnal-replay / heavy-tail / correlated-surge; every v1
#: entry is byte-identical to pack v1.
PACK_VERSION = 2

_PACK_DIR = Path(__file__).resolve().parent


class UnknownScenarioError(ValueError):
    """Raised for scenario names not in the pack; lists what is."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown scenario {name!r}; pack contains: "
            + ", ".join(repr(s) for s in available)
        )


@dataclass(frozen=True)
class PackEntry:
    """One named scenario: metadata + the parsed replayable spec."""

    name: str
    description: str
    tags: tuple[str, ...]
    path: Path
    spec: ScenarioSpec


def scenario_names() -> tuple[str, ...]:
    """All pack entries, sorted by name."""
    return tuple(
        sorted(path.stem for path in _PACK_DIR.glob("*.json"))
    )


def load_scenario(name: str) -> PackEntry:
    """Load one pack entry by name."""
    path = _PACK_DIR / f"{name}.json"
    if not path.is_file():
        raise UnknownScenarioError(name, scenario_names())
    data = json.loads(path.read_text())
    declared = data.get("name", name)
    if declared != name:
        raise ValueError(
            f"pack file {path.name} declares name {declared!r}"
        )
    return PackEntry(
        name=name,
        description=data.get("description", ""),
        tags=tuple(data.get("tags", ())),
        path=path,
        spec=ScenarioSpec.from_dict(data),
    )


def load_pack() -> tuple[PackEntry, ...]:
    """Every pack entry, sorted by name."""
    return tuple(load_scenario(name) for name in scenario_names())
