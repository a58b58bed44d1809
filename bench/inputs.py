"""Seeded inputs of the four workloads.

Each workload measures a fixed *universe* of work — the same SCADA
configurations, verification cells, stream states and grids on every
seed — and the seed draws how that work arrives: the order of the CLI
verifies, the arrival times and cell draws of the service traffic, the
order in which the stream's disturbance episodes happen, and how the
corpus fleet splits into sweeps.  So runs under different seeds
measure the same system doing the same work, their numbers are
comparable, and the oracle's answers for the universe are computed
once (``bench/expected/``) instead of on every seed.

Two profiles exist: ``full`` (the benchmark of record) and ``smoke``
(14-bus and tiny grids, for ``bench/test_bench_smoke.py``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.corpus import GridSpec, grow_grid
from repro.grid import case_by_buses
from repro.scada import GeneratorConfig, generate_scada
from repro.scada.config_io import CaseConfig, dump_config, parse_config
from repro.stream import DeltaCompiler, LiveState, ScenarioEmulator
from repro.stream import StreamEvent

#: Grid and SCADA seed of the configuration under test: the 118-bus,
#: two-level-hierarchy case ``benchmarks/bench_service_latency.py``
#: builds.
CASE_SEED = 7
H2_POLICY: Dict[str, Any] = dict(measurement_fraction=0.7,
                                 secure_fraction=1.0,
                                 dual_home_fraction=0.3,
                                 hierarchy_level=2)

#: service_mix: offered load, churn share and churn fleet.
SERVICE_RATE = 6.0
CHURN_SHARE = 0.1
CHURN_CONFIGS = 12
CHURN_SEED_BASE = 101

#: stream_events: the emulator settings, and the episode filter (see
#: :func:`stream_episodes`).  Episodes that visit fewer shapes are mostly
#: a disturbance and its immediate recovery — half engine hits — which
#: would put the latency median between the hit and the miss modes.
RECOVERY_BIAS = 0.6
EPISODE_MIN_SHAPES = 3
EPISODE_EVENTS = 8

#: corpus_sweep: the SCADA policy of ``benchmarks/bench_corpus_sweep.py``.
CORPUS_SCADA = GeneratorConfig(measurement_fraction=0.5, rtus_per_bus=0.25,
                               hierarchy_level=2, secure_fraction=0.9,
                               seed=0)
CORPUS_GRID_SEEDS = (0, 1)
CORPUS_JOBS = 2


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile."""

    name: str
    buses: int
    churn_buses: int
    corpus_sizes: Tuple[int, ...]
    corpus_ks: Tuple[int, ...]
    #: Episodes are added to the stream cycle until it has this many
    #: events.
    cycle_events: int


PROFILES = {
    "full": Profile("full", buses=118, churn_buses=57,
                    corpus_sizes=(1000, 700, 400, 200),
                    corpus_ks=(0, 1, 2), cycle_events=12),
    "smoke": Profile("smoke", buses=14, churn_buses=14,
                     corpus_sizes=(60, 40), corpus_ks=(0, 1),
                     cycle_events=4),
}


def rng_for(*parts: object) -> random.Random:
    """A generator seeded by a string: stable across processes."""
    return random.Random("/".join(str(p) for p in parts))


def cell_key(network_fp: str, problem_fp: str,
             spec: ResiliencySpec) -> str:
    """The oracle's identity of one verification cell."""
    text = f"{network_fp}|{problem_fp}|{spec.describe()}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def config_key(config: CaseConfig, spec: ResiliencySpec) -> str:
    return cell_key(config.network.fingerprint(),
                    config.problem.fingerprint(), spec)


def spec_payload(spec: ResiliencySpec) -> Dict[str, Any]:
    """The service's JSON form of a total-budget spec."""
    payload: Dict[str, Any] = {"property": spec.property.value,
                               "k": spec.budget.k}
    if spec.property is Property.BAD_DATA_DETECTABILITY:
        payload["r"] = spec.r
    return payload


def spec_from_payload(payload: Dict[str, Any]) -> ResiliencySpec:
    return ResiliencySpec.for_property(Property(payload["property"]),
                                       r=int(payload.get("r", 1)),
                                       k=int(payload["k"]))


# -- configurations -----------------------------------------------------


def scada_case(buses: int, seed: int) -> CaseConfig:
    """A synthetic SCADA configuration under the two-level policy.

    Returned as read back from its configuration text: the CLI and the
    service only ever see the text, and the text does not carry every
    generator setting (the path-length cap), so the object the
    generator returns is a different network from theirs.
    """
    synthetic = generate_scada(case_by_buses(buses, seed=seed),
                               GeneratorConfig(seed=seed, **H2_POLICY))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return parse_config(dump_config(CaseConfig(
        network=synthetic.network, problem=problem, spec=None)),
        strict=False)


def main_case(profile: Profile) -> CaseConfig:
    return scada_case(profile.buses, CASE_SEED)


def churn_case(profile: Profile, index: int) -> CaseConfig:
    return scada_case(profile.churn_buses, CHURN_SEED_BASE + index)


def corpus_case(size: int, seed: int) -> CaseConfig:
    """One corpus grid, grown as ``generate_corpus`` grows it."""
    synthetic = generate_scada(grow_grid(GridSpec(num_buses=size,
                                                  seed=seed)),
                               CORPUS_SCADA)
    problem = ObservabilityProblem.from_table(synthetic.table)
    return CaseConfig(network=synthetic.network, problem=problem,
                      spec=None)


@functools.lru_cache(maxsize=64)
def resolve(label: str, profile: Profile) -> CaseConfig:
    """The configuration a cell label names.

    ``main`` is the case under test, ``churn-<i>`` a churn config,
    ``grid-<size>-<seed>`` a corpus grid and ``state:<json>`` the
    case under test with a stream state's disturbances applied.
    """
    if label == "main":
        return main_case(profile)
    if label.startswith("churn-"):
        return churn_case(profile, int(label.split("-")[1]))
    if label.startswith("grid-"):
        _, size, seed = label.split("-")
        return corpus_case(int(size), int(seed))
    if label.startswith("state:"):
        state = state_from_label(label[len("state:"):])
        return DeltaCompiler(resolve("main", profile)).materialize(state)
    raise ValueError(f"unknown configuration label {label!r}")


# -- cli_cold -----------------------------------------------------------


def cli_cells() -> List[ResiliencySpec]:
    """Every property at k = 1, 2, 3: twelve cells."""
    return [ResiliencySpec.for_property(prop, k=k)
            for prop in Property for k in (1, 2, 3)]


def cli_pass(seed: int, index: int) -> List[int]:
    """The order of the twelve cells in pass *index*."""
    order = list(range(len(cli_cells())))
    rng_for("cli", seed, index).shuffle(order)
    return order


def cli_argv(spec: ResiliencySpec) -> List[str]:
    """The verify arguments of one cell; everything else at defaults."""
    return ["--property", spec.property.value, "--k", str(spec.budget.k)]


# -- service_mix --------------------------------------------------------


def hot_cells() -> List[ResiliencySpec]:
    """The 25 warm cells: k 0-4 per property, r 1-2 for bad data."""
    cells = []
    for prop in Property:
        rs = (1, 2) if prop is Property.BAD_DATA_DETECTABILITY else (1,)
        for r in rs:
            cells.extend(ResiliencySpec.for_property(prop, r=r, k=k)
                         for k in range(5))
    return cells


def churn_spec(index: int) -> ResiliencySpec:
    props = list(Property)
    return ResiliencySpec.for_property(props[index % len(props)], k=1)


@dataclass(frozen=True)
class Request:
    """One service request: when it is due, and what it asks."""

    index: int
    due: float
    churn: bool
    cell: int


def service_schedule(seed: int, seconds: float) -> List[Request]:
    """An open-loop schedule at :data:`SERVICE_RATE` for *seconds*.

    Every seed offers the same traffic, arranged differently, so that
    runs differ in arrangement and not in load:

    * the gaps between arrivals are the ``n`` quantiles of the
      exponential distribution at the offered rate, in seeded order
      (scaled to span exactly ``n / rate`` seconds);
    * a tenth of the requests are churn, one in each tenth of the
      schedule at a seeded position, round-robin over the churn fleet
      from a seeded start;
    * the hot requests take the 25 hot cells in seeded permutations,
      one after another, so every cell is asked equally often.
    """
    rng = rng_for("service", seed)
    n = max(2, round(SERVICE_RATE * seconds))
    gaps = [-math.log(1.0 - (i + 0.5) / n) for i in range(n)]
    rng.shuffle(gaps)
    scale = (n / SERVICE_RATE) / sum(gaps)
    churns = max(1, round(CHURN_SHARE * n))
    churn_at = {block * n // churns
                + rng.randrange((block + 1) * n // churns
                                - block * n // churns)
                for block in range(churns)}
    rotation = rng.randrange(CHURN_CONFIGS)
    hot: List[int] = []
    while len(hot) < n - churns:
        cells = list(range(len(hot_cells())))
        rng.shuffle(cells)
        hot.extend(cells)
    requests: List[Request] = []
    due = 0.0
    churned = 0
    for index in range(n):
        if index in churn_at:
            cell = (rotation + churned) % CHURN_CONFIGS
            churned += 1
        else:
            cell = hot[index - churned]
        requests.append(Request(index, due, index in churn_at, cell))
        due += gaps[index] * scale
    return requests


# -- stream_events ------------------------------------------------------


def stream_floors() -> List[ResiliencySpec]:
    return [ResiliencySpec.observability(k=1),
            ResiliencySpec.secured_observability(k=1),
            ResiliencySpec.bad_data_detectability(r=1, k=1)]


def stream_episodes(config: CaseConfig,
                  profile: Profile) -> List[List[StreamEvent]]:
    """Disturbance episodes drawn from the scenario emulator.

    An episode is what :class:`~repro.stream.ScenarioEmulator` (all
    scenarios, recovery bias 0.6) emits from the pristine system until
    the system is pristine again, at most :data:`EPISODE_EVENTS` events.
    Episodes are kept when they visit at least
    :data:`EPISODE_MIN_SHAPES` disturbed network shapes and share no
    shape with an earlier episode.  Every episode starts from the
    pristine shape, the most recent entry of the watcher's engine LRU,
    and no episode revisits another's shapes, so whether an event hits
    a warm engine depends on its own episode only: the seed can reorder
    the episodes without changing the work.
    """
    compiler = DeltaCompiler(config)
    pristine = config.network.fingerprint()
    taken = {pristine}
    episodes: List[List[StreamEvent]] = []
    total = 0
    emulator_seed = 0
    while total < profile.cycle_events:
        emulator = ScenarioEmulator(config.network, seed=emulator_seed,
                                    recovery_bias=RECOVERY_BIAS)
        emulator_seed += 1
        episode = _episode(emulator, compiler)
        if episode is None:
            continue
        shapes = {compiler.materialize(state).network.fingerprint()
                  for state in _states(compiler, episode)[:-1]}
        if len(shapes) < EPISODE_MIN_SHAPES or shapes & taken:
            continue
        taken |= shapes
        episodes.append(episode)
        total += len(episode)
    return episodes


def _episode(emulator: ScenarioEmulator,
             compiler: DeltaCompiler) -> Optional[List[StreamEvent]]:
    state = LiveState()
    events: List[StreamEvent] = []
    while len(events) < EPISODE_EVENTS:
        event = emulator.next_event()
        state = compiler.apply(state, event).after
        events.append(event)
        if state.pristine:
            return events
    return None


def _states(compiler: DeltaCompiler,
            events: Sequence[StreamEvent]) -> List[LiveState]:
    """The state after each event, starting from pristine."""
    state = LiveState()
    states = []
    for event in events:
        state = compiler.apply(state, event).after
        states.append(state)
    return states


def stream_cycle(episodes: Sequence[Sequence[StreamEvent]], seed: int,
                 index: int) -> List[StreamEvent]:
    """Cycle *index*: every episode once, in a seeded order.

    Events are renumbered and re-timed so the cycle reads as one feed;
    the gaps between events are the emulator's own.
    """
    order = list(range(len(episodes)))
    rng_for("stream", seed, index).shuffle(order)
    events: List[StreamEvent] = []
    clock = 0.0
    for episode_index in order:
        previous = 0.0
        for event in episodes[episode_index]:
            clock += event.time - previous
            previous = event.time
            events.append(replace(event, seq=len(events) + 1, time=clock))
    return events


def state_label(state: LiveState) -> str:
    return json.dumps(state.to_json(), sort_keys=True)


def state_from_label(label: str) -> LiveState:
    raw = json.loads(label)
    return LiveState(
        failed=frozenset(raw["failed"]),
        cut=frozenset(tuple(p) for p in raw["cut"]),
        downgraded=frozenset(tuple(p) for p in raw["downgraded"]),
        compromised=frozenset(raw["compromised"]))


def stream_states(config: CaseConfig,
                  episodes: Sequence[Sequence[StreamEvent]]
                  ) -> List[LiveState]:
    """Every state the episodes visit, pristine first."""
    compiler = DeltaCompiler(config)
    states = [LiveState()]
    for episode in episodes:
        for state in _states(compiler, episode):
            if state not in states:
                states.append(state)
    return states


# -- corpus_sweep -------------------------------------------------------


def corpus_sweep_grids(profile: Profile, seed: int,
                       index: int) -> List[Tuple[int, int]]:
    """The (size, grid seed) grids of sweep *index*.

    Sweeps come in pairs that together cover the whole fleet (every
    size at both grid seeds); the seed decides which grid of each size
    goes into the first sweep of the pair.
    """
    rng = rng_for("corpus", seed, index // 2)
    grids = []
    for size in profile.corpus_sizes:
        first = rng.choice(CORPUS_GRID_SEEDS)
        pick = first if index % 2 == 0 else \
            [s for s in CORPUS_GRID_SEEDS if s != first][0]
        grids.append((size, pick))
    return grids


def corpus_specs(profile: Profile) -> List[ResiliencySpec]:
    return [ResiliencySpec.observability(k=k) for k in profile.corpus_ks]
