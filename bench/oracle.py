"""Expected answers, and the checks every returned verdict must pass.

An expected answer is computed per *cell* (a configuration plus a
spec), independently of the backend a workload exercises:

* the structural pass brackets the minimal attack cardinality; a
  structural witness no larger than the budget proves a threat;
* otherwise the ``fresh`` backend decides the cell with
  ``certify=True``: a RESILIENT answer counts only with its RUP proof
  checked, a threat only with its witness;
* every threat witness — the oracle's and, at check time, each one a
  workload returns — is replayed with a separately built
  :class:`~repro.core.reference.ReferenceEvaluator`;
* no answer may contradict a certified structural bracket.

Answers for the benchmark-of-record universe are committed under
``bench/expected/seed7/``; any cell missing there (another profile, or
a program change that moves a fingerprint) is computed here and cached
under ``.bench_work/oracle/``.  ``python3 bench/oracle.py`` recomputes
the committed files from scratch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import harness  # noqa: E402

EXPECTED = harness.ROOT / "bench" / "expected"
COMMITTED_SEED = 7
RESILIENT = "resilient"
THREAT = "threat-found"


class OracleError(RuntimeError):
    """The oracle could not establish a trustworthy answer."""


def committed_file(workload: str) -> Path:
    return EXPECTED / f"seed{COMMITTED_SEED}" / f"{workload}.json"


def expected_file(workload: str, seed: int, profile: str) -> Path:
    """Where the expected answers of one (workload, seed) live."""
    if profile == "full" and seed == COMMITTED_SEED:
        return committed_file(workload)
    return harness.WORK / "expected" / profile / f"seed{seed}" / \
        f"{workload}.json"


def _cache_file(workload: str, profile: str) -> Path:
    return harness.WORK / "oracle" / profile / f"{workload}.json"


# -- computing answers --------------------------------------------------


def solve_config(label: str, config: Any,
                 specs: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    """Expected answers for *specs* on one configuration."""
    from repro.core import ReferenceEvaluator, Status
    from repro.engine import VerificationEngine
    from repro.graphs.security_index import StructuralAnalysis

    from bench import inputs

    structural = StructuralAnalysis(config.network, config.problem)
    engine = VerificationEngine(config.network, config.problem,
                                backend="fresh", lint=False)
    reference = ReferenceEvaluator(config.network, config.problem)
    answers: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        k = spec.budget.k
        bounds = structural.attack_bounds(spec.property, r=spec.r)
        witness: Optional[List[int]] = None
        if bounds.upper is not None and bounds.upper <= k:
            status, evidence = THREAT, "structural witness"
            witness = sorted(bounds.witness)
        else:
            result = engine.verify(spec, certify=True)
            if result.status is Status.RESILIENT:
                if result.details.get("proof_checked") is not True:
                    raise OracleError(f"{label} {spec.describe()}: the "
                                      f"RUP proof did not check")
                status, evidence = RESILIENT, "rup proof checked"
            elif result.status is Status.THREAT_FOUND:
                assert result.threat is not None
                status, evidence = THREAT, "fresh witness"
                witness = sorted(result.threat.failed_devices)
            else:
                raise OracleError(f"{label} {spec.describe()}: UNKNOWN")
        if witness is not None and not reference.is_threat(spec, witness):
            raise OracleError(f"{label} {spec.describe()}: witness "
                              f"{witness} does not replay")
        if bounds.certified and status == THREAT and k < bounds.lower:
            raise OracleError(f"{label} {spec.describe()}: threat below "
                              f"the certified bound {bounds.lower}")
        answers[inputs.config_key(config, spec)] = {
            "config": label, "spec": spec.describe(),
            "query": inputs.spec_payload(spec), "status": status,
            "evidence": evidence, "witness": witness,
            "bracket": [bounds.lower, bounds.upper, bounds.certified],
        }
    return answers


def _grouped(cells: Iterable[Tuple[str, Any]]
             ) -> Dict[str, List[Any]]:
    groups: Dict[str, List[Any]] = {}
    for label, spec in cells:
        groups.setdefault(label, [])
        if spec not in groups[label]:
            groups[label].append(spec)
    return groups


def answers(lane: Any, profile_name: str,
            fresh: bool = False) -> Dict[str, Dict[str, Any]]:
    """Expected answers for every cell of *lane*'s universe.

    Reads the committed answers and the local cache, computes what is
    missing, and updates the cache.  ``fresh=True`` ignores both.
    """
    from bench import inputs

    profile = inputs.PROFILES[profile_name]
    known: Dict[str, Dict[str, Any]] = {}
    if not fresh:
        for path in (committed_file(lane.NAME),
                     _cache_file(lane.NAME, profile_name)):
            if path.is_file():
                known.update(harness.read_json(path)["cells"])
    missing: Dict[str, List[Any]] = {}
    for label, specs in _grouped(lane.universe(profile)).items():
        config = inputs.resolve(label, profile)
        todo = [s for s in specs
                if inputs.config_key(config, s) not in known]
        if todo:
            missing[label] = todo
    if missing:
        computed: Dict[str, Dict[str, Any]] = {}
        for label, specs in missing.items():
            print(f"oracle: {lane.NAME}: solving {len(specs)} cell(s) "
                  f"of {label[:60]}", file=sys.stderr)
            computed.update(solve_config(
                label, inputs.resolve(label, profile), specs))
        known.update(computed)
        cache = _cache_file(lane.NAME, profile_name)
        cached = harness.read_json(cache)["cells"] if cache.is_file() \
            else {}
        cached.update(computed)
        harness.write_json(cache, {"cells": cached})
    return known


def write_expected(lane: Any, seed: int, profile_name: str,
                   cells: Dict[str, Dict[str, Any]]) -> Path:
    """The (workload, seed) expected file: its ops and their answers."""
    from bench import inputs

    profile = inputs.PROFILES[profile_name]
    path = expected_file(lane.NAME, seed, profile_name)
    universe = {inputs.config_key(inputs.resolve(label, profile), spec)
                for label, spec in lane.universe(profile)}
    payload = {
        "workload": lane.NAME, "seed": seed, "profile": profile_name,
        "cells": {key: cells[key] for key in sorted(universe)},
        "ops": lane.plan(seed, profile),
    }
    harness.write_json(path, payload)
    return path


# -- checking returned verdicts ----------------------------------------


class Checker:
    """Compares returned verdicts with the expected ones.

    Every returned threat witness is replayed on a reference evaluator
    built here from the configuration, not taken from the program run
    that produced the witness.  Replay outcomes are cached per (cell,
    witness) under ``.bench_work/`` so repeated runs do not rebuild
    large evaluators for a witness already replayed.
    """

    def __init__(self, cells: Dict[str, Dict[str, Any]],
                 profile_name: str) -> None:
        self.cells = cells
        self.profile_name = profile_name
        self.problems: List[str] = []
        self._references: Dict[str, Any] = {}
        self._replays_path = harness.WORK / "oracle" / profile_name / \
            "replays.json"
        self._replays: Dict[str, bool] = (
            harness.read_json(self._replays_path)
            if self._replays_path.is_file() else {})
        self._dirty = False

    def check(self, output: Dict[str, Any]) -> bool:
        """One returned verdict: ``{"cell", "status", "witness"}``."""
        expected = self.cells.get(output["cell"])
        where = output.get("where", output["cell"])
        if expected is None:
            return self._fail(f"{where}: no expected answer for cell "
                              f"{output['cell']}")
        if output["status"] != expected["status"]:
            return self._fail(f"{where}: {expected['spec']} returned "
                              f"{output['status']}, expected "
                              f"{expected['status']}")
        if output["status"] == THREAT and not self._replay(
                output["cell"], expected, output.get("witness")):
            return self._fail(f"{where}: {expected['spec']} witness "
                              f"{output.get('witness')} does not replay")
        return True

    def _fail(self, problem: str) -> bool:
        self.problems.append(problem)
        return False

    def _replay(self, key: str, expected: Dict[str, Any],
                witness: Optional[Sequence[int]]) -> bool:
        if witness is None:
            return False
        memo = f"{key}:{','.join(str(d) for d in sorted(witness))}"
        if memo not in self._replays:
            from repro.core import ReferenceEvaluator

            from bench import inputs

            label = expected["config"]
            reference = self._references.get(label)
            if reference is None:
                config = inputs.resolve(
                    label, inputs.PROFILES[self.profile_name])
                reference = ReferenceEvaluator(config.network,
                                               config.problem)
                self._references[label] = reference
            spec = inputs.spec_from_payload(expected["query"])
            self._replays[memo] = bool(reference.is_threat(spec, witness))
            self._dirty = True
        return self._replays[memo]

    def save(self) -> None:
        if self._dirty:
            harness.write_json(self._replays_path, self._replays)


# -- recomputing the committed files -----------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Recompute the committed expected answers "
                    "(bench/expected/seed7/) from scratch.")
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        action="append",
                        help="only this workload (repeatable)")
    args = parser.parse_args(argv)
    harness.bootstrap()
    from bench import lanes

    for name in args.workload or harness.WORKLOADS:
        lane = lanes.LANES[name]
        cells = answers(lane, "full", fresh=True)
        path = write_expected(lane, COMMITTED_SEED, "full", cells)
        print(f"wrote {path.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
