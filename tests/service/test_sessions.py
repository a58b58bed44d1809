"""Session layer: fingerprint routing, LRU eviction, invalidation."""

import pytest

from repro.core import ResiliencySpec
from repro.service.protocol import ServiceError
from repro.service.sessions import SessionManager

from .conftest import fig3_config_text, fig4_config_text


@pytest.fixture
def manager():
    return SessionManager(maxsize=2)


def test_byte_different_configs_share_a_session(manager):
    text = fig3_config_text()
    noisy = "# a comment the parser ignores\n" + text + "\n\n"
    first, created_first = manager.open(manager.parse(text))
    second, created_second = manager.open(manager.parse(noisy))
    assert created_first and not created_second
    assert first is second
    assert manager.stats()["reused"] == 1


def test_warm_session_repeats_hit_the_encoding_cache(manager):
    session, _ = manager.open(manager.parse(fig3_config_text()))
    spec = ResiliencySpec.observability(k=1)
    session.engine.verify(spec, minimize=False)
    misses_after_first = session.engine.cache.misses
    session.engine.verify(spec, minimize=False)
    assert session.engine.cache.misses == misses_after_first
    assert session.engine.cache.hits >= 1


def test_lru_eviction_drops_contexts_cleanly(manager):
    text = fig3_config_text()
    base, _ = manager.open(manager.parse(text))
    base.engine.verify(ResiliencySpec.observability(k=1),
                       minimize=False)
    assert len(base.engine.cache) >= 1
    # Two more distinct sessions (an extra RTU-router link, then the
    # fig4 topology → different fingerprints) overflow maxsize=2 and
    # evict the oldest.
    manager.open(manager.parse(
        text.replace("\n10 11\n", "\n10 11\n10 14\n")))
    manager.open(manager.parse(fig4_config_text()))
    assert manager.stats() == {"open": 2, "created": 3, "reused": 0,
                               "evicted": 1, "invalidated": 0}
    # The evicted session's warm contexts (live solvers) were released.
    assert len(base.engine.cache) == 0
    with pytest.raises(ServiceError) as err:
        manager.get(base.session_id)
    assert err.value.status == 404
    # Reopening the evicted configuration builds a fresh session.
    again, created = manager.open(manager.parse(text))
    assert created and again is not base


def test_invalidate_clears_and_forgets(manager):
    session, _ = manager.open(manager.parse(fig3_config_text()))
    session.engine.verify(ResiliencySpec.observability(k=1),
                          minimize=False)
    assert manager.invalidate(session.session_id) is True
    assert len(session.engine.cache) == 0
    assert manager.invalidate(session.session_id) is False
    assert manager.stats()["invalidated"] == 1


def test_parse_errors_are_client_errors(manager):
    with pytest.raises(ServiceError) as err:
        manager.parse("[system\nstates = banana")
    assert err.value.status == 400
    assert err.value.code == "bad-config"


def test_lint_failure_is_422(manager):
    # Mapping a measurement to an undeclared IED fails lint (SCADA001).
    text = fig3_config_text().replace("\n8: 8\n", "\n99: 8\n")
    assert text != fig3_config_text()
    with pytest.raises(ServiceError) as err:
        manager.open(manager.parse(text))
    assert err.value.status == 422
    assert err.value.code == "lint-failed"


def test_maxsize_must_be_positive():
    with pytest.raises(ValueError):
        SessionManager(maxsize=0)


def test_describe_reports_cumulative_solver_stats(manager):
    """GET /sessions accounting: lifetime solver effort per session."""
    session, _ = manager.open(manager.parse(fig3_config_text()))
    session.engine.verify(ResiliencySpec.observability(k=1),
                          minimize=False)
    session.engine.verify(ResiliencySpec.observability(k=2),
                          minimize=False)
    solver = session.describe()["solver"]
    assert solver["queries"] == 2
    assert isinstance(solver["queries"], int)
    assert solver["check_time"] >= 0.0
    assert solver["propagations"] > 0
    # Tier keys are last-seen gauges from the most recent check.
    assert {"tier_core", "tier_mid", "tier_local"} <= set(solver)
