"""Encoding cache: keying, hit accounting, poisoning, thread-safety
under the service's concurrent request threads."""

import threading

import pytest

from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import EncodingCache, EncodingKey, VerificationEngine
from repro.grid.ieee_cases import case_by_buses
from repro.sat import Limits, ResourceLimitReached
from repro.scada import GeneratorConfig, generate_scada


def _key(prop=Property.OBSERVABILITY, model_links=False):
    return EncodingKey(prop=prop, model_links=model_links)


def test_get_or_create_caches_and_counts():
    cache = EncodingCache()
    built = []

    def factory():
        built.append(1)
        return object()

    key = _key()
    first = cache.get_or_create(key, factory)
    second = cache.get_or_create(key, factory)
    assert first is second
    assert len(built) == 1
    assert cache.hits == 1
    assert cache.misses == 1


def test_distinct_keys_distinct_entries():
    cache = EncodingCache()
    a = cache.get_or_create(_key(prop=Property.OBSERVABILITY), object)
    b = cache.get_or_create(_key(prop=Property.SECURED_OBSERVABILITY),
                            object)
    c = cache.get_or_create(_key(model_links=True), object)
    assert len({id(a), id(b), id(c)}) == 3
    assert len(cache) == 3


def test_invalidate_drops_single_entry():
    cache = EncodingCache()
    key_a, key_b = _key(), _key(prop=Property.SECURED_OBSERVABILITY)
    cache.get_or_create(key_a, object)
    b = cache.get_or_create(key_b, object)
    assert cache.invalidate(key_a) is True
    assert cache.invalidate(key_a) is False  # already gone
    assert len(cache) == 1
    assert cache.get_or_create(key_b, object) is b
    assert cache.get_or_create(key_a, object) is not None
    assert cache.misses == 3


def _fig3_engine():
    from repro.cases import case_problem, fig3_network

    return VerificationEngine(fig3_network(), case_problem(),
                              backend="assumption", lint=False)


def _cached_context(engine, spec):
    """The engine's warm context for *spec*, or None when not cached."""
    key = EncodingKey(spec.property, spec.link_k is not None)
    return engine.cache._entries.get(key)


def test_backend_evicts_poisoned_context():
    engine = _fig3_engine()
    spec = ResiliencySpec.observability(k=0)
    engine.verify(spec, minimize=False)
    ctx = _cached_context(engine, spec)
    assert ctx is not None

    def explode(*args, **kwargs):
        raise RuntimeError("solver wedged mid-scope")

    ctx.verify = explode  # type: ignore[method-assign]
    with pytest.raises(RuntimeError, match="wedged"):
        engine.verify(spec, minimize=False)
    # The poisoned context is gone; the next query rebuilds cleanly.
    assert _cached_context(engine, spec) is None
    result = engine.verify(spec, minimize=False)
    assert result.status is not None
    assert _cached_context(engine, spec) not in (None, ctx)


def test_backend_keeps_context_on_clean_limit():
    engine = _fig3_engine()
    spec = ResiliencySpec.observability(k=0)
    engine.verify(spec, minimize=False)
    ctx = _cached_context(engine, spec)

    def out_of_budget(*args, **kwargs):
        raise ResourceLimitReached("time limit", reason=None)

    original = ctx.verify
    ctx.verify = out_of_budget  # type: ignore[method-assign]
    with pytest.raises(ResourceLimitReached):
        engine.verify(spec, minimize=False,
                      limits=Limits(max_time=0.001))
    # A clean UNKNOWN does not poison the encoding: still cached.
    assert _cached_context(engine, spec) is ctx
    ctx.verify = original  # type: ignore[method-assign]


def test_network_fingerprint_tracks_configuration():
    synthetic = generate_scada(case_by_buses(14, seed=0),
                               GeneratorConfig(seed=0))
    same = generate_scada(case_by_buses(14, seed=0),
                          GeneratorConfig(seed=0))
    other = generate_scada(case_by_buses(14, seed=1),
                           GeneratorConfig(seed=1))
    assert synthetic.network.fingerprint() == same.network.fingerprint()
    assert synthetic.network.fingerprint() != other.network.fingerprint()

    problem = ObservabilityProblem.from_table(synthetic.table)
    again = ObservabilityProblem.from_table(same.table)
    assert problem.fingerprint() == again.fingerprint()


def test_get_or_create_atomic_wrt_clear():
    # Dropping a session clears its engine's cache from another thread.
    # A clear issued while a factory is still encoding must serialize
    # after the in-flight create and still win: an unlocked
    # check-then-act get_or_create would insert the new context after
    # the clear and keep a dropped session's solver alive.
    cache = EncodingCache()
    key = _key()
    factory_entered = threading.Event()
    release_factory = threading.Event()

    def slow_factory():
        factory_entered.set()
        release_factory.wait(timeout=10.0)
        return object()

    creator = threading.Thread(
        target=cache.get_or_create, args=(key, slow_factory))
    creator.start()
    assert factory_entered.wait(timeout=10.0)
    # Let the factory finish shortly after clear() blocks on the cache
    # lock (without the lock it would return at once, before the
    # insert).
    releaser = threading.Timer(0.2, release_factory.set)
    releaser.start()
    try:
        cache.clear()
    finally:
        release_factory.set()
        creator.join(timeout=10.0)
        releaser.cancel()
    assert not creator.is_alive()
    assert len(cache) == 0
