"""Encoding cache: keying, LRU eviction, hit accounting, poisoning,
thread-safety under the service's concurrent request threads."""

import threading

import pytest

from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import EncodingCache, EncodingKey
from repro.engine.backends import AssumptionBackend
from repro.grid.ieee_cases import case_by_buses
from repro.sat import Limits, ResourceLimitReached
from repro.scada import GeneratorConfig, generate_scada


def _key(prop=Property.OBSERVABILITY, network_fp="n", problem_fp="p",
         model_links=False, card="totalizer"):
    return EncodingKey(network_fingerprint=network_fp,
                       problem_fingerprint=problem_fp,
                       prop=prop, model_links=model_links,
                       card_encoding=card)


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


def test_lru_eviction_drops_oldest():
    cache = EncodingCache(maxsize=2)
    key_a, key_b, key_c = (_key(network_fp=name) for name in "abc")
    a = cache.get_or_create(key_a, object)
    cache.get_or_create(key_b, object)
    # Touch A so B becomes the least recently used entry.
    assert cache.get(key_a) is a
    cache.get_or_create(key_c, object)
    assert len(cache) == 2
    assert cache.get(key_b) is None
    assert cache.get(key_a) is a


def test_zero_size_cache_rejected():
    with pytest.raises(ValueError):
        EncodingCache(maxsize=0)


def test_invalidate_drops_single_entry():
    cache = EncodingCache()
    key_a, key_b = _key(network_fp="a"), _key(network_fp="b")
    cache.get_or_create(key_a, object)
    b = cache.get_or_create(key_b, object)
    assert cache.invalidate(key_a) is True
    assert cache.invalidate(key_a) is False  # already gone
    assert cache.get(key_a) is None
    assert cache.get(key_b) is b


def _fig3_backend():
    from repro.cases import case_problem, fig3_network

    return AssumptionBackend(fig3_network(), case_problem())


def test_backend_evicts_poisoned_context():
    backend = _fig3_backend()
    spec = ResiliencySpec.observability(k=0)
    backend.verify(spec, minimize=False)
    key, ctx = backend._context(spec)
    assert backend.cache.get(key) is ctx

    def explode(*args, **kwargs):
        raise RuntimeError("solver wedged mid-scope")

    ctx.verify = explode  # type: ignore[method-assign]
    with pytest.raises(RuntimeError, match="wedged"):
        backend.verify(spec, minimize=False)
    # The poisoned context is gone; the next query rebuilds cleanly.
    assert backend.cache.get(key) is None
    result = backend.verify(spec, minimize=False)
    assert result.status is not None


def test_backend_keeps_context_on_clean_limit():
    backend = _fig3_backend()
    spec = ResiliencySpec.observability(k=0)
    backend.verify(spec, minimize=False)
    key, ctx = backend._context(spec)

    def out_of_budget(*args, **kwargs):
        raise ResourceLimitReached("time limit", reason=None)

    original = ctx.verify
    ctx.verify = out_of_budget  # type: ignore[method-assign]
    with pytest.raises(ResourceLimitReached):
        backend.verify(spec, minimize=False,
                       limits=Limits(max_time=0.001))
    # A clean UNKNOWN does not poison the encoding: still cached.
    assert backend.cache.get(key) is ctx
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


def test_eviction_counter_tracks_lru_overflow():
    cache = EncodingCache(maxsize=2)
    for name in ("a", "b", "c"):
        cache.get_or_create(_key(network_fp=name), object)
    assert len(cache) == 2
    assert cache.evictions == 1


def test_get_or_create_atomic_wrt_invalidate_config():
    # Regression: get_or_create was check-then-act — an
    # invalidate_config issued from another thread while the factory
    # was still encoding removed nothing, and the subsequent put
    # resurrected a context for a configuration the operator had just
    # declared stale.  With the cache lock held across the factory,
    # the invalidation serializes after the in-flight create and wins.
    cache = EncodingCache()
    key = _key(network_fp="grid", problem_fp="prob")
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
    # Let the factory finish shortly after invalidate_config blocks on
    # the cache lock (pre-fix it does not block and returns 0 at once).
    releaser = threading.Timer(0.2, release_factory.set)
    releaser.start()
    try:
        dropped = cache.invalidate_config("grid", "prob")
    finally:
        release_factory.set()
        creator.join(timeout=10.0)
        releaser.cancel()
    assert not creator.is_alive()
    assert dropped == 1
    assert cache.get(key) is None
    assert len(cache) == 0


def test_invalidate_config_drops_only_that_configuration():
    cache = EncodingCache()
    cache.get_or_create(_key(network_fp="n1", problem_fp="p1"), object)
    cache.get_or_create(_key(network_fp="n1", problem_fp="p1",
                             prop=Property.SECURED_OBSERVABILITY),
                        object)
    cache.get_or_create(_key(network_fp="n2", problem_fp="p2"), object)
    assert cache.invalidate_config("n1", "p1") == 2
    assert len(cache) == 1
    assert cache.invalidate_config("n1", "p1") == 0
    remaining = list(cache.keys())
    assert remaining[0].network_fingerprint == "n2"
