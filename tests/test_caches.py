import pytest

from nvmsim.caches import MetadataCache, cache_sets


def small_cache(**kw):
    # 4 sets x 2 ways
    return MetadataCache(capacity_bytes=8 * 64, associativity=2, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        MetadataCache(capacity_bytes=100, associativity=8)
    assert cache_sets(128 * 1024, 8) == 128 * 1024 // (8 * 64)


def test_repeat_access_hits():
    c = small_cache()
    assert c.access(12) is False
    assert c.access(12) is True


def test_lru_eviction():
    c = small_cache()
    # keys 0, 4, 8 all map to set 0 (4 sets); associativity 2
    c.access(0)
    c.access(4)
    c.access(8)  # evicts key 0
    assert c.access(4) is True
    assert c.access(0) is False
    assert c.stats.evictions >= 1


def test_lru_order_refreshed_on_hit():
    c = small_cache()
    c.access(0)
    c.access(4)
    c.access(0)  # 0 becomes most recent; 4 is now the LRU victim
    c.access(8)
    assert c.access(0) is True
    assert c.access(4) is False


def test_flush_is_total_and_idempotent():
    c = small_cache()
    for key in range(8):
        c.access(key)
    c.flush_volatile()
    c.flush_volatile()
    assert all(not c.contains(key) for key in range(8))
    assert c.access(3) is False


def test_stats_conserved():
    c = small_cache()
    for key in [1, 2, 1, 3, 1, 9, 1]:
        c.access(key)
    s = c.stats
    assert s.hits + s.misses == s.accesses
    assert 0.0 <= s.hit_ratio <= 1.0


def test_ideal_cache_always_hits():
    c = small_cache(ideal=True)
    assert c.access(123) is True
    assert c.stats.hits == 1
    assert c.stats.misses == 0


def test_ideal_cache_holds_no_lines():
    c = small_cache(ideal=True)
    keys = range(10_000)
    assert all(c.access(key) for key in keys)
    assert c.stats.hits == c.stats.accesses == 10_000
    assert not any(c.contains(key) for key in keys)
