"""Unit tests for the name cache (sec. 6.4 future work, implemented)."""

import pytest

from repro.errors import NameNotFoundError
from repro.naming.cache import CAPACITY, NameCache
from repro.naming.context import MemoryContext


@pytest.fixture
def tree(world, node):
    root = MemoryContext(node.nucleus)
    sub = root.create_context("sub")
    sub.bind("leaf", "value")
    root.bind("top", "top-value")
    return root, sub


def count(world, event):
    return world.counters.get(f"namecache.{event}")


def fill(root, cache, names):
    """Bind ``n<i>`` for every ``i`` in ``names`` and resolve each once."""
    for i in names:
        root.bind(f"n{i}", i)
    for i in names:
        cache.resolve(root, f"n{i}")


class TestNameCacheHits:
    def test_miss_then_hit(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        assert cache.resolve(root, "sub/leaf") == "value"
        assert (count(world, "hit"), count(world, "miss")) == (0, 1)
        assert cache.resolve(root, "sub/leaf") == "value"
        assert (count(world, "hit"), count(world, "miss")) == (1, 1)

    def test_distinct_names_cached_separately(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        cache.resolve(root, "sub/leaf")
        cache.resolve(root, "top")
        assert count(world, "miss") == 2
        assert len(cache) == 2

    def test_hit_charges_less_than_miss(self, world, node, tree):
        root, _ = tree
        cache = NameCache(world)
        user = world.create_user_domain(node)
        with user.activate():
            before = world.clock.now_us
            cache.resolve(root, "sub/leaf")
            miss_cost = world.clock.now_us - before
            before = world.clock.now_us
            cache.resolve(root, "sub/leaf")
            hit_cost = world.clock.now_us - before
        assert hit_cost < miss_cost
        assert hit_cost == world.cost_model.name_cache_hit_us

    def test_capacity_bounded(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        fill(root, cache, range(CAPACITY + 3))
        assert len(cache) == CAPACITY
        assert count(world, "evict") == 3


class TestNameCacheLru:
    def test_eviction_is_lru_not_wholesale(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        root.bind(f"n{CAPACITY}", CAPACITY)  # before: a bind invalidates
        fill(root, cache, range(CAPACITY))  # full, n0 least recently used
        cache.resolve(root, "n0")  # refresh n0: n1 is now LRU
        cache.resolve(root, f"n{CAPACITY}")  # evicts exactly n1
        assert len(cache) == CAPACITY
        assert count(world, "evict") == 1
        hits = count(world, "hit")
        cache.resolve(root, "n0")
        assert count(world, "hit") == hits + 1  # survived the eviction
        cache.resolve(root, "n1")
        assert count(world, "hit") == hits + 1  # n1 was the one evicted

    def test_hit_refreshes_entry(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        root.bind(f"n{CAPACITY}", CAPACITY)
        fill(root, cache, range(CAPACITY))
        cache.resolve(root, "n0")  # hit moves n0 to MRU
        cache.resolve(root, f"n{CAPACITY}")
        hits = count(world, "hit")
        cache.resolve(root, "n0")
        assert count(world, "hit") == hits + 1


class TestNegativeCaching:
    def test_repeated_misses_hit_negative_entry(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        with pytest.raises(NameNotFoundError):
            cache.resolve(root, "sub/ghost")
        with pytest.raises(NameNotFoundError):
            cache.resolve(root, "sub/ghost")
        assert count(world, "negative_hit") == 1

    def test_negative_hit_costs_one_cache_charge(self, world, node, tree):
        root, _ = tree
        cache = NameCache(world)
        user = world.create_user_domain(node)
        with user.activate():
            with pytest.raises(NameNotFoundError):
                cache.resolve(root, "sub/ghost")
            before = world.clock.now_us
            with pytest.raises(NameNotFoundError):
                cache.resolve(root, "sub/ghost")
            assert world.clock.now_us - before == world.cost_model.name_cache_hit_us

    def test_bind_invalidates_negative_entry(self, world, tree):
        root, sub = tree
        cache = NameCache(world)
        with pytest.raises(NameNotFoundError):
            cache.resolve(root, "sub/ghost")
        sub.bind("ghost", "now-here")
        assert cache.resolve(root, "sub/ghost") == "now-here"


class TestPrefixSharing:
    def test_cached_prefix_short_circuits_walk(self, world, node, tree):
        root, sub = tree
        deep = sub.create_context("deep")
        deep.bind("leaf2", "v2")
        cache = NameCache(world)
        user = world.create_user_domain(node)
        with user.activate():
            cache.resolve(root, "sub/deep")  # caches the context itself
            before = world.counters.get("op.resolve")
            assert cache.resolve(root, "sub/deep/leaf2") == "v2"
            resolves = world.counters.get("op.resolve") - before
        # Only the uncached suffix was resolved (1 hop), not the prefix.
        assert resolves == 1
        assert count(world, "prefix_hit") == 1

    def test_prefix_consult_does_not_populate(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        cache.resolve(root, "sub")
        cache.resolve(root, "sub/leaf")
        assert len(cache) == 2  # consult-only: no implicit prefix entries

    def test_prefix_entry_invalidation_covers_derived_entry(self, world, tree):
        root, sub = tree
        cache = NameCache(world)
        cache.resolve(root, "sub")
        cache.resolve(root, "sub/leaf")  # resolved via the cached prefix
        sub.rebind("leaf", "v2")
        assert cache.resolve(root, "sub/leaf") == "v2"


class TestNameCacheInvalidation:
    def test_rebind_invalidates(self, world, tree):
        root, sub = tree
        cache = NameCache(world)
        cache.resolve(root, "sub/leaf")
        sub.rebind("leaf", "new-value")
        assert cache.resolve(root, "sub/leaf") == "new-value"
        assert count(world, "invalidate") >= 1

    def test_unbind_of_intermediate_context_invalidates(self, world, tree):
        root, sub = tree
        cache = NameCache(world)
        cache.resolve(root, "sub/leaf")
        root.unbind("sub")
        assert len(cache) == 0

    def test_unrelated_change_keeps_entry(self, world, node, tree):
        root, _ = tree
        other = MemoryContext(node.nucleus)
        cache = NameCache(world)
        cache.resolve(root, "sub/leaf")
        other.bind("elsewhere", 1)
        assert count(world, "hit") == 0
        cache.resolve(root, "sub/leaf")
        assert count(world, "hit") == 1

    def test_sibling_change_in_traversed_context_invalidates(self, world, tree):
        """Conservative: any change to a traversed context drops entries
        through it.  Correctness over retention."""
        root, sub = tree
        cache = NameCache(world)
        cache.resolve(root, "sub/leaf")
        sub.bind("sibling", 9)
        assert len(cache) == 0

    def test_multiple_caches_all_notified(self, world, tree):
        root, sub = tree
        cache1, cache2 = NameCache(world), NameCache(world)
        cache1.resolve(root, "sub/leaf")
        cache2.resolve(root, "sub/leaf")
        sub.rebind("leaf", "v2")
        assert len(cache1) == 0 and len(cache2) == 0

    def test_clear(self, world, tree):
        root, _ = tree
        cache = NameCache(world)
        cache.resolve(root, "top")
        cache.clear()
        assert len(cache) == 0


class TestNameCacheInterposerInteraction:
    def test_interposition_invalidates_cached_path(self, world, node, tree):
        """Splicing a watchdog in (rebind) must invalidate cached names
        through that context, or the interposer would be bypassed."""
        root, sub = tree
        cache = NameCache(world)
        assert cache.resolve(root, "sub/leaf") == "value"
        replacement = MemoryContext(node.nucleus)
        replacement.bind("leaf", "intercepted")
        root.rebind("sub", replacement)
        assert cache.resolve(root, "sub/leaf") == "intercepted"
