"""Property-based tests for the page store: byte-level equivalence with
a flat bytearray oracle under arbitrary read/write interleavings."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import PageStore
from repro.vm.source_cache import SourceCache
from repro.world import World

SPAN = 4 * PAGE_SIZE

offsets = st.integers(min_value=0, max_value=SPAN - 1)
sizes = st.integers(min_value=1, max_value=PAGE_SIZE * 2)


def zero_fault(store):
    def fault(index, access):
        return store.install(index, b"", AccessRights.READ_WRITE)

    return fault


class TestStoreMatchesOracle:
    @given(
        ops=st.lists(
            st.tuples(offsets, st.binary(min_size=1, max_size=PAGE_SIZE)),
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_writes_then_reads_match_flat_buffer(self, ops):
        store = PageStore()
        oracle = bytearray(SPAN + 2 * PAGE_SIZE)
        fault = zero_fault(store)
        for offset, data in ops:
            store.write(offset, data, fault)
            oracle[offset : offset + len(data)] = data
        for offset, data in ops:
            end = min(offset + len(data) + 64, len(oracle))
            got = store.read(offset, end - offset, fault)
            assert got == bytes(oracle[offset:end])

    @given(
        writes=st.lists(
            st.tuples(offsets, st.binary(min_size=1, max_size=512)), max_size=20
        ),
        trunc=st.integers(min_value=0, max_value=SPAN),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncate_to_preserves_head_zeros_tail(self, writes, trunc):
        store = PageStore()
        oracle = bytearray(SPAN + 2 * PAGE_SIZE)
        fault = zero_fault(store)
        for offset, data in writes:
            store.write(offset, data, fault)
            oracle[offset : offset + len(data)] = data
        store.truncate_to(trunc)
        # Bytes below trunc that are still resident must match the oracle.
        head = store.read(
            0, trunc, lambda i, a: store.install(i, b"", AccessRights.READ_WRITE)
        )
        assert head == bytes(oracle[:trunc])
        # No page wholly beyond trunc survives.
        boundary = (trunc + PAGE_SIZE - 1) // PAGE_SIZE
        assert all(index < boundary or trunc % PAGE_SIZE != 0 for index, _ in store.pages())

    @given(
        writes=st.lists(
            st.tuples(offsets, st.binary(min_size=1, max_size=512)), max_size=15
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_collect_modified_covers_exactly_dirty_pages(self, writes):
        store = PageStore()
        fault = zero_fault(store)
        for offset, data in writes:
            store.write(offset, data, fault)
        modified = store.collect_modified(0, SPAN + 2 * PAGE_SIZE)
        dirty = {i for i, p in store.pages() if p.dirty}
        assert set(modified) == dirty
        store.clean_range(0, SPAN + 2 * PAGE_SIZE)
        assert store.collect_modified(0, SPAN + 2 * PAGE_SIZE) == {}

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_drop_range_is_idempotent_and_complete(self, data):
        store = PageStore()
        fault = zero_fault(store)
        for i in range(6):
            store.write(i * PAGE_SIZE, bytes([i]) * 100, fault)
        offset = data.draw(offsets)
        size = data.draw(sizes)
        first = store.drop_range(offset, size)
        second = store.drop_range(offset, size)
        assert second == []
        for index, _ in first:
            assert index not in store


# --------------------------------------------------------------------------
# The dirty index
# --------------------------------------------------------------------------
RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE
pages = st.integers(min_value=0, max_value=7)
rights = st.sampled_from([RO, RW])
ranges = st.tuples(st.integers(0, 8 * PAGE_SIZE), st.integers(0, 3 * PAGE_SIZE))

store_op = st.one_of(
    st.tuples(st.just("install"), pages, rights, st.booleans()),
    st.tuples(st.just("install_run"), pages, st.integers(1, 4), rights),
    st.tuples(st.just("install_modified"), st.lists(pages, max_size=3)),
    st.tuples(st.just("write"), st.integers(0, 7 * PAGE_SIZE),
              st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("set_dirty"), pages, st.booleans()),
    st.tuples(st.just("zero_range"), ranges),
    st.tuples(st.just("clean_range"), ranges),
    st.tuples(st.just("downgrade_range"), ranges),
    st.tuples(st.just("collect_modified"), ranges),
    st.tuples(st.just("drop"), pages),
    st.tuples(st.just("drop_range"), ranges, st.booleans()),
    st.tuples(st.just("truncate_to"), st.integers(0, 8 * PAGE_SIZE)),
    st.tuples(st.just("clear")),
)


class TestDirtyIndexMatchesFullScan:
    @given(ops=st.lists(store_op, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_dirty_pages_equals_scanning_every_resident_page(self, ops):
        store = PageStore()
        fault = zero_fault(store)
        for name, *args in ops:
            if name == "install":
                index, access, dirty = args
                store.install(index, b"x", access, dirty=dirty)
            elif name == "install_run":
                first, count, access = args
                store.install_run(first, count, b"y" * (count * PAGE_SIZE - 7), access)
            elif name == "install_modified":
                store.install_modified({index: b"m" for index in args[0]})
            elif name == "write":
                store.write(args[0], b"w" * args[1], fault)
            elif name == "set_dirty":
                if args[0] in store:
                    store.set_dirty(*args)
            elif name == "drop_range":
                (offset, size), keep_dirty = args
                kept = {i for i, _ in store.dirty_pages()} if keep_dirty else set()
                gone = store.drop_range(offset, size, keep_dirty=keep_dirty)
                assert not kept & {i for i, _ in gone}
                assert all(i in store for i in kept)
            elif name in ("drop", "truncate_to"):
                getattr(store, name)(args[0])
            elif name == "clear":
                store.clear()
            else:
                getattr(store, name)(*args[0])
            scanned = [(i, p) for i, p in store.pages() if p.dirty]
            assert store.dirty_pages() == scanned
            assert store.dirty_pages(PAGE_SIZE, 3 * PAGE_SIZE) == [
                (i, p) for i, p in scanned if 1 <= i <= 3
            ]
            assert set(store.collect_modified(0, 2**62)) == {i for i, _ in scanned}


# --------------------------------------------------------------------------
# The bulk path: demand by run, then copy
# --------------------------------------------------------------------------
FILE_PAGES = 8


class _BackingPager:
    """A pager over a flat buffer that logs its page-ins; data past the
    end of the buffer is simply not returned (EOF is short)."""

    def __init__(self, backing: bytes) -> None:
        self.backing = backing
        self.calls = []

    def page_in(self, offset, size, access):
        self.calls.append((offset // PAGE_SIZE, size // PAGE_SIZE, access))
        return self.backing[offset : offset + size]


class _Cache(SourceCache):
    __slots__ = ("_pager",)

    def __init__(self, pager) -> None:
        manager = types.SimpleNamespace(
            world=World(), readahead_pages=0, batch_pageout=False
        )
        super().__init__(manager, "test")
        self._pager = pager

    def pager(self):
        return self._pager


def _expected_calls(needed, access):
    """One page-in per maximal stretch of consecutive needed pages —
    computed apart from ``index_runs``."""
    starts = [i for i in sorted(needed) if i - 1 not in needed]
    ends = [i for i in sorted(needed) if i + 1 not in needed]
    return [(a, b - a + 1, access) for a, b in zip(starts, ends)]


@st.composite
def bulk_case(draw):
    length = draw(st.integers(1, FILE_PAGES * PAGE_SIZE))
    resident = draw(st.dictionaries(st.integers(0, FILE_PAGES - 1), rights))
    offset = draw(st.integers(0, FILE_PAGES * PAGE_SIZE - 1))
    size = draw(st.integers(1, FILE_PAGES * PAGE_SIZE - offset))
    return length, resident, offset, size


def _build(length, resident):
    """The pager's file (``length`` bytes of pattern), a cache holding
    ``resident`` pages (contents deliberately unlike the file's), and
    the flat model of what a reader must see."""
    backing = bytes((i * 7 + i // PAGE_SIZE) % 251 + 1 for i in range(length))
    pager = _BackingPager(backing)
    cache = _Cache(pager)
    model = bytearray(backing) + bytes(FILE_PAGES * PAGE_SIZE - length)
    for index, access in resident.items():
        data = bytes([200 + index]) * PAGE_SIZE
        cache.store.install(index, data, access)
        model[index * PAGE_SIZE : (index + 1) * PAGE_SIZE] = data
    return pager, cache, model


def _snapshot(store, outside):
    return {
        i: (bytes(p.data), p.rights, p.dirty)
        for i, p in store.pages() if i in outside
    }


class TestBulkAccessAgainstFlatModel:
    @given(case=bulk_case(), access=rights, copy=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_read_demands_each_missing_run_once(self, case, access, copy):
        length, resident, offset, size = case
        pager, cache, model = _build(length, resident)
        store = cache.store
        touched = set(range(offset // PAGE_SIZE, (offset + size - 1) // PAGE_SIZE + 1))
        outside = set(range(FILE_PAGES)) - touched
        before = _snapshot(store, outside)
        missing = touched - set(resident)

        cache.prefetch(offset, size, access)
        read = store.read if copy else store.read_bytes
        got = read(offset, size, cache.fault, access)

        assert bytes(got) == bytes(model[offset : offset + size])
        assert pager.calls == _expected_calls(missing, access)
        assert _snapshot(store, outside) == before
        assert all(store.get(i).rights is access for i in missing)
        assert store.dirty_pages() == []
        if copy or len(touched) > 1:
            # Retain-safe: immutable bytes that no later write reaches.
            assert type(got) is bytes
            store.write(offset, b"\0" * size, cache.fault)
            assert got == bytes(model[offset : offset + size])
        else:
            assert isinstance(got, memoryview) and got.readonly

    @given(case=bulk_case(), fill=st.integers(1, 255))
    @settings(max_examples=300, deadline=None)
    def test_write_demands_each_absent_or_read_only_run_once(self, case, fill):
        length, resident, offset, size = case
        pager, cache, model = _build(length, resident)
        store = cache.store
        touched = set(range(offset // PAGE_SIZE, (offset + size - 1) // PAGE_SIZE + 1))
        outside = set(range(FILE_PAGES)) - touched
        before = _snapshot(store, outside)
        needed = {i for i in touched if resident.get(i) is not RW}
        # A page demanded for the write comes from the pager afresh:
        # the read-only copy it replaces is gone.
        file_image = bytes(pager.backing) + bytes(FILE_PAGES * PAGE_SIZE - length)
        for index in needed:
            span = slice(index * PAGE_SIZE, (index + 1) * PAGE_SIZE)
            model[span] = file_image[span]
        data = bytes([fill]) * size
        model[offset : offset + size] = data

        cache.prefetch(offset, size, RW, upgrade=True)
        store.write(offset, data, cache.fault)

        calls = _expected_calls(needed, RW)
        assert pager.calls == calls
        assert _snapshot(store, outside) == before
        assert [i for i, _ in store.dirty_pages()] == sorted(touched)
        assert all(store.get(i).rights is RW for i in touched)
        first, last = min(touched), max(touched)
        whole = store.read(
            first * PAGE_SIZE, (last - first + 1) * PAGE_SIZE, cache.fault
        )
        assert whole == bytes(model[first * PAGE_SIZE : (last + 1) * PAGE_SIZE])
        assert pager.calls == calls  # the read-back hit


def test_failed_run_page_in_leaves_the_store_as_it_was():
    """Nothing is installed unless the call that carried it returned."""

    class FailingPager(_BackingPager):
        def page_in(self, offset, size, access):
            if offset >= 3 * PAGE_SIZE:
                raise OSError("scripted: no page-in from page 3 on")
            return super().page_in(offset, size, access)

    everything = set(range(FILE_PAGES))
    pager, cache, _ = _build(FILE_PAGES * PAGE_SIZE, {2: RW, 6: RO})
    cache._pager = pager = FailingPager(pager.backing)
    store = cache.store
    store.write(2 * PAGE_SIZE + 5, b"dirty", cache.fault)
    before = _snapshot(store, everything)

    # One run, and its call fails: the store is exactly as it was —
    # the read-only page the run would have upgraded included.
    with pytest.raises(OSError):
        cache.prefetch(4 * PAGE_SIZE, 3 * PAGE_SIZE, RW, upgrade=True)
    assert pager.calls == []
    assert _snapshot(store, everything) == before
    assert [i for i, _ in store.dirty_pages()] == [2]

    # Two runs around the resident writable page; the second fails.
    # The first run's pages are in, of the second there is no trace.
    with pytest.raises(OSError):
        cache.prefetch(0, 6 * PAGE_SIZE, RW, upgrade=True)
    assert pager.calls == [(0, 2, RW)]
    assert [i for i, _ in store.pages()] == [0, 1, 2, 6]
    assert _snapshot(store, {2, 6}) == before
    assert [i for i, _ in store.dirty_pages()] == [2]
