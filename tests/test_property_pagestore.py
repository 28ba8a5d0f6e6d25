"""Property-based tests for the page store: byte-level equivalence with
a flat bytearray oracle under arbitrary read/write interleavings, the
dirty index against a full scan, the bulk path against a flat model,
and the run-level entries against the per-page loops they replaced."""

import collections
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfRangeError
from repro.fs.sfs import create_sfs
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm import page as page_module
from repro.vm.page import ZERO_PAGE, ZERO_VIEW, CachedPage, PageStore
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
        manager = types.SimpleNamespace(world=World(), readahead_pages=0)
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


# --------------------------------------------------------------------------
# The run-level entries against the per-page loops they replaced
# --------------------------------------------------------------------------
class _PerPageStore(PageStore):
    """The oracle: ``install_run``, ``write``, ``read_bytes`` and
    ``zero_range`` as the page-by-page loops they were before the store
    moved runs, kept here verbatim.  Everything else is inherited, so a
    sequence of operations drives both stores through the same code
    except for these four."""

    __slots__ = ()

    def install_run(self, first, count, data, rights):
        view = memoryview(data)
        pages = self._pages
        for index in range(first, first + count):
            position = (index - first) * PAGE_SIZE
            chunk = view[position : position + PAGE_SIZE]
            page = pages.get(index)
            if page is None:
                buf = bytearray(chunk)
                if len(buf) < PAGE_SIZE:
                    buf += ZERO_VIEW[len(buf) :]
                page = pages[index] = CachedPage(buf, rights)
                if self.observer is not None:
                    self.observer.page_installed(index, page)
            else:
                page.data[: len(chunk)] = chunk
                page.data[len(chunk) :] = ZERO_VIEW[len(chunk) :]
                page.rights = rights
                self.set_dirty(index, False)
        return pages.get(first)

    def zero_range(self, offset, size):
        for index in page_range(offset, size):
            page = self._pages.get(index)
            if page is None:
                self.install(index, b"", AccessRights.READ_ONLY)
            else:
                page.data[:] = ZERO_PAGE
                self.set_dirty(index, False)

    def read_bytes(self, offset, size, fault, access=RO):
        if size <= 0:
            return b""
        index, start = divmod(offset, PAGE_SIZE)
        if start + size <= PAGE_SIZE:
            page = self._pages.get(index)
            if page is None:
                page = fault(index, access)
            return memoryview(page.data).toreadonly()[start : start + size]
        end = offset + size
        get = self._pages.get
        buffers = [
            (get(i) or fault(i, access)).data
            for i in range(index, (end - 1) // PAGE_SIZE + 1)
        ]
        buffers[0] = memoryview(buffers[0])[start:]
        if end % PAGE_SIZE:
            buffers[-1] = memoryview(buffers[-1])[: end % PAGE_SIZE]
        return b"".join(buffers)

    def write(self, offset, data, fault):
        size = len(data)
        view = memoryview(data)
        pages = self._pages
        mark = self._dirty.add
        for index in page_range(offset, size):
            page = pages.get(index)
            if page is None or page.rights is not RW:
                page = fault(index, RW)
            base = index * PAGE_SIZE - offset  # of this page within ``data``
            if 0 <= base <= size - PAGE_SIZE:
                page.data[:] = view[base : base + PAGE_SIZE]
            else:
                low, high = max(base, 0), min(base + PAGE_SIZE, size)
                page.data[low - base : high - base] = view[low:high]
            page.dirty = True
            mark(index)


class _Recorder:
    """A store observer that logs what it is told, and checks that the
    page it is handed is the one the store holds (or just held)."""

    def __init__(self) -> None:
        self.events = []
        self.store = None

    def page_installed(self, index, page):
        assert self.store.get(index) is page
        self.events.append(("installed", index, bytes(page.data), page.rights))

    def page_dropped(self, index, page):
        assert self.store.get(index) is None
        self.events.append(("dropped", index, bytes(page.data), page.rights))


RUN_PAGES = 10
byte_offsets = st.integers(0, RUN_PAGES * PAGE_SIZE - 1)
#: Payload lengths around the page boundaries a run can end on.
lengths = st.one_of(
    st.integers(0, 3),
    st.integers(PAGE_SIZE - 2, PAGE_SIZE + 2),
    st.integers(0, 6 * PAGE_SIZE),
    st.sampled_from([2 * PAGE_SIZE, 4 * PAGE_SIZE, 6 * PAGE_SIZE]),
)
run_pages = st.integers(0, RUN_PAGES - 1)

run_op = st.one_of(
    st.tuples(st.just("install_run"), run_pages, st.integers(0, 6), lengths, rights),
    st.tuples(st.just("install"), run_pages, lengths, rights, st.booleans()),
    st.tuples(st.just("write"), byte_offsets, lengths, st.frozensets(run_pages)),
    st.tuples(st.just("read_bytes"), byte_offsets, lengths, rights),
    st.tuples(st.just("truncate_to"), st.integers(0, RUN_PAGES * PAGE_SIZE)),
    st.tuples(st.just("zero_range"), byte_offsets, lengths),
    st.tuples(st.just("downgrade_range"), byte_offsets, lengths),
    st.tuples(st.just("drop"), run_pages),
)


def _payload(length: int, salt: int) -> bytes:
    return bytes((salt * 31 + i * 7 + i // PAGE_SIZE) % 251 + 1 for i in range(length))


class _Side:
    """One store under test with its observer log, its fault log and a
    fault handler that installs a page of pattern — and, for the page
    indices in ``evicting``, first drops the page before it, as a VMM at
    capacity would evict to make room."""

    def __init__(self, store_class) -> None:
        self.recorder = _Recorder()
        self.store = self.recorder.store = store_class(observer=self.recorder)
        self.faults = []
        self.evicting = frozenset()

    def fault(self, index, access):
        self.faults.append((index, access))
        if index in self.evicting:
            self.store.drop(index - 1)
        return self.store.install(index, _payload(PAGE_SIZE - 5, index), access)

    def apply(self, step: int, name: str, args):
        store = self.store
        if name == "install_run":
            first, count, length, access = args
            page = store.install_run(first, count, _payload(length, step), access)
            return None if page is None else bytes(page.data)
        if name == "install":
            index, length, access, dirty = args
            return bytes(store.install(index, _payload(length, step), access, dirty).data)
        if name == "write":
            offset, length, self.evicting = args
            return store.write(offset, _payload(length, step), self.fault)
        if name == "read_bytes":
            offset, size, access = args
            self.evicting = frozenset()
            got = store.read_bytes(offset, size, self.fault, access)
            return type(got), bytes(got)
        if name in ("truncate_to", "drop"):
            result = getattr(store, name)(args[0])
            return None if result is None else bytes(result.data)
        return getattr(store, name)(*args)

    def state(self):
        """Everything a client of the store can see, plus the identity
        of every resident page and of its buffer."""
        store = self.store
        return (
            [(i, bytes(p.data), p.rights, p.dirty) for i, p in store.pages()],
            [i for i, _ in store.dirty_pages()],
            list(store._pages),  # insertion order: truncate_to drops in it
            self.recorder.events,
            self.faults,
        )

    def identities(self):
        return {i: (id(p), id(p.data)) for i, p in self.store.pages()}


class TestRunEntriesMatchThePerPageLoops:
    @given(ops=st.lists(run_op, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_rights_dirt_observer_calls_and_buffer_reuse(self, ops):
        """Any sequence of run installs (absent, resident and mixed
        runs; short, empty and over-long data), unaligned multi-page
        writes (through faults that evict), spanning reads, zero-fills
        and truncations leaves the store exactly as the per-page loops
        would have: same bytes, rights, dirty flags and dirty index,
        same observer calls and faults in the same order, same results
        — and the same pages and buffers kept in place."""
        new, old = _Side(PageStore), _Side(_PerPageStore)
        for step, (name, *args) in enumerate(ops):
            before = new.identities(), old.identities()
            assert new.apply(step, name, args) == old.apply(step, name, args)
            assert new.state() == old.state()
            # Whatever survived the step in one store survived in the
            # other, and as the same page object over the same buffer.
            kept = [
                {i for i, ids in side.identities().items() if was.get(i) == ids}
                for side, was in zip((new, old), before)
            ]
            assert kept[0] == kept[1]
            assert set(new.identities()) - kept[0] == set(old.identities()) - kept[1]

    @given(
        first=run_pages, count=st.integers(2, 6), length=lengths, access=rights,
        resident=st.frozensets(st.integers(0, RUN_PAGES + 6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_install_run_observer_sees_ascending_absent_pages_once(
        self, first, count, length, access, resident
    ):
        side = _Side(PageStore)
        for index in resident:
            side.store.install(index, b"r", RO)
        buffers = {i: p.data for i, p in side.store.pages()}
        del side.recorder.events[:]
        side.store.install_run(first, count, _payload(length, 3), access)
        run = range(first, first + count)
        assert [(kind, i) for kind, i, _, _ in side.recorder.events] == [
            ("installed", i) for i in run if i not in resident
        ]
        image = _payload(length, 3)[: count * PAGE_SIZE].ljust(count * PAGE_SIZE, b"\0")
        for at, index in enumerate(run):
            page = side.store.get(index)
            assert bytes(page.data) == image[at * PAGE_SIZE : (at + 1) * PAGE_SIZE]
            assert page.rights is access and not page.dirty
            if index in resident:
                assert page.data is buffers[index]  # refreshed in place


def test_negative_offsets_are_refused_before_anything_moves():
    store = PageStore()
    fault = zero_fault(store)
    store.write(0, b"x" * 10, fault)
    before = _snapshot(store, {0})
    for call, *args in [
        (store.read_bytes, -1, 10, fault),
        (store.read, -PAGE_SIZE, 4, fault),
        (store.write, -5, b"zz", fault),
        (store.write, -3, b"z" * (PAGE_SIZE + 9), fault),
        (store.needed_runs, -1, 10),
    ]:
        with pytest.raises(OutOfRangeError):
            call(*args)
    assert [i for i, _ in store.pages()] == [0]
    assert _snapshot(store, {0}) == before


# --------------------------------------------------------------------------
# The pin: what the page store costs per page on the bulk path
# --------------------------------------------------------------------------
PIN_PAGES = 64


def test_bulk_path_spends_no_per_page_bytecodes_in_the_page_store():
    """Truncate, one 64-page write and one 64-page read of a file on a
    cached two-domain SFS, bytecodes counted the way ``benchmarks/e2e``
    counts ``py_instr_per_op`` (``sys.settrace`` + ``f_trace_opcodes``):
    ``vm/page.py`` may spend at most 30 per page (it spends about 9).
    The per-page loops spent 134 (61 in ``install_run``, 57 in
    ``write``, 11 in ``read_bytes``); a ``for`` over the pages in any
    one of the three costs 25 or more by itself, so this fails as soon
    as one comes back.
    The frozen benchmark's ``stream_256k`` is the same path across the
    wire and is not run by the tier-1 suite."""
    world = World()
    node = world.create_node("pin")
    stack = create_sfs(node, RamDevice(node.nucleus, "ram", 4096))
    user = world.create_user_domain(node)
    data = _payload(PIN_PAGES * PAGE_SIZE, 9)
    spent = collections.Counter()

    def local_trace(frame, event, arg):
        if event == "opcode":
            spent[frame.f_code.co_filename] += 1
        return local_trace

    def global_trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local_trace

    with user.activate():
        handle = stack.top.create_file("bulk.bin")
        handle.write(0, data)  # warm: the file exists, its blocks allocated
        previous = sys.gettrace()
        sys.settrace(global_trace)
        try:
            handle.set_length(0)
            handle.write(0, data)
            got = handle.read(0, len(data))
        finally:
            sys.settrace(previous)
    assert got == data
    in_store = sum(n for name, n in spent.items() if name == page_module.__file__)
    assert 0 < in_store <= 30 * PIN_PAGES, (in_store / PIN_PAGES, spent.most_common(5))
