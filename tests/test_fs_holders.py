"""Unit tests for the MRSW block-holder table, using scripted cache
objects that record the coherency actions performed on them."""

import pytest

from repro.ipc.invocation import operation
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.cache_object import CacheObject
from repro.vm.channel import CacheRights, Channel
from repro.vm.pager_object import PagerObject
from repro.fs.holders import WHOLE_FILE, BlockHolderTable, WholeFileHolderTable

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


class RecordingCache(CacheObject):
    """A cache object that logs coherency actions and returns scripted
    modified data."""

    def __init__(self, domain, dirty=None):
        super().__init__(domain)
        self.dirty = dict(dirty or {})
        self.actions = []

    @operation
    def flush_back(self, offset, size):
        self.actions.append(("flush_back", offset, size))
        out, self.dirty = self.dirty, {}
        return out

    @operation
    def deny_writes(self, offset, size):
        self.actions.append(("deny_writes", offset, size))
        out, self.dirty = self.dirty, {}
        return out

    @operation
    def write_back(self, offset, size):
        self.actions.append(("write_back", offset, size))
        out = dict(self.dirty)
        self.dirty = {}
        return out

    @operation
    def delete_range(self, offset, size):
        self.actions.append(("delete_range", offset, size))

    @operation
    def zero_fill(self, offset, size):
        self.actions.append(("zero_fill", offset, size))

    @operation
    def populate(self, offset, size, access, data):
        self.actions.append(("populate", offset, size))

    @operation
    def destroy_cache(self):
        self.actions.append(("destroy",))


class NullPager(PagerObject):
    @operation
    def page_in(self, offset, size, access):
        return b""

    @operation
    def page_out(self, runs):
        pass

    @operation
    def write_out(self, runs):
        pass

    @operation
    def sync(self, runs):
        pass

    @operation
    def done_with_pager_object(self):
        pass


@pytest.fixture
def make_channel(node):
    def build(dirty=None):
        domain = node.nucleus
        cache = RecordingCache(domain, dirty)
        rights = CacheRights(domain, "test")
        channel = Channel(NullPager(domain), cache, rights, "test")
        return channel

    return build


class TestAcquire:
    def test_no_holders_no_actions(self, make_channel):
        table = BlockHolderTable()
        requester = make_channel()
        assert table.acquire(requester, 0, PAGE_SIZE, RW) == {}
        assert table.holders_of(0) == [(requester, RW)]

    def test_readers_coexist(self, make_channel):
        table = BlockHolderTable()
        r1, r2 = make_channel(), make_channel()
        table.acquire(r1, 0, PAGE_SIZE, RO)
        table.acquire(r2, 0, PAGE_SIZE, RO)
        assert r1.cache_object.actions == []
        assert len(table.holders_of(0)) == 2

    def test_writer_flushes_readers(self, make_channel):
        table = BlockHolderTable()
        reader, writer = make_channel(), make_channel()
        table.acquire(reader, 0, PAGE_SIZE, RO)
        table.acquire(writer, 0, PAGE_SIZE, RW)
        assert ("flush_back", 0, PAGE_SIZE) in reader.cache_object.actions
        assert table.holders_of(0) == [(writer, RW)]

    def test_writer_flushes_writer_and_recovers_data(self, make_channel):
        table = BlockHolderTable()
        w1 = make_channel(dirty={0: b"w1-data"})
        w2 = make_channel()
        table.acquire(w1, 0, PAGE_SIZE, RW)
        recovered = table.acquire(w2, 0, PAGE_SIZE, RW)
        assert recovered == {0: b"w1-data"}
        assert table.writer_of(0) is w2

    def test_reader_downgrades_writer(self, make_channel):
        table = BlockHolderTable()
        writer = make_channel(dirty={0: b"dirty"})
        reader = make_channel()
        table.acquire(writer, 0, PAGE_SIZE, RW)
        recovered = table.acquire(reader, 0, PAGE_SIZE, RO)
        assert recovered == {0: b"dirty"}
        assert ("deny_writes", 0, PAGE_SIZE) in writer.cache_object.actions
        # Writer retained the data read-only; both are now readers.
        assert {rights for _, rights in table.holders_of(0)} == {RO}
        assert table.writer_of(0) is None

    def test_reader_does_not_disturb_readers(self, make_channel):
        table = BlockHolderTable()
        r1, r2 = make_channel(), make_channel()
        table.acquire(r1, 0, PAGE_SIZE, RO)
        table.acquire(r2, 0, PAGE_SIZE, RO)
        assert r1.cache_object.actions == []

    def test_requester_not_acted_on(self, make_channel):
        table = BlockHolderTable()
        w = make_channel(dirty={0: b"mine"})
        table.acquire(w, 0, PAGE_SIZE, RW)
        recovered = table.acquire(w, 0, PAGE_SIZE, RW)
        assert recovered == {}
        assert w.cache_object.actions == []

    def test_pager_itself_as_requester(self, make_channel):
        """acquire(None, ...) — file-interface access by the pager."""
        table = BlockHolderTable()
        w = make_channel(dirty={0: b"client-data"})
        table.acquire(w, 0, PAGE_SIZE, RW)
        recovered = table.acquire(None, 0, PAGE_SIZE, RW)
        assert recovered == {0: b"client-data"}
        assert table.holders_of(0) == []

    def test_per_block_granularity(self, make_channel):
        table = BlockHolderTable()
        w = make_channel()
        table.acquire(w, 0, PAGE_SIZE, RW)
        other = make_channel()
        # A write to block 5 must not disturb the holder of block 0.
        table.acquire(other, 5 * PAGE_SIZE, PAGE_SIZE, RW)
        assert w.cache_object.actions == []
        assert table.writer_of(0) is w
        assert table.writer_of(5) is other

    def test_range_spanning_blocks(self, make_channel):
        table = BlockHolderTable()
        w = make_channel(dirty={1: b"b1"})
        table.acquire(w, 0, 3 * PAGE_SIZE, RW)
        r = make_channel()
        recovered = table.acquire(r, PAGE_SIZE, PAGE_SIZE, RO)
        assert recovered == {1: b"b1"}
        # Only the overlapping block was downgraded.
        assert table.writer_of(0) is w
        assert table.writer_of(1) is None


class TestCollectAndInvalidate:
    def test_collect_latest_write_back(self, make_channel):
        table = BlockHolderTable()
        w = make_channel(dirty={0: b"fresh"})
        table.acquire(w, 0, PAGE_SIZE, RW)
        assert table.collect_latest(0, PAGE_SIZE) == {0: b"fresh"}
        # Mode unchanged: still the writer.
        assert table.writer_of(0) is w

    def test_collect_latest_skips_readers(self, make_channel):
        table = BlockHolderTable()
        r = make_channel(dirty={0: b"should-not-be-asked"})
        table.acquire(r, 0, PAGE_SIZE, RO)
        assert table.collect_latest(0, PAGE_SIZE) == {}
        assert r.cache_object.actions == []

    def test_invalidate_notifies_all(self, make_channel):
        table = BlockHolderTable()
        r1, r2 = make_channel(), make_channel()
        table.acquire(r1, 0, PAGE_SIZE, RO)
        table.acquire(r2, 0, PAGE_SIZE, RO)
        table.invalidate(0, PAGE_SIZE)
        assert ("delete_range", 0, PAGE_SIZE) in r1.cache_object.actions
        assert ("delete_range", 0, PAGE_SIZE) in r2.cache_object.actions
        assert table.holders_of(0) == []

    def test_invalidate_excludes(self, make_channel):
        table = BlockHolderTable()
        keep, drop = make_channel(), make_channel()
        table.acquire(keep, 0, PAGE_SIZE, RO)
        table.acquire(drop, 0, PAGE_SIZE, RO)
        table.invalidate(0, PAGE_SIZE, exclude=keep)
        assert keep.cache_object.actions == []
        assert table.holders_of(0) == [(keep, RO)]

    def test_drop_channel(self, make_channel):
        table = BlockHolderTable()
        c = make_channel()
        table.acquire(c, 0, 4 * PAGE_SIZE, RO)
        table.forget_range(c, 0, WHOLE_FILE)
        assert not table.any_holder()

    def test_closed_channels_skipped(self, make_channel):
        table = BlockHolderTable()
        c = make_channel(dirty={0: b"lost"})
        table.acquire(c, 0, PAGE_SIZE, RW)
        c.closed = True
        assert table.acquire(None, 0, PAGE_SIZE, RW) == {}

    def test_forget_range(self, make_channel):
        table = BlockHolderTable()
        c = make_channel()
        table.acquire(c, 0, 2 * PAGE_SIZE, RO)
        table.forget_range(c, 0, PAGE_SIZE)
        assert table.holders_of(0) == []
        assert table.holders_of(1) == [(c, RO)]

    def test_an_empty_range_touches_nothing(self, make_channel):
        table = BlockHolderTable()
        c = make_channel()
        table.acquire(c, 0, PAGE_SIZE, RO)
        table.invalidate(0, 0)
        assert c.cache_object.actions == []
        assert table.holders_of(0) == [(c, RO)]


class TestWholeFileTable:
    """The coarse protocol: one state per holder, every action over the
    whole file."""

    def test_one_writer_is_every_page_s_writer(self, make_channel):
        table = WholeFileHolderTable()
        reader, writer = make_channel(), make_channel()
        assert not table.any_holder() and table.writer_of(0) is None
        table.acquire(reader, 0, PAGE_SIZE, RO)
        assert table.holders_of(7) == [(reader, RO)]
        assert table.writer_of(7) is None
        table.acquire(writer, 5 * PAGE_SIZE, PAGE_SIZE, RW)
        # The writer took the file: the reader was flushed whole.
        assert reader.cache_object.actions == [("flush_back", 0, WHOLE_FILE)]
        assert table.writer_of(0) is writer and table.any_holder()

    def test_invalidate_skips_the_excluded_and_the_closed(self, make_channel):
        table = WholeFileHolderTable()
        keep, closed, told = make_channel(), make_channel(), make_channel()
        for channel in (keep, closed, told):
            table.acquire(channel, 0, PAGE_SIZE, RO)
        closed.closed = True
        table.invalidate(PAGE_SIZE, PAGE_SIZE, exclude=keep)
        assert told.cache_object.actions == [("delete_range", 0, WHOLE_FILE)]
        assert keep.cache_object.actions == closed.cache_object.actions == []
        assert table.holders_of(0) == [(keep, RO)]
