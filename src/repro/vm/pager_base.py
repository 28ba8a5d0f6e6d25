"""Pager-side channel bookkeeping.

Every pager in the system — the disk layer, the coherency layer, COMPFS,
DFS — must implement the same bind-time handshake (paper sec. 3.3.2):

    "When a pager receives a bind operation from a VMM, it must determine
    if there is already a pager-cache object connection for the memory
    object at the given VMM.  If there is no connection, the pager
    contacts the VMM, and the VMM and the pager exchange pager, cache,
    and cache_rights objects."

:class:`ChannelRegistry` implements that determination and exchange once
for all of them, keyed by (source, cache manager), so equivalent memory
objects bound by the same cache manager share one channel — and hence
one set of cached pages.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.vm.channel import Channel
from repro.vm.memory_object import CacheManager
from repro.vm.pager_object import PagerObject

#: What a source with no channel looks up: nothing to iterate.
_NO_CHANNELS: Dict[int, Channel] = {}


class ChannelRegistry:
    """Channels a pager has open, by source key and then by cache
    manager oid, each in bind order.  Every per-file question — the
    fan-out set, the channel a pager object serves, a departure — looks
    at that file's channels only, so a file nobody else caches costs one
    dict lookup however many channels the pager has open."""

    __slots__ = ("_by_source",)

    def __init__(self) -> None:
        self._by_source: Dict[Hashable, Dict[int, Channel]] = {}

    def get_or_create(
        self,
        source_key: Hashable,
        cache_manager: CacheManager,
        make_pager_object: Callable[[], PagerObject],
        label: str,
    ) -> Tuple[Channel, bool]:
        """Find the existing channel for ``source_key`` at
        ``cache_manager``, or run the exchange to create one.

        Returns ``(channel, created)``.
        """
        oid = cache_manager.oid
        channel = self._by_source.get(source_key, _NO_CHANNELS).get(oid)
        if channel is not None and not channel.closed:
            return channel, False
        pager_object = make_pager_object()
        channel = cache_manager.accept_channel(pager_object, label)
        self._by_source.setdefault(source_key, {})[oid] = channel
        return channel, True

    def channels_for(self, source_key: Hashable) -> List[Channel]:
        """All live channels for one source — the fan-out set for
        coherency actions."""
        channels = self._by_source.get(source_key, _NO_CHANNELS)
        return [channel for channel in channels.values() if not channel.closed]

    def __contains__(self, source_key: Hashable) -> bool:
        """Whether ``source_key`` has a channel on record.  False proves
        in O(1) that a fan-out for the file reaches nobody; a channel
        closed but not yet forgotten still counts, and the fan-out then
        skips it."""
        return source_key in self._by_source

    def serving(self, source_key: Hashable, pager_object) -> Optional[Channel]:
        """The live channel of ``source_key`` whose pager end is
        ``pager_object``, or None."""
        for channel in self.channels_for(source_key):
            if channel.pager_object is pager_object:
                return channel
        return None

    def all_channels(self) -> List[Channel]:
        return [c for source in self._by_source for c in self.channels_for(source)]

    def forget(self, source_key: Hashable, channel: Channel) -> None:
        """Drop a channel after the cache manager called
        done_with_pager_object."""
        channels = self._by_source[source_key]
        for oid, known in list(channels.items()):
            if known is channel:
                del channels[oid]
        if not channels:
            del self._by_source[source_key]

    def close_all(self) -> None:
        for channel in self.all_channels():
            channel.close()
        self._by_source.clear()

    def __len__(self) -> int:
        return len(self.all_channels())
