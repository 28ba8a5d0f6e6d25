"""CRYPTFS — an encryption layer (extension).

Encryption is one of the motivating extensions in the paper's
introduction ("Examples of new functionality that may need to be added
include compression, replication, encryption, distribution...").  Where
COMPFS compresses whole files (variable-length output), CRYPTFS uses a
length-preserving per-block stream cipher, so it exercises the *other*
transform-layer shape: block-for-block mapping between the exported and
underlying file, with per-block (not whole-file) cache invalidation.

Cipher: XOR with a SHA-256-based keystream per 4 KiB block — honest
keyed encryption for a simulator (documented as NOT cryptographically
reviewed; the point is the layer mechanics, not the cipher).

In spine terms the transform points are the decrypt on page-in and the
encrypt-and-write-through on page-out/merge (:class:`CryptOps`); the
naming face, binding, and attribute forwarding are all generic.  On the
cache-manager side the plaintext cache is a
:class:`~repro.fs.base.LayerCache` with a per-block ``decode`` /
``encode`` (:class:`CryptCache`): faulting, prefetching a window and
writing dirty runs back are the shared engine's.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.errors import FsError, OutOfRangeError

from repro.types import PAGE_SIZE, AccessRights

from repro.fs.base import (
    BaseLayer,
    ChannelOps,
    LayerCache,
    LayerDirectory,
    LayerFile,
    LayerFileState,
)
from repro.fs.file import File


def keystream(key: bytes, block_index: int, length: int = PAGE_SIZE) -> bytes:
    """Deterministic per-block keystream: SHA-256 in counter mode."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(
            key + block_index.to_bytes(8, "little") + counter.to_bytes(8, "little")
        ).digest()
        counter += 1
    return bytes(out[:length])


def xor_block(data: bytes, key: bytes, block_index: int) -> bytes:
    stream = keystream(key, block_index, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


class _FileInterfacePager:
    """The two pager operations the plaintext cache needs, over the
    plain file interface of a layer that refused the channel."""

    def __init__(self, under_file: File) -> None:
        self.under_file = under_file

    def page_in(self, offset: int, size: int, access: AccessRights) -> bytes:
        return self.under_file.read(offset, size)

    def sync(self, offset: int, size: int, data: bytes) -> None:
        usable = min(size, max(0, self.under_file.get_length() - offset))
        if usable:
            self.under_file.write(offset, data[:usable])


class CryptCache(LayerCache):
    """The decrypted block cache of one file: ciphertext crosses the
    channel, one keystream per block.  When the layer below refuses the
    channel the source and sink is its plain file interface — no
    read-ahead window, a dirty run is one ``write`` — and none of its
    coherency actions reach this cache."""

    __slots__ = ()

    def pager(self):
        state = self.state
        if self.manager.ensure_down(state):
            return state.down_channel.pager_object
        self.readahead_override = 0  # the file interface has no ranged read
        return _FileInterfacePager(state.under_file)

    def decode(self, first: int, data: bytes) -> bytes:
        self.world.charge.decrypt(len(data))
        key = self.manager.key
        return b"".join(
            xor_block(data[start : start + PAGE_SIZE], key, first + start // PAGE_SIZE)
            for start in range(0, len(data), PAGE_SIZE)
        )

    def encode(self, run) -> list:
        key = self.manager.key
        chunks = []
        for index in run:
            self.world.charge.encrypt(PAGE_SIZE)
            chunks.append(xor_block(self.store.get(index).snapshot(), key, index))
        return chunks


class CryptFileState(LayerFileState):
    def __init__(self, layer: "CryptFs", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.cache = CryptCache(layer, self)
        self.store = self.plain = self.cache.store  # decrypted block cache
        #: True once the lower layer refused a writable bind (mirrorfs);
        #: we then use the plain file interface instead of a channel.
        self.channel_refused = False

    def purge(self) -> None:
        super().purge()
        self.plain.clear()


class CryptFile(LayerFile):
    """An open handle to a CRYPTFS file (plaintext view; the length is
    preserved, so length/attribute forwarding is the generic default)."""


class CryptDirectory(LayerDirectory):
    pass


class CryptOps(ChannelOps):
    """CRYPTFS's transform points: decrypt on the way up, encrypt and
    write through on the way down.  Write-through means a syncing client
    is never registered as a writer (``register_writers`` off): the
    ciphertext below is already current, so there is nothing to recall
    from it later."""

    register_writers = False

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        state = self.state(source_key)
        self.admit(state, pager_object, offset, size, access)
        state.cache.prefetch(offset, size, access)
        return state.plain.read(offset, size, state.cache.fault, access)

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        state = self.state(source_key)
        if attrs.size != state.under_file.get_length():
            self.layer.file_set_length(state, attrs.size)

    # --- cache side (from below): per-block invalidation -------------------
    def flush_back(self, state, offset, size) -> Dict[int, bytes]:
        state.holders.invalidate(offset, size)
        state.plain.drop_range(offset, size)
        return {}  # write-through: nothing modified held here

    def deny_writes(self, state, offset, size) -> Dict[int, bytes]:
        state.plain.downgrade_range(offset, size)
        return {}

    def write_back(self, state, offset, size) -> Dict[int, bytes]:
        return {}

    def delete_range(self, state, offset, size) -> None:
        """What the layer below changed drops the cached plaintext —
        but never dirty pages: locally modified data supersedes any
        external invalidation and is re-encrypted over it on the next
        flush."""
        state.holders.invalidate(offset, size)
        state.plain.drop_range(offset, size, keep_dirty=True)

    def zero_fill(self, state, offset, size) -> None:
        self.delete_range(state, offset, size)

    def populate(self, state, offset, size, access, data) -> None:
        self.delete_range(state, offset, size)

    def destroy_cache(self, state) -> None:
        state.plain.clear()
        state.down_channel = None

    def invalidate_attributes(self, state) -> None:
        pass  # attributes are not cached by this layer


class CryptFs(BaseLayer):
    """Length-preserving encryption layer (coherent: maintains a C-P
    channel to the layer below, like COMPFS case 2, but per-block)."""

    max_under = 1
    ops_class = CryptOps
    state_class = CryptFileState
    file_class = CryptFile
    directory_class = CryptDirectory

    def __init__(self, domain, key: bytes = b"spring-cryptfs-demo-key") -> None:
        super().__init__(domain)
        self.key = key

    def fs_type(self) -> str:
        return "cryptfs"

    # --- data path -----------------------------------------------------------
    def ensure_down(self, state: CryptFileState) -> bool:
        """Try to establish the coherency channel below.  Some layers
        (e.g. mirrorfs) refuse writable binds; CRYPTFS then degrades to
        plain file-interface access — still correct, just without the
        lower layer's coherency actions reaching our plaintext cache."""
        if state.down_channel is not None and not state.down_channel.closed:
            return True
        if state.channel_refused:
            return False
        try:
            return super().ensure_down(state)
        except FsError:
            state.channel_refused = True
            self.world.counters.inc("cryptfs.bind_refused")
            return False

    def file_read(self, state: CryptFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        file_size = state.under_file.get_length()
        if offset >= file_size:
            return b""
        size = min(size, file_size - offset)
        self.recall(state, offset, size)
        state.cache.prefetch(offset, size, AccessRights.READ_ONLY)
        data = state.plain.read(offset, size, state.cache.fault)
        self.world.charge.memcpy(size)
        return data

    def _extend(self, state: CryptFileState, old: int, new: int) -> None:
        """Grow the underlying file and make the new range read as
        plaintext zeros.  The hole the extension creates underneath is
        raw zeros — NOT valid ciphertext — so zero plaintext pages are
        recorded dirty and real encrypted zeros go down on flush."""
        first, within = divmod(old, PAGE_SIZE)
        if within and state.plain.get(first) is None:
            # Faulted before the file grows: a fault that fails leaves
            # the length as it was.
            state.cache.fault(first, AccessRights.READ_WRITE)
        state.under_file.set_length(new)
        if within:
            # The old last page keeps its head and is zero from there on
            # (fetched again: growing below may have recalled it).
            page = state.plain.get(first)
            if page is None:
                page = state.cache.fault(first, AccessRights.READ_WRITE)
            page.data[within:] = bytes(PAGE_SIZE - within)
            state.plain.set_dirty(first, True)
            first += 1
        for index in range(first, (new - 1) // PAGE_SIZE + 1):
            state.plain.install(index, b"", AccessRights.READ_WRITE, dirty=True)

    def file_write(self, state: CryptFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        if offset < 0:  # refused before _extend can grow the file for it
            raise OutOfRangeError(f"negative offset {offset}")
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        end = offset + len(data)
        old = state.under_file.get_length()
        if end > old:
            self._extend(state, old, end)
        state.cache.prefetch(offset, len(data), AccessRights.READ_WRITE, upgrade=True)
        state.plain.write(offset, data, state.cache.fault)
        self.world.charge.memcpy(len(data))
        self._flush_range(state, offset, len(data))
        return len(data)

    def _flush_range(self, state: CryptFileState, offset: int, size: int) -> None:
        """Write-through: encrypt and push the touched blocks below.
        Contiguous dirty blocks go down as one sync per run, so a big
        sequential write pays one invocation per run instead of one per
        4 KB block."""
        state.cache.write_back(state.plain.dirty_indices(offset, size), "sync")

    def file_set_length(self, state: CryptFileState, length: int) -> None:
        old = state.under_file.get_length()
        if length < old:
            self.recall_for_shrink(state, length, old)
            state.plain.truncate_to(length)
            state.under_file.set_length(length)
        elif length > old:
            self._extend(state, old, length)

    def file_sync(self, state: CryptFileState) -> None:
        self._flush_range(state, 0, state.under_file.get_length())
        state.under_file.sync()

    def _sync_impl(self) -> None:
        for state in self._states.values():
            self._flush_range(state, 0, state.under_file.get_length())

    def merge_recovered(
        self, state: CryptFileState, recovered: Dict[int, bytes]
    ) -> None:
        if not recovered:
            return
        state.plain.install_modified(recovered)
        first = min(recovered)
        last = max(recovered)
        self._flush_range(
            state, first * PAGE_SIZE, (last - first + 1) * PAGE_SIZE
        )
