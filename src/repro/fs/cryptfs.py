"""CRYPTFS — an encryption layer (extension).

Encryption is one of the motivating extensions in the paper's
introduction ("Examples of new functionality that may need to be added
include compression, replication, encryption, distribution...").  Where
COMPFS compresses clusters of pages (variable-length output), CRYPTFS
uses a length-preserving per-block stream cipher: block-for-block
mapping between the exported and the underlying file.

Cipher: XOR with a SHA-256-based keystream per 4 KiB block — honest
keyed encryption for a simulator (documented as NOT cryptographically
reviewed; the point is the layer mechanics, not the cipher).

The layer is a :class:`~repro.fs.base.TransformLayer`: its data hooks
and pager side are the ones COMPFS runs too, and what is its own is the
cache's per-block ``decode`` / ``encode`` (:class:`CryptCache`).
"""

from __future__ import annotations

import hashlib

from repro.types import PAGE_SIZE

from repro.fs.base import (
    LayerDirectory,
    LayerFile,
    TransformCache,
    TransformLayer,
)


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


class CryptCache(TransformCache):
    """The decrypted block cache of one file: ciphertext crosses the
    channel, one keystream per block."""

    __slots__ = ()

    def decode(self, first: int, data: bytes) -> bytes:
        self.world.charge.decrypt(len(data))
        key = self.manager.key
        return b"".join(
            xor_block(data[start : start + PAGE_SIZE], key, first + start // PAGE_SIZE)
            for start in range(0, len(data), PAGE_SIZE)
        )

    def encode(self, indices) -> dict:
        key = self.manager.key
        pages = {}
        for index in indices:
            self.world.charge.encrypt(PAGE_SIZE)
            pages[index] = xor_block(self.store.get(index).snapshot(), key, index)
        return pages


class CryptFile(LayerFile):
    """An open handle to a CRYPTFS file (plaintext view)."""


class CryptDirectory(LayerDirectory):
    pass


class CryptFs(TransformLayer):
    """Length-preserving encryption layer (coherent: maintains a C-P
    channel to the layer below, like COMPFS case 2)."""

    cache_class = CryptCache
    file_class = CryptFile
    directory_class = CryptDirectory

    def __init__(self, domain, key: bytes = b"spring-cryptfs-demo-key") -> None:
        super().__init__(domain)
        self.key = key

    def fs_type(self) -> str:
        return "cryptfs"
