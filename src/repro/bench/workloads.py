"""Deterministic workload generators for benchmarks and stress tests."""

from __future__ import annotations

import random
from typing import List


def compressible_bytes(size: int, seed: int = 0) -> bytes:
    """Data that zlib compresses to roughly a quarter of its size:
    repeated dictionary words with occasional random salt.  Deterministic
    per seed."""
    rng = random.Random(seed)
    words = [
        b"spring", b"pager", b"cache", b"object", b"domain", b"coherency",
        b"stackable", b"naming", b"memory", b"layer",
    ]
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.25:
            out += bytes(rng.getrandbits(8) for _ in range(8))
        else:
            out += rng.choice(words) + b" "
    return bytes(out[:size])


def incompressible_bytes(size: int, seed: int = 0) -> bytes:
    """Pseudo-random data that does not compress."""
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(size))


def pattern_bytes(size: int, tag: int = 0) -> bytes:
    """Self-describing pattern: byte i of file `tag` is a function of
    (tag, i), so any misplaced block is detectable."""
    block = bytes((tag * 7 + i * 13) % 256 for i in range(256))
    reps = size // 256 + 1
    return (block * reps)[:size]


def file_names(count: int, prefix: str = "f") -> List[str]:
    rng = random.Random(0)
    suffixes = ["dat", "txt", "log", "idx", "tmp"]
    return [
        f"{prefix}{i:04d}.{rng.choice(suffixes)}"
        for i in range(count)
    ]
