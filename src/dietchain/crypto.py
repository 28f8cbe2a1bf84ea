"""Hashing, signing, and bloom filters.

Every digest in the system is produced by :func:`hash256` (two rounds of
SHA-256) and is exactly 32 bytes. Keypairs are Ed25519, derived
deterministically from a 32-byte seed; public keys travel as 33 bytes
(the raw 32-byte key plus one zero pad byte) and signatures as 64 bytes,
so wire widths are fixed regardless of the underlying scheme.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import DecodeError

DIGEST_SIZE = 32
PUBLIC_KEY_SIZE = 33
SIGNATURE_SIZE = 64

# Defaults used by nodes when building transaction filters.
BLOOM_DEFAULT_BITS = 2048
BLOOM_DEFAULT_HASHES = 7
PROBE_SIZE = 8  # bytes of a probe digest a filter reads


def hash256(data: bytes) -> bytes:
    """Double SHA-256 of ``data``; always 32 bytes."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _raw_public_key(key: Ed25519PublicKey) -> bytes:
    return key.public_bytes(
        encoding=serialization.Encoding.Raw,
        format=serialization.PublicFormat.Raw,
    )


@dataclass(frozen=True)
class KeyPair:
    """Seed-derived signing keypair with fixed-width wire encodings."""

    seed: bytes
    public_key: bytes  # 33 bytes, zero-padded
    # the seed parsed once; it is the seed, so it takes no part in equality
    private: Ed25519PrivateKey = field(compare=False, repr=False)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        if len(seed) != 32:
            raise ValueError(f"seed must be 32 bytes, got {len(seed)}")
        private = Ed25519PrivateKey.from_private_bytes(seed)
        public = _raw_public_key(private.public_key()) + b"\x00"
        return cls(seed=seed, public_key=public, private=private)

    def sign(self, digest: bytes) -> bytes:
        """Sign a 32-byte digest; the signature is always 64 bytes."""
        if len(digest) != DIGEST_SIZE:
            raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(digest)}")
        return self.private.sign(digest)

    @property
    def challenge(self) -> bytes:
        """The ownership challenge a coin paying this key carries."""
        return hash256(self.public_key)


def verify(public_key: bytes, digest: bytes, signature: bytes) -> bool:
    """Check ``signature`` over ``digest``; malformed inputs are just False."""
    if len(public_key) != PUBLIC_KEY_SIZE or public_key[-1] != 0:
        return False
    if len(digest) != DIGEST_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        key = Ed25519PublicKey.from_public_bytes(public_key[:32])
        key.verify(signature, digest)
    except (InvalidSignature, ValueError):
        return False
    return True


def probe_digest(key: bytes, i: int) -> bytes:
    """The i-th probe digest of ``key``: the first 8 bytes of
    ``hash256(key || byte(i))``. It does not depend on any filter."""
    return hash256(key + bytes([i]))[:PROBE_SIZE]


def probe_digests(key: bytes, count: int = BLOOM_DEFAULT_HASHES) -> bytes:
    """The first ``count`` probe digests of ``key``, concatenated."""
    return b"".join(probe_digest(key, i) for i in range(count))


class BloomFilter:
    """Fixed-size bloom filter over byte strings.

    The i-th probe index for a key is its i-th probe digest
    (:func:`probe_digest`) read big-endian, reduced mod ``m``. Bit i of
    the filter lives in byte ``i // 8`` under mask ``1 << (i % 8)``.
    """

    def __init__(self, m: int = BLOOM_DEFAULT_BITS, h: int = BLOOM_DEFAULT_HASHES,
                 bits: bytearray | None = None):
        if m <= 0:
            raise ValueError("bloom filter needs at least one bit")
        if h <= 0:
            raise ValueError("bloom filter needs at least one hash")
        self.m = m
        self.h = h
        nbytes = (m + 7) // 8
        if bits is None:
            bits = bytearray(nbytes)
        elif len(bits) != nbytes:
            raise ValueError(f"expected {nbytes} filter bytes, got {len(bits)}")
        self.bits = bits

    def _indices(self, key: bytes, digests: bytes = b""):
        known = min(self.h, len(digests) // PROBE_SIZE)
        for (digest,) in struct.iter_unpack(">Q", digests[:known * PROBE_SIZE]):
            yield digest % self.m
        for i in range(known, self.h):
            yield int.from_bytes(probe_digest(key, i), "big") % self.m

    def add(self, key: bytes) -> None:
        for idx in self._indices(key):
            self.bits[idx // 8] |= 1 << (idx % 8)

    def may_contain(self, key: bytes, digests: bytes = b"") -> bool:
        """Whether ``key`` may have been added. ``digests``, if given, are
        the key's first probe digests (:func:`probe_digests`); only the
        probes they do not cover are hashed."""
        return all(self.bits[idx // 8] & (1 << (idx % 8)) for idx in self._indices(key, digests))

    def encode(self) -> bytes:
        return struct.pack("<IB", self.m, self.h) + bytes(self.bits)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if len(data) < 5:
            raise DecodeError("bloom filter header truncated", len(data))
        m, h = struct.unpack_from("<IB", data, 0)
        if m == 0 or h == 0:
            raise DecodeError("bloom filter with zero parameters", 0)
        nbytes = (m + 7) // 8
        if len(data) != 5 + nbytes:
            raise DecodeError("bloom filter body has wrong length", min(len(data), 5 + nbytes))
        return cls(m=m, h=h, bits=bytearray(data[5:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.m == other.m and self.h == other.h and self.bits == other.bits
