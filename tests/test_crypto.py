from __future__ import annotations

import hashlib
import math
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from dietchain.crypto import (
    BLOOM_DEFAULT_BITS,
    BLOOM_DEFAULT_HASHES,
    BloomFilter,
    KeyPair,
    hash256,
    probe_digests,
    verify,
)
from dietchain.errors import DecodeError

# double SHA-256 of the empty string, the classic vector
EMPTY_HASH = "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"


def test_hash256_empty_vector():
    assert hash256(b"").hex() == EMPTY_HASH


def test_hash256_matches_hashlib_composition():
    rng = random.Random(7)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 200))
        expected = hashlib.sha256(hashlib.sha256(data).digest()).digest()
        assert hash256(data) == expected


def test_keypair_is_deterministic_from_seed():
    seed = hash256(b"seed material")
    a = KeyPair.from_seed(seed)
    b = KeyPair.from_seed(seed)
    assert a.public_key == b.public_key
    assert len(a.public_key) == 33
    assert a.public_key[32] == 0  # pad byte
    digest = hash256(b"message")
    assert a.sign(digest) == b.sign(digest)


def test_a_keypair_signs_as_a_freshly_parsed_key_does():
    """The key parsed once in ``from_seed`` signs every digest to the
    bytes a key parsed anew from the seed gives, and takes no part in
    equality, hashing or the repr."""
    rng = random.Random(17)
    for i in range(20):
        seed = hash256(b"kept key" + bytes([i]))
        pair = KeyPair.from_seed(seed)
        for _ in range(3):
            digest = rng.randbytes(32)
            assert pair.sign(digest) == \
                Ed25519PrivateKey.from_private_bytes(seed).sign(digest)
        twin = KeyPair.from_seed(seed)
        assert twin.private is not pair.private
        assert twin == pair and hash(twin) == hash(pair)
        assert repr(twin) == repr(pair) and "private" not in repr(pair)


def test_sign_and_verify_roundtrip():
    pair = KeyPair.from_seed(hash256(b"signer"))
    digest = hash256(b"the payload")
    signature = pair.sign(digest)
    assert len(signature) == 64
    assert verify(pair.public_key, digest, signature)


def test_verify_rejects_any_single_bit_flip():
    pair = KeyPair.from_seed(hash256(b"flip"))
    digest = hash256(b"body")
    signature = pair.sign(digest)
    rng = random.Random(13)
    for _ in range(40):
        which = rng.randrange(3)
        if which == 0:
            bit = rng.randrange(len(signature) * 8)
            mutated = bytearray(signature)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not verify(pair.public_key, digest, bytes(mutated))
        elif which == 1:
            bit = rng.randrange(len(digest) * 8)
            mutated = bytearray(digest)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not verify(pair.public_key, bytes(mutated), signature)
        else:
            bit = rng.randrange(32 * 8)  # do not flip the pad byte
            mutated = bytearray(pair.public_key)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not verify(bytes(mutated), digest, signature)


def test_verify_rejects_malformed_widths():
    pair = KeyPair.from_seed(hash256(b"widths"))
    digest = hash256(b"x")
    signature = pair.sign(digest)
    assert not verify(pair.public_key[:32], digest, signature)
    assert not verify(pair.public_key + b"\x00", digest, signature)
    assert not verify(pair.public_key, digest, signature[:63])
    # nonzero pad byte must not verify: it is a different 33-byte string
    padded = pair.public_key[:32] + b"\x01"
    assert not verify(padded, digest, signature)


def test_challenge_is_hash_of_public_key():
    pair = KeyPair.from_seed(hash256(b"challenge"))
    assert pair.challenge == hash256(pair.public_key)


def test_sign_requires_digest_width():
    pair = KeyPair.from_seed(hash256(b"strict"))
    with pytest.raises(ValueError):
        pair.sign(b"short")


def test_bloom_membership_no_false_negatives():
    rng = random.Random(99)
    bloom = BloomFilter()
    keys = [rng.randbytes(33) for _ in range(100)]
    for key in keys:
        bloom.add(key)
    assert all(bloom.may_contain(key) for key in keys)


def test_bloom_false_positive_rate_near_theory():
    rng = random.Random(4242)
    bloom = BloomFilter()
    n = 100
    for _ in range(n):
        bloom.add(rng.randbytes(33))
    trials = 100_000
    hits = sum(bloom.may_contain(rng.randbytes(33)) for _ in range(trials))
    m, h = BLOOM_DEFAULT_BITS, BLOOM_DEFAULT_HASHES
    theoretical = (1 - math.exp(-h * n / m)) ** h
    assert theoretical == pytest.approx(1.7e-4, rel=0.05)
    # empirically within a factor of two of theory
    assert hits / trials < theoretical * 2.0
    assert hits / trials > theoretical * 0.3


def test_probe_digests_are_the_hash_prefixes_every_filter_reads():
    key = b"item"
    digests = probe_digests(key, 3)
    assert digests == b"".join(hash256(key + bytes([i]))[:8] for i in range(3))
    longer = probe_digests(key, BLOOM_DEFAULT_HASHES + 2)
    assert probe_digests(key) == longer[:8 * BLOOM_DEFAULT_HASHES]


def test_bloom_membership_is_the_same_from_any_number_of_kept_digests():
    rng = random.Random(98)
    for m, h in [(8, 1), (64, 3), (BLOOM_DEFAULT_BITS, BLOOM_DEFAULT_HASHES), (512, 11)]:
        bloom = BloomFilter(m=m, h=h)
        for _ in range(4):
            bloom.add(rng.randbytes(33))
        for key in [rng.randbytes(33) for _ in range(60)]:
            expected = bloom.may_contain(key)
            for count in range(h + 3):
                assert bloom.may_contain(key, probe_digests(key, count)) == expected


def test_bloom_encode_decode_roundtrip():
    rng = random.Random(5)
    bloom = BloomFilter(m=512, h=3)
    for _ in range(20):
        bloom.add(rng.randbytes(16))
    wire = bloom.encode()
    assert len(wire) == 4 + 1 + 512 // 8
    again = BloomFilter.decode(wire)
    assert again == bloom
    for _ in range(50):
        probe = rng.randbytes(16)
        assert bloom.may_contain(probe) == again.may_contain(probe)


def test_bloom_decode_rejects_malformed():
    bloom = BloomFilter(m=256, h=2)
    wire = bloom.encode()
    with pytest.raises(DecodeError):
        BloomFilter.decode(wire[:-1])
    with pytest.raises(DecodeError):
        BloomFilter.decode(wire + b"\x00")
    with pytest.raises(DecodeError):
        BloomFilter.decode(b"\x00\x00\x00\x00" + wire[4:])  # m = 0
