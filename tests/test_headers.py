from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dietchain import headers
from dietchain.chain import BlockHeader, ZERO32, header_hash, pow_ok
from dietchain.errors import ValidationError
from dietchain.headers import HeaderIndex, check_header


def _ancestors(index: HeaderIndex, block_hash: bytes) -> list[bytes]:
    """Genesis-first path to ``block_hash``, by walking every parent."""
    path = []
    while block_hash != ZERO32:
        path.append(block_hash)
        block_hash = index.headers[block_hash].prev_hash
    return path[::-1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=40))
def test_active_chain_and_fork_height_match_a_full_walk(picks):
    # A zero target makes every header valid and worth one unit of work,
    # so the heaviest branch is the first-seen highest one.
    index = HeaderIndex(target_bits=0)
    hashes = [index.add(BlockHeader(ZERO32, ZERO32, 0, 0, 0))]
    for n, pick in enumerate(picks):
        parent_hash = hashes[pick % len(hashes)]
        header = BlockHeader(prev_hash=parent_hash, tx_mroot=n.to_bytes(32, "little"),
                             target_bits=0, nonce=0,
                             height=index.headers[parent_hash].height + 1)
        old_tip = index.tip
        hashes.append(index.add(header))

        best = max(index.headers[h].height for h in hashes)
        assert index.tip == next(h for h in hashes if index.headers[h].height == best)
        assert index.active_chain() == _ancestors(index, index.tip)
        common = set(_ancestors(index, old_tip)) & set(_ancestors(index, index.tip))
        assert index.fork_height(old_tip, index.tip) == \
            max(index.headers[h].height for h in common)
        below = index.active_hash_at(pick % (best + 1))
        assert index.fork_height(index.tip, below) == index.headers[below].height


def test_check_header_codes():
    genesis = BlockHeader(ZERO32, ZERO32, 0, 0, 0)
    child = BlockHeader(header_hash(genesis), ZERO32, 0, 0, 1)
    check_header(genesis, header_hash(genesis), None, 0)
    check_header(child, header_hash(child), genesis, 0)
    for header, parent, bits, code in [
        (child, None, 0, "unknown-parent"),
        (child._replace(height=2), genesis, 0, "bad-height"),
        (child, genesis, 5, "bad-target"),
        (child._replace(target_bits=255), genesis, 255, "pow-failure"),
    ]:
        with pytest.raises(ValidationError) as info:
            check_header(header, header_hash(header), parent, bits)
        assert info.value.code == code


def test_add_checks_proof_of_work_once_per_new_header(monkeypatch):
    checked = []

    def counting(digest, target_bits):
        checked.append((digest, target_bits))
        return pow_ok(digest, target_bits)

    monkeypatch.setattr(headers, "pow_ok", counting)
    index = HeaderIndex(target_bits=0)
    genesis = BlockHeader(ZERO32, ZERO32, 0, 0, 0)
    child = BlockHeader(header_hash(genesis), ZERO32, 0, 0, 1)
    assert index.add(genesis) == header_hash(genesis)
    assert checked == [(header_hash(genesis), 0)]
    index.add(child)
    assert checked[1:] == [(header_hash(child), 0)]
    index.add(genesis)  # known: nothing is checked again
    index.add(child)
    assert len(checked) == 2


def test_forget_drops_a_branch_with_its_descendants_and_restores_the_tip():
    index = HeaderIndex(target_bits=0)

    def child(parent: bytes, n: int) -> bytes:
        return index.add(BlockHeader(parent, n.to_bytes(32, "little"), 0, 0,
                                     index.headers[parent].height + 1))

    genesis = index.add(BlockHeader(ZERO32, ZERO32, 0, 0, 0))
    a1 = child(genesis, 1)
    a2 = child(a1, 2)
    b1 = child(genesis, 3)
    b2 = child(b1, 4)
    b3 = child(b2, 5)
    side = child(b1, 6)
    assert index.tip == b3
    assert index.forget(b1, a2) == {b1, b2, b3, side}
    assert index.tip == a2 and index.active_chain() == [genesis, a1, a2]
    assert set(index.headers) == {genesis, a1, a2}
    assert index.forget(genesis, None) == {genesis, a1, a2}
    assert (index.headers, index.tip, index.active_chain()) == ({}, None, [])
