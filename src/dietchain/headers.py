"""Header tree with fork choice by height.

Shared by full nodes and light clients: both track every valid header
they have seen, keep the tip on the highest branch, and only switch
branches when a competitor is strictly higher (ties keep the first-seen
branch). The highest branch is the one with the most work: every
indexed header carries the chain's one ``target_bits`` (check_header
refuses any other), so a branch up to height h holds (h + 1) *
2**target_bits of work.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .chain import BlockHeader, ZERO32, header_hash, pow_ok
from .errors import ValidationError


def is_genesis(header: BlockHeader) -> bool:
    return header.prev_hash == ZERO32 and header.height == 0


def check_header(header: BlockHeader, digest: bytes, parent: BlockHeader | None,
                 target_bits: int) -> None:
    """Context checks of a header, whose hash is ``digest``, against its
    parent (None: not indexed).

    Raises ValidationError with code 'pow-failure', 'bad-target',
    'unknown-parent' or 'bad-height'.
    """
    if not pow_ok(digest, header.target_bits):
        raise ValidationError("pow-failure", height=header.height)
    if header.target_bits != target_bits:
        raise ValidationError("bad-target", f"target_bits {header.target_bits}, "
                              f"the chain requires {target_bits}", height=header.height)
    if parent is None:
        if not is_genesis(header):
            raise ValidationError("unknown-parent", height=header.height)
    elif header.height != parent.height + 1:
        raise ValidationError("bad-height", height=header.height)


class HeaderIndex:
    def __init__(self, target_bits: int):
        self.target_bits = target_bits
        self.headers: dict[bytes, BlockHeader] = {}
        self.tip: bytes | None = None
        self._active: list[bytes] = []  # hashes by height on the tip's branch

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self.headers

    @property
    def tip_height(self) -> int:
        if self.tip is None:
            raise ValidationError("unknown-block", "header index is empty")
        return self.headers[self.tip].height

    def add(self, header: BlockHeader) -> bytes:
        """Validate and index a header; returns its hash.

        Raises ValidationError as check_header does, or 'bad-genesis'
        for a second genesis: a chain from another genesis shares no
        block with this one. Re-adding a known header is a no-op.
        """
        hh = header_hash(header)
        if hh in self.headers:
            return hh
        parent = None if is_genesis(header) else self.headers.get(header.prev_hash)
        check_header(header, hh, parent, self.target_bits)
        if parent is None and self.tip is not None:
            raise ValidationError("bad-genesis", "the index already holds a genesis",
                                  height=header.height)
        self.headers[hh] = header
        if self.tip is None or header.height > self.headers[self.tip].height:
            self.set_tip(hh)
        return hh

    def set_tip(self, block_hash: bytes) -> None:
        """Make an indexed block the tip, re-pointing the active chain
        from its first active ancestor up; O(1) when it extends the tip."""
        branch = []
        cursor = block_hash
        while not self.on_active_chain(cursor):
            branch.append(cursor)
            header = self.headers[cursor]
            if is_genesis(header):
                break
            cursor = header.prev_hash
        del self._active[self.headers[block_hash].height + 1 - len(branch):]
        self._active.extend(reversed(branch))
        self.tip = block_hash

    def forget(self, block_hash: bytes, tip: bytes | None) -> set[bytes]:
        """Drop an indexed header with every indexed descendant and make
        ``tip``, which must not be one of them, the tip again (None: the
        index is left empty, as after forgetting its genesis). Returns
        the dropped hashes."""
        dropped = {block_hash}
        # A header is indexed after its parent, so one pass finds every descendant.
        for hh, header in self.headers.items():
            if header.prev_hash in dropped:
                dropped.add(hh)
        for hh in dropped:
            del self.headers[hh]
        if tip is None:
            self._active.clear()
            self.tip = None
        else:
            self.set_tip(tip)
        return dropped

    def active_chain(self) -> list[bytes]:
        return list(self._active)

    def active_from(self, height: int) -> Iterator[bytes]:
        """The active chain's hashes from ``height`` up, without a copy."""
        return itertools.islice(self._active, height, None)

    def active_hash_at(self, height: int) -> bytes:
        if not 0 <= height < len(self._active):
            raise ValidationError("unknown-block", f"no active block at height {height}")
        return self._active[height]

    def on_active_chain(self, block_hash: bytes) -> bool:
        if block_hash not in self.headers:
            return False
        height = self.headers[block_hash].height
        return height < len(self._active) and self._active[height] == block_hash

    def fork_height(self, a: bytes, b: bytes) -> int:
        """Height of the deepest common ancestor of an indexed block ``a``
        and a block ``b`` on the active chain."""
        return min(self.active_ancestor_height(a), self.headers[b].height)

    def active_ancestor_height(self, block_hash: bytes) -> int:
        """Height where an indexed block's branch leaves the active chain:
        that of its first ancestor on it, itself included. Walks only down
        to that ancestor."""
        while not self.on_active_chain(block_hash):
            block_hash = self.headers[block_hash].prev_hash
        return self.headers[block_hash].height
