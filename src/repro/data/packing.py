"""Sequence packing for long-sequence (Phase-2) pre-training.

Phase-2 trains at ``n=512``, but natural sentence pairs are far shorter;
production pipelines pack several pairs into each sequence so padding does
not waste the quadratic attention cost.  This module packs pair segments
greedily (first-fit decreasing) into fixed-length sequences and reports
the padding efficiency gained — the input-pipeline counterpart of the
paper's fixed-shape-iteration observation (Sec. 3.1.4).  The layout is a
function of segment lengths only (:meth:`SequencePacker.plan`); tokens are
drawn only when packed sequences are materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import MarkovCorpus, Vocab, pair_split


@dataclass(frozen=True)
class PackedSequence:
    """One packed sequence of several ``[CLS] A [SEP] B [SEP]`` segments.

    Attributes:
        token_ids: ``(n,)`` ids, padded at the tail.
        segment_ids: 0/1 alternating per segment part.
        sequence_ids: which packed segment each position belongs to
            (-1 at padding) — the key for block-diagonal attention masks.
    """

    token_ids: np.ndarray
    segment_ids: np.ndarray
    sequence_ids: np.ndarray

    @property
    def used_tokens(self) -> int:
        return int((self.sequence_ids >= 0).sum())

    @property
    def efficiency(self) -> float:
        """Fraction of positions carrying real tokens."""
        return self.used_tokens / len(self.token_ids)

    def attention_allowed(self) -> np.ndarray:
        """(n, n) boolean: positions may attend only within their own
        packed segment (and never to padding)."""
        same = self.sequence_ids[:, None] == self.sequence_ids[None, :]
        valid = self.sequence_ids >= 0
        return same & valid[:, None] & valid[None, :]


def first_fit_decreasing(lengths: list[int], capacity: int) -> list[list[int]]:
    """Pack item lengths into bins of ``capacity`` (first-fit decreasing).

    Returns:
        Bins as lists of item *indices* into ``lengths``.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    if any(length < 1 for length in lengths):
        raise ValueError("item lengths must be positive")
    if any(length > capacity for length in lengths):
        raise ValueError("an item exceeds the bin capacity")
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    bins: list[list[int]] = []
    remaining: list[int] = []
    for index in order:
        for b, room in enumerate(remaining):
            if lengths[index] <= room:
                bins[b].append(index)
                remaining[b] -= lengths[index]
                break
        else:
            bins.append([index])
            remaining.append(capacity - lengths[index])
    return bins


#: ``[CLS]``, the middle ``[SEP]`` and the closing ``[SEP]`` of a segment.
SPECIAL_TOKENS = 3


class SequencePacker:
    """Packs sentence-pair segments into fixed-length sequences.

    :meth:`plan` lays segments out from their lengths alone; :meth:`pack`
    follows that plan and fills it with the corpus's tokens.

    Args:
        vocab: vocabulary layout.
        corpus: sentence source; ``None`` for a packer that only plans.
        seq_len: packed sequence length (512 for Phase-2).
        min_pair / max_pair: content-length range of one sampled pair
            (before the 3 special tokens).
        seed: RNG seed for pair lengths.
    """

    def __init__(self, vocab: Vocab, corpus: MarkovCorpus | None, *,
                 seq_len: int, min_pair: int = 32, max_pair: int = 128,
                 seed: int = 0):
        if not 1 <= min_pair <= max_pair <= seq_len - SPECIAL_TOKENS:
            raise ValueError("invalid pair-length range")
        self.vocab = vocab
        self.corpus = corpus
        self.seq_len = seq_len
        self.min_pair = min_pair
        self.max_pair = max_pair
        self._rng = np.random.default_rng(seed)

    def plan(self, n_segments: int) -> tuple[list[int], list[list[int]]]:
        """Sample ``n_segments`` pair lengths and lay them out, tokenless.

        Returns:
            ``(lengths, bins)``: each segment's length including its
            special tokens, in sample order, and the first-fit-decreasing
            bins of segment indices, one bin per packed sequence.
        """
        if n_segments < 1:
            raise ValueError("n_segments must be positive")
        contents = self._rng.integers(self.min_pair, self.max_pair + 1,
                                      size=n_segments)
        lengths = [sum(pair_split(c)) + SPECIAL_TOKENS
                   for c in contents.tolist()]
        return lengths, first_fit_decreasing(lengths, self.seq_len)

    def _segment(self, content_len: int) -> tuple[np.ndarray, np.ndarray]:
        """One [CLS] A [SEP] B [SEP] segment of given content length."""
        first, second = self.corpus.sentence_pair(content_len, is_next=True)
        v = self.vocab
        tokens = np.concatenate(([v.cls], first, [v.sep], second, [v.sep]))
        segments = np.concatenate((
            np.zeros(len(first) + 2, dtype=np.int64),
            np.ones(len(second) + 1, dtype=np.int64)))
        return tokens, segments

    def pack(self, n_segments: int) -> list[PackedSequence]:
        """Sample ``n_segments`` pairs and pack them into sequences."""
        if self.corpus is None:
            raise ValueError("packer has no corpus to draw tokens from; "
                             "use plan() to count sequences")
        lengths, bins = self.plan(n_segments)
        # Materialize in sample order so the corpus stream does not depend
        # on the layout.  A planned length minus its special tokens splits
        # into the sampled pair's sentence lengths (pair_split is
        # idempotent on its own sums).
        segments = [self._segment(length - SPECIAL_TOKENS)
                    for length in lengths]
        for index, ((tokens, _), length) in enumerate(zip(segments, lengths)):
            if len(tokens) != length:
                raise RuntimeError(f"segment {index} has {len(tokens)} "
                                   f"tokens, planned {length}")

        packed = []
        for bin_indices in bins:
            token_ids = np.full(self.seq_len, self.vocab.pad,
                                dtype=np.int64)
            segment_ids = np.zeros(self.seq_len, dtype=np.int64)
            sequence_ids = np.full(self.seq_len, -1, dtype=np.int64)
            cursor = 0
            for slot, index in enumerate(bin_indices):
                tokens, segs = segments[index]
                span = slice(cursor, cursor + len(tokens))
                token_ids[span] = tokens
                segment_ids[span] = segs
                sequence_ids[span] = slot
                cursor += len(tokens)
            packed.append(PackedSequence(token_ids=token_ids,
                                         segment_ids=segment_ids,
                                         sequence_ids=sequence_ids))
        return packed

    def padding_saved(self, n_segments: int) -> float:
        """Fraction of sequences (and thus attention cost) avoided by
        packing, vs. one segment per fixed-length sequence."""
        _, bins = self.plan(n_segments)
        packed_total = len(bins) * self.seq_len
        unpacked_total = n_segments * self.seq_len
        return (unpacked_total - packed_total) / unpacked_total


def packed_attention_bias(packed: PackedSequence,
                          dtype=np.float32) -> np.ndarray:
    """Additive attention bias enforcing block-diagonal (per-segment)
    attention for a packed sequence, shaped ``(1, 1, n, n)``."""
    allowed = packed.attention_allowed()
    bias = np.where(allowed, 0.0, -1e9).astype(dtype)
    return bias[None, None, :, :]
