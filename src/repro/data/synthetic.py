"""Synthetic pre-training corpus.

The paper pre-trains on English Wikipedia, but its profile depends only on
tensor shapes, not token values (Sec. 3.1.4 profiles one fixed-shape
iteration).  For the *executable* model we still want data with learnable
structure, so the generator produces sentences from a Markov chain over a
synthetic vocabulary: bigram statistics give the MLM objective something
real to learn, and consecutive-vs-random sentence pairing gives NSP a
learnable signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Vocab:
    """Special-token layout of the synthetic WordPiece-like vocabulary."""

    size: int
    pad: int = 0
    cls: int = 1
    sep: int = 2
    mask: int = 3

    @property
    def first_regular(self) -> int:
        """First id usable as a regular token."""
        return 4

    def __post_init__(self) -> None:
        if self.size <= self.first_regular + 1:
            raise ValueError("vocabulary too small for special tokens")

    @property
    def regular_tokens(self) -> int:
        return self.size - self.first_regular


def pair_split(total_length: int) -> tuple[int, int]:
    """Sentence lengths of a pair with ``total_length`` content tokens.

    The one rule for splitting a pair: the first sentence takes half
    (at least one token), the second the rest (at least one token).
    """
    first = max(1, total_length // 2)
    return first, max(1, total_length - first)


class MarkovCorpus:
    """Sentence sampler with bigram structure.

    A random sparse transition matrix over the regular tokens makes some
    continuations far likelier than others, so a model that learns the
    bigram statistics beats the uniform-guess loss — the property the
    training-loop tests rely on.

    Args:
        vocab: vocabulary layout.
        seed: RNG seed.
        branching: successors per token; smaller = more learnable.
    """

    def __init__(self, vocab: Vocab, *, seed: int = 0, branching: int = 4):
        if branching < 1:
            raise ValueError("branching must be >= 1")
        self.vocab = vocab
        self._rng = np.random.default_rng(seed)
        n = vocab.regular_tokens
        self._successors = self._rng.integers(0, n, size=(n, branching))
        # The chain is walked one token at a time; Python lists index
        # far faster than an array does element by element.
        self._successor_lists = self._successors.tolist()

    def sentence(self, length: int) -> np.ndarray:
        """One sentence of ``length`` regular-token ids."""
        if length < 1:
            raise ValueError("length must be >= 1")
        current = int(self._rng.integers(0, self.vocab.regular_tokens))
        # One array draw yields the same values as ``length`` scalar
        # draws, so the stream matches a per-token sampler exactly.
        picks = self._rng.integers(0, self._successors.shape[1],
                                   size=length).tolist()
        successors = self._successor_lists
        chain = []
        for pick in picks:
            chain.append(current)
            current = successors[current][pick]
        return np.array(chain, dtype=np.int64) + self.vocab.first_regular

    def sentence_pair(self, total_length: int,
                      is_next: bool) -> tuple[np.ndarray, np.ndarray]:
        """Two sentences; the second continues the first iff ``is_next``."""
        first_len, second_len = pair_split(total_length)
        first = self.sentence(first_len)
        if is_next:
            # Continue the chain from the first sentence's last token.
            successors = self._successor_lists
            current = successors[int(first[-1]) - self.vocab.first_regular][0]
            chain = []
            for _ in range(second_len):
                chain.append(current)
                current = successors[current][0]
            second = (np.array(chain, dtype=np.int64)
                      + self.vocab.first_regular)
        else:
            second = self.sentence(second_len)
        return first, second
