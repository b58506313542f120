"""Pins the synthetic corpus's random stream byte for byte.

Every token id the data layer emits is a function of the seeds alone.
These digests were recorded before any change to how the corpus draws
its successor picks, so an implementation change that keeps them equal
keeps every sentence, packed sequence and batch bit-identical.
"""

import hashlib

import numpy as np
import pytest

from repro.data import MarkovCorpus, PreTrainingDataset, SequencePacker, Vocab


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.int64)
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _corpus_stream(seed: int, branching: int) -> str:
    """A mix of lone sentences and both kinds of pairs from one corpus."""
    corpus = MarkovCorpus(Vocab(size=301), seed=seed, branching=branching)
    arrays = [corpus.sentence(1), corpus.sentence(37)]
    for total_length in (2, 25, 64):
        arrays.extend(corpus.sentence_pair(total_length, is_next=True))
        arrays.extend(corpus.sentence_pair(total_length, is_next=False))
    arrays.append(corpus.sentence(100))
    return _digest(*arrays)


def _packed_stream(seed: int) -> str:
    vocab = Vocab(size=512)
    packer = SequencePacker(vocab, MarkovCorpus(vocab, seed=seed),
                            seq_len=128, min_pair=8, max_pair=60,
                            seed=seed + 1)
    packed = packer.pack(40)
    return _digest(*(array for p in packed
                     for array in (p.token_ids, p.segment_ids,
                                   p.sequence_ids)))


def _batch_stream(seed: int) -> str:
    vocab = Vocab(size=256)
    dataset = PreTrainingDataset(vocab, MarkovCorpus(vocab, seed=seed),
                                 seq_len=48, seed=seed + 1)
    arrays = []
    for batch in dataset.batches(6, count=2):
        arrays.extend((batch.token_ids, batch.segment_ids,
                       batch.padding_mask, batch.mlm_labels,
                       batch.nsp_labels))
    return _digest(*arrays)


CORPUS_DIGESTS = {
    (0, 4): "8414ebd742e756bdd625d21b4282ed00f70c77448dedef2719880846d1443991",
    (0, 3): "966395a13394d33285f4237567b464288b3cd22b04849887995f2d79180348fb",
    (7, 4): "455683bdc74e2c16f061150d94048d6792e41c26204d6483c61b640f2cacc8c1",
    (7, 3): "3091ee3c2f7e3762d1579544b568d72b8368797f1c76cf341fb9602e4fff6f73",
}

PACKED_DIGESTS = {
    0: "ade7e4427e80efca2a9bbb65de8dd406da355a255f271960b122cc2d6c6d1d78",
    7: "d5075e2db0474cbb7a74dd9bb84d46c433cb2fd84b0b69a1ec0cf1a4127c8322",
}

BATCH_DIGESTS = {
    0: "2e1042f7047fad884b2a80024cff649bbfb3395074fc9fd7259c9e352680d2eb",
    7: "0cda963d8f4e62d32dcbd461351f2a9315f9b6898f152273046772950cc7441f",
}


@pytest.mark.parametrize("seed,branching", sorted(CORPUS_DIGESTS))
def test_corpus_sentences_and_pairs_are_pinned(seed, branching):
    assert _corpus_stream(seed, branching) == CORPUS_DIGESTS[seed, branching]


@pytest.mark.parametrize("seed", sorted(PACKED_DIGESTS))
def test_packed_sequences_are_pinned(seed):
    assert _packed_stream(seed) == PACKED_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(BATCH_DIGESTS))
def test_pretraining_batches_are_pinned(seed):
    assert _batch_stream(seed) == BATCH_DIGESTS[seed]
