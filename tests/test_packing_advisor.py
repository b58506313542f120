"""Tests for sequence packing and the training-configuration advisor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BERT_LARGE, BERT_TINY
from repro.core import advise, render_advice
from repro.data import (MarkovCorpus, SequencePacker, Vocab,
                        first_fit_decreasing, packed_attention_bias)
from repro.hw import mi100
from repro.config import Precision


@pytest.fixture
def packer():
    vocab = Vocab(size=256)
    corpus = MarkovCorpus(vocab, seed=0)
    return SequencePacker(vocab, corpus, seq_len=512, min_pair=32,
                          max_pair=128, seed=1)


class TestFirstFitDecreasing:
    def test_simple_packing(self):
        bins = first_fit_decreasing([50, 50, 50, 50], 100)
        assert len(bins) == 2
        assert all(len(b) == 2 for b in bins)

    def test_all_items_placed_once(self):
        lengths = [37, 81, 12, 55, 99, 3, 44]
        bins = first_fit_decreasing(lengths, 100)
        placed = sorted(i for b in bins for i in b)
        assert placed == list(range(len(lengths)))

    def test_no_bin_overflows(self):
        rng = np.random.default_rng(0)
        lengths = list(rng.integers(10, 90, size=60))
        bins = first_fit_decreasing(lengths, 100)
        for b in bins:
            assert sum(lengths[i] for i in b) <= 100

    def test_oversized_item_rejected(self):
        with pytest.raises(ValueError):
            first_fit_decreasing([150], 100)
        with pytest.raises(ValueError):
            first_fit_decreasing([1], 0)

    def test_non_positive_lengths_rejected(self):
        # A negative item would "free" room; empty items would fill bins
        # with nothing.
        with pytest.raises(ValueError, match="positive"):
            first_fit_decreasing([-3, 4], 4)
        with pytest.raises(ValueError, match="positive"):
            first_fit_decreasing([0, 0], 1)


class TestSequencePacker:
    def test_packed_shape_and_efficiency(self, packer):
        packed = packer.pack(40)
        assert packed
        for sequence in packed:
            assert sequence.token_ids.shape == (512,)
            assert 0.0 < sequence.efficiency <= 1.0
        # Packing several ~100-token segments into 512 should be dense.
        mean_efficiency = np.mean([p.efficiency for p in packed])
        assert mean_efficiency > 0.6

    def test_saves_most_sequences(self, packer):
        # ~80-token average segments: roughly 5-6 fit per 512 sequence.
        assert packer.padding_saved(60) > 0.6

    def test_sequence_ids_contiguous_per_segment(self, packer):
        sequence = packer.pack(12)[0]
        ids = sequence.sequence_ids
        used = ids[ids >= 0]
        # Segments appear in slot order without interleaving.
        changes = np.flatnonzero(np.diff(used))
        assert all(used[c + 1] == used[c] + 1 for c in changes)

    def test_cross_segment_attention_blocked(self, packer):
        sequence = packer.pack(12)[0]
        allowed = sequence.attention_allowed()
        ids = sequence.sequence_ids
        first = np.flatnonzero(ids == 0)
        second = np.flatnonzero(ids == 1)
        if len(second):
            assert not allowed[first[0], second[0]]
            assert allowed[first[0], first[-1]]

    def test_padding_never_attended(self, packer):
        sequence = packer.pack(3)[0]
        allowed = sequence.attention_allowed()
        padding = np.flatnonzero(sequence.sequence_ids < 0)
        if len(padding):
            assert not allowed[:, padding].any()
            assert not allowed[padding, :].any()

    def test_bias_shape(self, packer):
        bias = packed_attention_bias(packer.pack(3)[0])
        assert bias.shape == (1, 1, 512, 512)
        assert bias.min() < -1e8 and bias.max() == 0.0

    def test_validation(self, packer):
        with pytest.raises(ValueError):
            packer.pack(0)
        vocab = Vocab(size=256)
        corpus = MarkovCorpus(vocab, seed=0)
        with pytest.raises(ValueError):
            SequencePacker(vocab, corpus, seq_len=64, min_pair=100,
                           max_pair=120)


@st.composite
def _packer_settings(draw):
    seq_len = draw(st.integers(8, 160))
    min_pair = draw(st.integers(1, seq_len - 3))
    max_pair = draw(st.integers(min_pair, seq_len - 3))
    return dict(seq_len=seq_len, min_pair=min_pair, max_pair=max_pair,
                seed=draw(st.integers(0, 2**16)))


class TestPlan:
    @given(config=_packer_settings(), n=st.integers(1, 40),
           corpus_seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_plan_is_the_layout_pack_materializes(self, config, n,
                                                  corpus_seed):
        vocab = Vocab(size=64)
        planner = SequencePacker(vocab, None, **config)
        packer = SequencePacker(vocab, MarkovCorpus(vocab, seed=corpus_seed),
                                **config)
        lengths, bins = planner.plan(n)
        packed = packer.pack(n)
        assert len(packed) == len(bins)
        for sequence, indices in zip(packed, bins):
            ids = sequence.sequence_ids
            per_slot = np.bincount(ids[ids >= 0], minlength=len(indices))
            assert per_slot.tolist() == [lengths[i] for i in indices]
        # Both packers drew the same pair lengths, so their streams agree.
        assert planner.plan(3) == packer.plan(3)

    def test_pack_without_corpus_rejected(self):
        planner = SequencePacker(Vocab(size=64), None, seq_len=64,
                                 min_pair=8, max_pair=32)
        with pytest.raises(ValueError, match="plan"):
            planner.pack(4)

    def test_padding_saved_counts_planned_bins(self, packer):
        _, bins = SequencePacker(Vocab(size=256), None, seq_len=512,
                                 min_pair=32, max_pair=128,
                                 seed=1).plan(60)
        assert packer.padding_saved(60) == (60 - len(bins)) / 60

    def test_packing_study_generates_no_tokens(self, monkeypatch):
        from repro.experiments import packing_study

        def no_corpus(*args, **kwargs):
            raise AssertionError("the packing study built a MarkovCorpus")

        monkeypatch.setattr(MarkovCorpus, "__init__", no_corpus)
        assert len(packing_study.run()) == 3


class TestAdvisor:
    @pytest.fixture(scope="class")
    def advice(self):
        return advise(BERT_LARGE, mi100(),
                      batch_sizes=(8, 32, 96))

    def test_best_fits_and_leads(self, advice):
        assert advice.best is not None
        assert advice.best.fits
        throughputs = [o.tokens_per_second for o in advice.options
                       if o.fits]
        assert advice.best.tokens_per_second == max(throughputs)

    def test_mixed_precision_wins(self, advice):
        # MP doubles effective capacity and triples GEMM speed; it should
        # dominate the frontier on this device.
        assert advice.best.training.precision is Precision.MIXED

    def test_checkpointing_only_offered_when_needed(self, advice):
        for option in advice.options:
            if option.training.activation_checkpointing:
                plain = next(
                    o for o in advice.options
                    if o.training.batch_size == option.training.batch_size
                    and o.training.precision is option.training.precision
                    and not o.training.activation_checkpointing)
                assert not plain.fits

    def test_non_fitting_configs_reported(self):
        advice = advise(BERT_LARGE, mi100(), batch_sizes=(96,),
                        precisions=(Precision.FP32,),
                        consider_checkpointing=False)
        assert advice.best is None
        assert all(not o.fits for o in advice.options)

    def test_tiny_model_everything_fits(self):
        advice = advise(BERT_TINY, mi100(), seq_len=32,
                        batch_sizes=(8, 16))
        assert all(o.fits for o in advice.options)

    def test_render(self, advice):
        out = render_advice(advice)
        assert "throughput" in out and "best" in out
