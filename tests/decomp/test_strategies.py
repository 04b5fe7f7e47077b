"""Unit and property tests for decomposition strategies."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecompositionError
from repro.decomp.strategies import Decomposition, WorkChunk, enumerate_decompositions


class TestWorkChunk:
    def test_properties(self):
        c = WorkChunk(0, (10, 20), (0, 3))
        assert c.rows == 10 and c.n_models == 2

    def test_invalid_range(self):
        with pytest.raises(DecompositionError):
            WorkChunk(0, (5, 5), (0,))

    def test_empty_models(self):
        with pytest.raises(DecompositionError):
            WorkChunk(0, (0, 5), ())


class TestDecomposition:
    def test_chunk_count(self):
        assert Decomposition(4, 8).n_chunks == 32
        assert Decomposition(1, 1).label == "FP=1,MP=1"

    def test_invalid(self):
        with pytest.raises(DecompositionError):
            Decomposition(0, 1)

    def test_model_groups_even(self):
        assert Decomposition(1, 4).model_groups(8) == [
            (0, 1), (2, 3), (4, 5), (6, 7)
        ]

    def test_model_groups_uneven(self):
        groups = Decomposition(1, 3).model_groups(5)
        assert groups == [(0, 1), (2, 3), (4,)]

    def test_too_many_groups_rejected(self):
        with pytest.raises(DecompositionError):
            Decomposition(1, 4).model_groups(2)

    def test_row_bands(self):
        assert Decomposition(4, 1).row_bands(100) == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]

    @given(
        fp=st.integers(1, 8),
        mp=st.integers(1, 8),
        rows=st.integers(8, 480),
        models=st.integers(1, 8),
    )
    def test_chunks_exactly_partition_the_work(self, fp, mp, rows, models):
        """Every (row, model) pair is covered by exactly one chunk."""
        if mp > models or fp > rows:
            return
        decomp = Decomposition(fp, mp)
        chunks = decomp.chunks(rows, models)
        assert len(chunks) == decomp.n_chunks
        coverage = [[0] * models for _ in range(rows)]
        for chunk in chunks:
            lo, hi = chunk.row_range
            for r in range(lo, hi):
                for m in chunk.model_indices:
                    coverage[r][m] += 1
        assert all(c == 1 for row in coverage for c in row)

    @given(rows=st.integers(8, 480), fp=st.integers(1, 8))
    def test_bands_nearly_equal(self, rows, fp):
        if fp > rows:
            return
        bands = Decomposition(fp, 1).row_bands(rows)
        sizes = [hi - lo for lo, hi in bands]
        assert max(sizes) - min(sizes) <= 1


class TestEnumerate:
    def test_mp_capped_at_model_count(self):
        ds = list(enumerate_decompositions(2, fp_options=(1,), mp_options=(1, 2, 4, 8)))
        assert {d.mp for d in ds} == {1, 2}

    def test_paper_grid(self):
        ds = list(enumerate_decompositions(8, fp_options=(1, 4), mp_options=(1, 8)))
        assert {(d.fp, d.mp) for d in ds} == {(1, 1), (1, 8), (4, 1), (4, 8)}

    def test_invalid_model_count(self):
        with pytest.raises(DecompositionError):
            list(enumerate_decompositions(0))


class TestDataParallelT4Equivalence:
    def test_chunked_t4_equals_serial_t4(self):
        """Figure 9's requirement: the expansion 'exactly duplicates the
        original task's behavior' — chunk reassembly is bit-exact."""
        import numpy as np

        from repro.apps.colormodel import color_histogram
        from repro.apps.tracker.kernels import (
            change_detection,
            frame_histogram,
            target_detection,
        )
        from repro.apps.video import VideoSource
        from repro.decomp.strategies import Decomposition

        video = VideoSource(n_targets=4, height=48, width=64, seed=5)
        frame = video.frame(3)
        mask = change_detection(frame, video.frame(2))
        fh = frame_histogram(frame)
        models = [color_histogram(video.model_patch(i)) for i in range(4)]

        serial = target_detection(frame, models, fh, mask)
        for decomp in (Decomposition(2, 2), Decomposition(4, 1), Decomposition(1, 4)):
            reassembled = np.zeros_like(serial)
            for chunk in decomp.chunks(frame.shape[0], 4):
                lo, hi = chunk.row_range
                part = target_detection(
                    frame[lo:hi], [models[i] for i in chunk.model_indices], fh,
                    mask[lo:hi],
                )
                for j, mi in enumerate(chunk.model_indices):
                    reassembled[mi, lo:hi] = part[j]
            np.testing.assert_array_equal(reassembled, serial)
