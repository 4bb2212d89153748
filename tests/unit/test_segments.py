"""Segment tables (Fig. 8) built from exact loss profiles."""

import numpy as np
import pytest

from repro.core import Segment, SegmentTable, build_segment_table
from repro.errors import ConfigurationError
from repro.privacy.loss import DiscreteMechanismFamily
from repro.rng import DiscretePMF, FxpDatapath, FxpLaplaceRng


@pytest.fixture(scope="module")
def guarded_family():
    datapath = FxpDatapath(input_bits=12, output_bits=16, delta=8 / 64)
    noise = FxpLaplaceRng(datapath, 16.0).exact_pmf()
    # Range [0, 8] in codes 0..64, a generous guarded window.
    from repro.privacy import calibrate_threshold_exact

    codes = [0, 32, 64]
    t = calibrate_threshold_exact(noise, codes, 1.0, mode="threshold")
    k_th = int(round(t / noise.step))
    return DiscreteMechanismFamily.additive(
        noise, codes, window=(-k_th, 64 + k_th), mode="threshold"
    )


class TestSegmentTable:
    def test_offset_of(self):
        table = SegmentTable(k_m=0, k_M=10, segments=(Segment(0, 0.5), Segment(5, 1.0)))
        assert table.offset_of(5) == 0
        assert table.offset_of(12) == 2
        assert table.offset_of(-3) == 3

    def test_loss_lookup(self):
        table = SegmentTable(k_m=0, k_M=10, segments=(Segment(0, 0.5), Segment(5, 1.0)))
        losses = table.losses_for_outputs(np.array([10, 14, -5]))
        assert losses.tolist() == [0.5, 1.0, 1.0]

    def test_loss_beyond_table_raises(self):
        table = SegmentTable(k_m=0, k_M=10, segments=(Segment(0, 0.5),))
        with pytest.raises(ConfigurationError):
            table.losses_for_outputs(np.array([5, 11]))

    def test_base_loss(self):
        table = SegmentTable(k_m=0, k_M=10, segments=(Segment(0, 0.4), Segment(3, 0.9)))
        assert table.base_loss == 0.4

    def test_offsets_must_ascend(self):
        with pytest.raises(ConfigurationError):
            SegmentTable(k_m=0, k_M=1, segments=(Segment(5, 1.0), Segment(2, 0.5)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentTable(k_m=0, k_M=1, segments=())

    def test_describe_rows(self):
        table = SegmentTable(k_m=0, k_M=10, segments=(Segment(0, 0.5), Segment(4, 1.0)))
        rows = table.describe(delta=0.5)
        assert len(rows) == 2
        assert "loss" in rows[0]


class TestBuildSegmentTable:
    def test_segments_cover_window(self, guarded_family):
        table = build_segment_table(guarded_family, 0.5, levels=[1.0, 1.5, 2.0])
        codes = guarded_family.output_codes
        max_off = max(table.offset_of(int(codes[0])), table.offset_of(int(codes[-1])))
        assert table.segments[-1].max_offset_codes >= max_off

    def test_losses_ascend(self, guarded_family):
        table = build_segment_table(guarded_family, 0.5, levels=[1.0, 1.5, 2.0])
        losses = [s.loss for s in table.segments]
        assert losses == sorted(losses)

    def test_segment_loss_bounds_profile(self, guarded_family):
        # Every output's profile loss is <= its segment's charged loss.
        table = build_segment_table(guarded_family, 0.5, levels=[1.0, 1.5, 2.0])
        profile = guarded_family.loss_profile()
        charged = table.losses_for_outputs(guarded_family.output_codes)
        reached = ~np.isnan(profile)
        assert np.all(profile[reached] <= charged[reached] + 1e-9)

    def test_base_segment_is_in_range_loss(self, guarded_family):
        table = build_segment_table(guarded_family, 0.5, levels=[1.0, 2.0])
        profile = guarded_family.loss_profile()
        codes = guarded_family.output_codes
        in_range = profile[(codes >= table.k_m) & (codes <= table.k_M)]
        assert table.base_loss == pytest.approx(float(np.nanmax(in_range)))

    def test_insufficient_levels_rejected(self, guarded_family):
        with pytest.raises(ConfigurationError):
            build_segment_table(guarded_family, 0.5, levels=[1.01])

    def test_levels_must_ascend(self, guarded_family):
        with pytest.raises(ConfigurationError):
            build_segment_table(guarded_family, 0.5, levels=[2.0, 1.0])

    def test_more_levels_finer_table(self, guarded_family):
        coarse = build_segment_table(guarded_family, 0.5, levels=[2.0])
        fine = build_segment_table(
            guarded_family, 0.5, levels=[1.1, 1.25, 1.5, 1.75, 2.0]
        )
        assert len(fine.segments) >= len(coarse.segments)
