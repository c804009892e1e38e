"""Tests for repro.models.pipeline (Section 6.1.2 extension)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.pipeline import PipelineEstimate, estimate_pipeline


def _model(layers=8, batch=8) -> ModelConfig:
    return ModelConfig(name="m", hidden=1024, seq_len=512, batch=batch,
                       num_layers=layers, num_heads=16)


class TestBubbleFraction:
    """The estimate's bubble is GPipe's ``(PP - 1) / (M + PP - 1)`` of
    the pipelined compute."""

    @staticmethod
    def _bubble(multinode, pp, microbatches):
        estimate = estimate_pipeline(_model(batch=64),
                                     ParallelConfig(tp=4, pp=pp), multinode,
                                     microbatches=microbatches)
        return estimate.bubble_time / (estimate.stage_time
                                       + estimate.bubble_time)

    def test_gpipe_formula(self, multinode):
        assert self._bubble(multinode, 4, 4) == pytest.approx(3 / 7)

    def test_single_stage_bubble_free(self, multinode):
        assert self._bubble(multinode, 1, 1) == 0.0

    def test_many_microbatches_shrink_bubble(self, multinode):
        assert self._bubble(multinode, 8, 64) < self._bubble(multinode, 8, 4)

    def test_validation(self, multinode):
        with pytest.raises(ValueError):
            self._bubble(multinode, 4, 0)
        with pytest.raises(ValueError):
            self._bubble(multinode, 3, 4)


class TestEstimate:
    def test_iteration_sums_components(self, multinode):
        estimate = estimate_pipeline(_model(), ParallelConfig(tp=4, pp=4),
                                     multinode, microbatches=4)
        assert estimate.iteration_time == pytest.approx(
            estimate.stage_time + estimate.p2p_time + estimate.bubble_time
        )

    def test_microbatching_reduces_bubble_share(self, multinode):
        parallel = ParallelConfig(tp=4, pp=4)
        few = estimate_pipeline(_model(), parallel, multinode,
                                microbatches=1)
        many = estimate_pipeline(_model(), parallel, multinode,
                                 microbatches=8)
        assert many.bubble_fraction_of_iteration < (
            few.bubble_fraction_of_iteration
        )

    def test_more_stages_more_p2p(self, multinode):
        two = estimate_pipeline(_model(), ParallelConfig(tp=4, pp=2),
                                multinode, microbatches=4)
        four = estimate_pipeline(_model(), ParallelConfig(tp=4, pp=4),
                                 multinode, microbatches=4)
        assert four.p2p_time > two.p2p_time

    def test_no_pipeline_is_overhead_free(self, multinode):
        estimate = estimate_pipeline(_model(), ParallelConfig(tp=4, pp=1),
                                     multinode, microbatches=1)
        assert estimate.p2p_time == 0.0
        assert estimate.bubble_time == 0.0
        assert estimate.comm_fraction == 0.0

    def test_rejects_uneven_layer_split(self, multinode):
        with pytest.raises(ValueError, match="divisible"):
            estimate_pipeline(_model(layers=6), ParallelConfig(tp=4, pp=4),
                              multinode)

    def test_rejects_uneven_microbatches(self, multinode):
        with pytest.raises(ValueError, match="microbatches"):
            estimate_pipeline(_model(batch=8), ParallelConfig(tp=4, pp=2),
                              multinode, microbatches=3)

    def test_zero_iteration_properties(self):
        estimate = PipelineEstimate(stage_time=0.0, p2p_time=0.0,
                                    bubble_time=0.0)
        assert estimate.bubble_fraction_of_iteration == 0.0
        assert estimate.comm_fraction == 0.0
