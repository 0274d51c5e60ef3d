"""Tests for the pipeline cost model."""

import pytest

from repro.cpu.pipeline import InOrderPipeline, PipelineConfig


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.num_stages == 5
        assert config.base_cpi == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(num_stages=0)
        with pytest.raises(ValueError):
            PipelineConfig(base_cpi=0)


class TestPipeline:
    def test_execute_charges_cpi(self):
        pipeline = InOrderPipeline()
        pipeline.execute(10)
        assert pipeline.cycles == 10.0
        assert pipeline.instructions == 10

    def test_memory_stall_exposes_latency(self):
        pipeline = InOrderPipeline()
        pipeline.memory_stall(100)
        # 1 instruction slot + 99 stall cycles.
        assert pipeline.cycles == 100.0
        assert pipeline.instructions == 1

    def test_single_cycle_access_no_stall(self):
        pipeline = InOrderPipeline()
        pipeline.memory_stall(1)
        assert pipeline.cycles == 1.0

    def test_branch_refill(self):
        pipeline = InOrderPipeline()
        pipeline.branch(taken=True)
        assert pipeline.cycles == 1.0 + 2
        pipeline.branch(taken=False)
        assert pipeline.cycles == 1.0 + 2 + 1

    def test_drain_costs_stage_count(self):
        pipeline = InOrderPipeline()
        cost = pipeline.drain()
        assert cost == 5
        assert pipeline.cycles == 5.0
        assert pipeline.drains == 1

    def test_cpi(self):
        pipeline = InOrderPipeline()
        pipeline.execute(4)
        pipeline.memory_stall(11)
        assert pipeline.cpi == pytest.approx((4 + 11) / 5)

    def test_reset(self):
        pipeline = InOrderPipeline()
        pipeline.execute(3)
        pipeline.reset()
        assert pipeline.cycles == 0
        assert pipeline.instructions == 0

    def test_negative_inputs_rejected(self):
        pipeline = InOrderPipeline()
        with pytest.raises(ValueError):
            pipeline.execute(-1)
        with pytest.raises(ValueError):
            pipeline.memory_stall(-1)
