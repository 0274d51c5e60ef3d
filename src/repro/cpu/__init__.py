"""Processor timing model: a 5-stage in-order pipeline cost model
(ARM920T-like, paper §6.1.2)."""

from repro.cpu.pipeline import InOrderPipeline, PipelineConfig

__all__ = [
    "InOrderPipeline",
    "PipelineConfig",
]
