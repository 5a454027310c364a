"""Processor models: cores and their write buffers."""

from repro.cpu.processor import Core

__all__ = ["Core"]
