"""Sampling substrates: dynamic reservoir and the pooled sample store."""

from .pool import SamplePool
from .reservoir import DynamicReservoir

__all__ = ["DynamicReservoir", "SamplePool"]
