"""Sampling substrates: dynamic reservoir and the pooled sample store."""

from .pool import SamplePool
from .reservoir import DynamicReservoir
from .stratified import proportional_allocation_ok

__all__ = ["DynamicReservoir", "SamplePool", "proportional_allocation_ok"]
