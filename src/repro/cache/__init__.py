"""Sector cache hierarchy (valid/dirty bits per 16B chipkill codeword)."""

from .hierarchy import CacheHierarchy, HierarchyConfig
from .sector import CacheStats, Eviction, SectorCache, full_mask

__all__ = [
    "CacheHierarchy",
    "HierarchyConfig",
    "CacheStats",
    "Eviction",
    "SectorCache",
    "full_mask",
]
