"""Sector cache hierarchy (valid/dirty bits per 16B chipkill codeword)."""

from .hierarchy import CacheHierarchy, HierarchyConfig
from .sector import Eviction, SectorCache, full_mask

__all__ = [
    "CacheHierarchy",
    "HierarchyConfig",
    "Eviction",
    "SectorCache",
    "full_mask",
]
