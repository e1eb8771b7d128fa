"""OS support: stride-mode virtual-to-physical remapping (Figure 10).

This is the model of the paper's Section 5.2 OS mapping; no simulation
calls it.  The simulator works on physical addresses, which
:mod:`repro.core.placements` lays out directly from Figure 11.
"""

from .stride_mapping import (
    PAGE_SIZE,
    PageTable,
    StrideMapping,
    sam_io_mapping,
    sam_sub_mapping,
)

__all__ = [
    "PAGE_SIZE",
    "PageTable",
    "StrideMapping",
    "sam_io_mapping",
    "sam_sub_mapping",
]
