"""ECC substrate: chipkill (SSC / SSC-DSD), layouts, injection."""

from .chipkill import (
    ChipAlignedSSC,
    CorrectionReport,
    SSCCodec,
    SSCDSDCodec,
    decode_line,
    encode_line,
    sector_chip_symbols,
    sector_from_chip_symbols,
)
from .gf import GF, field
from .injection import (
    FAULT_MODELS,
    FaultModel,
    ReliabilityTally,
    run_campaign,
    unprotected_tally,
)
from .layout import (
    CodewordCheck,
    check_codewords,
    gs_dram_gather_check,
    regular_transfer_check,
    sam_gather_check,
)
from .rs import DecodeFailure, DecodeResult, ReedSolomon

__all__ = [
    "ChipAlignedSSC",
    "CorrectionReport",
    "sector_chip_symbols",
    "sector_from_chip_symbols",
    "SSCCodec",
    "SSCDSDCodec",
    "decode_line",
    "encode_line",
    "GF",
    "field",
    "FAULT_MODELS",
    "FaultModel",
    "ReliabilityTally",
    "run_campaign",
    "unprotected_tally",
    "CodewordCheck",
    "check_codewords",
    "gs_dram_gather_check",
    "regular_transfer_check",
    "sam_gather_check",
    "DecodeFailure",
    "DecodeResult",
    "ReedSolomon",
]
