"""Scheme registry: name -> factory for every evaluated design."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..dram.geometry import Geometry
from .baseline import BaselineScheme, ColumnStoreScheme
from .gs_dram import GSDRAMEccScheme, GSDRAMScheme
from .rc_nvm import RCNVMBitScheme, RCNVMWordScheme
from .salp import MASAScheme, SALP1Scheme, SALP2Scheme, SAMEnMASAScheme
from .sam import SAMEnScheme, SAMIOScheme, SAMSubScheme
from .scheme import AccessScheme
from .subrank import SubRankScheme

_FACTORIES: Dict[str, Callable[..., AccessScheme]] = {
    "baseline": BaselineScheme,
    "column-store": ColumnStoreScheme,
    "SAM-sub": SAMSubScheme,
    "SAM-IO": SAMIOScheme,
    "SAM-en": SAMEnScheme,
    "GS-DRAM": GSDRAMScheme,
    "GS-DRAM-ecc": GSDRAMEccScheme,
    "RC-NVM-bit": RCNVMBitScheme,
    "RC-NVM-wd": RCNVMWordScheme,
    "sub-rank": SubRankScheme,
    "salp1": SALP1Scheme,
    "salp2": SALP2Scheme,
    "masa": MASAScheme,
    "SAM-en+masa": SAMEnMASAScheme,
}

#: Designs without strided-access hardware: a ``gather_factor`` is
#: meaningless for them and :func:`make_scheme` rejects non-default ones.
#: (The pure SALP schemes keep the stock interface; SAM-en+masa composes
#: MASA with SAM-en's stride hardware and stays stride-capable.)
_NO_STRIDE = frozenset({
    "baseline", "column-store", "sub-rank", "salp1", "salp2", "masa",
})

#: The gather factors a stride-capable design simulates: elements per
#: burst at the paper's 16-, 8- and 4-bit chipkill granularities.  Each
#: one tiles a 64-byte line with whole sectors.
GATHER_FACTORS = (2, 4, 8)

#: The designs of the SALP interaction sweep (``repro salp``): the three
#: SALP flavours alone, SAM-en alone, and the composed design.
SALP_DESIGNS = (
    "salp1",
    "salp2",
    "masa",
    "SAM-en",
    "SAM-en+masa",
)

#: The designs plotted in Figure 12, in the paper's legend order.
FIGURE12_DESIGNS = (
    "RC-NVM-bit",
    "RC-NVM-wd",
    "GS-DRAM",
    "GS-DRAM-ecc",
    "SAM-sub",
    "SAM-IO",
    "SAM-en",
)


def available_schemes() -> List[str]:
    return sorted(_FACTORIES)


def stride_gather(name: str, gather_factor: Optional[int]) -> Optional[int]:
    """The gather factor to pass :func:`make_scheme` for ``name``:
    ``gather_factor`` on stride-capable designs, ``None`` on the rest."""
    return None if name in _NO_STRIDE else gather_factor


def make_scheme(
    name: str,
    geometry: Optional[Geometry] = None,
    gather_factor: Optional[int] = None,
) -> AccessScheme:
    """Instantiate a design by name.

    ``gather_factor`` sets the strided granularity for stride-capable
    designs: 8 elements/burst at the 4-bit SSC-DSD granularity (the
    default of Figure 12), 4 at 8-bit SSC, 2 at 16-bit; any other factor
    raises ``ValueError``.  Designs without strided hardware
    (``baseline``, ``column-store``, ``sub-rank`` and the pure SALP
    designs) reject any non-default gather factor instead of silently
    ignoring it.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None
    if name in _NO_STRIDE:
        if gather_factor not in (None, 1):
            raise ValueError(
                f"scheme {name!r} has no strided access hardware and "
                f"cannot honor gather_factor={gather_factor}; omit the "
                f"gather factor (or pass 1) for "
                f"{sorted(_NO_STRIDE)}"
            )
        return factory(geometry)
    if gather_factor is None:
        return factory(geometry)
    if gather_factor not in GATHER_FACTORS:
        raise ValueError(
            f"scheme {name!r} cannot simulate gather_factor={gather_factor}; "
            f"the valid gather factors are {GATHER_FACTORS}"
        )
    return factory(geometry, gather_factor=gather_factor)
