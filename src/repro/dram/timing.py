"""Device timing parameter sets.

All values are in memory-controller clock cycles (tCK).  The DDR4-2400
numbers follow Table 2 of the paper (CL-nRCD-nRP = 17-17-17,
nRTR-nCCDS-nCCDL = 2-4-6) filled out with standard JEDEC DDR4-2400 values
for the parameters the table omits.  The RRAM set models the paper's
crossbar substrate (CL-nRCD-nRP = 17-35-1) with the long-write behaviour of
resistive memory taken from the NVMain/ISCA'09 PCM-style models the paper
cites.

The mode-switch delay of SAM (``tMOD_IO``) equals the rank-to-rank delay
(tRTR = 2 CK) per Section 5.3 of the paper.

Subarray-level parallelism (SALP, Kim et al. ISCA'12) adds two
parameters.  ``tRA`` paces back-to-back ACTs to *different subarrays of
the same bank* (the global row-address latch and wordline drivers are
shared, so the second ACT must wait a short re-arm delay instead of the
full tRP precharge of the first subarray).  ``tSA_SEL`` is the
subarray-select delay of MASA: re-designating which activated subarray
drives the shared global bitlines costs one control-register write
before the next column command.  Both default to values in the tRRD/tRTR
class so every preset is SALP-capable without redefining it.  The
default one-subarray bank runs the same gates, but neither binds it:
it has no SA_SEL, and its next ACT already waits tRAS + tRP after the
last one, which every preset keeps at or above ``tRA``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TimingParams:
    """Timing constraints for one memory technology, in clock cycles."""

    name: str
    tck_ns: float  # clock period in nanoseconds
    # Row commands
    tRCD: int  # ACT -> column command
    tRP: int  # PRE -> ACT
    tRAS: int  # ACT -> PRE
    tRRD_S: int  # ACT -> ACT, different bank group
    tRRD_L: int  # ACT -> ACT, same bank group
    tFAW: int  # four-activate window
    # Column commands
    CL: int  # read latency
    CWL: int  # write latency
    tBL: int  # burst occupancy on the data bus (8 beats = 4 clocks)
    tCCD_S: int  # CAS -> CAS, different bank group
    tCCD_L: int  # CAS -> CAS, same bank group
    tRTP: int  # read -> precharge
    tWR: int  # write recovery (end of write data -> precharge)
    tWTR: int  # write -> read turnaround, same rank
    tRTW: int  # read -> write turnaround bubble on the data bus
    tRTR: int  # rank-to-rank data bus switch
    # Maintenance
    tREFI: int  # refresh interval
    tRFC: int  # refresh cycle time
    # SAM extension: I/O mode (stride mode) switch delay, == tRTR per paper
    tMOD_IO: int
    # SALP extension (fields must stay last: every earlier field is
    # default-less and positional call sites exist)
    tRA: int = 4  # ACT -> ACT, same bank, different subarray
    tSA_SEL: int = 2  # MASA subarray re-designation -> column command

    def ns(self, cycles: int) -> float:
        """Convert a cycle count to nanoseconds."""
        return cycles * self.tck_ns

    def scaled(self, name: str, factor: float) -> "TimingParams":
        """Return a copy with array-latency parameters scaled by ``factor``.

        Used to model area-overhead-induced latency growth (Section 6.1:
        "latency parameters, such as tRCD, tAL, etc, are increased
        proportionally to the area overhead").  Bus-related parameters are
        left untouched because the I/O interface is unchanged.
        """
        def s(v: int) -> int:
            return max(1, round(v * factor))

        return replace(
            self,
            name=name,
            tRCD=s(self.tRCD),
            tRP=s(self.tRP),
            tRAS=s(self.tRAS),
        )


#: DDR4-2400 per Table 2 (1200 MHz clock, tCK = 0.833 ns).
DDR4_2400 = TimingParams(
    name="DDR4-2400",
    tck_ns=0.833,
    tRCD=17,
    tRP=17,
    tRAS=39,
    tRRD_S=4,
    tRRD_L=6,
    tFAW=26,
    CL=17,
    CWL=12,
    tBL=4,
    tCCD_S=4,
    tCCD_L=6,
    tRTP=9,
    tWR=18,
    tWTR=9,
    tRTW=3,
    tRTR=2,
    tREFI=9360,  # 7.8 us
    tRFC=420,  # 350 ns for an 8Gb device
    tMOD_IO=2,
    tRA=4,  # shared row-logic re-arm, tRRD_S class
    tSA_SEL=2,  # designation switch, tRTR class
)

#: RRAM substrate per Table 2 (CL-nRCD-nRP: 17-35-1) on the same DDR4-2400
#: interface.  Reads are slower to activate (tRCD 35); precharge is nearly
#: free (no destructive read, tRP 1); writes are long (SET/RESET pulses),
#: modelled with a large write-recovery time; there is no refresh.
RRAM = TimingParams(
    name="RRAM",
    tck_ns=0.833,
    tRCD=35,
    tRP=1,
    tRAS=36,
    tRRD_S=4,
    tRRD_L=6,
    tFAW=26,
    CL=17,
    CWL=12,
    tBL=4,
    tCCD_S=4,
    tCCD_L=6,
    tRTP=9,
    tWR=120,  # ~100 ns SET/RESET pulse
    tWTR=24,
    tRTW=3,
    tRTR=2,
    tREFI=0,  # non-volatile: no refresh
    tRFC=0,
    tMOD_IO=2,
    tRA=4,
    tSA_SEL=2,
)

PRESETS = {p.name: p for p in (DDR4_2400, RRAM)}


def preset(name: str) -> TimingParams:
    """Look up a timing preset by name (``DDR4-2400`` or ``RRAM``)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown timing preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
