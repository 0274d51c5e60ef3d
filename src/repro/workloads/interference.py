"""Background interference model for the Bernstein case study.

Bernstein's attack (paper §6.1.1) needs no co-located attacker: the
victim's *own* other memory activity (application buffers, OS services,
network stack) deterministically evicts some AES T-table lines, making
encryption time depend on which table entries each input selects.

We model that activity as a set of buffer regions walked between
encryptions, split by owner:

* **same-process** regions (the victim application's own buffers) —
  their conflicts with the T-tables are what RPCache does *not*
  randomize, and
* **other-process** regions (OS / services, a different pid) — the
  interference RPCache randomizes away.

Each region is one contiguous, page-contained buffer, so under Random
Modulo placement every region maps through its own page permutation —
exactly the situation §4 of the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.trace import Trace


@dataclass(frozen=True)
class Region:
    """One contiguous buffer walked once per background interval."""

    base: int
    size: int
    #: "same" = victim-application buffer, "other" = OS/service buffer.
    role: str = "same"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("region size must be positive")
        if self.base < 0:
            raise ValueError("region base must be non-negative")
        if self.role not in ("same", "other"):
            raise ValueError(f"role must be 'same' or 'other', got {self.role!r}")

    def line_addresses(self, line_size: int) -> List[int]:
        return list(range(self.base, self.base + self.size, line_size))


@dataclass(frozen=True)
class BackgroundWorkload:
    """Deterministic non-AES memory activity around each encryption."""

    regions: Tuple[Region, ...]
    line_size: int = 32

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("need at least one region")
        if self.line_size <= 0:
            raise ValueError("line_size must be positive")

    def _trace_for_role(self, role: str, pid: int, name: str) -> Trace:
        trace = Trace(name=name)
        for region in self.regions:
            if region.role != role:
                continue
            for address in region.line_addresses(self.line_size):
                trace.load(address, pid=pid)
        return trace

    def same_process_trace(self, pid: int) -> Trace:
        """The victim application's own buffer walks."""
        return self._trace_for_role("same", pid, "bg_same_process")

    def other_process_trace(self, pid: int) -> Trace:
        """The OS/service buffer walks (foreign pid)."""
        return self._trace_for_role("other", pid, "bg_other_process")

    def trace(self, victim_pid: int, other_pid: int) -> Trace:
        """Both roles, application buffers first then OS (one interval)."""
        combined = Trace(name="bg_combined")
        combined.extend(self.same_process_trace(victim_pid))
        combined.extend(self.other_process_trace(other_pid))
        return combined

    @property
    def total_lines(self) -> int:
        return sum(r.size // self.line_size for r in self.regions)


def windowed_background(
    window_lines: int, line_size: int = 32, num_sets: int = 128
) -> BackgroundWorkload:
    """Ablation variant: two full sweeps plus parametric windows.

    The interference-intensity ablation sweeps the eviction-window
    width: 0 lines = idle system (full sweeps only, nothing evicted),
    otherwise two same-process windows over sets 84.. and two
    other-process windows over sets 40.. of ``window_lines`` lines
    each.  The Bernstein signal appears and grows with the width.
    """
    if window_lines < 0:
        raise ValueError("window_lines must be non-negative")
    way_bytes = num_sets * line_size

    def page(index: int) -> int:
        return 0x0018_0000 + index * 0x1_0000

    regions = [Region(base=page(0), size=2 * way_bytes, role="same")]
    if window_lines:
        size = window_lines * line_size
        regions += [
            Region(base=page(2) + 84 * line_size, size=size, role="same"),
            Region(base=page(3) + 84 * line_size, size=size, role="same"),
            Region(base=page(4) + 40 * line_size, size=size, role="other"),
            Region(base=page(5) + 40 * line_size, size=size, role="other"),
        ]
    return BackgroundWorkload(regions=tuple(regions), line_size=line_size)


def bernstein_background(
    line_size: int = 32, num_sets: int = 128
) -> BackgroundWorkload:
    """The case-study background interference of Figure 5.

    Region layout against the 4-way L1 of §6.1.2, whose sets 0..31
    hold two AES table lines (the 5 KB of tables wrap the 4 KB way)
    and sets 32..127 hold one:

    * ``app_main`` — two full sweeps: +2 lines in every set.  Raises
      every set to 3-4 occupied ways without evicting anything.
    * ``app_scratch_*`` — +2 lines over sets 84..87 and 92..95:
      5-deep pressure there, evicting the table lines of those sets
      (lines 20..23 and 28..31 of Te2).  Same-process: these evictions
      survive RPCache.
    * ``os_buf_*`` — +2 lines over sets 40..43 and 52..55: evicts the
      table lines of those sets (lines 8..11 and 20..23 of Te1).
      Other-process: RPCache randomizes these away; deterministic
      caches leak them.

    Windows are kept narrow (4 lines) and scattered for two reasons:
    the XOR-shift autocorrelation of narrow, non-contiguous cold
    ranges is sharp, giving the attack the same few-values-slower
    spikes as the paper's Figure 4, and the OS working set stays small
    enough that RPCache's randomized-eviction noise attenuates rather
    than buries the remaining signal at the sample counts this
    reproduction runs (the paper's 10^7-sample campaigns average
    arbitrarily large noise away).  Under modulo
    placement the resulting leak covers the bytes using Te1 and Te2 —
    half of the 16 key bytes, matching the paper's deterministic
    result.

    Under modulo placement the resulting cold pattern is *partial* on
    Te1, Te2 and Te3 — the differential Bernstein's attack needs.
    """
    way_bytes = num_sets * line_size

    def page(index: int) -> int:
        return 0x0018_0000 + index * 0x1_0000

    window = 4 * line_size
    regions = (
        Region(base=page(0), size=2 * way_bytes, role="same"),
        Region(base=page(2) + 84 * line_size, size=window, role="same"),
        Region(base=page(3) + 84 * line_size, size=window, role="same"),
        Region(base=page(2) + 92 * line_size, size=window, role="same"),
        Region(base=page(3) + 92 * line_size, size=window, role="same"),
        Region(base=page(4) + 40 * line_size, size=window, role="other"),
        Region(base=page(5) + 40 * line_size, size=window, role="other"),
        Region(base=page(4) + 52 * line_size, size=window, role="other"),
        Region(base=page(5) + 52 * line_size, size=window, role="other"),
    )
    return BackgroundWorkload(regions=regions, line_size=line_size)
