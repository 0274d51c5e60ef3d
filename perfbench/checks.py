"""Output checks for the campaign benchmark.

Every cell a workload runs is graded twice:

* **Verdict** — the paper-level claim the cell exists to reproduce
  (Figure 5, Figure 1, §6.2).  Applies at every seed.
* **Reference** — at a campaign's paper seed the simulator is
  deterministic, so every simulated statistic of the cell summary must
  equal the value frozen in ``reference.json``.  Held-out seeds have no
  reference; only the verdicts apply there.

A failing cell counts against ``failed``; ``failed / attempted`` is the
benchmark's ``failed_frac``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional

#: The seed each named campaign uses when ``--seed`` is not given
#: (``repro.campaigns.grids.CAMPAIGNS``).
PAPER_SEEDS: Dict[str, int] = {
    "bernstein": 2018,
    "pwcet": 6,
    "missrates": 0x1234,
    "contention": 2018,
}

#: Cells per campaign grid (a crashed process fails all of them).
GRID_CELLS: Dict[str, int] = {
    "bernstein": 4,
    "pwcet": 4,
    "missrates": 16,
    "contention": 8,
}

#: Accesses in each missrate workload trace
#: (``repro.campaigns.experiments.WORKLOAD_BUILDERS``): stride is
#: 2048 addresses x 3 repeats, the others 12000 accesses each.
TRACE_LENGTHS: Dict[str, int] = {
    "stride": 2048 * 3,
    "reuse": 12000,
    "chase": 12000,
    "random": 12000,
}

#: Setups whose contention cells must leak (§6.2.1): deterministic
#: placement, and MBPTA-only random placement with shared seeds.
CONTENTION_LEAKS = {"deterministic": True, "mbpta": True,
                    "rpcache": False, "tscache": False}

#: At a held-out seed the 5%-level admission flag is itself a coin: on
#: i.i.d. times it fails some setup on about one seed in seven (6 of
#: seeds 0-39 at this revision, lowest p = 0.0018).  There the
#: check asks instead that neither test rejects at this level, which a
#: platform whose times are really dependent or drifting still fails.
HELD_OUT_ALPHA = 0.001

#: Execution-only summary fields that legitimately differ run to run.
VOLATILE_FIELDS = ("elapsed_s", "from_cache")

_REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


def load_reference() -> Dict[str, List[Dict[str, Any]]]:
    with open(_REFERENCE_PATH) as handle:
        return json.load(handle)


def verdict_failure(campaign: str, cell: Mapping[str, Any],
                    held_out: bool) -> Optional[str]:
    """Why ``cell`` contradicts the paper's verdict, or None."""
    setup = cell.get("setup")
    if campaign == "bernstein":
        if setup == "tscache":
            if not cell["key_fully_protected"]:
                return "tscache leaks key bytes"
        elif not cell["leaking_bytes"]:
            return f"{setup} leaks no key byte"
    elif campaign == "contention":
        if cell["leaks"] != CONTENTION_LEAKS[setup]:
            return f"{cell['kind']} on {setup}: leaks={cell['leaks']}"
    elif campaign == "pwcet":
        if not held_out:
            if not cell["compliant"]:
                return f"{setup} not MBPTA-compliant"
        elif min(cell["ljung_box_p"], cell["ks_p"]) < HELD_OUT_ALPHA:
            return f"{setup} rejected at alpha={HELD_OUT_ALPHA}"
    elif campaign == "missrates":
        expected = TRACE_LENGTHS[cell["workload"]]
        if cell["accesses"] != expected:
            return (f"{cell['workload']}/{cell['policy']}: "
                    f"{cell['accesses']} accesses, trace has {expected}")
    return None


def check_campaign(
    campaign: str,
    cells: List[Mapping[str, Any]],
    seed: Optional[int],
    reference: Mapping[str, List[Mapping[str, Any]]],
) -> List[str]:
    """One failure message per failing cell (empty: all correct)."""
    effective = PAPER_SEEDS[campaign] if seed is None else seed
    at_paper_seed = effective == PAPER_SEEDS[campaign]
    size = GRID_CELLS[campaign]
    if len(cells) != size:
        return [f"{campaign}: {len(cells)} cells, grid has {size}"] * size
    failures = []
    expected = reference[campaign] if at_paper_seed else [None] * size
    for cell, frozen in zip(cells, expected):
        problem = verdict_failure(campaign, cell, held_out=not at_paper_seed)
        if problem is None and frozen is not None:
            stats = {k: v for k, v in cell.items()
                     if k not in VOLATILE_FIELDS}
            if stats != frozen:
                changed = sorted(
                    k for k in set(stats) | set(frozen)
                    if stats.get(k) != frozen.get(k)
                )
                label = cell.get("setup") or (
                    f"{cell.get('workload')}/{cell.get('policy')}")
                problem = (f"{cell.get('kind')} {label}: "
                           f"differs from reference in {changed}")
        if problem is not None:
            failures.append(f"{campaign}: {problem}")
    return failures
