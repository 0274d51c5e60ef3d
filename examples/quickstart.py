#!/usr/bin/env python3
"""Quickstart: the TSCache in five minutes.

Walks the package's layers bottom-up:

1. build the paper's ARM920T-like cache hierarchy in each of the four
   evaluated configurations,
2. show how random placement changes an address's cache set with the
   seed (and how per-process seeds decouple two tasks),
3. run a tiny Bernstein case study: the deterministic cache leaks key
   material, the TSCache does not.

Run:  python examples/quickstart.py
"""

from repro.core.setups import SETUP_NAMES, make_setup_hierarchy
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.trace import MemoryAccess


def show_hierarchies() -> None:
    print("The four setups of the paper's case study (DAC'18, §6.1.2):")
    for name in SETUP_NAMES:
        hierarchy = make_setup_hierarchy(name)
        print(
            f"  {name:<14} L1: {hierarchy.l1d.placement.name:<14} "
            f"L2: {hierarchy.l2.placement.name:<8} "
            f"({hierarchy.l1d.geometry.total_size // 1024} KB L1, "
            f"{hierarchy.l2.geometry.total_size // 1024} KB L2)"
        )
    print()


def show_random_placement() -> None:
    hierarchy = make_setup_hierarchy("tscache")
    l1 = hierarchy.l1d
    address = 0x0040_0000

    print("Random Modulo placement: one address, different seeds:")
    for seed in (1, 2, 3, 4):
        l1.set_seed(seed)
        cache_set = l1.lookup_set(MemoryAccess(address))
        print(f"  seed {seed}: address {address:#x} -> set {cache_set}")

    print("Per-process seeds (the TSCache mechanism):")
    l1.set_seed(1111, pid=1)
    l1.set_seed(2222, pid=2)
    for pid in (1, 2):
        cache_set = l1.lookup_set(MemoryAccess(address, pid=pid))
        print(f"  process {pid}: address {address:#x} -> set {cache_set}")
    print()


def run_attacks() -> None:
    print("Bernstein's attack, 60k samples per party "
          "(takes a few seconds)...")
    # A two-cell campaign: same keys, one spec per setup.
    specs = [
        ExperimentSpec(
            kind="bernstein",
            setup=name,
            num_samples=60_000,
            seed=7,
            params=(
                ("victim_key", "000102030405060708090a0b0c0d0e0f"),
                ("attacker_key", "6465666768696a6b6c6d6e6f70717273"),
            ),
        )
        for name in ("deterministic", "tscache")
    ]
    for name, result in CampaignRunner().run(specs).by_setup().items():
        print("  " + result.report.summary_row(name))
    print()
    print("The deterministic cache discards key candidates; the TSCache "
          "discards none.")


def main() -> None:
    show_hierarchies()
    show_random_placement()
    run_attacks()


if __name__ == "__main__":
    main()
