"""Figure 4: per-input-byte-value timing variation on the deterministic
setup.

The paper plots, for input byte 4, the mean execution time deviation of
each of the 256 values: a handful of values run measurably slower,
which is the raw material of Bernstein's attack.  Our memory layout
leaks through the bytes whose first-round lookups use Te1/Te2 (j % 4 in
{1, 2}); we plot byte 5 and verify byte 0 (Te0, never evicted) is flat.

The data is the victim profile of the named ``bernstein`` campaign's
deterministic cell (Figure 5's first panel), so this figure shares
that cell's spec hash and result-cache entry.
"""

import numpy as np
import pytest

from repro.attack.bernstein import TimingProfile
from repro.campaigns import CampaignRunner, bernstein_grid

from benchmarks.reporting import emit

LEAKING_BYTE = 5   # first-round table Te1 (partially evicted)
FLAT_BYTE = 0      # first-round table Te0 (never evicted)


def collect():
    """The named bernstein campaign's deterministic cell."""
    specs = bernstein_grid(setups=("deterministic",))
    return CampaignRunner().run(specs).payloads()[0]


@pytest.mark.benchmark(group="fig4")
def test_fig4_timing_variation(benchmark):
    payload = benchmark.pedantic(collect, rounds=1, iterations=1)
    profile = TimingProfile.from_sums(payload.victim_sums)
    leaking = profile.deviations[LEAKING_BYTE]
    flat = profile.deviations[FLAT_BYTE]

    slowest = np.argsort(leaking)[-8:][::-1]
    lines = [
        f"samples: {payload.victim_sums.num_samples}  "
        f"mean time: {profile.global_mean:.1f} cycles",
        f"byte {LEAKING_BYTE} deviation range: "
        f"[{leaking.min():+.2f}, {leaking.max():+.2f}] cycles",
        f"byte {FLAT_BYTE} deviation range:  "
        f"[{flat.min():+.2f}, {flat.max():+.2f}] cycles (control)",
        "slowest byte-{} values: {}".format(
            LEAKING_BYTE, ", ".join(f"{v:3d} ({leaking[v]:+.2f})"
                                    for v in slowest)
        ),
    ]
    # Coarse ASCII series in 16-value buckets, like the paper's plot.
    buckets = leaking.reshape(16, 16).mean(axis=1)
    scale = max(abs(buckets).max(), 1e-9)
    bars = "".join(
        "#" if b > 0.5 * scale else ("+" if b > 0.15 * scale else ".")
        for b in buckets
    )
    lines.append(f"byte {LEAKING_BYTE} profile (16-value buckets): |{bars}|")
    emit("Figure 4: timing variation per value of one input byte "
         "(deterministic cache)", lines)

    # The leaking byte shows clear structure; the control byte does
    # not.  Compared by standard deviation: the range of the control
    # byte is an extreme-value statistic over its (real but diffuse)
    # second-round structure, which made the old range-based bound
    # flaky across RNG streams.
    assert leaking.std() > 2 * flat.std()
    # The slow values form a minority group (partial eviction).
    threshold = leaking.mean() + (leaking.max() - leaking.mean()) / 2
    assert 4 <= int((leaking > threshold).sum()) <= 96
