"""Bernstein's cache-timing attack on AES (Bernstein [7]; paper §6.1.1).

The attack needs no co-located attacker process.  It proceeds in two
phases:

1. **Study** (attacker's own machine, known key ``k_a``): encrypt many
   random plaintexts and record, for every byte position ``j`` and
   every *table input* ``t = p[j] ^ k_a[j]``, the mean encryption time.
   This timing profile captures how the machine's cache layout makes
   certain table entries slower.

2. **Attack** (victim's timings, unknown key ``k_v``): build the same
   per-position profile indexed by the *plaintext* value, then for
   every candidate ``c`` correlate the victim profile against the
   study profile shifted by ``c``.  When victim and attacker machines
   share the cache layout, the correlation peaks at ``c = k_v[j]``.

Candidate selection follows the paper's best-case-attacker rule: for
each byte, use "the most stringent correlation factor so that the
number of combinations preserved is minimized while keeping the
correct value amongst those regarded as feasible" — i.e. keep exactly
the candidates scoring at least as high as the true value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.metrics import ByteAttackOutcome, KeySpaceReport


@dataclass(eq=False)
class ProfileSums:
    """The sums a :class:`TimingProfile` is computed from.

    ``sums[j, v]``, ``sum_squares[j, v]`` and ``counts[j, v]`` are the
    sum of the timings, the sum of their squares and the number of the
    samples whose index byte ``j`` equals ``v``; ``total`` is the sum
    of all timings.  Sums of disjoint sample sets add, so a collection
    can be reduced chunk by chunk and shard by shard in constant
    memory.  The addition is exact, and therefore independent of how
    the samples were split, whenever every partial sum is an integer
    below 2**53: the engine's default timings are whole cycles (1480
    plus 10 per L1 miss), so 10^7 samples stay far inside that range.
    """

    sums: np.ndarray  # (16, 256) float
    sum_squares: np.ndarray  # (16, 256) float
    counts: np.ndarray  # (16, 256) int64
    total: float = 0.0

    @classmethod
    def zeros(cls) -> "ProfileSums":
        return cls(
            sums=np.zeros((16, 256)),
            sum_squares=np.zeros((16, 256)),
            counts=np.zeros((16, 256), dtype=np.int64),
        )

    @classmethod
    def from_samples(
        cls, index_bytes: np.ndarray, timings: np.ndarray
    ) -> "ProfileSums":
        """The sums of one batch of samples (see :meth:`add`)."""
        sums = cls.zeros()
        sums.add(index_bytes, timings)
        return sums

    @property
    def num_samples(self) -> int:
        return int(self.counts[0].sum())

    def add(self, index_bytes: np.ndarray, timings: np.ndarray) -> None:
        """Accumulate a batch of samples in place.

        ``index_bytes`` is ``(N, 16) uint8``, the profile index of each
        sample: plaintext bytes for the victim phase, ``plaintext ^
        key`` for the study phase; ``timings`` is ``(N,)``.
        """
        if index_bytes.ndim != 2 or index_bytes.shape[1] != 16:
            raise ValueError("index_bytes must have shape (N, 16)")
        if timings.shape != (index_bytes.shape[0],):
            raise ValueError("timings length must match index_bytes rows")
        timings = timings.astype(float)
        squared = timings * timings
        # One contiguous row per byte position: bincount reads it
        # without a strided gather.
        for j, column in enumerate(np.ascontiguousarray(index_bytes.T)):
            self.sums[j] += np.bincount(column, weights=timings,
                                        minlength=256)
            self.sum_squares[j] += np.bincount(column, weights=squared,
                                               minlength=256)
            self.counts[j] += np.bincount(column, minlength=256)
        self.total += float(timings.sum())

    def __add__(self, other: "ProfileSums") -> "ProfileSums":
        return ProfileSums(
            sums=self.sums + other.sums,
            sum_squares=self.sum_squares + other.sum_squares,
            counts=self.counts + other.counts,
            total=self.total + other.total,
        )


@dataclass(frozen=True)
class TimingProfile:
    """Per-(byte position, byte value) mean timing deviations.

    ``deviations[j, v]`` is the mean execution time of samples whose
    indexing byte ``j`` equals ``v``, minus the global mean; ``counts``
    carries the per-cell sample counts and ``mean_variances`` the
    variance *of each cell mean* (sample variance / count) — the
    sampling noise the significance grading needs.
    """

    deviations: np.ndarray  # (16, 256) float
    counts: np.ndarray  # (16, 256) int
    global_mean: float
    mean_variances: np.ndarray  # (16, 256) float

    def __post_init__(self) -> None:
        for name in ("deviations", "counts", "mean_variances"):
            if getattr(self, name).shape != (16, 256):
                raise ValueError(f"{name} must have shape (16, 256)")

    @classmethod
    def from_sums(cls, sums: ProfileSums) -> "TimingProfile":
        """The profile of the samples ``sums`` was accumulated from."""
        num_samples = sums.num_samples
        if num_samples == 0:
            raise ValueError("a profile needs at least one sample")
        global_mean = sums.total / num_samples
        counts = sums.counts.astype(np.int64)
        seen = counts > 0
        means = sums.sums[seen] / counts[seen]
        deviations = np.zeros((16, 256))
        deviations[seen] = means - global_mean
        cell_var = np.maximum(
            sums.sum_squares[seen] / counts[seen] - means ** 2, 0.0
        )
        mean_variances = np.zeros((16, 256))
        mean_variances[seen] = cell_var / counts[seen]
        return cls(deviations=deviations, counts=counts,
                   global_mean=global_mean, mean_variances=mean_variances)

    def row(self, byte_index: int) -> np.ndarray:
        return self.deviations[byte_index]


def profile_from_samples(
    index_bytes: np.ndarray, timings: np.ndarray
) -> TimingProfile:
    """Build a :class:`TimingProfile` from raw measurements.

    Parameters
    ----------
    index_bytes:
        ``(N, 16) uint8`` — the profile index per sample: plaintext
        bytes for the victim phase, ``plaintext ^ key`` for the study
        phase.
    timings:
        ``(N,)`` execution times.
    """
    return TimingProfile.from_sums(
        ProfileSums.from_samples(index_bytes, timings)
    )


@dataclass(frozen=True)
class BernsteinResult:
    """Outcome of the correlation phase."""

    report: KeySpaceReport
    #: Correlation matrix: scores[j, c] for candidate c of byte j.
    scores: np.ndarray
    best_guess: bytes

    @property
    def recovered_key(self) -> bytes:
        """Highest-scoring candidate per byte (the attack's key guess)."""
        return self.best_guess


class BernsteinAttack:
    """Correlate a study profile against a victim profile.

    Candidate elimination is two-staged, matching the paper's §6.1.1
    methodology and its Figure 5 outcomes:

    1. **Leak detection.**  A byte position carries signal only when
       the spread of its candidate scores exceeds what profile
       sampling noise alone explains; ``detection_gate`` is the
       required ratio of observed score spread to the analytic null
       standard deviation (:meth:`score_noise_sigma`).  On a leak-free
       setup every byte fails the gate and every value survives — the
       all-grey TSCache panel — instead of crediting the attacker with
       coin-flip discards.
    2. **Best-case thresholding.**  For detected bytes, the paper's
       rule applies: "the most stringent correlation factor so that
       the number of combinations preserved is minimized while keeping
       the correct value" — i.e. exactly the candidates scoring at
       least as high as the true value survive.
    """

    def __init__(self, study: TimingProfile, victim: TimingProfile,
                 detection_gate: float = 1.25) -> None:
        if detection_gate < 0:
            raise ValueError("detection_gate must be non-negative")
        self.study = study
        self.victim = victim
        self.detection_gate = detection_gate

    def candidate_scores(self, byte_index: int) -> np.ndarray:
        """Correlation score of every candidate value for one byte.

        ``score[c] = sum_v study[v ^ c] * victim[v]`` — the inner
        product of the victim's per-plaintext-value profile with the
        study profile shifted by the candidate key byte (Bernstein's
        original statistic).
        """
        study_row = self.study.row(byte_index)
        victim_row = self.victim.row(byte_index)
        values = np.arange(256, dtype=np.int64)
        scores = np.empty(256, dtype=float)
        for candidate in range(256):
            scores[candidate] = float(
                np.dot(study_row[values ^ candidate], victim_row)
            )
        return scores

    def score_noise_sigma(self, byte_index: int) -> float:
        """Standard deviation of a candidate score under the null.

        If study and victim profiles were uncorrelated, the score is a
        sum of products of a fixed profile with the other profile's
        sampling noise; propagating both sides gives
        ``Var = sum_v A[v]^2 VarV[v] + V[v]^2 VarA[v]`` (the shift by
        the candidate permutes terms without changing the sum's
        magnitude materially).
        """
        study_row = self.study.row(byte_index)
        victim_row = self.victim.row(byte_index)
        study_var = self.study.mean_variances[byte_index]
        victim_var = self.victim.mean_variances[byte_index]
        variance = float(
            np.dot(study_row * study_row, victim_var)
            + np.dot(victim_row * victim_row, study_var)
        )
        return variance ** 0.5

    def run(self, true_key: bytes) -> BernsteinResult:
        """Execute the attack and grade it against the true key.

        The true key is used *only* for grading (selecting the paper's
        best-case threshold and colouring Figure 5); the candidate
        ranking itself never sees it.
        """
        if len(true_key) != 16:
            raise ValueError("true_key must be 16 bytes")
        outcomes = []
        all_scores = np.empty((16, 256), dtype=float)
        best_guess = bytearray(16)
        for j in range(16):
            scores = self.candidate_scores(j)
            all_scores[j] = scores
            best_guess[j] = int(np.argmax(scores))
            true_score = scores[true_key[j]]
            sigma = self.score_noise_sigma(j)
            detected = sigma > 0 and float(scores.std()) > (
                self.detection_gate * sigma
            )
            if detected:
                surviving = frozenset(
                    int(c) for c in np.nonzero(scores >= true_score)[0]
                )
            else:
                surviving = frozenset(range(256))
            outcomes.append(
                ByteAttackOutcome(
                    byte_index=j,
                    true_value=true_key[j],
                    surviving_values=surviving,
                )
            )
        return BernsteinResult(
            report=KeySpaceReport(outcomes=tuple(outcomes)),
            scores=all_scores,
            best_guess=bytes(best_guess),
        )

