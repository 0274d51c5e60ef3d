"""Shared trial-based engine for contention attacks (§6.2.1).

Prime+Probe and Evict+Time share the same experimental shape: many
independent *trials*, each guessing a secret table index from cache
contention, scored by guessing accuracy against chance.  This module
factors that shape out so both attacks — and any future contention
attack — plug into the campaign engine as shardable experiment kinds:

* :class:`TrialAttack` — the base class.  Each trial draws exclusively
  from a private RNG keyed by its *absolute trial index* (a
  ``SeedSequence`` child of the attack's root, spawn-keyed by
  position), so trial ``t`` produces the same outcome no matter which
  worker executes it, in which shard, or in what order — the property
  that makes sharded collection bit-identical to serial.
* :class:`TrialBlock` — one contiguous block of trial outcomes.
  Blocks merge associatively: :func:`merge_trial_blocks` rebuilds the
  exact serial result from any block-aligned partition, and with
  ``partial=True`` from any contiguous prefix (the streaming-merge /
  early-stopping substrate).
* :func:`sequential_leak_test` — a sequential probability ratio test
  on guessing accuracy vs. chance, the statistical basis for
  partial-driven early stopping: once the leak/no-leak verdict is
  decided, a cell's remaining trial shards carry no information worth
  computing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Callable, Optional, Sequence, Union

import numpy as np

#: Per-trial victim/attacker seed setup hook: ``seed_victim(cache,
#: trial)`` (e.g. give the victim a fresh random seed to model
#: TSCache).  Must be a pure function of the trial index for sharded
#: runs to stay bit-identical to serial ones.
SeedVictimFn = Callable[[object, int], None]

SeedLike = Union[int, np.random.SeedSequence, None]

def as_seed_sequence(seed: SeedLike, default: int = 0) -> np.random.SeedSequence:
    """Normalize an int / ``SeedSequence`` / None to a ``SeedSequence``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(entropy=default if seed is None else int(seed))


@dataclass(frozen=True)
class ContentionResult:
    """Guessing accuracy over many secret-dependent trials."""

    trials: int
    correct: int
    chance_level: float

    @property
    def accuracy(self) -> float:
        return self.correct / self.trials if self.trials else 0.0

    @property
    def leaks(self) -> bool:
        """True when accuracy is meaningfully above chance."""
        return self.accuracy > 3.0 * self.chance_level


@dataclass(frozen=True)
class TrialBlock:
    """Outcomes of trials ``[start, end)`` of a ``total_trials`` budget.

    The merge-associative partial payload of the contention-attack
    experiment kinds: ``correct`` counts add, block ranges tile the
    budget, and every field is a pure function of (attack, range), so
    blocks computed anywhere merge into the serial result.
    """

    start: int
    end: int
    correct: int
    total_trials: int
    chance_level: float

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= self.total_trials:
            raise ValueError(
                f"bad trial range [{self.start}, {self.end}) of "
                f"{self.total_trials}"
            )
        if not 0 <= self.correct <= self.end - self.start:
            raise ValueError(
                f"correct={self.correct} outside block of "
                f"{self.end - self.start} trials"
            )

    @property
    def num_trials(self) -> int:
        return self.end - self.start


def merge_trial_blocks(
    parts: Sequence[TrialBlock],
    *,
    partial: bool = False,
    result_type: type = ContentionResult,
) -> ContentionResult:
    """Rebuild a :class:`ContentionResult` from trial blocks.

    Accepts the blocks in **any** order (they are sorted by start);
    validates that together they tile ``[0, total_trials)`` exactly
    and agree on the budget and chance level.  With ``partial=True``
    the blocks may instead cover a contiguous *prefix* ``[0, k)`` of
    the budget: the result then scores only those ``k`` trials — which
    equal the first ``k`` trials of the full run bit for bit, because
    every trial's randomness is keyed to its absolute index.
    """
    if not parts:
        raise ValueError("no trial blocks to merge")
    ordered = sorted(parts, key=lambda p: p.start)
    first = ordered[0]
    if first.start != 0:
        raise ValueError(f"blocks start at {first.start}, expected 0")
    cursor = 0
    correct = 0
    for block in ordered:
        if block.total_trials != first.total_trials:
            raise ValueError("blocks disagree on the trial budget")
        if block.chance_level != first.chance_level:
            raise ValueError("blocks disagree on the chance level")
        if block.start != cursor:
            raise ValueError(
                f"block starts at {block.start}, expected {cursor} "
                "(gap or overlap)"
            )
        cursor = block.end
        correct += block.correct
    if not partial and cursor != first.total_trials:
        raise ValueError(
            f"blocks cover [0, {cursor}), budget is {first.total_trials}"
        )
    return result_type(
        trials=cursor,
        correct=correct,
        chance_level=first.chance_level,
    )


class TrialAttack:
    """Base class for trial-structured contention attacks.

    Subclasses implement :meth:`run_trial`; this class supplies the
    position-keyed per-trial randomness and the block/shard plumbing.

    Parameters
    ----------
    num_entries:
        Size of the victim's secret index space (sets the chance
        level ``1/num_entries``).
    seed:
        Root of the attack's randomness: an int, a
        :class:`numpy.random.SeedSequence` (e.g. an
        :meth:`ExperimentSpec.seed_sequence` cell stream), or None for
        the subclass default.  Trial ``t`` draws from the child stream
        ``spawn_key + (t,)``, so outcomes depend only on (root, t).

    Blocks run through :mod:`repro.kernels` when the cache is inside
    the vector envelope and through the per-trial loop
    (:meth:`_run_block_scalar`) otherwise.  Outcomes are bit-identical
    either way — the kernel only changes throughput.
    """

    #: Result class produced by :meth:`run` (subclasses override).
    result_type = ContentionResult
    #: Historical default trial budget of :meth:`run`.
    default_trials = 200
    #: Historical default root seed (subclasses override).
    default_seed = 0

    def __init__(self, num_entries: int, seed: SeedLike = None) -> None:
        if num_entries < 2:
            raise ValueError("num_entries must be at least 2")
        self.num_entries = num_entries
        self.seed_root = as_seed_sequence(seed, default=self.default_seed)

    # -- randomness --------------------------------------------------------

    def trial_rng(self, trial: int) -> np.random.Generator:
        """The private RNG of trial ``trial`` (position-keyed)."""
        child = np.random.SeedSequence(
            entropy=self.seed_root.entropy,
            spawn_key=self.seed_root.spawn_key + (trial,),
        )
        return np.random.default_rng(child)

    # -- the experiment ----------------------------------------------------

    def run_trial(
        self,
        rng: np.random.Generator,
        trial: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> bool:
        """One independent trial; True when the attacker guessed right."""
        raise NotImplementedError

    def _run_block_vector(
        self,
        start: int,
        end: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> Optional[int]:
        """Correct-guess count of ``[start, end)`` via the vector
        kernel, or None when the attack has no vector path (base
        class) or falls outside its envelope (subclasses)."""
        return None

    def _run_block_scalar(
        self,
        start: int,
        end: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> int:
        """Correct-guess count of ``[start, end)``, one
        :meth:`run_trial` at a time: the fallback outside the vector
        envelope and the reference the vector kernels are tested
        against."""
        return sum(
            1
            for trial in range(start, end)
            if self.run_trial(self.trial_rng(trial), trial, seed_victim)
        )

    def run_block(
        self,
        start: int,
        end: int,
        total_trials: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> TrialBlock:
        """Outcomes of trials ``[start, end)`` of a bigger budget.

        The shard work function: computing every block of a partition
        (in any order, on any worker) and merging with
        :func:`merge_trial_blocks` reproduces :meth:`run` exactly.
        """
        if not 0 <= start < end <= total_trials:
            raise ValueError(
                f"bad trial range [{start}, {end}) of {total_trials}"
            )
        correct = self._run_block_vector(start, end, seed_victim)
        if correct is None:  # no vector path, or escape hatch taken
            correct = self._run_block_scalar(start, end, seed_victim)
        return TrialBlock(
            start=start,
            end=end,
            correct=correct,
            total_trials=total_trials,
            chance_level=1.0 / self.num_entries,
        )

    def run(
        self,
        trials: Optional[int] = None,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> ContentionResult:
        """Run ``trials`` independent rounds serially."""
        trials = self.default_trials if trials is None else trials
        if trials <= 0:
            return self.result_type(
                trials=0, correct=0, chance_level=1.0 / self.num_entries
            )
        block = self.run_block(0, trials, trials, seed_victim)
        return merge_trial_blocks([block], result_type=self.result_type)


def sequential_leak_test(
    trials: int,
    correct: int,
    chance_level: float,
    *,
    leak_factor: float = 4.0,
    alpha: float = 1e-3,
    beta: Optional[float] = None,
    min_trials: int = 16,
) -> Optional[bool]:
    """Sequential probability ratio test: leaking or at chance?

    Tests H0 "guessing accuracy = chance" against H1 "accuracy =
    ``leak_factor`` x chance" (capped at 0.9) with error rates
    ``alpha`` (false leak) and ``beta`` (missed leak, default
    ``alpha``).  Returns True once a leak is decided, False once
    chance-level guessing is decided, and None while the evidence is
    still inconclusive — the Wald boundaries guarantee the stated
    error rates no matter how often the test is re-evaluated as
    trials accumulate, which is what makes it safe to call on every
    merged shard prefix.
    """
    if not 0.0 < chance_level < 1.0:
        raise ValueError("chance_level must be in (0, 1)")
    if alpha <= 0 or alpha >= 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    beta = alpha if beta is None else beta
    p0 = chance_level
    p1 = min(0.9, leak_factor * chance_level)
    if p1 <= p0:
        raise ValueError("leak_factor must place H1 above chance")
    if trials < min_trials:
        return None
    llr = correct * log(p1 / p0) + (trials - correct) * log(
        (1.0 - p1) / (1.0 - p0)
    )
    if llr >= log((1.0 - beta) / alpha):
        return True
    if llr <= log(beta / (1.0 - alpha)):
        return False
    return None
