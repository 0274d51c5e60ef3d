"""Declarative experiment cells.

An :class:`ExperimentSpec` names everything one grid cell of the
paper's evaluation needs: which experiment *kind* runs (``bernstein``,
``pwcet``, ``missrate``, ...), against which processor *setup*, at what
*sample count*, under which *root seed*, plus kind-specific *params*.

Two derived quantities make the campaign engine work:

* :meth:`ExperimentSpec.spec_hash` — a stable content hash (SHA-256 of
  the canonical JSON form) keying the on-disk result cache.  Unlike
  ``hash()`` it is identical across processes and Python versions.
* :meth:`ExperimentSpec.seed_sequence` — the cell's private
  :class:`numpy.random.SeedSequence`, derived from the root seed and a
  digest of the cell's identity via ``spawn_key``.  Cells of one
  campaign share a root seed yet draw from independent streams, and a
  cell's stream depends only on its spec — never on which worker or in
  what order it executes — so parallel runs are bit-identical to
  serial ones.  (This also fixes the old per-setup salt
  ``sum(ord(c) for c in name) % 1000``, which collided for anagram
  setup names.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

#: Bump to invalidate cached results when cell semantics change.
#: (2: block-keyed engine RNG streams + position-keyed pwcet run
#: seeds — pre-sharding cached payloads are not reproducible by the
#: current engine.  3: the Ljung-Box p-value comes from a closed-form
#: chi-square tail, so cached pwcet payloads' full-precision p-values
#: differ from the old library call's in the last bits.)  The bump changes every
#: spec_hash, so stale entries are simply never looked up again; it
#: does NOT perturb seed_sequence(), which hashes the cell identity
#: without the schema version.
SPEC_SCHEMA_VERSION = 3

ParamItems = Tuple[Tuple[str, Any], ...]

def _freeze_params(params: Any) -> ParamItems:
    if params is None:
        return ()
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    frozen = tuple(sorted((str(k), v) for k, v in items))
    names = [k for k, _ in frozen]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate param names in {names}")
    return frozen


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid."""

    kind: str
    setup: Optional[str] = None
    num_samples: int = 0
    seed: int = 0
    params: ParamItems = field(default=())

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("kind must be a non-empty string")
        if self.num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        object.__setattr__(self, "params", _freeze_params(self.params))
        if any(name == "kernel" for name, _ in self.params):
            # The envelope probe picks the kernel; a leftover hint
            # would silently become part of the cell's identity.
            raise ValueError(
                "the 'kernel' param is not accepted: each cell runs "
                "the vector kernel inside its envelope, scalar outside"
            )

    # -- params ------------------------------------------------------------

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params_dict().get(name, default)

    def with_params(self, **updates: Any) -> "ExperimentSpec":
        merged = self.params_dict()
        merged.update(updates)
        return replace(self, params=_freeze_params(merged))

    # -- identity ----------------------------------------------------------

    def canonical(self, *, include_seed: bool = True) -> Dict[str, Any]:
        """JSON-able canonical form (sorted params, schema-versioned)."""
        doc: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "setup": self.setup,
            "num_samples": self.num_samples,
            "params": [[k, v] for k, v in self.params],
        }
        if include_seed:
            doc["seed"] = self.seed
        return doc

    def canonical_json(self, *, include_seed: bool = True) -> str:
        return json.dumps(
            self.canonical(include_seed=include_seed),
            sort_keys=True,
            separators=(",", ":"),
        )

    def spec_hash(self) -> str:
        """Stable content hash for result-cache keys."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- wire format ---------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """JSON-able wire form for cross-process dispatch.

        :meth:`from_doc` inverts it: the reconstructed spec has the
        same :meth:`spec_hash` and :meth:`seed_sequence`, so an
        independent worker process (see :mod:`repro.backends.workqueue`)
        reproduces the cell bit for bit from the document alone.
        Param values must therefore be JSON-representable — true for
        every built-in grid (hex strings, ints, bools).
        """
        return {
            "kind": self.kind,
            "setup": self.setup,
            "num_samples": self.num_samples,
            "seed": self.seed,
            "params": [[k, v] for k, v in self.params],
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_doc` wire form."""
        return cls(
            kind=doc["kind"],
            setup=doc.get("setup"),
            num_samples=int(doc.get("num_samples", 0)),
            seed=int(doc.get("seed", 0)),
            params=tuple((k, v) for k, v in doc.get("params", [])),
        )

    @property
    def cell_id(self) -> str:
        """Short human-readable cell label.

        Includes short scalar params (e.g. ``policy=modulo``) so grid
        cells that differ only in params — the whole missrates table —
        stay distinguishable in progress output; long values (hex
        keys) are elided.
        """
        parts = [self.kind]
        if self.setup:
            parts.append(self.setup)
        if self.num_samples:
            parts.append(f"n={self.num_samples}")
        shorts = [
            f"{k}={v}"
            for k, v in self.params
            if len(str(v)) <= 16
        ]
        if shorts:
            parts.append(",".join(shorts))
        return ":".join(parts)

    # -- randomness --------------------------------------------------------

    def seed_sequence(self) -> np.random.SeedSequence:
        """The cell's private seed stream (order/worker independent).

        The root ``seed`` supplies the entropy; the ``spawn_key`` is a
        digest of the cell's identity (kind, setup, sample count,
        params — everything but the seed), so two distinct cells under
        one campaign root never share a stream, and re-running a cell
        always reproduces it.  The schema version is deliberately
        excluded: bumping it invalidates the result cache without
        changing any cell's randomness.
        """
        doc = self.canonical(include_seed=False)
        doc.pop("schema")
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        ).digest()
        spawn_key = tuple(
            int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)
        )
        return np.random.SeedSequence(entropy=self.seed, spawn_key=spawn_key)

    def rng(self) -> np.random.Generator:
        """Convenience: a fresh Generator on the cell's stream."""
        return np.random.default_rng(self.seed_sequence())
