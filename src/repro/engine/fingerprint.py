"""Canonical fingerprints for cache keys.

The persistent on-disk compile cache of :mod:`repro.engine` is keyed
by content, never by object identity: a fingerprint is a
short hex digest of a canonical textual rendering of the object.  Two
structurally identical computations (or hardware parameter sets, or
physical mappings) produced by independent code paths therefore share
cache entries, and a stale entry can never be served for an object whose
structure changed, because the key changes with it.

The canonical renderings deliberately include *every* field that affects
evaluation results:

* a computation fingerprint covers the loop nest (names, extents, kinds),
  all tensor accesses with their index expressions and shapes, and the
  combine/reduce operators;
* a hardware fingerprint covers every :class:`HardwareParams` field, so
  ablation variants built with ``with_overrides`` (which keep the device
  ``name``) never collide;
* a mapping fingerprint covers the intrinsic, the matching matrix and the
  physical axis splits, bound to the computation's fingerprint;
* a tuner-config fingerprint covers the exploration *budget* only —
  execution knobs (``n_workers``, ``cache_dir``, ``run_dir``) are
  excluded because they cannot change what the tuner returns, only how
  fast (or how observed) it runs.  Since the
  digest names its fields explicitly, a field added to or removed from
  ``TunerConfig`` outside the budget leaves every fingerprint, and so
  every compile-cache key, unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator

from repro.ir.compute import ReduceComputation
from repro.mapping.physical import PhysicalMapping
from repro.model.hardware_params import HardwareParams

__all__ = [
    "computation_fingerprint",
    "hardware_fingerprint",
    "mapping_fingerprint",
    "tuner_config_fingerprint",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def computation_fingerprint(comp: ReduceComputation) -> str:
    """Digest of the computation's full structure.

    Memoized on the (frozen) computation, as its access matrix is: every
    :func:`mapping_fingerprint` binds to it, and a compile-cache hit
    fingerprints each enumerated mapping.
    """
    cached = comp.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    parts = [comp.name, comp.combine, str(comp.reduce)]
    parts.extend(repr(iv) for iv in comp.iter_vars)
    for access in (comp.output, *comp.inputs):
        parts.append(f"{access!r}:{access.tensor.shape}")
    digest = _digest("|".join(parts))
    object.__setattr__(comp, "_fingerprint", digest)
    return digest


def hardware_fingerprint(hw: HardwareParams) -> str:
    """Digest over every parameter field (not just the device name).

    Memoized on the (frozen) parameter set like
    :func:`computation_fingerprint`: every compile and compile-cache
    lookup keys by it.  ``with_overrides`` builds a new object, so a
    variant never inherits its parent's digest.
    """
    cached = hw.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    items = sorted(dataclasses.asdict(hw).items())
    digest = _digest("|".join(f"{k}={v}" for k, v in items))
    object.__setattr__(hw, "_fingerprint", digest)
    return digest


def mapping_fingerprint(pm: PhysicalMapping) -> str:
    """Digest of one physical mapping, bound to its computation.

    The matching matrix plus the intrinsic identify the compute mapping;
    the axis splits are derived from them deterministically but are
    included anyway so a lowering change invalidates old entries.
    Memoized on the (frozen) mapping like :func:`computation_fingerprint`:
    lowered mappings are shared across compiles, and a compile-cache hit
    checks its rebuilt mapping's fingerprint.
    """
    cached = pm.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    matching = pm.compute.matching.data
    parts = [
        computation_fingerprint(pm.computation),
        pm.intrinsic.name,
        f"{matching.shape}",
        matching.tobytes().hex(),
    ]
    parts.extend(
        f"{s.name}:{s.fused_extent}/{s.problem_size}/{s.num_tiles}" for s in pm.splits
    )
    digest = _digest("|".join(parts))
    object.__setattr__(pm, "_fingerprint", digest)
    return digest


#: TunerConfig fields that change exploration *results*; everything else
#: (worker counts, cache locations) only changes execution speed.
_BUDGET_FIELDS = (
    "population",
    "generations",
    "elite_fraction",
    "mapping_mutation_prob",
    "measure_top",
    "prefilter_mappings",
    "refine_rounds",
    "refine_neighbors",
    "seed",
)


_budget_values = operator.attrgetter(*_BUDGET_FIELDS)

#: Budget digests by the ``repr`` of every value they render (see
#: :func:`tuner_config_fingerprint`); the memo starts over when it
#: reaches the bound.
_CONFIG_DIGESTS: dict[tuple, str] = {}
_CONFIG_DIGESTS_MAX = 1024


def tuner_config_fingerprint(config) -> str:
    """Digest of the exploration budget of a :class:`TunerConfig`.

    ``TunerConfig`` is mutable, so the digest is memoized by the values
    it renders, never by the object: the ``repr`` of each budget field
    and of each field of the (frozen) ``GenerationOptions``, which tells
    apart what renders apart (``32`` and ``32.0``, ``0.0`` and
    ``-0.0``).  Mutating a config therefore changes its key and its
    digest."""
    gen = config.generation_options
    key = (type(gen), *map(repr, (*_budget_values(config), *vars(gen).values())))
    digest = _CONFIG_DIGESTS.get(key)
    if digest is None:
        parts = [f"{name}={getattr(config, name)}" for name in _BUDGET_FIELDS]
        # Flat fields, so reading them equals the deep ``asdict``
        # rendering without its per-call copy.
        names = sorted(f.name for f in dataclasses.fields(gen))
        parts.extend(f"gen.{name}={getattr(gen, name)}" for name in names)
        digest = _digest("|".join(parts))
        if len(_CONFIG_DIGESTS) >= _CONFIG_DIGESTS_MAX:
            _CONFIG_DIGESTS.clear()
        _CONFIG_DIGESTS[key] = digest
    return digest
