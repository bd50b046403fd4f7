"""Guard for the end-to-end benchmark's view of the program.

``perfbench/`` times the program from outside: its traced phase
replaces functions and methods by name (``spans._targets()``) and its
workloads build configurations with ``dataclasses.replace`` on
:class:`TunerConfig`.  Its own tests are not part of the tier-1 suite,
so a refactor that renames or removes one of those names would only
surface when the benchmark runs.  This test reads ``perfbench/`` and
never changes it.
"""

import dataclasses
import pathlib
import sys

import pytest

from repro.explore.tuner import TunerConfig

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    yield spans
    for name in ("spans", "speed", "e2e"):
        sys.modules.pop(name, None)


def test_every_patch_point_is_defined_on_its_owner(spans):
    targets = spans._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_workload_module_imports(spans):
    import e2e  # noqa: F401  (its program imports resolve)


def test_tuner_config_replace_as_the_workloads_do():
    config = dataclasses.replace(TunerConfig(), seed=1, n_workers=1, cache_dir=None)
    assert (config.seed, config.n_workers, config.cache_dir) == (1, 1, None)
