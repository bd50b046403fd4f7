"""Enumeration and Algorithm 1 against their numpy formulation.

``validate_matrices`` runs Algorithm 1 on integer column bitmasks and
``enumerate_mappings`` applies its coverage and unit-stride rules to the
choice tuple before building a matching matrix.  These tests hold both to
the matrix formulation they replaced:

* ``reference_validate`` is Algorithm 1 written with ``binary_matmul``
  on numpy arrays; the bitmask validator must return the same verdict
  and the same reason for every raw candidate of every Table 6 operator
  on every shipped intrinsic, and for arbitrary 0/1 matrices;
* the ordered mapping fingerprints ``enumerate_mappings`` returns for
  those operators and for every tensor op of ResNet-18/50 and MobileNet
  are pinned in ``data/mapping_fingerprints.json``.

Re-record the pins (only for an intended change to enumeration or to a
fingerprint) with ``PYTHONPATH=src python tests/test_mapping_equivalence.py``.
"""

import hashlib
import itertools
import json
import pathlib
import sys

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.engine.fingerprint import computation_fingerprint, mapping_fingerprint
from repro.frontends.networks import get_network
from repro.frontends.operators import make_operator
from repro.isa.registry import get_intrinsic
from repro.mapping.generation import (
    GenerationOptions,
    _candidate_choices,
    enumerate_mappings,
)
from repro.mapping.matrices import MatchingMatrix, binary_matmul
from repro.mapping.physical import lower_to_physical
from repro.mapping.validation import (
    ValidationResult,
    validate_mapping,
    validate_matrices,
)

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
PINS = pathlib.Path(__file__).resolve().parent / "data" / "mapping_fingerprints.json"
NETWORKS = ("resnet18", "resnet50", "mobilenet_v1")
#: The shipped intrinsics, named rather than read from the registry, to
#: which other tests add their own.
INTRINSICS = (
    "avx512_dpbusds_16x4",
    "mali_dot_gemv_4x4",
    "mali_dot_simd_4x4",
    "vaxpy_32",
    "vconv_8x8x8",
    "vgemv_16x16",
    "wmma_m16n16k16_f16",
    "wmma_m32n8k16_f16",
    "wmma_m8n32k16_f16",
)


def reference_validate(x, z, y, software_kinds, intrinsic_kinds):
    """Algorithm 1 on numpy matrices: ``X' = Z * Y``, ``Z' = X * Y^T``."""
    data = y.data
    if data.shape != (z.shape[1], x.shape[1]):
        return ValidationResult(False, "matching matrix shape mismatch")
    if x.shape[0] != z.shape[0]:
        return ValidationResult(
            False,
            f"software has {x.shape[0]} tensors but intrinsic has {z.shape[0]} operands",
        )
    for c in range(data.shape[1]):
        targets = tuple(int(t) for t in np.nonzero(data[:, c])[0])
        if not targets:
            continue
        target_kinds = {intrinsic_kinds[t] for t in targets}
        if len(targets) == 1:
            if software_kinds[c] != intrinsic_kinds[targets[0]]:
                return ValidationResult(
                    False, f"iteration kind mismatch at software iteration {c}"
                )
        elif len(targets) == 2:
            if target_kinds != {True, False}:
                return ValidationResult(
                    False,
                    f"diagonal column {c} must pair one spatial and one reduce "
                    "intrinsic iteration",
                )
            if software_kinds[c]:
                return ValidationResult(
                    False, f"reduce software iteration {c} cannot map diagonally"
                )
        else:
            return ValidationResult(
                False, f"software iteration {c} maps to more than two intrinsic iterations"
            )

    x_prime = binary_matmul(z, data)
    z_prime = binary_matmul(x, data.T)
    mapped = [int(c) for c in np.nonzero(data.any(axis=0))[0]]
    if mapped and not (x_prime[:, mapped] == x[:, mapped]).all():
        return ValidationResult(False, "X' != X: software access relationship broken")

    diag_cols = {int(c) for c in np.nonzero(data.sum(axis=0) > 1)[0]}
    for t in (int(t) for t in np.nonzero(data.any(axis=1))[0]):
        expected = z[:, t]
        got = z_prime[:, t]
        if (got == expected).all():
            continue
        non_diag = [int(c) for c in np.nonzero(data[t])[0] if c not in diag_cols]
        reduced = np.zeros_like(expected)
        for c in non_diag:
            reduced |= x[:, c]
        excess_ok = (got >= expected).all() and (reduced <= expected).all()
        if not (diag_cols and excess_ok):
            return ValidationResult(
                False, f"Z' != Z at intrinsic iteration {t}: hardware access broken"
            )
    return ValidationResult(True)


def _table6_operators():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from bench_table6_mapping_counts import PAPER_COUNTS, SMALL_PARAMS
    finally:
        sys.path.remove(str(BENCHMARKS))
    return [(code, make_operator(code, **SMALL_PARAMS[code])) for code in PAPER_COUNTS]


def _kinds(comp):
    return tuple(iv.is_reduce for iv in comp.iter_vars)


def _matrix(combo, num_hw):
    return MatchingMatrix([[mask >> t & 1 for mask in combo] for t in range(num_hw)])


def test_every_raw_candidate_matches_reference():
    checked = diagonal = 0
    for code, comp in _table6_operators():
        x = comp.access_matrix()
        for name in INTRINSICS:
            intrinsic = get_intrinsic(name)
            prepared = _candidate_choices(comp, intrinsic, GenerationOptions())
            if prepared is None:
                continue
            z = intrinsic.compute.access_matrix()
            kinds = (_kinds(comp), _kinds(intrinsic.compute))
            for combo in itertools.product(*prepared[0]):
                y = _matrix(combo, z.shape[1])
                want = reference_validate(x, z, y, *kinds)
                got = validate_matrices(x, z, y, *kinds)
                assert (got.valid, got.reason) == (want.valid, want.reason), (
                    code, name, y,
                )
                mapped = validate_mapping(comp, intrinsic, y)
                assert (mapped.valid, mapped.reason) == (want.valid, want.reason)
                checked += 1
                diagonal += bool(y.diagonal_columns())
    assert checked > 10_000
    assert diagonal > 0


@st.composite
def _problems(draw):
    """Random 0/1 ``X``, ``Z``, ``Y`` and kinds.  Shapes mostly agree so
    that Algorithm 1 proper runs, and sometimes not.  Half of the
    problems get kinds and mapped ``X`` columns derived from ``Y`` and
    ``Z`` so that the kind and ``X' = X`` checks pass and the ``Z'``
    check, diagonal excess included, decides."""
    rows = draw(st.integers(1, 4))
    num_sw = draw(st.integers(1, 6))
    num_hw = draw(st.integers(1, 4))
    z_rows = draw(st.sampled_from([rows, rows, rows, rows + 1]))
    y_hw = draw(st.sampled_from([num_hw, num_hw, num_hw, num_hw + 1]))
    binary = st.integers(0, 1)
    x = draw(arrays(np.int8, (rows, num_sw), elements=binary))
    z = draw(arrays(np.int8, (z_rows, num_hw), elements=binary))
    y = draw(arrays(np.int8, (y_hw, num_sw), elements=binary))
    sw_kinds = draw(st.lists(st.booleans(), min_size=num_sw, max_size=num_sw))
    hw_kinds = draw(st.lists(st.booleans(), min_size=y_hw, max_size=y_hw))
    if draw(st.booleans()) and (z_rows, y_hw) == (rows, num_hw):
        x = np.where(y.any(axis=0), binary_matmul(z, y), x).astype(np.int8)
        for c in range(num_sw):
            targets = np.nonzero(y[:, c])[0]
            if len(targets) == 1:
                sw_kinds[c] = hw_kinds[targets[0]]
            elif len(targets) == 2:
                sw_kinds[c] = False
    return x, z, MatchingMatrix(y), tuple(sw_kinds), tuple(hw_kinds)


@settings(max_examples=500, deadline=None)
@given(_problems())
def test_random_matrices_match_reference(problem):
    want = reference_validate(*problem)
    got = validate_matrices(*problem)
    assert (got.valid, got.reason) == (want.valid, want.reason)


def _pin_cases():
    """(key, computation) for every Table 6 operator and every distinct
    tensor op of the pinned networks (batch 1)."""
    cases = [(f"table6/{code}", comp) for code, comp in _table6_operators()]
    seen = set()
    for network in NETWORKS:
        for index, op in enumerate(get_network(network)):
            if not op.is_tensor_op:
                continue
            comp = op.computation(batch=1)
            fp = computation_fingerprint(comp)
            if fp not in seen:
                seen.add(fp)
                cases.append((f"{network}/{index}", comp))
    return cases


def _fingerprint_pins():
    pins = {}
    for key, comp in _pin_cases():
        for name in INTRINSICS:
            fps = [
                mapping_fingerprint(lower_to_physical(m))
                for m in enumerate_mappings(comp, get_intrinsic(name))
            ]
            digest = hashlib.sha256(" ".join(fps).encode()).hexdigest()[:16]
            pins[f"{key}/{name}"] = f"{len(fps)}:{digest}"
    return pins


def test_enumeration_fingerprints_pinned():
    pinned = json.loads(PINS.read_text())
    got = _fingerprint_pins()
    assert sorted(got) == sorted(pinned)
    changed = {key: (pinned[key], got[key]) for key in got if got[key] != pinned[key]}
    assert changed == {}


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(_fingerprint_pins(), indent=0, sort_keys=True) + "\n")
