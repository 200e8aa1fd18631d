"""`tools/oracle_digests.py` on two sources: each family's digest sees a
one-bit change in its own numbers, and no other family's moves."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from klform import verify

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "oracle_digests.py"
_spec = importlib.util.spec_from_file_location("oracle_digests", TOOL)
oracle_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_digests)

SOURCES = {
    "kl": oracle_digests.all_sources()["kl"],
    "c02-87": oracle_digests.criterion_02_sources(88)[87],
}
SIZES = (24,)


def digests():
    return oracle_digests.digests(SOURCES, SIZES)


def last_zero_negated(arr):
    """A copy of arr whose last entry, an exact zero, is -0.0: equal in
    value, different in its bits."""
    out = np.array(arr, copy=True)
    flat = out.reshape(-1)
    assert flat[-1] == 0
    flat[-1] = -0.0
    return out


def first_moved_one_ulp(arr):
    """A copy of arr whose first entry has its real part one ulp larger."""
    out = np.array(arr, copy=True)
    flat = out.reshape(-1)
    flat[0] = np.nextafter(flat[0].real, math.inf) + 1j * flat[0].imag
    return out


def corner_zero_negated(k_mat):
    """k_mat with entry [0, n_r - 1] of its band (0, 2), a zero whose column
    leaves the basis, read by nothing else, set to -0.0."""
    mat = k_mat.matrix
    stack = mat._stack.copy()
    band = stack[mat._shifts.index((0, 2))]
    assert band[0, -1] == 0
    band[0, -1] = -0.0
    return verify.OperatorMatrix(verify.BandedMatrix._of_stack(mat._shifts, stack), k_mat.config)


# family: (owner of the call, its name, the nudge of its result)
NUDGES = {
    "assemble_matrix": (verify, "assemble_matrix", corner_zero_negated),
    "expand": (verify, "expand", last_zero_negated),
    "residual": (verify, "residual", lambda res: float(np.nextafter(res, math.inf))),
    "all_eigenvalues": (verify, "all_eigenvalues", first_moved_one_ulp),
    "window": (verify, "eigenvalues_in_window", first_moved_one_ulp),
    "pairing": (
        verify,
        "biorthogonality_check",
        lambda report: dataclasses.replace(report, gram=first_moved_one_ulp(report.gram)),
    ),
    "product": (verify.BandedMatrix, "__matmul__", first_moved_one_ulp),
    "evolve": (verify, "evolve_series", first_moved_one_ulp),
}


def test_the_digests_cover_every_family_and_repeat():
    first = digests()
    assert list(first) == list(oracle_digests.FAMILIES) == list(NUDGES)
    assert all(len(sha) == 64 for sha in first.values())
    assert digests() == first


@pytest.mark.parametrize("family", NUDGES)
def test_a_family_digest_sees_one_bit_of_its_own_numbers(family, monkeypatch):
    before = digests()
    owner, name, nudge = NUDGES[family]
    wrapped = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: nudge(wrapped(*args)))
    after = digests()
    assert [f for f in before if before[f] != after[f]] == [family]
