"""Shared fixtures for the certified eigenvalue floors and Hermiticity bounds.

Operators built inside the library carry a lower bound on their smallest
eigenvalue and an upper bound on their Hermiticity residue, and skip the
dense spectrum or residue when the bound is certified.  The reference here is
the validation every operator ran before that: the same checks in the same
order, always with the dense residue and ``eigvalsh``.
"""

import sys

import numpy as np
import pytest

from distillery import hashing, qstate
from distillery.qstate import EIGENVALUE_FLOOR, HERMITICITY_TOL, TRACE_TOL, sym

_VALIDATE_CODE = qstate._validate_operator.__code__


def reference_validate(matrix, dim, unit_trace):
    """Always-dense validation; returns (error message or None, spectrum or None)."""
    if matrix.shape != (dim, dim):
        return f"matrix shape {matrix.shape} does not match declared dimension {dim}", None
    herm_residue = np.abs(matrix - matrix.conj().T).max()
    if herm_residue > HERMITICITY_TOL:
        return f"matrix is not Hermitian (residue {herm_residue:.3e})", None
    tr = matrix.trace()
    if unit_trace and abs(tr - 1.0) > TRACE_TOL:
        return f"trace {tr} is not 1 within {TRACE_TOL}", None
    if not unit_trace and tr.real <= 0.0:
        return f"trace {tr} is not positive", None
    eigenvalues = np.linalg.eigvalsh(sym(matrix))
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        return (
            f"matrix has eigenvalue {eigenvalues.min():.3e} below the floor {EIGENVALUE_FLOOR}",
            eigenvalues,
        )
    return None, eigenvalues


def reference_residue(matrix):
    return np.abs(matrix - matrix.conj().T).max()


class FloorOracle:
    """Records every ``_validate_operator`` call and checks it against the reference."""

    def __init__(self):
        self.calls = []
        self.dense = 0  # eigvalsh calls made from _validate_operator
        self.residues = 0  # dense Hermiticity residues computed

    def validate(self, original):
        def spy(matrix, dim, *, unit_trace, floor=None, herm=None):
            call = {"matrix": matrix, "dim": dim, "unit_trace": unit_trace, "floor": floor}
            call["herm"] = herm
            self.calls.append(call)
            before, residues = self.dense, self.residues
            try:
                call["result"] = original(
                    matrix, dim, unit_trace=unit_trace, floor=floor, herm=herm
                )
                return call["result"]
            except qstate.InvalidStateError as exc:
                call["error"] = str(exc)
                raise
            finally:
                call["dense"] = self.dense > before
                call["residue"] = self.residues > residues

        return spy

    def residue(self, original):
        def counted(matrix):
            self.residues += 1
            return original(matrix)

        return counted

    def eigvalsh(self, original):
        def counted(*args, **kwargs):
            if sys._getframe(1).f_code is _VALIDATE_CODE:
                self.dense += 1
            return original(*args, **kwargs)

        return counted

    def check(self) -> dict:
        """Assert every recorded call against the reference; return outcome counts.

        A call either ran the dense spectrum (public input or a declined
        certificate) and then decided as the reference does, with a floor
        below the computed minimum; or it skipped the spectrum, and then the
        reference accepts its matrix and the floor bounds the spectrum up to
        the reference's own rounding.  Errors keep class and message.  The
        Hermiticity bound is checked the same way: public input always runs
        the dense residue; every bound carried over, certified or not, is at
        or above the reference residue; an accepted call returns such a bound.
        ``herm_certified`` and ``herm_declined`` count the carried bounds that
        skipped the dense residue and those that did not.
        """
        counts = {"certified": 0, "declined": 0, "public": 0, "rejected": 0}
        counts.update(herm_certified=0, herm_declined=0)
        for call in self.calls:
            message, eigenvalues = reference_validate(
                call["matrix"], call["dim"], call["unit_trace"]
            )
            assert call.get("error") == message
            residue = reference_residue(call["matrix"])
            if call["herm"] is None:
                assert call["residue"]
            else:
                assert residue <= call["herm"]
                if not call["residue"]:
                    counts["herm_certified"] += 1
                    assert call["herm"] <= 0.5 * HERMITICITY_TOL
                else:
                    counts["herm_declined"] += 1
            if message is not None:
                counts["rejected"] += 1
                continue
            floor, herm = call["result"]
            assert residue <= herm
            if call["floor"] is None:
                assert call["dense"]
                counts["public"] += 1
            elif call["dense"]:
                counts["declined"] += 1
            else:
                counts["certified"] += 1
                assert eigenvalues[0] >= EIGENVALUE_FLOOR
                radius = max(-eigenvalues[0], eigenvalues[-1])
                margin = 2 * (call["dim"] + 1) * np.finfo(float).eps * radius
                assert eigenvalues[0] >= call["floor"] - margin
                continue
            assert floor <= eigenvalues[0]
        self.calls.clear()
        return counts


def compile_rounds(s_list, n):
    """GF(2) matrices of the rounds, T (r x 2n) for the revealed bits and F
    (2m x 2n) for the final flat bits, whose rows are ``hashing._round_masks``."""
    masks = hashing._round_masks([s.tolist() for s in s_list], n)
    return tuple(np.array([[v >> j & 1 for j in range(2 * n)] for v in m], np.uint8) for m in masks)


@pytest.fixture
def floor_oracle(monkeypatch):
    oracle = FloorOracle()
    monkeypatch.setattr(qstate, "_validate_operator", oracle.validate(qstate._validate_operator))
    monkeypatch.setattr(qstate, "_herm_residue", oracle.residue(qstate._herm_residue))
    monkeypatch.setattr(np.linalg, "eigvalsh", oracle.eigvalsh(np.linalg.eigvalsh))
    return oracle


@pytest.fixture
def dense_spectra(monkeypatch):
    """Counts the ``eigvalsh`` calls made from ``qstate._validate_operator``
    in the oracle's ``dense``, without recording the calls themselves."""
    oracle = FloorOracle()
    monkeypatch.setattr(np.linalg, "eigvalsh", oracle.eigvalsh(np.linalg.eigvalsh))
    return oracle
