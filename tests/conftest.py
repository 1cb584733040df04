"""Shared fixtures for the certified eigenvalue floors.

Operators built inside the library carry a lower bound on their smallest
eigenvalue and skip the dense spectrum when it is certified.  The reference
here is the validation every operator ran before that: the same checks in the
same order, always with ``eigvalsh``.
"""

import sys

import numpy as np
import pytest

from distillery import qstate
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


class FloorOracle:
    """Records every ``_validate_operator`` call and checks it against the reference."""

    def __init__(self):
        self.calls = []
        self.dense = 0  # eigvalsh calls made from _validate_operator

    def validate(self, original):
        def spy(matrix, dim, *, unit_trace, floor=None):
            call = {"matrix": matrix, "dim": dim, "unit_trace": unit_trace, "floor": floor}
            self.calls.append(call)
            before = self.dense
            try:
                call["result"] = original(matrix, dim, unit_trace=unit_trace, floor=floor)
                return call["result"]
            except qstate.InvalidStateError as exc:
                call["error"] = str(exc)
                raise
            finally:
                call["dense"] = self.dense > before

        return spy

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
        the reference's own rounding.  Errors keep class and message.
        """
        counts = {"certified": 0, "declined": 0, "public": 0, "rejected": 0}
        for call in self.calls:
            message, eigenvalues = reference_validate(
                call["matrix"], call["dim"], call["unit_trace"]
            )
            assert call.get("error") == message
            if message is not None:
                counts["rejected"] += 1
                continue
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
            assert call["result"] <= eigenvalues[0]
        self.calls.clear()
        return counts


@pytest.fixture
def floor_oracle(monkeypatch):
    oracle = FloorOracle()
    monkeypatch.setattr(qstate, "_validate_operator", oracle.validate(qstate._validate_operator))
    monkeypatch.setattr(np.linalg, "eigvalsh", oracle.eigvalsh(np.linalg.eigvalsh))
    return oracle


@pytest.fixture
def dense_spectra(monkeypatch):
    """Counts the ``eigvalsh`` calls made from ``qstate._validate_operator``
    in the oracle's ``dense``, without recording the calls themselves."""
    oracle = FloorOracle()
    monkeypatch.setattr(np.linalg, "eigvalsh", oracle.eigvalsh(np.linalg.eigvalsh))
    return oracle
