"""The brute-force shift scan, kept as an oracle for the decision engine."""

from eisenshift import (
    BudgetError,
    DomainError,
    IntPoly,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    max_shift_bound,
    taylor_shift,
)
from eisenshift.eisenstein import _smallest_witness

# Largest scan bound `naive_shift_scan` accepts.
_SCAN_CAP = 1_000_000


def naive_shift_scan(f: IntPoly) -> ShiftedDecision:
    """Decide by trying every shift 0 <= s <= max_shift_bound(f) directly.

    Independent of the local criterion, hence useful as an oracle.
    Refuses (BudgetError) when the scan bound exceeds 10^6 shifts.  The first
    working shift is returned; by shift periodicity it satisfies s < p for
    its smallest witness prime, so the certificate is already canonical.
    """
    n = f.degree
    if n < 2:
        raise DomainError("naive_shift_scan needs degree >= 2")
    bound = max_shift_bound(f)
    if bound > _SCAN_CAP:
        raise BudgetError("scan bound %d exceeds cap %d" % (bound, _SCAN_CAP))
    g = f
    for s in range(bound + 1):
        witness = _smallest_witness(g)
        if witness is not None:
            return ShiftedDecision(Verdict.YES, ShiftCertificate(s % witness, witness))
        g = taylor_shift(g, 1)
    return ShiftedDecision(Verdict.NO_CERTIFIED, reason="no-root-shift-works")
