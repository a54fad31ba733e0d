"""Operator identifiers shared by the estimators and the exact-count oracle."""

from __future__ import annotations

import enum
import operator


class ScalarOp(enum.Enum):
    """Comparison between scalar values with total-order semantics.

    The four inequalities; both estimators and both oracles accept each of
    them, and the CLI offers them by value as ``--op``.
    """

    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def apply(self, a, b):
        """``a <op> b``; elementwise when either side is a numpy array."""
        return _SCALAR_FN[self](a, b)


_SCALAR_FN = {
    ScalarOp.LT: operator.lt,
    ScalarOp.LE: operator.le,
    ScalarOp.GT: operator.gt,
    ScalarOp.GE: operator.ge,
}


class RangeOp(enum.Enum):
    """Positional predicates between range values."""

    STRICTLY_LEFT = "strictly-left"        # <<  : X ends before Y starts
    STRICTLY_RIGHT = "strictly-right"      # >>  : X starts after Y ends
    NO_EXTEND_RIGHT = "no-extend-right"    # &<  : X does not end after Y ends
    NO_EXTEND_LEFT = "no-extend-left"      # &>  : X does not start before Y starts
    OVERLAPS = "overlaps"                  # &&  : X and Y share at least one point
