"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: input validation -> 2,
analytic boundary cases -> 3, internal invariant breaches -> 4.
"""


class PopucError(Exception):
    """Base class for all package errors."""


class InputError(PopucError, ValueError):
    """Invalid user-supplied data (bad coefficient, bad range, bad config)."""


class NotChainSequenceError(InputError):
    """A candidate sequence failed the positive-chain-sequence test.

    ``index`` is the 1-based position n at which the parameter g_{n+1}
    left its admissible interval.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"not a positive chain sequence at term n={index}")


class ScalingError(InputError):
    """A candidate scaling sequence is invalid.

    ``index`` is the 1-based position n of the offending q_{n+1}.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"scaling invalid at n={index}")


class BoundaryCaseError(PopucError):
    """A computation landed exactly on an analytic boundary.

    Raised e.g. when a gap-certificate denominator vanishes, which means the
    probe point sits on the cotangent direction of a recurrence coefficient.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"degenerate boundary case at n={index}")


class InvariantError(PopucError):
    """An internal invariant that is analytically guaranteed was violated.

    Signals corrupted input or a bug, never a legitimate numerical outcome.
    """
