"""Exception types shared by all ramseykit modules."""

from __future__ import annotations


class RamseyKitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RamseyKitError, ValueError):
    """An argument is outside the operation's domain."""


class PreconditionError(RamseyKitError, ValueError):
    """A mathematical precondition of an operation does not hold.

    The message names the failing object (interval, cardinality bound,
    property, ...) so callers can report it verbatim.
    """


class BudgetExceededError(RamseyKitError, RuntimeError):
    """A search or check would do more work than its budget allows.

    Raised by :func:`charge` before (or, for a branch-and-bound, while) the
    work is done; the message names the stage, its work and the budget.
    """


class IncompleteSearchError(RamseyKitError, RuntimeError):
    """A constructive search ran below its guaranteed threshold and failed.

    ``stage`` names the step of the construction that could not be
    completed; ``details`` carries diagnostic data.
    """

    def __init__(self, message, stage, details=None):
        super().__init__(message)
        self.stage = stage
        self.details = details or {}


class FileFormatError(RamseyKitError, ValueError):
    """An input file does not match the documented format."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


def records(text):
    """The ``(line number, tokens)`` of each line of ``text`` that holds a
    token once its ``#`` comment is dropped; line numbers start at 1."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split("#", 1)[0].split()
        if toks:
            out.append((lineno, toks))
    return out


def ints(tokens, what, path, line):
    """``tokens`` as a tuple of integers; a bad one raises FileFormatError
    naming ``what`` at ``path:line``."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise FileFormatError(f"bad {what} {tok!r}", path=path, line=line) from None
    return tuple(out)


# Parsers build objects of the sizes a file header declares (a palette of q
# colours, nv vertices, a table of C(n, k) edges), so a few-byte header could
# otherwise ask for gigabytes.
MAX_DECLARED = 10**5


def check_declared(path, line, **sizes):
    """Refuse a header size above MAX_DECLARED with FileFormatError at
    ``path:line``, before anything of that size is built."""
    for name, value in sizes.items():
        if value > MAX_DECLARED:
            raise FileFormatError(
                f"header declares {name} = {value}, above the limit {MAX_DECLARED}",
                path=path,
                line=line,
            )


# Tables built from sizes given on the command line or in a witness spec (a
# random colouring's C(n, k) edges and q colours, the exact oracle's C(n, t)
# vertex sets) stop here; C(182, 3) = 988,260 random edges take one byte each,
# and verify keeps the colours of only the edges it reads.
MAX_BUILT = 10**6

DEFAULT_BUDGET = 10**9


def charge(work, budget, what, hint=None):
    """Refuse ``work`` units above ``budget``: raise BudgetExceededError
    ``"<what>, budget is <budget>"``, followed by ``"; <hint>"`` if given."""
    if work > budget:
        tail = f"; {hint}" if hint else ""
        raise BudgetExceededError(f"{what}, budget is {budget}{tail}")
