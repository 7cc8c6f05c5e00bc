"""Error taxonomy shared by the library and the CLI.

Every library failure raises a LibError subclass carrying a stable
``kind`` string.  The CLI maps kinds to exit codes: user mistakes
(invalid-input, invalid-word, budget-exceeded, branch-violation) exit
with 2, geometric failures (exceptional-set, stratum-failure) with 3;
any other exception is a fault of the program, which the CLI reports
as kind internal-error with exit code 4.
"""

from __future__ import annotations

import sys

# the longest repr of an offending value that a message repeats whole
_ECHO_CHARS = 60


def echo(value) -> str:
    """repr of an offending input value for an error message; a long one
    is cut to a fixed prefix followed by its full length."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class LibError(Exception):
    """Base class; ``kind`` identifies the failure class.

    ``fields`` names what a subclass keeps beside its message: each is a
    keyword argument of the constructor (None when left out), an
    attribute, and a key of the payload.
    """

    kind = "error"
    fields: tuple[str, ...] = ()

    def __init__(self, message: str, **values):
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, values.pop(name, None))
        if values:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(values)}")

    def payload(self) -> dict:
        """JSON-ready description of the failure."""
        return {"kind": self.kind, "message": str(self),
                **{name: getattr(self, name) for name in self.fields}}


class InvalidInputError(LibError):
    kind = "invalid-input"


def digit_limit_error() -> InvalidInputError:
    """The refusal of an integer past the interpreter's digit limit for
    int/str conversion, where a scalar is parsed or printed and where the
    CLI reads its JSON input."""
    limit = sys.get_int_max_str_digits()
    return InvalidInputError(f"integer has more than {limit} digits, "
                             "the interpreter's limit for integer string conversion")


class InvalidWordError(LibError):
    """A word or root ordering fails validation.

    ``index`` is the 1-based position of the first offending letter or
    root when known, else None.
    """

    kind = "invalid-word"
    fields = ("index",)


class BudgetExceededError(LibError):
    kind = "budget-exceeded"


class StratumError(LibError):
    """LDU elimination hit a vanishing pivot on an invertible matrix.

    ``index`` is the 1-based pivot position; the matrix lies outside
    the open stratum where the factorization exists.
    """

    kind = "stratum-failure"
    fields = ("index",)


class ExceptionalSetError(LibError):
    """A coordinate point lies on the exceptional set of an inverse map.

    ``index`` is the 1-based recurrence or pivot position where the
    reconstruction degenerated, or for the tag "image" the position k
    of the first upper coordinate u_k that the answer's completed tail
    does not give back; ``value`` is a short origin tag.
    """

    kind = "exceptional-set"
    fields = ("index", "value")


class BranchViolationError(LibError):
    """A square-root branch constraint failed (value not real positive)."""

    kind = "branch-violation"
