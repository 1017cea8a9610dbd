"""Error hierarchy shared by the library and the CLI.

Every concrete error carries the process exit code the CLI maps it to.
Codes: 2 check failure, 3 not prime, 4 oversize, 5 factorization failure,
6 other input validation, 7 unexpected.
"""

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NOT_PRIME = 3
EXIT_OVERSIZE = 4
EXIT_FACTORIZATION = 5
EXIT_BAD_INPUT = 6
EXIT_INTERNAL = 7


class PkcoreError(Exception):
    exit_code = EXIT_INTERNAL


class NotPrime(PkcoreError):
    exit_code = EXIT_NOT_PRIME


class EvenPrime(PkcoreError):
    """p = 2 is rejected: the unit group mod 2^k is not cyclic for k >= 3."""

    exit_code = EXIT_BAD_INPUT


class BadExponent(PkcoreError):
    exit_code = EXIT_BAD_INPUT


class Oversize(PkcoreError):
    exit_code = EXIT_OVERSIZE


class OutOfRange(PkcoreError):
    exit_code = EXIT_BAD_INPUT


class BadCheckpoint(PkcoreError):
    """A scan checkpoint is unreadable or was written by a different scan."""

    exit_code = EXIT_BAD_INPUT


class FactorizationFailure(PkcoreError):
    exit_code = EXIT_FACTORIZATION


class NoTripleFound(PkcoreError):
    """No three-summand coresum witness exists; signals a counterexample."""

    exit_code = EXIT_CHECK_FAILED


class CheckFailure(PkcoreError):
    """An assertion-bearing verification came out false."""

    exit_code = EXIT_CHECK_FAILED
