"""Error hierarchy shared by the library and the CLI.

Every concrete error carries the process exit code the CLI maps it to.
Codes: 2 check failure, 3 not prime, 4 oversize, 5 factorization failure,
6 other input validation, 7 unexpected. 130 (128 + SIGINT) is no error
class: the CLI returns it when a run is interrupted (Ctrl-C).
"""

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NOT_PRIME = 3
EXIT_OVERSIZE = 4
EXIT_FACTORIZATION = 5
EXIT_BAD_INPUT = 6
EXIT_INTERNAL = 7
EXIT_INTERRUPTED = 130


class PkcoreError(Exception):
    exit_code = EXIT_INTERNAL


class NotPrime(PkcoreError):
    exit_code = EXIT_NOT_PRIME


class Oversize(PkcoreError):
    exit_code = EXIT_OVERSIZE


class OutOfRange(PkcoreError):
    """An input outside its domain: p = 2, k < 1, a pairsum level e outside [0, k-1], and so on."""

    exit_code = EXIT_BAD_INPUT


class FactorizationFailure(PkcoreError):
    exit_code = EXIT_FACTORIZATION


class NoTripleFound(PkcoreError):
    """decompose_residue's x is not in F+t for the t asked for; no claim of the paper fails."""

    exit_code = EXIT_CHECK_FAILED


class CheckFailure(PkcoreError):
    """An assertion-bearing verification came out false."""

    exit_code = EXIT_CHECK_FAILED
