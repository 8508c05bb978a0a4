"""Exception hierarchy for the HDD reproduction library.

All library errors derive from :class:`ReproError` so callers can catch the
whole family with one clause.  Errors are split along the subsystem
boundaries described in DESIGN.md: partitioning, protocol enforcement,
transaction lifecycle and storage.
"""

from __future__ import annotations

#: Shared process exit-code convention for every CLI entry point
#: (``repro dist`` / ``repro sweep`` / ``repro explore``): ``0`` = ran
#: clean, ``1`` = operational error (bad flags, unreadable artifact,
#: the tool itself failed), ``2`` = a *correctness violation* was found
#: (serializability audit, determinism check, conservatism oracle).
#: Scripts and CI can therefore distinguish "the check failed to run"
#: from "the check ran and the system is wrong".
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError, ValueError):
    """A driver was constructed with contradictory or invalid settings.

    Doubly derived so that callers who reason "bad argument" can catch
    :class:`ValueError` while library-wide handlers catching
    :class:`ReproError` keep working.
    """


class PartitionError(ReproError):
    """A database partition is malformed or not TST-hierarchical.

    Raised when a data hierarchy graph fails the transitive-semi-tree
    requirement of Section 3.2, when a granule cannot be mapped to a
    segment, or when a transaction profile contradicts the partition
    (e.g. writes in two segments).
    """


class ProtocolViolation(ReproError):
    """A transaction attempted an access its declared profile forbids.

    Under HDD every update transaction belongs to a class rooted in one
    segment; writing outside the root segment or reading a segment that
    is not higher than the root violates the decomposition contract.
    """


class TransactionAborted(ReproError):
    """A scheduler decision killed the transaction.

    Carries the transaction id and a human-readable reason (timestamp
    ordering violation, deadlock victim, cascading abort, ...).  The
    driver is expected to restart the transaction with a fresh
    timestamp if it wants the work retried.
    """

    def __init__(self, txn_id: int, reason: str) -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class InvalidTransactionState(ReproError):
    """An operation was issued against a finished or unknown transaction."""


class StorageError(ReproError):
    """A storage-level invariant was broken (unknown granule, bad version)."""


class NotComputableError(ReproError):
    """A ``C_late`` value (Section 5.1) is not yet computable.

    The backward activity link function needs the commit times of every
    transaction initiated before its argument; while such a transaction
    is still active the value is undefined and the caller must wait.
    ``class_id`` names the unsettled class when known, so a delayed
    time-wall release can report *which* class held it back.
    """

    def __init__(self, message: str, class_id: object = None) -> None:
        super().__init__(message)
        self.class_id = class_id


class NotSerializableError(ReproError):
    """The serializability audit of a recorded schedule found a cycle.

    ``cycle`` holds the cycle's ``Dependency`` arcs and ``closing_step``
    the schedule index of the commit marker that closed it.
    """

    def __init__(self, who: str, cycle: list, closing_step: int) -> None:
        super().__init__(
            f"{who}: recorded schedule is not serializable — scheduler "
            f"bug; the commit at step {closing_step} closed the cycle "
            + "; ".join(map(str, cycle))
        )
        self.cycle = cycle
        self.closing_step = closing_step
