"""Message envelopes and byte accounting for the simulated MPI layer."""

from __future__ import annotations

import itertools
import typing as _t

from repro.errors import ConfigurationError

__all__ = ["Message"]

_serial = itertools.count()


class Message:
    """One point-to-point message envelope.

    A plain ``__slots__`` class rather than a (frozen) dataclass: one
    envelope is allocated per simulated message, and frozen-dataclass
    ``object.__setattr__`` field assignment is several times the cost
    of these direct stores.  Treat instances as immutable all the same.

    Attributes
    ----------
    source, dest:
        Sending and receiving ranks.
    tag:
        User matching tag (>= 0).
    nbytes:
        Payload size in bytes.
    payload:
        Optional application data carried along (the simulator moves
        *time*, not data, but tests and example programs use payloads
        to check ordering semantics).
    serial:
        Global creation order, used to keep matching deterministic and
        to preserve MPI's non-overtaking rule between identical
        envelopes.
    """

    __slots__ = ("source", "dest", "tag", "nbytes", "payload", "serial")

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        nbytes: float,
        payload: _t.Any = None,
        serial: int | None = None,
    ) -> None:
        if not nbytes >= 0:  # not ``< 0``: NaN must fail too
            raise ConfigurationError(f"message size must be >= 0: {nbytes}")
        if tag < 0:
            raise ConfigurationError(f"tag must be >= 0: {tag}")
        self.source = source
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.serial = next(_serial) if serial is None else serial

    def __repr__(self) -> str:
        return (
            f"Message(source={self.source}, dest={self.dest}, "
            f"tag={self.tag}, nbytes={self.nbytes}, "
            f"payload={self.payload!r}, serial={self.serial})"
        )

    def matches(self, source: int, tag: int) -> bool:
        """Whether this envelope satisfies a receive for (source, tag).

        ``source`` / ``tag`` may be the wildcards
        :data:`~repro.mpi.comm.ANY_SOURCE` / :data:`~repro.mpi.comm.ANY_TAG`
        (encoded as -1).
        """
        source_ok = source == -1 or source == self.source
        tag_ok = tag == -1 or tag == self.tag
        return source_ok and tag_ok
