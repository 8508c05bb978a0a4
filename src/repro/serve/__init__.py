"""``repro serve``: the asyncio transaction server and its clients.

A driver of :class:`~repro.scheduling.BaseScheduler` (after the
simulator): real concurrent clients speak a length-prefixed JSON
protocol to a :class:`TransactionServer`, whose single-writer gate
keeps any scheduler race-free while HDD
Protocol A/C reads bypass the gate entirely — the serveable form of the
paper's "read-only transactions set no locks" claim (DESIGN.md §14).
"""

from repro.serve.client import (
    ClientPool,
    ServeClient,
    ServeError,
    run_transaction,
)
from repro.serve.loadgen import LoadGenerator, LoadReport
from repro.serve.protocol import (
    MAX_FRAME,
    OPS,
    FrameDecoder,
    ProtocolError,
    decode_payload,
    encode_frame,
    validate_request,
)
from repro.serve.server import ServeStats, TransactionServer
from repro.serve.transport import MemoryChannel, StreamChannel, memory_pair

__all__ = [
    "ClientPool",
    "FrameDecoder",
    "LoadGenerator",
    "LoadReport",
    "MAX_FRAME",
    "MemoryChannel",
    "OPS",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeStats",
    "StreamChannel",
    "TransactionServer",
    "decode_payload",
    "encode_frame",
    "memory_pair",
    "run_transaction",
    "validate_request",
]
