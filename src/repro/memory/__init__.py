"""Buffers, static buffer pools, and copy accounting.

Zero-copy is load-bearing in this reproduction: buffers are numpy views and
the only byte-duplicating primitive is ``Buffer.copy_from``, which reports to
:class:`CopyAccounting` so tests and benchmarks can assert exact copy counts
on every forwarding path.
"""

from .accounting import CopyAccounting, CopySample
from .buffer import Buffer, DYNAMIC, STATIC, as_payload
from .pool import PoolClosed, PoolExhausted, StaticBufferPool

__all__ = [
    "CopyAccounting", "CopySample",
    "Buffer", "DYNAMIC", "STATIC", "as_payload",
    "PoolClosed", "PoolExhausted", "StaticBufferPool",
]
