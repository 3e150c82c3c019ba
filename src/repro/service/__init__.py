"""Legalization-as-a-service: a long-lived ``repro serve`` process.

Start a server, submit designs, and let the keyed warm-state store turn
repeated (ECO-style) submissions of the same design into near-instant
warm-started solves::

    repro serve --port 8787 &
    repro submit design.json --key top       # cold
    repro submit design.json --key top       # warm hit, a few sweeps

Pieces:

* :mod:`repro.service.server` — asyncio front end, bounded queue with
  429 backpressure, cross-request micro-batching into stacked MMSIM
  solves, graceful SIGTERM drain, ``/healthz`` ``/stats`` ``/metrics``.
* :mod:`repro.service.store` — the keyed warm-state store (LRU + TTL +
  byte budget) of :class:`~repro.core.state.SolverState` entries.
* :mod:`repro.service.protocol` — the JSON wire protocol, v2: the
  request's cells and the response's positions travel as columns
  (names as JSON strings, numbers as base64 of little-endian arrays),
  bit for bit; ``LegalizeResponse.positions`` is still one dict per
  cell.
* :mod:`repro.service.client` — stdlib HTTP client + ``repro submit``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    LegalizeRequest,
    LegalizeResponse,
    ProtocolError,
    apply_positions,
)
from repro.service.server import (
    LegalizationServer,
    ServiceConfig,
    run_server,
)
from repro.service.store import WarmStateStore

__all__ = [
    "ServiceClient",
    "ServiceError",
    "PROTOCOL_VERSION",
    "LegalizeRequest",
    "LegalizeResponse",
    "ProtocolError",
    "apply_positions",
    "LegalizationServer",
    "ServiceConfig",
    "run_server",
    "WarmStateStore",
]
