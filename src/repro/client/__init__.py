"""Transport-blind clients of the solve service.

* :class:`Client` — the ABC callers program against.
* :class:`InProcessClient` — wraps a
  :class:`~repro.server.server.SolveServer` directly (optionally
  round-tripping messages through the lossless wire codec).
* :class:`HTTPClient` — speaks the versioned HTTP/JSON wire protocol of
  :mod:`repro.api` over urllib.

For a fixed seed the two implementations return bit-identical responses —
transport is an operational choice, never a numerical one.
"""

from repro.client.base import Client
from repro.client.http import HTTPClient
from repro.client.inprocess import InProcessClient

__all__ = ["Client", "HTTPClient", "InProcessClient"]
