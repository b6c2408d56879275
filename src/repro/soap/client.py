"""SOAP client: a thin wrapper binding a transport to call syntax.

`SoapClient` is transport-agnostic; `SoapClient.connect_http` builds one
over a persistent HTTP connection, and `from_wsdl` fetches a service's
WSDL and returns a generated stub object (mirroring the paper's
WSDL-generated Java client).
"""

from __future__ import annotations

from typing import Any

from repro.soap.errors import TransportError
from repro.soap.framing import render_request
from repro.soap.transport import WIRE_ERRORS, HttpTransport, SocketConnection, Transport
from repro.soap.wsdl import generate_client_stubs, parse_wsdl


class SoapClient:
    """Invoke service methods over any :class:`Transport`."""

    def __init__(self, transport: Transport) -> None:
        self._transport = transport

    @classmethod
    def connect_http(
        cls,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> "SoapClient":
        """Connect over HTTP.

        ``connect_timeout`` / ``read_timeout`` split the historical
        single ``timeout`` into a TCP-handshake deadline and a
        per-response deadline (either defaults to ``timeout``).  For
        retries, deadlines or a circuit breaker use
        :meth:`repro.core.client.MCSClient.connect` with a
        :class:`~repro.core.client.ClientConfig`.
        """
        return cls(
            HttpTransport(
                host,
                port,
                timeout=timeout,
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
            )
        )

    def call(self, method: str, **args: Any) -> Any:
        return self._transport.call(method, args)

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "SoapClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def fetch_wsdl(host: str, port: int, timeout: float = 10.0) -> bytes:
    """Download a service's WSDL document."""
    try:
        conn = SocketConnection(host, port, timeout, timeout)
        try:
            response = conn.roundtrip(render_request(f"{host}:{port}", "/wsdl"))
        finally:
            conn.close()
    except WIRE_ERRORS as exc:
        raise TransportError(f"WSDL fetch failed: {exc}") from exc
    if response.status != 200:
        raise TransportError(f"WSDL fetch failed with status {response.status}")
    return response.body


def from_wsdl(host: str, port: int) -> Any:
    """Fetch WSDL and return a generated client stub bound over HTTP."""
    description = parse_wsdl(fetch_wsdl(host, port))
    client = SoapClient.connect_http(host, port)
    return generate_client_stubs(description, lambda m, a: client.call(m, **a))
