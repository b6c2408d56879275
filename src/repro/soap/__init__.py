"""SOAP-style web service stack.

Reproduces the cost structure of the paper's Apache/Tomcat + SOAP layer:
XML serialization of requests and responses, HTTP framing, a TCP round
trip, and server-side thread dispatch.

* :mod:`repro.soap.xmlcodec` — typed value <-> XML codec
* :mod:`repro.soap.envelope` — SOAP envelopes and faults: the one
  encoder (string building) and decoder (ElementTree) of the wire
  format, used by the client and by both servers
* :mod:`repro.soap.wsdl` — WSDL document generation
* :mod:`repro.soap.server` — threaded HTTP SOAP server
* :mod:`repro.soap.client` — HTTP SOAP client with connection reuse
* :mod:`repro.soap.transport` — pluggable transports (HTTP, loopback,
  in-process) so codec cost can be told apart from socket cost
"""

from repro.soap.envelope import BulkItem, SoapFault
from repro.soap.server import SoapServer
from repro.soap.client import SoapClient
from repro.soap.transport import (
    DirectTransport,
    HttpTransport,
    LoopbackCodecTransport,
    Transport,
    execute_bulk,
)

__all__ = [
    "BulkItem",
    "SoapFault",
    "SoapServer",
    "SoapClient",
    "Transport",
    "DirectTransport",
    "HttpTransport",
    "LoopbackCodecTransport",
    "execute_bulk",
]
