"""Stubs: marshalling and generated proxies.

Binding (service name to server group) is
:attr:`repro.core.deployment.Service.group`, resolved on every call.
"""

from repro.stubs.marshal import marshal, unmarshal
from repro.stubs.stubgen import (
    ClientStub,
    MarshallingApp,
    ServiceInterface,
    client_stub,
)

__all__ = [
    "marshal",
    "unmarshal",
    "ServiceInterface",
    "ClientStub",
    "client_stub",
    "MarshallingApp",
]
