"""Stubs and binding: marshalling, generated proxies, name resolution."""

from repro.stubs.binding import BindingRegistry
from repro.stubs.marshal import marshal, unmarshal
from repro.stubs.stubgen import (
    ClientStub,
    MarshallingApp,
    ServiceInterface,
    client_stub,
)

__all__ = [
    "BindingRegistry",
    "marshal",
    "unmarshal",
    "ServiceInterface",
    "ClientStub",
    "client_stub",
    "MarshallingApp",
]
