"""x-kernel Uniform Protocol Interface shell for composite protocols."""

from repro.xkernel.upi import Protocol, compose_stack

__all__ = ["Protocol", "compose_stack"]
