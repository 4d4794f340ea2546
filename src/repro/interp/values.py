"""32-bit machine arithmetic helpers.

The RAM machine of Section 2.2 maps addresses to 32-bit words; mini-C
follows C's modular semantics: unsigned arithmetic wraps, signed values are
represented in two's complement, and narrowing conversions truncate.
``wrap``, ``c_div`` and ``c_mod`` come from :mod:`repro.minic.consts`, so
the machine and constant folding share one definition of that arithmetic.
"""

from repro.minic.consts import c_div, c_mod, wrap  # noqa: F401


def wrap_unsigned(value, size=4):
    """Reduce ``value`` modulo 2**(8*size)."""
    return value & ((1 << (8 * size)) - 1)


def wrap_signed(value, size=4):
    """Two's-complement wrap of ``value`` into a signed size-byte integer."""
    bits = 8 * size
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value, size=4):
    """Reinterpret a (possibly negative) value as unsigned."""
    return value & ((1 << (8 * size)) - 1)


def int_to_bytes(value, size, signed):
    """Encode an integer as ``size`` little-endian bytes."""
    if signed:
        value = wrap_signed(value, size)
    else:
        value = wrap_unsigned(value, size)
    return value.to_bytes(size, "little", signed=signed)


def int_from_bytes(data, signed):
    """Decode a little-endian integer."""
    return int.from_bytes(data, "little", signed=signed)
