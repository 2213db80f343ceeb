"""Helpers shared by the tests."""

import zlib


def ulp(x, ctx):
    """One unit in the last place of ``x`` at context precision (of 1 if x == 0)."""
    mp = ctx.mp
    x = ctx.real(x)
    if x == 0:
        return mp.mpf(10) ** (1 - ctx.digits)
    return mp.mpf(2) ** (mp.mag(x) - mp.prec)


def with_header(body):
    """A partition-table file holding ``body`` under a correct header."""
    return f"# partition-table v1 crc32={zlib.crc32(body.encode('ascii')):08x}\n{body}"
