"""Helpers shared by the tests."""

import zlib

from partition_asymptotics import PrecisionContext


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


def near_tie_constant(N=4, target=200, places=300, above=False):
    """C as a decimal of ``places`` digits, a hair below (or ``above``) the C whose nu_N(C) is exactly ``target``.

    Inverts nu_N(C) = (3/2) ((2N/pi) w)^2 with w = W_-1(a) at 400 digits:
    w = -(pi/(2N)) sqrt(2 target/3), a = w e^w and C = (-12 N a/pi)^N / sqrt(N+1).
    Truncating C lowers it, which raises the threshold to target + epsilon, with
    epsilon far below 10^-80 and far above 10^-400; rounding it up instead lowers
    the threshold to target - epsilon.
    """
    mp = PrecisionContext(400).mp
    w = -mp.pi / (2 * N) * mp.sqrt(mp.mpf(2 * target) / 3)
    exact = (-12 * N * w * mp.exp(w) / mp.pi) ** N / mp.sqrt(N + 1)
    assert 0 < exact < 1
    truncated = int(mp.floor(exact * mp.mpf(10) ** places)) + above
    assert (truncated > exact * mp.mpf(10) ** places) == above
    return "0." + str(truncated).rjust(places, "0")
