"""A fingerprint of the libm the package's pins were taken with.

Every pinned digest in the tests, and in ``perfbench/pins.json``, rests on
the bits of ``math.cos``, ``math.sin`` and ``math.exp``: a frame's rotation,
the sinusoid trajectory, the closed form's ``exp`` and every verify lane.
Those functions are not required to round correctly, so another libm may
give other bits and fail those pins with a bare digest mismatch.  These
tests hash each function on fixed inputs, so such a failure names the
function that rounds differently.

The digests were taken with glibc 2.36 on x86-64.
"""

import hashlib
import math

import pytest

# Angles over the range the frames are drawn from, in steps of pi/1024 and
# of 1/97 out to about +-41, then the README's alpha and a few extremes.
_TRIG_INPUTS = (
    [math.pi * k / 1024 for k in range(-1024, 1025)]
    + [k / 97 for k in range(-4000, 4001)]
    + [0.5235987755982988, 1e-300, -0.0, 0.0, 1e5 + 0.5, -1e9 / 7]
)
# The closed form's -t/M, down to about -62, and some positive arguments.
_EXP_INPUTS = (
    [k / 97 for k in range(-6000, 1001)] + [-1e-300, 0.0, -700.0, 700.0]
)

# SHA-256 of the newline-joined ``float.hex`` of each function's values.
LIBM_SHA256 = {
    "cos": ("b0ad98b5bee013b4f6988c57db3e79a1aeaede98d0e9c0957a7c95928625f3d3",
            _TRIG_INPUTS),
    "sin": ("8de6fef0a34fd52300e3a78ba48079ef5566a8ece972fc93df465a86d28fd04f",
            _TRIG_INPUTS),
    "exp": ("b89113a79253daff2f8c8e8f5cf0c285bd24f7bf8078615cfa62437474a9cdc7",
            _EXP_INPUTS),
}


@pytest.mark.parametrize("name", sorted(LIBM_SHA256))
def test_libm_rounds_as_the_pins_expect(name):
    want, inputs = LIBM_SHA256[name]
    f = getattr(math, name)
    got = hashlib.sha256(
        "\n".join(f(x).hex() for x in inputs).encode()).hexdigest()
    assert got == want, (
        f"math.{name} rounds differently from the libm the pins were taken "
        "with: pinned digests that rest on it will fail too")
