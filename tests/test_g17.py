"""The array conversion behind cli._write_csv against Python's own "%.17g"."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbvp import _g17


def _text(block: np.ndarray) -> bytes:
    out = _g17.cells(block)
    return out[out != 0].tobytes()


def _percent(block: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _ties():
    """N / 2**k with N odd and N * 5**k of 18 digits: the exact decimal has an
    18th significant digit 5 and nothing after it, halfway between two
    17-digit decimals."""
    def tie(k):
        lo, hi = -(-10**17 // 5**k), min(2**53, 10**18 // 5**k)
        return st.integers(lo // 2, (hi - 1) // 2).map(lambda n: math.ldexp(2 * n + 1, -k))
    return st.integers(2, 25).flatmap(tie)


def _neighbours(x: float) -> list[float]:
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


_POWERS = st.integers(-325, 308).map(lambda k: float(f"1e{k}")).map(_neighbours)
_SWITCHES = st.sampled_from([1e-5, 1e-4, 1e16, 1e17]).flatmap(
    lambda x: st.floats(x * (1 - 1e-15), x * (1 + 1e-15)).map(_neighbours))
_VALUE = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]),
    _POWERS.flatmap(st.sampled_from),
    _ties().map(_neighbours).flatmap(st.sampled_from),
    st.sampled_from([0.0, math.inf, math.nan]),
    st.integers(0, 2**53).map(float),
    _SWITCHES.flatmap(st.sampled_from),
    st.integers(1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074)),  # subnormals
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=400)
@given(st.lists(st.tuples(st.booleans(), _VALUE).map(lambda sv: -sv[1] if sv[0] else sv[1]),
                min_size=1, max_size=48),
       st.integers(1, 4))
def test_cells_are_percent_17g(values, cols):
    # every class of value, either sign (so -0, -inf and -nan too), in rows of
    # 1 to 4 columns; no numpy warning (a cast of nan, log10 of 0) may escape
    block = np.resize(np.array(values), (max(1, len(values) // cols), cols))
    assert _text(block) == _percent(block)


@pytest.mark.filterwarnings("error")
def test_cells_are_percent_17g_on_many_values():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 2**16, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.standard_normal(2**16) * 10.0 ** rng.integers(-13, 17, 2**16)
    grid = np.linspace(0.0, 1.0, 2**14 + 1)
    for block in (bits.reshape(-1, 4), spread.reshape(-1, 8), np.column_stack([grid, -grid, 1e3 * grid])):
        assert _text(block) == _percent(block)
