"""A deliberate scalar loop, silenced with a line suppression."""

import numpy as np

__all__ = ["walk"]


def walk():
    xs = np.arange(5)
    out = 0
    for x in xs:  # spotlint: disable=SW204
        out += int(x)
    return out
