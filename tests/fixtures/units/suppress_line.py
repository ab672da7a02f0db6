"""A proven SW302 silenced by a line suppression comment."""

import time

from repro.devtools.contracts import units

__all__ = ["elapsed"]


@units("s")
def elapsed(sim_now_s):
    return time.time() - sim_now_s  # spotlint: disable=SW302
