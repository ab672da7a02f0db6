"""Fixture: the wall-clock seam, annotated as intentional."""

import time

__all__ = ["stamp"]


# spotlint: allow-nondeterminism
def stamp():
    return time.time()
