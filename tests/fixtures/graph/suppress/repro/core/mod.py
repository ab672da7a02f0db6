"""Fixture: spotgraph suppression comments, valid and typo'd."""

__all__ = ["suppressed", "reported"]


def suppressed():
    return [k for k in {1, 2}]  # spotlint: disable=SW112


def reported():
    return [k for k in {3, 4}]


# spotlint: disable=SW999
# spotlint: disable-file=SW777
