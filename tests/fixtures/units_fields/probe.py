"""SW301 on ``@field_units``: a declared name the class never defines.

The two plain classes are twins but for one letter.  ``Misspelt``
declares ``warnng_seconds`` and assigns ``self.warning_seconds``, so
the unit reaches no attribute and its sum below is unknown: the
declaration itself is the finding.  ``Spelt`` declares the name it
assigns, and the same sum is a proven SW300.
"""

from repro.devtools.contracts import field_units

__all__ = ["Misspelt", "Spelt"]


@field_units(warnng_seconds="s", rate="req/s")
class Misspelt:
    def __init__(self, warning_seconds, rate):
        self.warning_seconds = warning_seconds
        self.rate = rate

    def mixed(self):
        return self.warning_seconds + self.rate


@field_units(warning_seconds="s", rate="req/s")
class Spelt:
    def __init__(self, warning_seconds, rate):
        self.warning_seconds = warning_seconds
        self.rate = rate

    def mixed(self):
        return self.warning_seconds + self.rate
