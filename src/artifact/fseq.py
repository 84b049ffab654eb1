"""Words: the letters of a past or a boundary on a contiguous block of sites.

The kernels read pasts and window boundaries as ``Word``s, and the samplers
start from them.  Every ratio functional of the pair interaction is a closed
form in the coupling tails T(m), so the criteria and the R_n rows read the
``PairPotential`` itself.
"""

from __future__ import annotations

from ._record import record
from .potential import SPINS


@record
class Word:
    """Letters on the contiguous site block [offset, offset + len - 1]."""

    offset: int
    letters: tuple

    def __post_init__(self) -> None:
        if not all(s in SPINS for s in self.letters):
            raise ValueError("letters must be spins -1/+1")

    def covers(self, site: int) -> bool:
        return self.offset <= site < self.offset + len(self.letters)

    def at(self, site: int) -> int:
        if not self.covers(site):
            raise KeyError(f"site {site} not covered")
        return self.letters[site - self.offset]

    @staticmethod
    def constant(offset: int, length: int, s: int = 1) -> "Word":
        return Word(offset, (s,) * length)
