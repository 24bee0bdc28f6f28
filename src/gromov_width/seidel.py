"""Graded bookkeeping for the Seidel element of a verified circle action.

On a monotone manifold the Seidel element of a Hamiltonian circle lives in
quantum degree zero: it is a sum of cohomology classes a_i of degree 2i
paired with q^{-i}, i = 0..n.  Once the hypothesis checks pass, the top
coefficient a_n is the point class and every coefficient from the
second-highest moment level s up to n-1 vanishes; indices below s are
genuinely unconstrained by this bookkeeping and are reported as such rather
than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circle_action import ActionData, WidthReport, gromov_width
from .errors import DegreeMismatch


class EntryStatus(str, Enum):
    POINT_CLASS = "point-class"
    FORCED_ZERO = "forced-zero"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class SeidelEntry:
    """Coefficient slot a_index: a degree-2*index class paired with q^-index."""

    index: int
    status: EntryStatus
    cohomology_degree: int
    q_exponent: int


@dataclass(frozen=True)
class SeidelStructure:
    n: int
    s: int
    entries: tuple[SeidelEntry, ...]

    def status_of(self, index: int) -> EntryStatus:
        for entry in self.entries:
            if entry.index == index:
                return entry.status
        raise DegreeMismatch(f"no entry at index {index}")

    def formula(self) -> str:
        """Display string, highest index first, forced zeros omitted."""
        terms = []
        for entry in sorted(self.entries, key=lambda e: -e.index):
            if entry.status is EntryStatus.FORCED_ZERO:
                continue
            if entry.status is EntryStatus.POINT_CLASS:
                terms.append(f"[pt] ⊗ q^{{−{entry.index}}}")
            elif entry.index == 0:
                terms.append("a_0")
            else:
                terms.append(f"a_{entry.index} ⊗ q^{{−{entry.index}}}")
        return "S(φ) = " + " + ".join(terms)


def seidel_structure(action: ActionData) -> SeidelStructure:
    """Status of every Seidel coefficient of a hypothesis-passing action."""
    return seidel_from_width(gromov_width(action))


def seidel_from_width(report: WidthReport) -> SeidelStructure:
    """Seidel structure from the width report of a hypothesis-passing action.

    A correction supported on a sphere class of Chern number c sits at index
    n - c; monotonicity makes every contributing Chern number at least the
    level gap n - s, so the indices s..n-1 are forced to vanish while a_n is
    the point class contributed by the maximum alone.
    """
    n, s = report.H_max, report.s
    entries = []
    for i in range(n + 1):
        if i == n:
            status = EntryStatus.POINT_CLASS
        elif i >= s:
            status = EntryStatus.FORCED_ZERO
        else:
            status = EntryStatus.UNCONSTRAINED
        entries.append(SeidelEntry(i, status, 2 * i, -i))
    return SeidelStructure(n=n, s=s, entries=tuple(entries))


def degree_check(structure: SeidelStructure) -> bool:
    """Assert quantum degree zero on each entry and gap-free exponents 0..-n."""
    for entry in structure.entries:
        if entry.cohomology_degree + 2 * entry.q_exponent != 0:
            raise DegreeMismatch(
                f"entry {entry.index}: degree {entry.cohomology_degree} with "
                f"q-exponent {entry.q_exponent} is not quantum degree 0")
    exponents = sorted(e.q_exponent for e in structure.entries)
    if exponents != list(range(-structure.n, 1)):
        raise DegreeMismatch(
            f"q-exponents {exponents} do not cover -{structure.n}..0 without gaps")
    return True
