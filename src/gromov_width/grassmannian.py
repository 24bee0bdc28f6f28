"""The standard semifree circle action on the complex Grassmannian Gr(k, m).

Rotating the first k coordinates of C^m fixes one component for every split
of the k-plane between the rotated and the static subspace; all invariants
of those components are closed-form, so this generator is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circle_action import ActionData, FixedComponent
from .errors import InvalidRange


@dataclass(frozen=True)
class GrassmannianSpec:
    k: int
    m: int

    def __post_init__(self):
        if any(not isinstance(v, int) or isinstance(v, bool) for v in (self.k, self.m)):
            raise InvalidRange("k and m must be integers")
        if self.k < 1 or self.k > self.m - self.k:
            raise InvalidRange(f"need 1 <= k <= m - k, got k={self.k}, m={self.m}")


def grassmannian_action(spec: GrassmannianSpec) -> ActionData:
    """Fixed-point data of Gr(k, m) under rotation of the first k coordinates.

    The component Gr(k1, k) x Gr(k2, m-k), k1 + k2 = k, consists of k-planes
    splitting as k1 directions inside the rotated C^k and k2 inside the static
    C^(m-k).  It has complex dimension k1*(k-k1) + k2*(m-k-k2), carries
    k1*(m-k-k2) normal weights -1 and k2*(k-k1) normal weights +1, and sits at
    the moment level k1*(m-k) - k2*k.
    """
    k, m = spec.k, spec.m
    q = m - k
    comps = []
    for k1 in range(k, -1, -1):
        k2 = k - k1
        comps.append(FixedComponent(
            label=f"Gr({k1},{k})xGr({k2},{q})",
            complex_dim=k1 * (k - k1) + k2 * (q - k2),
            weights=(-1,) * (k1 * (q - k2)) + (1,) * (k2 * (k - k1)),
            H=k1 * q - k2 * k,
        ))
    return ActionData(n=k * q, components=tuple(comps))
