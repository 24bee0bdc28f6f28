"""Fixed-point data of Hamiltonian circle actions and the width computation.

The model is small on purpose: a fixed component carries its complex
dimension and the multiset of nonzero isotropy weights on the directions
normal to it.  The moment map is normalized so that H equals minus the
weight sum on every component; with that choice a gradient sphere's Chern
number and symplectic area are the same integer, and once the hypothesis
checks pass the width is the gap between the two highest moment levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as cartesian
from typing import Sequence

from .errors import (AmbiguousMax, CrossCheckFailed, EmptyProduct, HypothesisFailed,
                     InvalidInput, NotEnoughComponents, NotOrdered)
from .serialize import load_json

SEMIFREE = "semifree"
ISOLATED_MAX = "isolated-max"
MONOTONE_CONSISTENCY = "monotone-consistency"
ALL_CHECKS = (SEMIFREE, ISOLATED_MAX, MONOTONE_CONSISTENCY)


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of the fixed-point set.

    weights lists only the nonzero isotropy weights; the complex_dim zero
    weights along the component itself are implied, so
    len(weights) + complex_dim is the half-dimension of the ambient manifold.
    H is minus the weight sum once the action is moment-normalized.
    """

    label: str
    complex_dim: int
    weights: tuple[int, ...]
    H: int | None = None

    def __post_init__(self):
        if not self.label:
            raise InvalidInput("fixed components need a nonempty label")
        if (not isinstance(self.complex_dim, int) or isinstance(self.complex_dim, bool)
                or self.complex_dim < 0):
            raise InvalidInput(f"{self.label}: complex_dim must be a nonnegative integer")
        weights = tuple(sorted(self.weights))
        for w in weights:
            if not isinstance(w, int) or isinstance(w, bool) or w == 0:
                raise InvalidInput(
                    f"{self.label}: weights must be nonzero integers, got {w!r}")
        object.__setattr__(self, "weights", weights)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)


@dataclass(frozen=True)
class ActionData:
    """Half-dimension n plus the list of fixed components.

    Whether each component's weight count is consistent with n is the job of
    check_monotone_consistency, not the constructor: inconsistent claims must
    surface as check failures, not construction errors.
    """

    n: int
    components: tuple[FixedComponent, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InvalidInput("half-dimension n must be a positive integer")
        comps = tuple(self.components)
        if not comps:
            raise InvalidInput("at least one fixed component is required")
        labels = [c.label for c in comps]
        if len(set(labels)) != len(labels):
            dup = next(l for l in labels if labels.count(l) > 1)
            raise InvalidInput(f"duplicate component label {dup!r}")
        object.__setattr__(self, "components", comps)

    @property
    def normalized(self) -> bool:
        return all(c.H is not None for c in self.components)


def normalize_moment(action: ActionData) -> ActionData:
    """Set H = -(weight sum) on every component; input H is never trusted.

    H is recomputed and compared on every component: one that already holds
    that integer is kept as it is, and an action with nothing to change is
    returned unchanged.
    """
    comps = tuple(c if type(c.H) is int and c.H == -c.weight_sum
                  else replace(c, H=-c.weight_sum) for c in action.components)
    if all(new is old for new, old in zip(comps, action.components)):
        return action
    return replace(action, components=comps)


def _require_normalized(action: ActionData) -> None:
    if not action.normalized:
        raise InvalidInput("action is not moment-normalized; call normalize_moment first")


def _levels_desc(action: ActionData) -> list[int]:
    return sorted({c.H for c in action.components}, reverse=True)


def _max_component(action: ActionData) -> FixedComponent:
    top = max(c.H for c in action.components)
    at_top = [c for c in action.components if c.H == top]
    if len(at_top) > 1:
        names = " and ".join(sorted(c.label for c in at_top))
        raise AmbiguousMax(f"components {names} both sit at the maximal level H = {top}")
    return at_top[0]


def raw_level_gap(action: ActionData) -> int | None:
    """Gap between the two highest moment levels; None with a single level.

    Diagnostic companion to hypothesis failures: it is what the width formula
    would print, but it is only a width when every check passes.
    """
    _require_normalized(action)
    levels = _levels_desc(action)
    if len(levels) < 2:
        return None
    return levels[0] - levels[1]


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    witness: str | None = None


def check_semifree(action: ActionData) -> CheckResult:
    """Pass iff every recorded weight is -1 or +1."""
    _require_normalized(action)
    for comp in action.components:
        for w in comp.weights:
            if w not in (-1, 1):
                return CheckResult(SEMIFREE, False,
                                   f"component {comp.label} has weight {w}")
    return CheckResult(SEMIFREE, True)


def check_isolated_max(action: ActionData) -> CheckResult:
    """Pass iff the unique top component is a point with all weights -1."""
    _require_normalized(action)
    top = _max_component(action)
    if top.complex_dim != 0:
        return CheckResult(ISOLATED_MAX, False,
                           f"maximum component {top.label} has complex_dim {top.complex_dim}")
    bad = next((w for w in top.weights if w != -1), None)
    if bad is not None:
        return CheckResult(ISOLATED_MAX, False,
                           f"maximum component {top.label} has weight {bad}")
    return CheckResult(ISOLATED_MAX, True)


def check_monotone_consistency(action: ActionData) -> CheckResult:
    """Pass iff the weight counts match n and the top level equals n.

    H values are integral by construction (weights are integers), so the
    content of this check is the cross-check of the claimed n against the
    weight data.
    """
    _require_normalized(action)
    for comp in action.components:
        if len(comp.weights) + comp.complex_dim != action.n:
            return CheckResult(
                MONOTONE_CONSISTENCY, False,
                f"component {comp.label}: {len(comp.weights)} weights + complex_dim "
                f"{comp.complex_dim} != n = {action.n}")
    top = _max_component(action)
    if top.H != action.n:
        return CheckResult(MONOTONE_CONSISTENCY, False,
                           f"H(F_max) = {top.H} but n = {action.n}")
    return CheckResult(MONOTONE_CONSISTENCY, True)


def _checks(action: ActionData) -> list[CheckResult]:
    """The three checks, in ALL_CHECKS order, on a normalized action."""
    return [check_semifree(action),
            check_isolated_max(action),
            check_monotone_consistency(action)]


def run_all_checks(action: ActionData) -> list[CheckResult]:
    return _checks(normalize_moment(action))


@dataclass(frozen=True)
class WidthReport:
    width: int
    H_max: int
    s: int
    max_component: str
    second_level_components: tuple[str, ...]
    hypothesis_log: tuple[str, ...]


def gromov_width(action: ActionData) -> WidthReport:
    """Width of a fully checked action: H(F_max) minus the next moment level.

    Every hypothesis check must pass; the first failure raises
    HypothesisFailed carrying the witness and the raw level gap (which is not
    a width in that case).
    """
    action = normalize_moment(action)
    results = _checks(action)
    for result in results:
        if not result.passed:
            raise HypothesisFailed(result.check, result.witness, raw_level_gap(action))
    levels = _levels_desc(action)
    if len(levels) < 2:
        raise NotEnoughComponents(
            f"all components sit at the single moment level H = {levels[0]}")
    top, second = levels[0], levels[1]
    return WidthReport(
        width=top - second,
        H_max=top,
        s=second,
        max_component=_max_component(action).label,
        second_level_components=tuple(sorted(
            c.label for c in action.components if c.H == second)),
        hypothesis_log=tuple(r.check for r in results),
    )


def gradient_sphere_invariants(x: FixedComponent, y: FixedComponent) -> tuple[int, int]:
    """Chern number and symplectic area of a gradient sphere from x up to y.

    The Chern number comes from the weight sums, the area from the moment
    values; under the H = -(weight sum) normalization the two must agree, and
    that equality is asserted rather than assumed.
    """
    if x.H is None or y.H is None:
        raise InvalidInput("gradient-sphere endpoints must be moment-normalized")
    if x.H >= y.H:
        raise NotOrdered(f"need H({x.label}) < H({y.label}), got {x.H} >= {y.H}")
    c1 = x.weight_sum - y.weight_sum
    area = y.H - x.H
    if c1 != area:
        raise CrossCheckFailed(
            f"gradient sphere {x.label} -> {y.label}: c1 = {c1} but area = {area}")
    return c1, area


def _wrap_label(label: str) -> str:
    # parenthesize nested product labels so the factor boundaries stay unambiguous
    return f"({label})" if " x " in label else label


def _trusted_component(label: str, complex_dim: int, weights: tuple[int, ...],
                       H: int) -> FixedComponent:
    # For fields that pass the checks of __post_init__ by construction (a
    # combination of validated components, or a toric vertex's nonzero
    # integer weights): a nonempty label, a nonnegative int complex_dim and
    # sorted nonzero int weights.  This skips the checks it would repeat.
    # Fields are set one by one, as the generated __init__ does: going through
    # __dict__ would give each instance a dict of its own, about 200 bytes more.
    comp = object.__new__(FixedComponent)
    object.__setattr__(comp, "label", label)
    object.__setattr__(comp, "complex_dim", complex_dim)
    object.__setattr__(comp, "weights", weights)
    object.__setattr__(comp, "H", H)
    return comp


def _factor_rows(part: ActionData, sep: str) -> list[tuple[str, int, tuple[int, ...], int]]:
    return [(sep + _wrap_label(c.label), c.complex_dim, c.weights, c.H)
            for c in part.components]


def product_action(parts: Sequence[ActionData]) -> ActionData:
    """Cartesian product: weights concatenate, moment values and n add.

    The product is folded by prefix: each step extends every row (label,
    complex_dim, weights, H) built so far by each component of the next
    factor, so the rows come out in itertools.product order (first factor
    outermost).  The last step makes the components themselves: each weight
    tuple is sorted once, and the factors' validated components are not
    validated again.
    """
    if not parts:
        raise EmptyProduct("a product needs at least one factor")
    parts = [normalize_moment(p) for p in parts]
    if len(parts) == 1:
        return parts[0]
    rows = _factor_rows(parts[0], "")
    for part in parts[1:-1]:
        step = _factor_rows(part, " x ")
        rows = [(label + l, dim + d, weights + w, H + h)
                for label, dim, weights, H in rows for l, d, w, h in step]
    step = _factor_rows(parts[-1], " x ")
    return ActionData(n=sum(p.n for p in parts), components=tuple(
        _trusted_component(label + l, dim + d, tuple(sorted(weights + w)), H + h)
        for label, dim, weights, H in rows for l, d, w, h in step))


def _joins_unambiguously(label: str) -> bool:
    """Whether a wrapped label can be read back out of any " x " join.

    It can when its parentheses are balanced, it has no " x " at depth 0, and
    it neither starts nor ends with an x or a space.  In a join of such
    labels the depth-0 " x " are exactly the separators, so distinct
    combinations join to distinct strings.
    """
    if label[0] in " x" or label[-1] in " x":
        return False
    depth = 0
    for i, ch in enumerate(label):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        elif depth == 0 and label.startswith(" x ", i):
            return False
    return depth == 0


def _joins_distinct(labels: Sequence[Sequence[str]]) -> bool:
    """Whether every combination of the wrapped labels, one per group, joins
    with " x " to a different string; each group's labels are distinct.

    O(sum of the group sizes) when every label joins unambiguously; otherwise
    the joins are counted exactly.
    """
    if all(_joins_unambiguously(l) for group in labels for l in group):
        return True
    combos = 1
    for group in labels:
        combos *= len(group)
    return len({" x ".join(combo) for combo in cartesian(*labels)}) == combos


def _lemma_factors(parts: Sequence[ActionData]) -> list[ActionData] | None:
    """The normalized factors when the product lemma answers for their product.

    If every factor is semifree with an isolated maximum and monotone-consistent,
    so is the product; its levels are the sums of factor levels, so its top is
    the sum of the factor tops and its next level sits the smallest factor gap
    below.  That holds only for a product that product_action can build, so
    the joined labels must be distinct (_joins_distinct).  None when a
    condition fails, when there is a single factor, or when no factor has a
    second level: the caller then builds the product.
    """
    if len(parts) < 2:
        return None
    parts = [normalize_moment(p) for p in parts]
    try:
        if not all(r.passed for p in parts for r in run_all_checks(p)):
            return None
    except AmbiguousMax:
        return None
    if all(len(p.components) == 1 for p in parts):
        return None
    if not _joins_distinct([[_wrap_label(c.label) for c in p.components] for p in parts]):
        return None
    return parts


def _smallest_gap(factors: Sequence[ActionData]) -> int | None:
    # the product's levels are the sums of factor levels, so its top gap is the
    # smallest gap of a factor with a second level
    return min((g for g in map(raw_level_gap, factors) if g is not None), default=None)


def product_level_gap(parts: Sequence[ActionData]) -> int | None:
    """raw_level_gap(product_action(parts)) for a product that can be built,
    from the factors' own gaps, without building it."""
    return _smallest_gap([normalize_moment(p) for p in parts])


def product_width(parts: Sequence[ActionData]) -> WidthReport:
    """gromov_width(product_action(parts)), from the factors where it can be.

    The width is the smallest gap g between a factor's two highest levels,
    and the second-level components are the combinations with one factor at
    a component g below its top and every other factor at its top.
    """
    factors = _lemma_factors(parts)
    if factors is None:
        return gromov_width(product_action(parts))
    tops = [_max_component(p) for p in factors]
    gap = _smallest_gap(factors)
    top_labels = [_wrap_label(t.label) for t in tops]
    second = []
    for i, (factor, top) in enumerate(zip(factors, tops)):
        for c in factor.components:
            if c.H == top.H - gap:
                second.append(" x ".join(
                    top_labels[:i] + [_wrap_label(c.label)] + top_labels[i + 1:]))
    H_max = sum(t.H for t in tops)
    return WidthReport(
        width=gap,
        H_max=H_max,
        s=H_max - gap,
        max_component=" x ".join(top_labels),
        second_level_components=tuple(sorted(second)),
        hypothesis_log=ALL_CHECKS,
    )


def product_checks(parts: Sequence[ActionData]) -> list[CheckResult]:
    """run_all_checks(product_action(parts)), from the factors where it can be."""
    if _lemma_factors(parts) is None:
        return run_all_checks(product_action(parts))
    return [CheckResult(check, True) for check in ALL_CHECKS]


def action_from_json(data) -> ActionData:
    """Parse {"n": ..., "components": [...]}; any H in the file is ignored."""
    if not isinstance(data, dict):
        raise InvalidInput("action JSON must be an object")
    if "n" not in data or "components" not in data:
        raise InvalidInput('action JSON needs "n" and "components" keys')
    n = data["n"]
    raw_comps = data["components"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidInput('"n" must be an integer')
    if not isinstance(raw_comps, list) or not raw_comps:
        raise InvalidInput('"components" must be a nonempty list')
    comps = []
    for entry in raw_comps:
        if not isinstance(entry, dict):
            raise InvalidInput(f"each component must be an object: {entry!r}")
        missing = {"label", "complex_dim", "weights"} - set(entry)
        if missing:
            raise InvalidInput(f"component missing keys {sorted(missing)}: {entry!r}")
        label = entry["label"]
        if not isinstance(label, str):
            raise InvalidInput(f'component "label" must be a string: {label!r}')
        weights = entry["weights"]
        if not isinstance(weights, list):
            raise InvalidInput(f"{label}: weights must be a list")
        comps.append(FixedComponent(label=label,
                                    complex_dim=entry["complex_dim"],
                                    weights=tuple(weights)))
    return ActionData(n=n, components=tuple(comps))


def load_action(path) -> ActionData:
    return action_from_json(load_json(path))


def _listing(action: ActionData) -> tuple[ActionData, list[FixedComponent]]:
    """The moment-normalized action and its components by descending H, then label."""
    action = normalize_moment(action)
    return action, sorted(action.components, key=lambda c: (-c.H, c.label))


def action_to_json(action: ActionData) -> dict:
    """Serializable form, components sorted by descending H then label."""
    action, comps = _listing(action)
    return {
        "n": action.n,
        "components": [{"label": c.label, "complex_dim": c.complex_dim,
                        "weights": list(c.weights), "H": c.H} for c in comps],
    }
