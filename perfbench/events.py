"""Seeded query events for the serve workloads, and their exact oracles.

An event is a small formula tree built here, never parsed from the
program: ``("atom", variable, op, value)``, ``("and", [children])`` or
``("or", [children])``, where ``op`` is one of ``<``, ``<=``, ``>``,
``>=``, ``==`` or ``in`` (an open interval ``(low, high)``).  The same
tree is rendered to the wire text the service parses and, independently,
evaluated by the oracles below:

* hierarchical HMM events are answered by a two-state forward pass
  (numpy/scipy only), which is exact whenever every observed variable
  appears in at most one atom of the query and its condition -- the
  generators here guarantee that;
* heart-disease events are answered by the repository's single-stage
  path-enumeration baseline, which shares no code with the SPE engine
  beyond the primitive distributions.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Dict
from typing import List
from typing import Optional
from typing import Sequence
from typing import Tuple

from scipy.special import ndtr
from scipy.stats import poisson

# Hierarchical HMM parameters (Sec. 2.2 of the paper, Fig. 3a).
HMM_P_SEPARATED = 0.4
HMM_P_TRANSITION = (0.2, 0.8)
HMM_MU_X = ((5.0, 7.0), (5.0, 15.0))
HMM_MU_Y = ((5.0, 8.0), (3.0, 8.0))

HEART_BINARY = ("smoker", "exercise", "heart_disease", "chest_pain",
                "fatigue", "abnormal_ecg")


def atom(variable: str, op: str, value) -> tuple:
    return ("atom", variable, op, value)


def variables(formula: tuple) -> List[str]:
    if formula[0] == "atom":
        return [formula[1]]
    return [name for child in formula[1] for name in variables(child)]


def render(formula: tuple) -> str:
    """Wire text of a formula (the compiler's event grammar)."""
    if formula[0] == "atom":
        _, name, op, value = formula
        if op == "in":
            return "(%s > %r and %s < %r)" % (name, value[0], name, value[1])
        return "%s %s %r" % (name, op, value)
    joiner = " and " if formula[0] == "and" else " or "
    return "(" + joiner.join(render(child) for child in formula[1]) + ")"


# -- Hierarchical HMM oracle ------------------------------------------------------


def _step_of(name: str) -> Tuple[str, int]:
    base, _, rest = name.partition("[")
    return base, int(rest.rstrip("]"))


def _hmm_atom_prob(formula: tuple, separated: int, z: int) -> float:
    _, name, op, value = formula
    base, _ = _step_of(name)
    if base == "Z":
        return 1.0 if z == value else 0.0
    if base == "X":
        mu = HMM_MU_X[separated][z]
        if op in ("<", "<="):
            return float(ndtr(value - mu))
        if op in (">", ">="):
            return float(ndtr(mu - value))
        if op == "in":
            return float(ndtr(value[1] - mu) - ndtr(value[0] - mu))
    if base == "Y":
        mu = HMM_MU_Y[separated][z]
        if op == "==":
            return float(poisson.pmf(value, mu))
        if op == "<=":
            return float(poisson.cdf(value, mu))
        if op == ">=":
            return float(poisson.sf(value - 1, mu))
    raise ValueError("unsupported HMM atom %r" % (formula,))


def hmm_conjunction_prob(atoms: Sequence[tuple]) -> float:
    """P(all atoms) in the hierarchical HMM, by a forward pass per branch."""
    by_step: Dict[int, List[tuple]] = {}
    for item in atoms:
        by_step.setdefault(_step_of(item[1])[1], []).append(item)
    last = max(by_step) if by_step else 0
    total = 0.0
    for separated, prior in ((0, 1.0 - HMM_P_SEPARATED), (1, HMM_P_SEPARATED)):
        alpha = [0.5, 0.5]
        for step in range(last + 1):
            if step:
                alpha = [
                    alpha[0] * (1.0 - HMM_P_TRANSITION[0])
                    + alpha[1] * (1.0 - HMM_P_TRANSITION[1]),
                    alpha[0] * HMM_P_TRANSITION[0] + alpha[1] * HMM_P_TRANSITION[1],
                ]
            for item in by_step.get(step, ()):
                alpha = [alpha[z] * _hmm_atom_prob(item, separated, z) for z in (0, 1)]
        total += prior * (alpha[0] + alpha[1])
    return total


def _disjuncts(formula: tuple) -> List[List[tuple]]:
    """A formula of distinct-variable atoms as a list of atom conjunctions."""
    if formula[0] == "atom":
        return [[formula]]
    if formula[0] == "and":
        result = [[]]
        for child in formula[1]:
            result = [left + right for left in result for right in _disjuncts(child)]
        return result
    return [conj for child in formula[1] for conj in _disjuncts(child)]


def hmm_prob(formula: tuple, condition: Optional[tuple] = None) -> float:
    """P(formula | condition) in the hierarchical HMM (inclusion-exclusion)."""
    names = variables(formula) + (variables(condition) if condition else [])
    if len(names) != len(set(names)):
        raise ValueError("HMM oracle needs each variable at most once: %r" % (names,))
    given = _disjuncts(condition) if condition else [[]]

    def joint(parts: List[List[tuple]]) -> float:
        total = 0.0
        for size in range(1, len(parts) + 1):
            for chosen in combinations(parts, size):
                atoms = list(dict.fromkeys(item for part in chosen for item in part))
                total += (-1) ** (size + 1) * hmm_conjunction_prob(atoms)
        return total

    if condition is None:
        return joint(_disjuncts(formula))
    both = [q + g for q in _disjuncts(formula) for g in given]
    return joint(both) / joint(given)


# -- Heart-disease oracle -----------------------------------------------------------


class HeartOracle:
    """Path-enumeration answers for heart-disease events, cached per input."""

    def __init__(self):
        from repro.baselines import PathEnumerationSolver
        from repro.workloads import table1_models

        self.solver = PathEnumerationSolver(table1_models.heart_disease())
        self._cache: Dict[Tuple[str, Optional[str]], float] = {}

    @staticmethod
    def to_event(formula: tuple):
        from repro.transforms import Id

        if formula[0] == "atom":
            _, name, op, value = formula
            variable = Id(name)
            if op == "==":
                return variable == value
            if op == "<":
                return variable < value
            if op == "<=":
                return variable <= value
            if op == ">":
                return variable > value
            if op == ">=":
                return variable >= value
            raise ValueError("unsupported heart atom %r" % (formula,))
        children = [HeartOracle.to_event(child) for child in formula[1]]
        event = children[0]
        for child in children[1:]:
            event = (event & child) if formula[0] == "and" else (event | child)
        return event

    def prob(self, formula: tuple, condition: Optional[tuple] = None) -> float:
        key = (render(formula), render(condition) if condition else None)
        if key not in self._cache:
            self._cache[key] = self.solver.query_probability(
                self.to_event(formula),
                condition=self.to_event(condition) if condition else None,
            )
        return self._cache[key]


# -- Generators ---------------------------------------------------------------------


def _x_threshold(rng: random.Random, name: str) -> tuple:
    return atom(name, rng.choice(("<", ">")), round(rng.uniform(3.0, 12.0), 6))


def _y_threshold(rng: random.Random, name: str) -> tuple:
    return atom(name, rng.choice(("<=", ">=")), rng.randint(2, 10))


def hmm_evidence(rng: random.Random, n_step: int) -> tuple:
    """An evidence event on one or two distinct HMM steps."""
    steps = rng.sample(range(n_step), 2)
    first = _x_threshold(rng, "X[%d]" % steps[0])
    if rng.random() < 0.5:
        return first
    return ("and", [first, _y_threshold(rng, "Y[%d]" % steps[1])])


def hmm_query(rng: random.Random, n_step: int, taken: Sequence[str]) -> tuple:
    """A single-step threshold, or a two-step conjunction/disjunction.

    Observed variables in ``taken`` (the condition's) are never reused,
    which keeps the forward-pass oracle exact.
    """
    free_steps = [t for t in range(n_step - 1)
                  if "X[%d]" % t not in taken and "Y[%d]" % (t + 1) not in taken
                  and "X[%d]" % (t + 1) not in taken]
    t = rng.choice(free_steps)
    first = _x_threshold(rng, "X[%d]" % t)
    if rng.random() < 0.4:
        return first
    second = (_y_threshold(rng, "Y[%d]" % (t + 1)) if rng.random() < 0.5
              else _x_threshold(rng, "X[%d]" % (t + 1)))
    return (rng.choice(("and", "or")), [first, second])


def heart_evidence(rng: random.Random) -> tuple:
    choice = rng.randrange(3)
    if choice == 0:
        return atom(rng.choice(HEART_BINARY), "==", rng.randint(0, 1))
    if choice == 1:
        return atom("cholesterol", ">", round(rng.uniform(170.0, 260.0), 6))
    return ("and", [atom("chest_pain", "==", 1),
                    atom("blood_pressure", "<", round(rng.uniform(110.0, 160.0), 6))])


def heart_query(rng: random.Random) -> tuple:
    cholesterol = atom("cholesterol", rng.choice(("<", ">")),
                       round(rng.uniform(160.0, 280.0), 6))
    pressure = atom("blood_pressure", rng.choice(("<", ">")),
                    round(rng.uniform(100.0, 170.0), 6))
    kind = rng.randrange(4)
    if kind == 0:
        return cholesterol
    if kind == 1:
        return pressure
    binary = atom(rng.choice(HEART_BINARY), "==", rng.randint(0, 1))
    if kind == 2:
        return ("and", [rng.choice((cholesterol, pressure)), binary])
    return ("or", [("and", [cholesterol, binary]), pressure])


class QueryMix:
    """The seeded prob-query stream of ``serve_cold``.

    Two models: ``hmm20`` (two requests in three) and ``heart_disease``.
    Every fourth request carries a condition drawn from 16 seeded
    evidence events of its model.  ``unique`` rejects any (model,
    condition, event) triple seen before, so no request repeats.
    """

    HMM = "hmm20"
    HEART = "heart_disease"
    HMM_STEPS = 20

    def __init__(self, seed: int):
        self.rng = random.Random("perfbench-queries-%d" % (seed,))
        self.evidence = {
            self.HMM: [hmm_evidence(self.rng, self.HMM_STEPS) for _ in range(16)],
            self.HEART: [heart_evidence(self.rng) for _ in range(16)],
        }
        self._seen = set()
        self._count = 0

    def next(self) -> Dict:
        while True:
            model = self.HMM if self.rng.random() < 2.0 / 3.0 else self.HEART
            condition = None
            if self._count % 4 == 3:
                condition = self.rng.choice(self.evidence[model])
            taken = variables(condition) if condition else []
            formula = (hmm_query(self.rng, self.HMM_STEPS, taken)
                       if model == self.HMM else heart_query(self.rng))
            key = (model, render(condition) if condition else None, render(formula))
            if key in self._seen:
                continue
            self._seen.add(key)
            self._count += 1
            return {"model": model, "formula": formula, "condition": condition}


def wire_line(request: Dict, request_id: int) -> Dict:
    line = {"id": request_id, "model": request["model"], "kind": "prob",
            "event": render(request["formula"])}
    if request["condition"] is not None:
        line["condition"] = render(request["condition"])
    return line


def close(value: float, expected: float) -> bool:
    """Agreement of a served probability with its oracle."""
    return (isinstance(value, float) and math.isfinite(value)
            and abs(value - expected) <= 1e-9 + 1e-7 * abs(expected))
