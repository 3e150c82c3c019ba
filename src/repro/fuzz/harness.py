"""The fuzzing campaign driver: seeds -> scenarios -> oracle -> shrinker.

``run_fuzz(FuzzOptions(...))`` derives one deterministic scenario per case
from the campaign seed, runs the differential oracle on each, and — when a
case fails — minimizes it with the greedy shrinker and writes a Bookshelf
repro into the corpus directory.  The previous case's solver state is
threaded into the next case as a *stale* warm start, so the
state-validation path is exercised continuously with real cross-design
states.

Telemetry (zero-cost when no session is active): counters ``fuzz.cases``,
``fuzz.failures``, ``fuzz.infeasible_designs``, ``fuzz.repros_written``,
``fuzz.invariant_violations``, ``fuzz.shrink_evals``; one ``fuzz`` solver
event per failing case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.state import SolverState
from repro.fuzz.corpus import write_repro
from repro.fuzz.generator import Scenario, generate_scenario
from repro.fuzz.invariants import CaseReport, InvariantFailure
from repro.fuzz.oracle import OracleOptions, run_oracle, run_oracle_design
from repro.fuzz.shrinker import shrink_design
from repro.netlist.design import Design
from repro.telemetry import current_session


@dataclass
class FuzzOptions:
    """Campaign controls (CLI: ``repro fuzz``)."""

    cases: int = 100
    seed: int = 0
    #: Wall-clock budget in seconds; None = unbounded.  Checked between
    #: cases and passed down to the shrinker.
    time_budget: Optional[float] = None
    shrink: bool = True
    #: Where minimized repros are written; None disables persistence.
    corpus_dir: Optional[str] = None
    #: Stop the campaign after this many failing cases.
    max_failures: int = 10
    #: Restrict scenario sampling to these kinds (None = full mix).
    kinds: Optional[List[str]] = None


@dataclass
class CaseOutcome:
    index: int
    seed: int
    kind: str
    num_cells: int
    failures: List[InvariantFailure] = field(default_factory=list)
    infeasible: bool = False
    shrunk_cells: Optional[int] = None
    repro_dir: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    options: FuzzOptions
    outcomes: List[CaseOutcome] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False

    @property
    def cases_run(self) -> int:
        return len(self.outcomes)

    @property
    def failing(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failing

    def summary(self) -> str:
        n_inf = sum(1 for o in self.outcomes if o.infeasible)
        text = (
            f"fuzz: {self.cases_run}/{self.options.cases} cases "
            f"(seed {self.options.seed}), {len(self.failing)} failing, "
            f"{n_inf} infeasible-by-design, {self.elapsed:.1f}s"
        )
        if self.budget_exhausted:
            text += " [time budget exhausted]"
        for o in self.failing:
            for f in o.failures:
                text += f"\n  case {o.index} (seed {o.seed}, {o.kind}): {f.describe()}"
            if o.repro_dir:
                text += (
                    f"\n    -> minimized to {o.shrunk_cells} cell(s): {o.repro_dir}"
                )
        return text


def case_seeds(campaign_seed: int, cases: int) -> List[int]:
    """Deterministic per-case seeds derived from the campaign seed."""
    state = np.random.SeedSequence(campaign_seed).generate_state(cases)
    return [int(s) for s in state]


def _shrink_options(failure: InvariantFailure) -> OracleOptions:
    """Oracle options reduced to re-checking exactly the failed invariant."""
    config_filter = (
        [failure.config]
        if failure.config not in (None, "baseline")
        else []
    )
    return OracleOptions(configs=config_filter, invariants={failure.invariant})


def _make_predicate(
    failure: InvariantFailure,
    expect_infeasible: bool,
    stale_state: Optional[SolverState],
) -> Callable[[Design], bool]:
    sub = _shrink_options(failure)

    def predicate(design: Design) -> bool:
        if design.num_cells == 0 or not design.movable_cells:
            return False
        if expect_infeasible:
            scenario = _DesignScenario(design)
            report = run_oracle(scenario, sub)
        else:
            report = run_oracle_design(
                lambda: design.clone(),
                sub,
                stale_state=stale_state if failure.invariant == "stale_state" else None,
            )
        return any(f.invariant == failure.invariant for f in report.failures)

    return predicate


class _DesignScenario(Scenario):
    """Adapter: shrinker candidates re-enter the infeasibility oracle."""

    def __init__(self, design: Design) -> None:
        super().__init__(seed=0, kind="design", knobs={}, expect_infeasible=True)
        object.__setattr__(self, "_design", design)

    def build(self) -> Design:
        return self._design.clone()


def _shrink_and_persist(
    scenario: Scenario,
    outcome: CaseOutcome,
    opts: FuzzOptions,
    stale_state: Optional[SolverState],
    deadline: Optional[float],
) -> None:
    metrics = current_session().metrics
    failure = outcome.failures[0]
    budget = None
    if deadline is not None:
        budget = max(deadline - time.monotonic(), 5.0)
    predicate = _make_predicate(
        failure, scenario.expect_infeasible, stale_state
    )
    design = scenario.build()
    shrunk = design
    if opts.shrink:
        try:
            result = shrink_design(design, predicate, time_budget=budget)
            shrunk = result.design
            outcome.shrunk_cells = shrunk.num_cells
        except Exception:  # noqa: BLE001 — shrink is best-effort
            outcome.shrunk_cells = design.num_cells
    else:
        outcome.shrunk_cells = design.num_cells
    if opts.corpus_dir:
        meta = {
            "seed": scenario.seed,
            "kind": scenario.kind,
            "knobs": scenario.knobs,
            "invariant": failure.invariant,
            "config": failure.config,
            "details": failure.details,
            "cells": shrunk.num_cells,
            "original_cells": design.num_cells,
            "expect_infeasible": scenario.expect_infeasible,
            "all_failures": [f.describe() for f in outcome.failures],
        }
        outcome.repro_dir = write_repro(opts.corpus_dir, shrunk, meta)
        metrics.counter("fuzz.repros_written").inc()


def run_fuzz(opts: Optional[FuzzOptions] = None) -> FuzzReport:
    """Run one deterministic fuzzing campaign."""
    opts = opts or FuzzOptions()
    tel = current_session()
    metrics = tel.metrics
    report = FuzzReport(options=opts)
    start = time.monotonic()
    deadline = start + opts.time_budget if opts.time_budget else None
    stale_state: Optional[SolverState] = None

    for index, seed in enumerate(case_seeds(opts.seed, opts.cases)):
        if deadline is not None and time.monotonic() > deadline:
            report.budget_exhausted = True
            break
        if len(report.failing) >= opts.max_failures:
            break
        case_start = time.monotonic()
        scenario = generate_scenario(seed, kinds=opts.kinds)
        metrics.counter("fuzz.cases").inc()
        case_report = run_oracle(scenario, stale_state=stale_state)
        outcome = CaseOutcome(
            index=index,
            seed=seed,
            kind=scenario.kind,
            num_cells=case_report.num_cells,
            failures=list(case_report.failures),
            infeasible=case_report.infeasible,
        )
        if case_report.infeasible:
            metrics.counter("fuzz.infeasible_designs").inc()
        if outcome.failures:
            metrics.counter("fuzz.failures").inc()
            if tel.solver_events is not None:
                tel.solver_events.emit(
                    "fuzz",
                    "case_failed",
                    seed=seed,
                    scenario_kind=scenario.kind,
                    invariants=",".join(case_report.invariant_names()),
                )
            # The stale chain must replay with the state that was live
            # *during* this case, so update it only afterwards.
            _shrink_and_persist(scenario, outcome, opts, stale_state, deadline)
        next_state = case_report.extras.get("solver_state")
        if isinstance(next_state, SolverState):
            stale_state = next_state
        outcome.elapsed = time.monotonic() - case_start
        report.outcomes.append(outcome)

    report.elapsed = time.monotonic() - start
    return report


__all__ = [
    "CaseOutcome",
    "FuzzOptions",
    "FuzzReport",
    "case_seeds",
    "run_fuzz",
]
