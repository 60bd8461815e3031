"""Evaluation metrics over run records.

Pure functions over lists of run-record dicts. Success is reported three
ways over k runs per scenario (mean, at-least-one, all-of-k); proposals get
a four-way outcome taxonomy where a proposal the user investigated before
resolving counts as gather-context, sub-labeled by its eventual resolution.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .errors import NoProposals, UnevenRunCounts
from .shapes import REQUIRED

TERNARY_LABELS = ("accept", "reject", "gather_context", "truncated")
RESOLUTIONS = ("accept", "reject", "truncated")
GROUPING = ("model", "noise_rate", "failure_prob")
_STATUS_LABEL = {"accepted": "accept", "rejected": "reject", "truncated": "truncated"}
# A run record as `run_episode` and `phonesim run` write it. The keys the
# report reads are required; the others default to what the report reads
# when they are absent.
PROPOSAL = {"turn": ("int", None), "status": (tuple(_STATUS_LABEL), REQUIRED),
            "user_actions_while_pending": ("int", 0)}
RECORD = {
    "scenario_id": ("str", REQUIRED), "run_index": ("int", REQUIRED), "seed": ("int", None),
    "noise_rate": ("float", None), "failure_prob": ("float", None), "model": ("str", None),
    "success": ("bool", REQUIRED), "goals": ("dict", {}), "proposals": ([PROPOSAL], []),
    "read_actions_observe": ("int", REQUIRED), "read_actions_total": ("int", REQUIRED),
    "turns_used": ("int", REQUIRED), "aborted_reason": ("str", None),
}


def classify_proposal(proposal: dict) -> tuple[str, str | None]:
    """(label, resolution): gather_context when the user acted while the
    proposal was pending, sub-labeled by how it eventually resolved."""
    resolution = _STATUS_LABEL[proposal["status"]]
    if proposal.get("user_actions_while_pending", 0) >= 1:
        return "gather_context", resolution
    return resolution, None


def _all_proposals(records: list[dict]) -> list[dict]:
    return [p for record in records for p in record.get("proposals", [])]


def acceptance_rate(records: list[dict]) -> float:
    """Accepted ÷ all proposals, pooled; gather-context proposals count by
    their resolution; truncated ones count in the denominator only."""
    proposals = _all_proposals(records)
    if not proposals:
        raise NoProposals("acceptance rate is undefined without proposals")
    accepted = sum(1 for p in proposals if p["status"] == "accepted")
    return accepted / len(proposals)


def proposal_rate(records: list[dict]) -> float:
    """Proposals ÷ turns, pooled across runs."""
    turns = sum(record["turns_used"] for record in records)
    if turns < 1:
        raise ValueError("proposal rate needs at least one turn")
    return len(_all_proposals(records)) / turns


def group_by_scenario(records: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        groups[record["scenario_id"]].append(record)
    return {sid: sorted(rs, key=lambda r: r["run_index"]) for sid, rs in groups.items()}


def success_metrics(records: list[dict], k: int) -> dict:
    """rate = mean success over all runs; at_k = fraction of scenarios with
    at least one success; pow_k = fraction with k out of k."""
    groups = group_by_scenario(records)
    if not groups:
        raise UnevenRunCounts("no records")
    for sid, runs in groups.items():
        if len(runs) != k:
            raise UnevenRunCounts(f"scenario {sid!r} has {len(runs)} runs, expected {k}")
    outcomes = {sid: [bool(r["success"]) for r in runs] for sid, runs in groups.items()}
    n_scenarios = len(outcomes)
    return {
        "success_rate": sum(sum(v) for v in outcomes.values()) / (n_scenarios * k),
        "success_at_k": sum(any(v) for v in outcomes.values()) / n_scenarios,
        "success_pow_k": sum(all(v) for v in outcomes.values()) / n_scenarios,
    }


def classify_outcomes(records: list[dict]) -> dict:
    """Four-way outcome counts plus the resolution breakdown of the
    gather-context subset. Fractions sum to 1 when proposals exist."""
    ternary = {label: 0 for label in TERNARY_LABELS}
    resolution = {label: 0 for label in RESOLUTIONS}
    for proposal in _all_proposals(records):
        label, res = classify_proposal(proposal)
        ternary[label] += 1
        if res is not None:
            resolution[res] += 1
    total = sum(ternary.values())
    fractions = {label: (count / total if total else 0.0)
                 for label, count in ternary.items()}
    return {"ternary": ternary, "ternary_fractions": fractions,
            "gather_context_resolution": resolution, "total_proposals": total}


def mean_stderr(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and standard error over run-level means (sample stdev / sqrt(n))."""
    if not values:
        return None, None
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var) / math.sqrt(len(values))


def _run_level_means(records: list[dict]) -> dict[str, list[float]]:
    """Per run-index means across scenarios: the k values the ± is over."""
    by_index: dict[int, list[dict]] = defaultdict(list)
    for record in records:
        by_index[record["run_index"]].append(record)
    out: dict[str, list[float]] = {"success": [], "proposal_rate": [],
                                   "acceptance_rate": [], "read_actions": []}
    for index in sorted(by_index):
        batch = by_index[index]
        out["success"].append(sum(bool(r["success"]) for r in batch) / len(batch))
        out["proposal_rate"].append(proposal_rate(batch))
        try:
            out["acceptance_rate"].append(acceptance_rate(batch))
        except NoProposals:
            pass
        out["read_actions"].append(
            sum(r["read_actions_total"] for r in batch) / len(batch))
    return out


def aggregate_report(records: list[dict], k: int) -> dict:
    """One row per GROUPING cell with mean ± stderr columns, the three
    success variants, and the outcome taxonomy."""
    cells: dict[tuple, list[dict]] = defaultdict(list)
    for record in records:
        key = tuple(record.get(field) for field in GROUPING)
        cells[key].append(record)

    rows = []
    for key in sorted(cells, key=lambda t: tuple(str(x) for x in t)):
        batch = cells[key]
        success = success_metrics(batch, k)
        levels = _run_level_means(batch)
        _, s_err = mean_stderr(levels["success"])
        _, p_err = mean_stderr(levels["proposal_rate"])
        _, a_err = mean_stderr(levels["acceptance_rate"])
        r_mean, r_err = mean_stderr(levels["read_actions"])
        try:
            a_pooled = acceptance_rate(batch)
        except NoProposals:
            a_pooled = None
        row = {
            "cell": dict(zip(GROUPING, key)),
            "runs": len(batch),
            "success_rate": success["success_rate"],
            "success_rate_stderr": s_err,
            "success_at_k": success["success_at_k"],
            "success_pow_k": success["success_pow_k"],
            "proposal_rate": proposal_rate(batch),
            "proposal_rate_stderr": p_err,
            "acceptance_rate": a_pooled,
            "acceptance_rate_stderr": a_err,
            "read_actions_mean": r_mean,
            "read_actions_stderr": r_err,
            "read_actions_observe_mean":
                sum(r["read_actions_observe"] for r in batch) / len(batch),
            "outcomes": classify_outcomes(batch),
        }
        rows.append(row)
    return {"k": k, "grouping": list(GROUPING), "cells": rows}
