"""Outcome checker: every operation's report against expected invariants.

`expected.json` holds, for every corpus member, the invariants of its
plain analysis at seed 0 (or the error class it must be refused with).
They were recorded with every two-route verdict true, and they are
similarity invariants, so the same record serves every seed and the
`check_reduction` runs of the cross_check workload.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def invariants(doc, code):
    """The checked, similarity-invariant part of a report."""
    g = doc["global"]
    return {
        "exit": code,
        "rig": g["rig"],
        "chi": g["chi"],
        "g_a": g["g_a"],
        "b": g["b"],
        "irreducibility": g["irreducibility"],
        "poles": [{"point": p["point"], "nu": p["nu"], "mode": p["mode"],
                   "m": p["m"],
                   "cells": sorted([c["p"], c["r"]] for c in p["cells"]),
                   "mu": p["mu"], "delta": p["delta"]}
                  for p in doc["poles"]],
    }


def check_report(expected, doc, code):
    """Mismatches between a parsed report and the expected record; an
    empty list means the report is correct."""
    if "refused" in expected:
        return [f"expected refusal with {expected['refused']}, got a report"]
    problems = []
    got = invariants(doc, code)
    for key, want in expected.items():
        if got[key] != want:
            problems.append(f"{key}: expected {want!r}, got {got[key]!r}")
    for p in doc["poles"]:
        for verdict, ok in p["verdicts"].items():
            if ok is not True:
                problems.append(f"pole {p['point']}: verdict {verdict} "
                                f"is {ok!r}")
        if p["mu"] != p["mu_oracle"]:
            problems.append(f"pole {p['point']}: mu {p['mu']} != "
                            f"mu_oracle {p['mu_oracle']}")
    g = doc["global"]
    if g["main_theorem"] == "true" and g["rig"] != g["chi"]:
        problems.append(f"main theorem true but rig {g['rig']} != "
                        f"chi {g['chi']}")
    return problems
