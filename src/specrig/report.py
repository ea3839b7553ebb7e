"""Report serialization (stable JSON) and the plain-text table renderer."""

from __future__ import annotations

import json


def serialize(doc: dict) -> str:
    """Canonical byte-stable rendering: fixed key order as constructed."""
    return json.dumps(doc, indent=2) + "\n"


_POLE_COLUMNS = [
    ("pole", "point"),
    ("nu", "nu"),
    ("m", "m"),
    ("Irr", "irregularity"),
    ("Irr(End)", "irr_end"),
    ("d(End)", "delta_end"),
    ("mu", "mu"),
    ("delta", "delta"),
    ("r_C", "r_c"),
    ("(C,Xinf)", "inf_intersection"),
]


def render_text(doc: dict) -> str:
    lines = []
    headers = [h for h, _ in _POLE_COLUMNS]
    rows = [[str(p[key]) for _, key in _POLE_COLUMNS] for p in doc["poles"]]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    g = doc["global"]
    lines.append("")
    lines.append(f"n = {g['n']}   b = {g['b']}   g_a = {g['g_a']}   "
                 f"sum delta = {g['delta_sum']}")
    lines.append(f"chi = {g['chi']}   rig = {g['rig']}")
    if "h_dims" in g:
        h = g["h_dims"]
        lines.append(f"h^0 = {h[0]}   h^1 = {h[1]}   h^2 = {h[2]}")
    lines.append(f"curve: {g['irreducibility']}; finite part "
                 f"{g['smoothness']}")
    for p in doc["poles"]:
        v = p["verdicts"]
        lines.append(f"pole {p['point']}: milnor "
                     f"{'ok' if v['milnor'] else 'FAIL'}, delta identity "
                     f"{'ok' if v['delta_identity'] else 'FAIL'}")
    lines.append(f"main theorem: {g['main_theorem']}")
    if doc["warnings"]:
        lines.append("")
        lines.append("warnings:")
        for w in doc["warnings"]:
            lines.append(f"  - {w}")
    return "\n".join(lines) + "\n"
