"""End-to-end analysis: from a parsed problem to the report document."""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .errors import (InputError, InsufficientTruncation,
                     InternalInconsistency, SpecrigError)
from .germs import GermData, delta_identity_holds
from .localmod import (build_local, check_assumption, delta_end,
                       discriminant_identity_holds, irr_end,
                       irregularity, reduction_cross_check)
from .matrf import (CharpolyDiscriminant, charpoly, default_truncation,
                    pole_order, validate_poles)
from .parsing import ProblemSpec
from .puiseux import separation_depth
from .ratfn import INFINITY, Chart
from .rigidity import (CurveClass, arithmetic_genus, cohomology_dims,
                       euler_char_normalization, irreducibility_status,
                       rigidity_index, smoothness_check_finite_part,
                       total_inf_intersection)
from .series import qdiv


# the last truncation order tried at a pole is 2^(TRUNCATION_ATTEMPTS - 1)
# times the base order (--truncation N, or default_truncation); with
# --truncation N the orders are N, 2N, 4N, 8N
TRUNCATION_ATTEMPTS = 4

# the largest order --truncation accepts (a series product is quadratic in it)
MAX_TRUNCATION = 1000


class AssumptionFailure(SpecrigError):
    """Carries the per-pole violation diagnostic."""

    def __init__(self, pole, detail):
        super().__init__(f"assumption violation at pole {pole}: {detail}")
        self.pole = pole
        self.detail = detail


def _pole_str(p):
    return "inf" if p == INFINITY else str(Fraction(p))


def first_truncation(cp, disc, a, ceiling) -> int:
    """A-priori truncation order N0 at pole a, from cp and its exact
    discriminant alone, never from the Puiseux clusters or the reduction
    route, so that the two routes stay independent; at most ceiling.

    Let F = sum F_i y^i be the local charpoly at a, v_i = ord F_i (read
    off the RatFn coefficients in the :class:`Chart` at a),
    vdisc = ord disc_y F, minord = min(0, least root order) (the least
    root order is min v_i / (n - i), the slope of the Newton polygon's
    last edge into (n, 0)) and T = :func:`separation_depth`, past which
    the descent certifies every root.  To first order, changing F_i at
    t^P moves a root y_j by t^(P + i ord y_j - ord F'(y_j)).  Since
    disc = +-prod_j F'(y_j) and every ord (y_j - y_k) >= minord,
    ord F'(y_j) <= vdisc - (n-1)^2 minord.  F_i expanded to N orders is
    known below P = v_i + N, which keeps every root certified past T when
    N > T + vdisc - (n-1)^2 minord - i minord - v_i.  A coefficient that
    is a Laurent polynomial at a is expanded exactly and sets no bound.

    This is a first-order estimate, not a proof: a truncated query still
    raises InsufficientTruncation and the caller retries at twice the
    order.
    """
    n = cp.degree
    chart = Chart(a)
    truncated = [i for i, c in enumerate(cp.coeffs)
                 if c and not chart.is_laurent(c)]
    if not truncated:
        return 1
    v = {i: chart.valuation(c, n - i)
         for i, c in enumerate(cp.coeffs[:n]) if c}
    minord = min([0] + [qdiv(vi, n - i) for i, vi in v.items()])
    vdisc = disc.valuation(a)
    reach = separation_depth(n, vdisc, minord) + vdisc \
        - (n - 1) ** 2 * minord
    return min(ceiling, max(1, max(floor(reach - i * minord - v[i]) + 1
                                   for i in truncated)))


def truncation_orders(start, base):
    """The orders tried at one pole: start, 2 start, 4 start, ... below
    the ceiling base * 2^(TRUNCATION_ATTEMPTS - 1), then the ceiling."""
    ceiling = base * 2 ** (TRUNCATION_ATTEMPTS - 1)
    while start < ceiling:
        yield start
        start *= 2
    yield ceiling


def _analyze_pole(a_mat, pole, nterms, cp, disc, check_reduction):
    """Every per-pole step at one truncation order: the build, the
    assumption gate, the discriminant identity, the optional reduction
    cross-check and the germ.  Returns (local module, germ data)."""
    local = build_local(a_mat, pole, nterms, cp, disc)
    if not check_assumption(local):
        raise AssumptionFailure(_pole_str(pole), local.violation)
    if not discriminant_identity_holds(local):
        raise InternalInconsistency(
            f"discriminant valuation identity fails at pole "
            f"{_pole_str(pole)}")
    if check_reduction:
        reduction_cross_check(local)
    return local, GermData(local)


def run_analysis(spec: ProblemSpec, truncation=None,
                 assume_irreducible_curve=False,
                 assert_irreducible_connection=False,
                 check_reduction=False):
    """Full pipeline; returns (document dict, exit code 0 or 1).

    Each pole is first analysed at the truncation order given, or at the
    a-priori order of :func:`first_truncation`; a pole whose series run
    out of certified terms is re-analysed at twice the order, up to
    2^(TRUNCATION_ATTEMPTS - 1) times the given order or
    :func:`default_truncation` (:func:`truncation_orders`).  Analysis
    errors (assumption violations, unsupported input, exhausted
    truncation) raise; the CLI maps them to exit code 2.
    """
    if truncation is not None and truncation < 1:
        raise InputError(
            f"truncation order must be at least 1, got {truncation}")
    if truncation is not None and truncation > MAX_TRUNCATION:
        raise InputError(
            f"truncation order (--truncation) must be at most "
            f"{MAX_TRUNCATION}, got {truncation}")
    a_mat = spec.matrix
    n = a_mat.n
    warnings = list(validate_poles(a_mat, spec.poles))
    cp = charpoly(a_mat)
    disc = CharpolyDiscriminant(cp)
    locals_ = []
    germs = []
    for pole in spec.poles:
        if truncation is None:
            base = default_truncation(n, pole_order(a_mat, pole))
            start = first_truncation(cp, disc, pole, base)
        else:
            base = start = truncation
        orders = list(truncation_orders(start, base))
        for nterms in orders:
            try:
                local, germ = _analyze_pole(a_mat, pole, nterms, cp, disc,
                                            check_reduction)
                break
            except InsufficientTruncation as exc:
                last = exc
        else:
            raise type(last)(
                f"{last} (pole {_pole_str(pole)}, truncation orders "
                f"{', '.join(map(str, orders))})") from last
        if local.nu == 0:
            # declared point is not actually a pole; validate_poles has
            # already warned, and there is no germ at infinity to analyze
            continue
        locals_.append(local)
        germs.append(germ)
        warnings.extend(local.warnings)
    b = total_inf_intersection(germs)
    curve = CurveClass(n, b, spec.genus)
    g_a = arithmetic_genus(curve)
    delta_sum = sum(g.delta for g in germs)
    rig = rigidity_index(locals_, spec.genus)
    smooth_status, smooth_detail = smoothness_check_finite_part(
        disc, spec.poles)
    irred = irreducibility_status(disc, locals_)
    if irred == "unknown" and assume_irreducible_curve:
        irred = "assumed-irreducible"
    resonant = any("resonant" in w for w in warnings)
    # chi by the genus-delta formula; it equals the Euler characteristic
    # of the normalization when the curve is irreducible and smooth away
    # from the infinity divisor (the main-theorem hypotheses below)
    chi = euler_char_normalization(g_a, germs)
    if irred == "reducible":
        main = "not-applicable: spectral curve is reducible"
    elif irred == "unknown":
        main = "not-applicable: curve irreducibility undecided (use " \
               "--assume-irreducible-curve to assert it)"
    elif smooth_status != "ok":
        main = f"not-applicable: finite-part smoothness {smooth_status}" \
               + (f" ({smooth_detail})" if smooth_detail else "")
    elif resonant:
        main = "not-applicable: resonance warning makes the horizontal " \
               "dimension unverified"
    else:
        main = "true" if rig == chi else "false"
    failed = main == "false"
    pole_blocks = []
    for local, germ in zip(locals_, germs):
        milnor_ok = germ.mu == germ.mu_oracle_value
        delta_ok = delta_identity_holds(germ)
        if not (milnor_ok and delta_ok):
            failed = True
        pole_blocks.append({
            "point": _pole_str(local.pole),
            "nu": local.nu,
            "mode": local.mode,
            "m": local.m,
            "cells": [{"p": c.p, "r": c.r} for c in local.cells],
            "irregularity": irregularity(local),
            "irr_end": irr_end(local),
            "delta_end": delta_end(local),
            "r_c": germ.r_c,
            "mu": germ.mu,
            "mu_oracle": germ.mu_oracle_value,
            "delta": germ.delta,
            "inf_intersection": germ.local_inf,
            "verdicts": {"milnor": milnor_ok, "delta_identity": delta_ok},
        })
    doc = {
        "schema_version": "1",
        "input": {
            "variable": spec.variable,
            "rank": n,
            "genus": spec.genus,
            "poles": [_pole_str(p) for p in spec.poles],
            "matrix": spec.entries,
        },
        "poles": pole_blocks,
        "global": {
            "n": n,
            "b": b,
            "g_a": g_a,
            "delta_sum": delta_sum,
            "chi": chi,
            "rig": rig,
            "irreducibility": irred,
            "smoothness": smooth_status
            if smooth_detail is None else f"{smooth_status}: "
                                          f"{smooth_detail}",
            "main_theorem": main,
        },
        "warnings": warnings,
    }
    if assert_irreducible_connection:
        h0, h1, h2 = cohomology_dims(rig)
        doc["global"]["h_dims"] = [h0, h1, h2]
        if h1 < 0:
            doc["warnings"].append(
                "h^1 = 2 - rig is negative: the connection is unlikely "
                "to be irreducible as asserted")
    return doc, (1 if failed else 0)
