"""Per-pole differential-module data: HTL cells and irregularities.

Each Puiseux cluster of the local characteristic polynomial gives one cell:
q is the strictly negative exponent part of z * (representative root),
r the ramification, p = -r * ord(q).  Formulas below require the local
normal form to be multiplicity free or regular semisimple; anything else
is reported as an assumption violation, never silently computed.  Both
modes are decided from the Puiseux clusters alone; the reduction route
(:func:`reduction_cross_check`) only re-derives the cells when asked.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InternalInconsistency
from .matrf import (CharpolyDiscriminant, MatRF, localize,
                    localize_charpoly, pole_order)
from .puiseux import (PuiseuxCluster, conjugate_pairs, contact_pair_sum,
                      first_difference, pair_total,
                      principal_contact_negative, puiseux_clusters,
                      text_key)
from .qpoly import UPoly
from .series import INF, Series
from .tower import rational_value


class HTLCell:
    """One formal exponential cell: principal part q, orbit size r.

    residue (r = 1 only, else None) is the z^-1 coefficient of the root,
    always certified: the Puiseux descent ends a cluster only once it is
    alone and its last exponent reaches :func:`separation_depth` >= 1, so
    every term below an exponent above 1 is known."""

    __slots__ = ("q", "r", "p", "cluster", "residue")

    def __init__(self, cluster: PuiseuxCluster):
        rep = cluster.rep
        q = Series({e + 1: c for e, c in rep.terms.items() if e < -1})
        self.q = q
        self.r = cluster.r
        ordq = min(q.terms) if q.terms else None
        self.p = 0 if ordq is None else int(-cluster.r * ordq)
        self.cluster = cluster
        self.residue = rep.terms.get(-1, 0) if cluster.r == 1 else None

    @property
    def is_regular(self):
        return self.p == 0

    def __repr__(self):
        return f"HTLCell(p={self.p}, r={self.r}, q={self.q!r})"


class LocalModule:
    """All per-pole data needed by the invariant formulas."""

    __slots__ = ("pole", "n", "nu", "cells", "clusters", "tower",
                 "local_charpoly", "a_mat", "_local_matrix", "mode",
                 "violation", "warnings", "nterms", "vdisc", "_irr_end")

    def __init__(self, pole, n, nu, cells, clusters, tower, local_charpoly,
                 a_mat, nterms, vdisc):
        self.pole = pole
        self.n = n
        self.nu = nu
        self.cells = cells
        self.clusters = clusters
        self.tower = tower
        self.local_charpoly = local_charpoly
        self.a_mat = a_mat
        self._local_matrix = None
        self.nterms = nterms
        self.vdisc = vdisc  # ord disc_y of local_charpoly, from cp alone
        self.mode = None
        self.violation = None
        self.warnings = []
        self._irr_end = None  # irr_end, kept at its first call

    @property
    def m(self):
        return len(self.cells)

    @property
    def local_matrix(self):
        """The connection matrix expanded at the pole to nterms orders,
        built on first read and cached.  Only the reduction route reads
        it; the Puiseux route, the germ oracle and the multiplicity-free
        gate work from the local charpoly alone."""
        if self._local_matrix is None:
            self._local_matrix = localize(self.a_mat, self.pole,
                                          self.nterms)
        return self._local_matrix


def build_local(a_mat: MatRF, a, nterms: int, cp: UPoly,
                disc: CharpolyDiscriminant) -> LocalModule:
    """Localize the charpoly cp at a to nterms orders and cluster its
    roots.  disc is cp's :class:`CharpolyDiscriminant`; a series
    consulted past nterms raises InsufficientTruncation, and the caller
    retries at a higher order."""
    vdisc = disc.valuation(a)
    f_local = UPoly(localize_charpoly(cp, a, nterms))
    clusters, tower = puiseux_clusters(f_local, vdisc)
    cells = [HTLCell(c) for c in clusters]
    cells.sort(key=lambda c: (-Fraction(c.p, c.r), str(sorted(
        (text_key(e), text_key(v)) for e, v in c.q.terms.items()))))
    return LocalModule(a, a_mat.n, pole_order(a_mat, a), cells,
                       [c.cluster for c in cells], tower, f_local, a_mat,
                       nterms, vdisc)


# -- assumption check --------------------------------------------------------

def check_assumption(local: LocalModule) -> bool:
    """Multiplicity-free or regular-semisimple gate, from the Puiseux
    cells alone; sets local.mode and, on failure, local.violation, and
    returns the ok flag.

    Regular semisimple: every cell is unramified (so there are n) and
    the (q, residue) pairs are pairwise distinct.  The residue is the
    t^-1 coefficient of an eigenvalue series of the local matrix, which
    similarity leaves unchanged: what the reduction route reads too.
    Two regular cells whose residues differ by a nonzero integer are
    resonant, which the Schur count of :func:`delta_end` does not cover;
    this mode then appends a warning to local.warnings.
    """
    cells = local.cells
    regular = [c for c in cells if c.is_regular]
    reason = None
    for c in cells:
        # how many of the r conjugates xi^k q (k = 0..r-1) equal q
        shared = 1 + sum(
            principal_contact_negative(c.cluster, c.cluster, k) is None
            for k in conjugate_pairs(c.cluster, c.cluster)[0])
        if shared == 1:
            continue
        if c.is_regular:
            reason = (f"a regular cell (q = 0) has ramification {c.r}: "
                      "a multiplicity-" f"{c.r} cell")
        else:
            reason = (f"{shared} conjugates of a cell of ramification "
                      f"{c.r} share its principal part q: a "
                      f"multiplicity-{shared} cell")
    if len(regular) > 1:
        reason = f"{len(regular)} regular cells (q = 0) coincide"
    elif reason is None and any(  # some conjugate of q_j equals q_i
            principal_contact_negative(ci.cluster, cj.cluster, k) is None
            for i, ci in enumerate(cells) for cj in cells[i + 1:]
            for k in conjugate_pairs(ci.cluster, cj.cluster)[0]):
        reason = "two cells share the same exponential principal part"
    if reason is None:
        local.mode = "multiplicity-free"
        return True
    if all(c.r == 1 for c in cells):
        twin = next((ci for i, ci in enumerate(cells) for cj in cells[i + 1:]
                     if (ci.q.terms, ci.residue) == (cj.q.terms, cj.residue)),
                    None)
        if twin is None:
            local.mode = "regular-semisimple"
            gaps = [rational_value(ci.residue - cj.residue)
                    for i, ci in enumerate(cells) for cj in cells[i + 1:]
                    if not (ci.q.terms or cj.q.terms)]
            if any(d is not None and d and d.denominator == 1
                   for d in gaps):
                local.warnings.append(
                    f"resonant exponent residues at pole {local.pole}: "
                    "horizontal dimension may overcount; dependent "
                    "results unverified")
            return True
        if twin.is_regular:
            value = rational_value(twin.residue)
            reason += (", and the residue has the repeated eigenvalue "
                       + text_key(twin.residue if value is None else value))
        else:
            reason = "diagonal normal forms are not pairwise distinct"
    local.mode = None
    local.violation = reason
    return False


def reduction_cross_check(local: LocalModule) -> bool:
    """Recompute the HTL cells by pullback + splitting and match them
    against the Puiseux-route cells: q, and the residue if r = 1.

    Returns True on agreement; raises InternalInconsistency on mismatch
    and ReductionUnavailable when the split route cannot run.
    """
    from .splitting import htl_from_reduction
    s = lcm(*(c.r for c in local.cells))
    red = htl_from_reduction(local.local_matrix, s, local.tower)
    matched = [0] * len(local.cells)
    for q_red, residue in red:
        hit = next((idx for idx, cell in enumerate(local.cells)
                    if matched[idx] < cell.r
                    and (cell.r > 1 or cell.residue == residue)
                    and any(first_difference(q_red, cell.q, k, INF) is None
                            for k in range(cell.r))), None)
        if hit is None:
            raise InternalInconsistency(
                "reduction produced a principal part and residue with no "
                "matching Puiseux cell")
        matched[hit] += 1
    if matched != [c.r for c in local.cells]:
        raise InternalInconsistency(
            "reduction blocks do not cover each cell exactly r times")
    return True


# -- irregularity ------------------------------------------------------------

def irregularity(local: LocalModule) -> int:
    return sum(c.p for c in local.cells)


def irr_hom(ci: HTLCell, cj: HTLCell) -> int:
    """-sum over conjugate pairs of min(0, ord(xi^k q_i - xi^l q_j)).

    For i = j only the r(r-1) pairs with k != l contribute (the pairs of
    :func:`conjugate_pairs`).
    """
    shifts, weight = conjugate_pairs(ci.cluster, cj.cluster)
    contacts = (principal_contact_negative(ci.cluster, cj.cluster, k)
                for k in shifts)
    return _as_int(-weight * sum(v for v in contacts if v is not None))


def _as_int(x) -> int:
    x = Fraction(x)
    if x.denominator != 1:
        raise InternalInconsistency(f"irregularity {x} is not an integer")
    return int(x)


def irr_end(local: LocalModule) -> int:
    """Irr(End) = sum of Irr(Hom) over ordered pairs of cells, computed
    at the first call (after the assumption gate has run) and kept."""
    if local._irr_end is None:
        local._irr_end = pair_total(local.cells, irr_hom)
    return local._irr_end


def delta_end(local: LocalModule) -> int:
    """Local Euler-Poincare term of End(M): n^2 + Irr(End) - m.  The
    cell count m is the dimension of formal horizontal endomorphisms by
    Schur's lemma for pairwise distinct cells; :func:`check_assumption`
    warns of the resonant residues that the lemma does not cover."""
    return local.n ** 2 + irr_end(local) - local.m


def discriminant_identity_holds(local: LocalModule) -> bool:
    """2 * sum of pairwise root contacts == ord_z disc_y of the local
    characteristic polynomial (the independent valuation oracle, read off
    the exact global discriminant of cp)."""
    if local.n < 2:
        return True
    return contact_pair_sum(local.clusters) == local.vdisc
