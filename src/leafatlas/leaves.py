"""Stratifications of V/W and (V x V*)/W and the leaf atlas of the
undeformed quotient under a twist.

Leaves are label-level objects: a parabolic-class tag, the matching class in
the induced group on the fixed space, a twist-coset class, and the (even)
dimension.  The twist-coset class of a leaf is read off the split-class
dictionary of `tau` (`TauContext.class_components`).  The closure model
attached to each leaf is the pair (fixed space of P restricted to V^tau,
normalizer quotient of P_tau), with parameter zero.
"""

from __future__ import annotations

from collections import namedtuple

from .refgroup import ReflectionGroup
from .tau import TauContext, TauError


# kind: "single" or "double"; normalizer_order: of the quotient acting on the closure model
Stratum = namedtuple("Stratum", "parabolic_class kind dimension parabolic_order normalizer_order")

# p_class: the class of P in Parab(W)/W; p_tau_class: of P_tau in Parab(W_tau)/W_tau;
# twist_class_rep: an element id, whose key the report prints
LeafLabel = namedtuple(
    "LeafLabel", "split_orbit p_class p_tau_class twist_class_rep dimension cuspidal_point "
                 "model_space_dim model_normalizer_order model_parameter")


def strata_single(W: ReflectionGroup) -> tuple[Stratum, ...]:
    out = []
    for c in W.parabolic_classes():
        N = W.normalizer(c.representative)
        out.append(Stratum(c.class_id, "single", c.fixed_dim,
                           c.representative.order, N.order))
    return tuple(out)


def strata_double(W: ReflectionGroup) -> tuple[Stratum, ...]:
    """The symplectic leaves of the undeformed quotient, one per class."""
    return tuple(s._replace(kind="double", dimension=2 * s.dimension) for s in strata_single(W))


def leaves_zero_tau(ctx: TauContext) -> tuple[LeafLabel, ...]:
    """The leaf atlas of the twisted undeformed quotient: one label per
    orbit of split parabolics, in bijection with parabolic classes of the
    induced group.

    Each leaf's cuspidal point is the origin, with no check of its own.
    `split_parabolics` checks that the part of P stabilizing V^tau restricts
    onto P_tau, the pointwise stabilizer of S = V^P cap V^tau in V^tau, and
    the rank check below that V^(P_tau), which holds S, is no larger.  So
    the points of V^tau fixed by that part are S, which meets the span of
    P's coroots only in 0, since V is the direct sum of V^P and it."""
    W = ctx.W
    wt = ctx.w_tau
    twist_rep = {}
    for cls in W.parabolic_classes():
        _, classes, mapping = ctx.class_components(cls)
        twist_rep.update((oi, classes[ci].rep) for oi, ci in mapping.items())
    out = []
    for oi, orbit in enumerate(ctx.split_orbits()):
        sp = orbit[0]
        if sp.tau_rank != len(sp.tau_fixed):
            raise TauError("restricted fixed spaces disagree")
        N_tau = wt.normalizer(sp.p_tau)
        out.append(LeafLabel(
            split_orbit=oi,
            p_class=W.class_of(sp.parabolic).class_id,
            p_tau_class=wt.class_of(sp.p_tau).class_id,
            twist_class_rep=twist_rep[oi],
            dimension=2 * sp.tau_rank,
            cuspidal_point="origin",
            model_space_dim=sp.tau_rank,
            model_normalizer_order=N_tau.order,
            model_parameter="0",
        ))
    if len(out) != len(wt.parabolic_classes()):
        raise TauError("leaf count does not match parabolic classes")
    out.sort(key=lambda l: (-l.dimension, l.p_tau_class, l.twist_class_rep))
    return tuple(out)


def leaf_report(ctx: TauContext, group_label: str, tau_label: str) -> dict:
    leaves = leaves_zero_tau(ctx)
    return {
        "schema": 1,
        "group": group_label,
        "tau": tau_label,
        "rule": "leaf-atlas-undeformed",
        "normalization_nontrivial": "unknown",
        "leaf_count": len(leaves),
        "leaves": [
            {
                "p_class": l.p_class,
                "p_tau_class": l.p_tau_class,
                "twist_class": ctx.W.elements[l.twist_class_rep].key,
                "dim": l.dimension,
                "cuspidal_point": l.cuspidal_point,
                "conjB_model": {
                    "space_dim": l.model_space_dim,
                    "normalizer_order": l.model_normalizer_order,
                    "parameter": l.model_parameter,
                },
            }
            for l in leaves
        ],
    }
