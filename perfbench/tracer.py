"""Outside-in tracer for the biliaison layers.

The tracer replaces selected functions with timing wrappers from outside the
package: every module attribute (and class attribute) bound to a traced
function is rebound to its wrapper, so callers that imported the function by
name are traced too.  Nothing under ``src/`` is edited.

Each span records calls, inclusive time of its outermost activations and self
time (duration minus the time of wrapped spans nested inside it).  Per-term
helpers such as ``modgb._term_key`` are deliberately left unwrapped: their
cost stays in the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.counts: Counter = Counter()
        self.covered = 0.0  # time inside outermost spans
        self._stack: List[list] = []  # frames: [name, child_time, child_names or None]

    def parent_name(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def span(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        record_children: bool = False,
    ) -> Callable:
        """Timing wrapper; ``before(args, kwargs)`` runs first and its value is
        passed on as ``after(args, kwargs, result, token, frame)``."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [name, 0.0, [] if record_children else None]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_time += dt - frame[1]
                if stat.depth == 0:
                    stat.total += dt
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    if parent[2] is not None:
                        parent[2].append(name)
                else:
                    tracer.covered += dt
            if after is not None:
                after(args, kwargs, result, token, frame)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Call counter without timing, for helpers hot enough that a span
        would distort the measurement."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def rebind(modules, owner, attr: str, wrapper: Callable) -> None:
    """Point every binding of ``owner.attr`` in ``modules`` at ``wrapper``.

    ``owner`` is a module or a class.  A name the package no longer has is
    reported on standard error and left untraced, so its metrics read 0.
    """
    if not hasattr(owner, attr):
        print(f"trace: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
        return
    if inspect.isclass(owner):
        setattr(owner, attr, wrapper)
        return
    original = inspect.getattr_static(owner, attr)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the biliaison package.

    Cache-hit tests read the module-level caches by name; a cache that is
    gone counts every call as a miss.
    """
    from biliaison import _linalg, cli, families, fixtures, grmatrix, modgb, polyring, qprofile

    modules = [m for n, m in sorted(sys.modules.items()) if n == "biliaison" or n.startswith("biliaison.")]
    counts = tracer.counts

    def wrap(owner, attr, name, **hooks):
        fn = inspect.getattr_static(owner, attr, None)
        rebind(modules, owner, attr, tracer.span(name, fn, **hooks))

    def add_cells(key, matrix_of):
        def after(args, kwargs, result, token, frame):
            m = matrix_of(args)
            counts[key] += len(m) * (len(m[0]) if len(m) else 0)
        return after

    def cache_hit(key, test):
        def before(args, kwargs):
            if test(args, kwargs):
                counts[key] += 1
        return before

    def bound(fn, args, kwargs):
        ba = inspect.signature(fn).bind(*args, **kwargs)
        ba.apply_defaults()
        return dict(ba.arguments)

    # polyring
    wrap(polyring.MultiPoly, "__mul__", "polyring.mul")
    wrap(polyring.MultiPoly, "_divmod", "polyring.divmod")
    wrap(polyring, "gcd", "polyring.gcd")
    wrap(polyring, "squarefree_factors", "polyring.squarefree_factors")

    # _linalg
    wrap(_linalg, "rank_mod_p", "linalg.rank_mod_p",
         after=lambda a, k, r, t, f: counts.update({"linalg.rank_mod_p.cells": int(a[0].size)}))
    wrap(_linalg, "nullspace_mod_p", "linalg.nullspace_mod_p")

    # grmatrix
    wrap(grmatrix, "_bareiss", "grmatrix.bareiss",
         after=add_cells("grmatrix.bareiss.cells", lambda a: a[0]))
    rank_cache = getattr(grmatrix, "_RANK_CACHE", {})
    wrap(grmatrix, "rank_fraction_field", "grmatrix.rank_fraction_field",
         before=cache_hit("grmatrix.rank_fraction_field.hits",
                          lambda a, k: a[0].fingerprint() in rank_cache))

    def block_route(args, kwargs, result, token, frame):
        kids = [k for k in frame[2] if k in (
            "linalg.rank_mod_p", "grmatrix.bareiss", "modgb.groebner_basis")]
        if not kids:
            return
        if kids[-1] == "linalg.rank_mod_p":
            counts["grmatrix.block_rank.route.eval"] += 1
        elif "modgb.groebner_basis" in kids:
            counts["grmatrix.block_rank.route.gb"] += 1
        elif kids.count("grmatrix.bareiss") >= 2:
            counts["grmatrix.block_rank.route.bareiss"] += 1
        else:
            counts["grmatrix.block_rank.route.plane"] += 1

    wrap(grmatrix, "_block_rank", "grmatrix.block_rank", after=block_route, record_children=True)

    def minors_before(args, kwargs):
        if tracer.parent_name() == "qprofile.minor_analysis":
            counts["qprofile.route.exhaustive"] += 1

    wrap(grmatrix, "minors", "grmatrix.minors", before=minors_before,
         after=lambda a, k, r, t, f: counts.update({"grmatrix.minors.count": len(r)}))
    wrap(grmatrix, "determinant", "grmatrix.determinant")
    wrap(grmatrix, "rank_modulo_hypersurface", "grmatrix.rank_modulo_hypersurface")

    # modgb
    gb_fn = getattr(modgb, "groebner_basis", None)
    presentations = getattr(modgb, "_PRESENTATION_CACHE", {})

    def gb_before(args, kwargs):
        a = bound(gb_fn, args, kwargs)
        gens, cap = a["gens"], a["degree_cap"]
        if cap == "default":
            cap = modgb.default_degree_cap(gens)
        fp = gens.fingerprint()
        full = presentations.get((fp, None))
        hit = (fp, cap) in presentations or (full is not None and full.truncated_at is None)
        if hit:
            counts["modgb.groebner_basis.hits"] += 1
        return hit

    def gb_after(args, kwargs, result, hit, frame):
        if not hit:
            counts["modgb.basis_size"] += len(result.gb)

    wrap(modgb, "groebner_basis", "modgb.groebner_basis", before=gb_before, after=gb_after)
    wrap(modgb, "_normal_form", "modgb.normal_form")
    rebind(modules, modgb, "_sub_scaled",
           tracer.counter("modgb.reduction_steps", getattr(modgb, "_sub_scaled", None)))
    wrap(modgb, "minimal_generator_count", "modgb.minimal_generator_count")
    wrap(modgb, "syzygies", "modgb.syzygies")
    wrap(modgb, "is_empty_projective_locus", "modgb.is_empty_projective_locus")

    # qprofile
    profiles = getattr(qprofile, "_PROFILE_CACHE", {})
    qp_fn = getattr(qprofile, "compute_q_profile", None)

    def qp_hit(args, kwargs):
        a = bound(qp_fn, args, kwargs)
        key = (a["s"].fingerprint(), a.get("window"), a.get("seed"), a.get("minor_budget"))
        return key in profiles

    wrap(qprofile, "compute_q_profile", "qprofile.compute_q_profile",
         before=cache_hit("qprofile.compute_q_profile.hits", qp_hit))
    wrap(qprofile, "coprime_minor_analysis", "qprofile.minor_analysis")
    wrap(qprofile, "_restricted_minor_gcd", "qprofile.restricted_minor_gcd",
         before=lambda a, k: counts.update({"qprofile.route.plane": 1}))
    wrap(qprofile, "_honest_sampled_gcd", "qprofile.honest_sampled_gcd",
         before=lambda a, k: counts.update({"qprofile.route.honest": 1}))

    def witness_yield(args, kwargs, result, token, frame):
        counts["qprofile.witnesses.asked"] += bound(sw_fn, args, kwargs)["count"]
        counts["qprofile.witnesses.found"] += len(result)

    sw_fn = getattr(qprofile, "_shuffled_witnesses", None)
    wrap(qprofile, "_shuffled_witnesses", "qprofile.shuffled_witnesses", after=witness_yield)

    # families
    wrap(families, "sheaf_degree", "families.sheaf_degree")
    wrap(families, "verify_general_morphism", "families.verify")
    wrap(families, "quotient_hilbert_data", "families.quotient_hilbert")
    wrap(families, "sample_general_morphism", "families.sample")

    # cli / fixtures
    wrap(cli, "_certify_hypotheses", "cli.certify")
    wrap(fixtures, "example", "fixtures.example")


def raw(tracer: Tracer) -> dict:
    """Plain-data form of a tracer's totals, for sending between processes."""
    return {
        "stats": {k: [v.calls, v.total, v.self_time] for k, v in tracer.stats.items()},
        "counts": dict(tracer.counts),
        "covered": tracer.covered,
    }


def merge(raws) -> dict:
    """Sum the totals of several traced processes."""
    out = {"stats": {}, "counts": Counter(), "covered": 0.0}
    for r in raws:
        for k, v in r["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        out["counts"].update(r["counts"])
        out["covered"] += r["covered"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(data: dict) -> Dict[str, float]:
    """The per-layer metrics of merged tracer totals, by metric name."""
    c = Counter(data["counts"])

    def stat(span):  # (calls, total, self time); zeros for an untraced span
        return data["stats"].get(span, (0, 0.0, 0.0))

    def calls(span):
        return stat(span)[0]

    def total(span):
        return stat(span)[1]

    out: Dict[str, float] = {}
    for span in (
        "polyring.mul",
        "polyring.divmod",
        "polyring.gcd",
        "linalg.rank_mod_p",
        "linalg.nullspace_mod_p",
        "grmatrix.bareiss",
        "grmatrix.rank_modulo_hypersurface",
        "modgb.normal_form",
    ):
        out[span + ".calls"] = calls(span)
        out[span + ".self_s"] = stat(span)[2]
    out["polyring.gcd.s"] = total("polyring.gcd")
    out["polyring.squarefree_factors.calls"] = calls("polyring.squarefree_factors")
    out["linalg.rank_mod_p.cells"] = c["linalg.rank_mod_p.cells"]
    out["grmatrix.bareiss.cells"] = c["grmatrix.bareiss.cells"]
    out["grmatrix.rank_fraction_field.calls"] = calls("grmatrix.rank_fraction_field")
    out["grmatrix.rank_fraction_field.hit_ratio"] = _ratio(
        c["grmatrix.rank_fraction_field.hits"], calls("grmatrix.rank_fraction_field"))
    for route in ("eval", "plane", "bareiss", "gb"):
        out["grmatrix.block_rank.route." + route] = c["grmatrix.block_rank.route." + route]
    out["grmatrix.minors.count"] = c["grmatrix.minors.count"]
    out["grmatrix.determinant.calls"] = calls("grmatrix.determinant")
    out["grmatrix.determinant.s"] = total("grmatrix.determinant")
    out["modgb.groebner_basis.calls"] = calls("modgb.groebner_basis")
    out["modgb.groebner_basis.hit_ratio"] = _ratio(
        c["modgb.groebner_basis.hits"], calls("modgb.groebner_basis"))
    out["modgb.groebner_basis.s"] = total("modgb.groebner_basis")
    out["modgb.basis_size"] = c["modgb.basis_size"]
    out["modgb.reduction_steps"] = c["modgb.reduction_steps"]
    for name in ("minimal_generator_count", "syzygies", "is_empty_projective_locus"):
        out[f"modgb.{name}.s"] = total("modgb." + name)
    out["qprofile.compute_q_profile.s"] = total("qprofile.compute_q_profile")
    out["qprofile.compute_q_profile.hit_ratio"] = _ratio(
        c["qprofile.compute_q_profile.hits"], calls("qprofile.compute_q_profile"))
    out["qprofile.minor_analysis.calls"] = calls("qprofile.minor_analysis")
    out["qprofile.minor_analysis.s"] = total("qprofile.minor_analysis")
    for route in ("exhaustive", "plane", "honest"):
        out["qprofile.route." + route] = c["qprofile.route." + route]
    out["qprofile.witness_yield"] = _ratio(
        c["qprofile.witnesses.found"], c["qprofile.witnesses.asked"])
    out["families.sheaf_degree.s"] = total("families.sheaf_degree")
    out["families.verify.s"] = total("families.verify")
    out["families.quotient_hilbert.calls"] = calls("families.quotient_hilbert")
    out["families.quotient_hilbert.s"] = total("families.quotient_hilbert")
    out["families.attempts"] = calls("families.sample")
    out["cli.certify.s"] = total("cli.certify")
    out["fixtures.example.s"] = total("fixtures.example")
    return out
