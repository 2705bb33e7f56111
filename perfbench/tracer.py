"""Per-layer tracing of coxkit, done entirely from the benchmark's files.

``Tracer.install()`` wraps every public function and public method of each
``src/coxkit/`` module, plus constructors and arithmetic dunders, and rebinds
every module global that names a wrapped function, because ``localization``
and ``cli`` import their callees by name.  Private helpers, ``__eq__`` and
``__hash__`` are not wrapped, so their time counts toward the layer of the
wrapped function that called them, as does stdlib work such as
``fractions``.

Each wrapped call is a frame.  Its self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all frames
plus the time spent outside any frame (the benchmark's own time) add up to
the traced time exactly.  Coarse calls (``SPANS``) also keep a span
``(id, name, start, end, parent id, op)`` in memory; the hot arithmetic keeps
only a count and a self time per function.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import time

LAYERS = ("scalars", "laurent", "coxeter", "hecke", "parabolic", "leaves",
          "polyring", "localization", "cli")

# Dunders that are wrapped like public methods: constructors and arithmetic.
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__truediv__", "__pow__"}

# Functions called at most a few thousand times per run; these get spans.
SPANS = {
    "coxeter.build_ball", "coxeter.GroupBall.min_reps",
    "hecke.KLTable.table_rows", "parabolic.ParabolicKLTable.table_rows",
    "leaves.char_of_word",
    "localization.LocalCalculus.pcanonical",
    "localization.LocalCalculus.multiplicity",
    "localization.LocalCalculus.check_diagonal",
    "localization.LocalCalculus.gram_invertible",
    "cli.main", "cli.cmd_pcan",
}

# The five LocalCalculus caches whose entries `cache_entries` counts.
CACHES = ("_gen_cache", "_ll_cache", "_llbar_cache", "_num_cache", "_vec_cache")

# metric -> ("calls" | "s", function-key patterns).  A "s" metric is the sum
# of the self times of the matching functions.
METRICS = {
    "scalars.cycrat_ops": ("calls", ["scalars.CycRat.*"]),
    "scalars.cycrat_s": ("s", ["scalars.CycRat.*"]),
    "scalars.cycint_ops": ("calls", ["scalars.CycInt.*"]),
    "scalars.cycint_s": ("s", ["scalars.CycInt.*"]),
    "scalars.primefield_ops": ("calls", ["scalars.PrimeFieldK.*"]),
    "scalars.primefield_s": ("s", ["scalars.PrimeFieldK.*"]),
    "laurent.ops": ("calls", ["laurent.*"]),
    "laurent.s": ("s", ["laurent.*"]),
    "coxeter.build_ball_s": ("s", ["coxeter.build_ball", "coxeter.GroupBall.__init__"]),
    "coxeter.root_image_calls": ("calls", ["coxeter.GroupBall.root_image"]),
    "coxeter.root_image_s": ("s", ["coxeter.GroupBall.root_image"]),
    "coxeter.bruhat_leq_calls": ("calls", ["coxeter.GroupBall.bruhat_leq"]),
    "coxeter.bruhat_leq_s": ("s", ["coxeter.GroupBall.bruhat_leq"]),
    "coxeter.min_reps_s": ("s", ["coxeter.GroupBall.min_reps"]),
    "hecke.b_s": ("s", ["hecke.KLTable.b"]),
    "hecke.mul_bs_calls": ("calls", ["hecke.HeckeElt.mul_bs"]),
    "hecke.mul_bs_s": ("s", ["hecke.HeckeElt.mul_bs", "hecke.KLTable.mul_bs"]),
    "parabolic.b_s": ("s", ["parabolic.ParabolicKLTable.b"]),
    "parabolic.mul_bs_calls": ("calls", ["parabolic.ParaElt.mul_bs"]),
    "parabolic.mul_bs_s": ("s", ["parabolic.ParaElt.mul_bs",
                                 "parabolic.ParabolicKLTable.mul_bs"]),
    "leaves.enumerate_calls": ("calls", ["leaves.enumerate_subexprs"]),
    "leaves.enumerate_s": ("s", ["leaves.enumerate_subexprs", "leaves.decorate"]),
    "leaves.path_dom_leq_calls": ("calls", ["leaves.path_dom_leq"]),
    "leaves.path_dom_leq_s": ("s", ["leaves.path_dom_leq"]),
    "leaves.char_of_word_s": ("s", ["leaves.char_of_word"]),
    "polyring.poly_ops": ("calls", ["polyring.Poly.*"]),
    "polyring.poly_s": ("s", ["polyring.Poly.*"]),
    "polyring.qcoeff_ops": ("calls", ["polyring.QCoeff.*"]),
    "polyring.qcoeff_s": ("s", ["polyring.QCoeff.*"]),
    "polyring.evaluate_calls": ("calls", ["polyring.*.evaluate"]),
    "polyring.evaluate_s": ("s", ["polyring.*.evaluate"]),
    "polyring.w_action_calls": ("calls", ["polyring.PolyRing.w_action"]),
    "polyring.w_action_s": ("s", ["polyring.PolyRing.w_action"]),
    "localization.gen_matrix_calls": ("calls", ["localization.LocalCalculus.gen_matrix"]),
    "localization.gen_matrix_s": ("s", ["localization.LocalCalculus.gen_matrix"]),
    "localization.compose_calls": ("calls", ["localization.StdMatrix.compose"]),
    "localization.compose_s": ("s", ["localization.StdMatrix.compose"]),
    "localization.double_leaf_calls": ("calls", ["localization.LocalCalculus.double_leaf"]),
    "localization.pairing_value_calls": ("calls", ["localization.LocalCalculus.pairing_value"]),
    "localization.pairing_value_s": ("s", ["localization.LocalCalculus.pairing_value"]),
    "localization.multiplicity_self_s": ("s", ["localization.LocalCalculus.multiplicity"]),
    "localization.check_diagonal_s": ("s", ["localization.LocalCalculus.check_diagonal"]),
    "localization.check_triangularity_s": ("s", ["localization.LocalCalculus.check_triangularity"]),
    "localization.gram_invertible_s": ("s", ["localization.LocalCalculus.gram_invertible"]),
    "cli.main_calls": ("calls", ["cli.main"]),
}
for _layer in LAYERS:
    if _layer not in ("laurent", "cli"):    # laurent.s and cli.self_s above
        METRICS[_layer + ".self_s"] = ("s", [_layer + ".*"])
METRICS["cli.self_s"] = ("s", ["cli.*"])


class _CountingDict(dict):
    """A LocalCalculus cache that counts its insertions."""

    __slots__ = ("counts", "name")

    def __setitem__(self, key, value):
        self.counts[self.name] = self.counts.get(self.name, 0) + 1
        dict.__setitem__(self, key, value)


class Tracer:
    """Frames, spans and counters for one traced pass.

    Accounting happens only while ``active`` is true, so set-up and timed ops
    are traced and the benchmark's digests and checks between them are not.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op = None              # key of the op being run, tagged on spans
        self.stats = {}             # function key -> [calls, self seconds]
        self.spans = []
        self.stack = []             # frames: [child seconds, enclosing span id]
        self.outside = 0.0          # traced time in no frame: the benchmark's own
        self._covered = 0.0         # frame time inside the current region
        self.inserts = {}           # LocalCalculus cache name -> insertions
        self.balls = {}             # id(ball) -> element count
        self.b_computed = {"hecke": 0, "parabolic": 0}
        self.subexprs = 0
        self.double_leaves = set()
        self._region = None

    # -- traced regions ------------------------------------------------------

    def start(self, op=None):
        self.op = op
        self.active = True
        self._region = self.clock()

    def stop(self):
        """End a traced region; return its duration."""
        elapsed = self.clock() - self._region
        self.active = False
        self.outside += elapsed - self._covered
        self._covered = 0.0
        return elapsed

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, fn, key, before=None, after=None):
        """A traced version of ``fn``; ``before(args)`` and ``after(args,
        result)`` update counters."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack, clock, tracer = self.stack, self.clock, self
        spans = self.spans if key in SPANS else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1][1] if stack else None
            if spans is not None:
                sid = len(spans)
                spans.append(None)
                frame = [0.0, sid]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer._covered += elapsed
                if spans is not None:
                    spans[sid] = (sid, key, t0, t1, parent, tracer.op)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        def kl_b(args):
            if args[1] not in args[0]._b:
                self.b_computed["hecke"] += 1

        def para_b(args):
            if args[1] not in args[0]._b:
                self.b_computed["parabolic"] += 1

        def ball(_args, result):
            self.balls[id(result)] = len(result.elements)

        def subexprs(_args, result):
            self.subexprs += len(result)

        def double_leaf(args):
            word, e, f = args[1:4]
            self.double_leaves.add((tuple(word), e.bits, f.bits))

        return {
            "hecke.KLTable.b": (kl_b, None),
            "parabolic.ParabolicKLTable.b": (para_b, None),
            "coxeter.build_ball": (None, ball),
            "leaves.enumerate_subexprs": (None, subexprs),
            "localization.LocalCalculus.double_leaf": (double_leaf, None),
        }

    def install(self):
        """Wrap coxkit in place.  Call after importing it, before set-up."""
        hooks = self._hooks()
        wrapped = {}                # id(original function) -> wrapper

        def wrapper_for(fn, layer):
            got = wrapped.get(id(fn))
            if got is None:
                key = "%s.%s" % (layer, fn.__qualname__)
                got = wrapped[id(fn)] = self.wrap(fn, key, *hooks.get(key, (None, None)))
            return got

        modules = {layer: importlib.import_module("coxkit." + layer)
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapper_for(obj, layer)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in DUNDERS:
                            continue
                        if isinstance(raw, (staticmethod, classmethod)):
                            setattr(obj, attr, type(raw)(wrapper_for(raw.__func__, layer)))
                        elif inspect.isfunction(raw):
                            setattr(obj, attr, wrapper_for(raw, layer))
        # rebind module-level names wherever they are looked up
        for mod in [importlib.import_module("coxkit")] + list(modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        self._count_cache_inserts(modules["localization"].LocalCalculus)

    def _count_cache_inserts(self, cls):
        init = cls.__init__
        inserts = self.inserts

        def counting_init(calc, *args, **kwargs):
            init(calc, *args, **kwargs)
            for name in CACHES:
                cache = _CountingDict(getattr(calc, name))
                cache.counts, cache.name = inserts, name
                setattr(calc, name, cache)

        cls.__init__ = counting_init

    # -- results -------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far."""
        out = {}
        for name, (kind, patterns) in METRICS.items():
            index = 0 if kind == "calls" else 1
            out[name] = sum(stat[index] for key, stat in self.stats.items()
                            if any(fnmatch.fnmatchcase(key, p) for p in patterns))
        pairings = out["localization.pairing_value_calls"]
        vec = self.inserts.get("_vec_cache", 0)
        out.update({
            "coxeter.ball_elements": sum(self.balls.values()),
            "hecke.b_computed": self.b_computed["hecke"],
            "parabolic.b_computed": self.b_computed["parabolic"],
            "leaves.subexprs_yielded": self.subexprs,
            "localization.double_leaf_distinct": len(self.double_leaves),
            "localization.cache_entries": sum(self.inserts.values()),
            "localization.vec_cache_hit_ratio":
                1 - vec / (2 * pairings) if pairings else 0.0,
            "bench.self_s": self.outside,
        })
        return out

    def span_records(self):
        return [s for s in self.spans if s is not None]
