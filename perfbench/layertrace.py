"""Per-layer tracing installed from outside the program.

``Tracer.install`` wraps every public function and method of the
twistflag layer modules, and rebinds every module attribute that held an
original (so ``batteries.j_leq`` and ``cells.j_leq`` are traced too).

A call that enters a layer from another layer (or from the benchmark)
opens a span: layer, start, end, parent span and the op it belongs to.
A nested call into the same layer opens no span, so its time stays in
the enclosing span and is not counted twice.  A layer's self time is the
length of its spans minus the spans of other layers nested in them,
summed as spans close.  Counts are taken by the same wrappers.  Only
calls made between ``begin_op`` and ``end_op`` are recorded, so set-up
and the benchmark's untimed output checks stay out of the trace.  Spans
are kept in memory (up to ``SPAN_CAP``; the self times stay exact past
it) and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("weyl", "twisted", "posets", "homology", "ratmat", "cells",
          "doubleflag", "batteries", "cli")
SPAN_CAP = 200_000
_DUNDERS = ("__init__", "__mul__")

# Inclusive time of the outermost call into any of these functions.
INCLUSIVE = {
    "posets.verify_el_s": ("posets.verify_el",),
    "homology.boundary_s": ("homology.boundary_matrices",),
    "homology.snf_s": ("homology.smith_normal_form",),
    "cells.stratum_s": tuple(f"cells.{f}" for f in (
        "bruhat_stratum", "birkhoff_stratum", "double_minus_stratum",
        "mixed_stratum", "richardson_stratum", "double_bruhat_stratum",
        "twisted_stratum")),
    "batteries.order_for_interval_s": ("batteries.order_for_interval",),
}

# Call counts of one callable each.
CALLS = {
    "weyl.mul_calls": "weyl.WeylElement.__mul__",
    "weyl.inverse_calls": "weyl.WeylElement.inverse",
    "weyl.bruhat_leq_calls": "weyl.WeylGroup.bruhat_leq",
    "weyl.is_finite_calls": "weyl.ParabolicContext.is_finite",
    "twisted.j_leq_calls": "twisted.j_leq",
    "twisted.minimal_c_calls": "twisted.minimal_c",
    "posets.reflection_orders_built": "posets.ReflectionOrder.__init__",
    "posets.root_of_reflection_calls": "posets.root_of_reflection",
    "ratmat.mul_calls": "ratmat.RatMatrix.__mul__",
    "ratmat.inverse_calls": "ratmat.RatMatrix.inverse",
}

# name -> (unit, better), in the order they are reported.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _name in CALLS:
    PER_LAYER[_name] = ("count", "lower")
for _name in INCLUSIVE:
    PER_LAYER[_name] = ("s", "lower")
PER_LAYER["weyl.ball_elements"] = ("count", "lower")
PER_LAYER["posets.maximal_chains"] = ("count", "lower")
PER_LAYER["twisted.j_leq_distinct_ratio"] = ("ratio", "higher")
PER_LAYER["doubleflag.q_member_accept_ratio"] = ("ratio", "higher")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._originals = {}   # (owner, attribute) -> original value
        self._func_swap = {}   # id(original function) -> wrapper
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self):
        n = len(LAYERS)
        self.self_time = [0.0] * n
        self.calls = {q: 0 for q in CALLS.values()}
        self.inclusive = {name: 0.0 for name in INCLUSIVE}
        self._depth = {name: 0 for name in INCLUSIVE}
        self._incl_start = {name: 0.0 for name in INCLUSIVE}
        self.ball_elements = 0
        self.maximal_chains = 0
        self.j_leq_keys = set()
        self.q_member_calls = 0
        self.q_member_true = 0
        self.op = -1
        self.active = False
        # frame: [layer, start, time spent in nested spans of other layers, span id]
        self._stack = [[-1, 0.0, 0.0, -1]]
        self._next_span = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")

    def begin_op(self, op: int):
        """Record from here until ``end_op``: one op's call into the program."""
        self.op = op
        self._stack = [[-1, self.clock(), 0.0, -1]]
        self.active = True

    def end_op(self):
        self.active = False

    def _enter(self, layer: int):
        stack = self._stack
        if stack[-1][0] == layer:
            return None
        frame = [layer, self.clock(), 0.0, self._next_span]
        self._next_span += 1
        stack.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[1]
        self.self_time[frame[0]] += dur - frame[2]
        parent = stack[-1]
        parent[2] += dur
        if len(self.span_start) < SPAN_CAP:
            self.span_id.append(frame[3])
            self.span_parent.append(parent[3])
            self.span_op.append(self.op)
            self.span_layer.append(frame[0])
            self.span_start.append(frame[1])
            self.span_end.append(end)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, qual: str):
        layer = LAYERS.index(qual.split(".")[0])
        count = qual in self.calls
        groups = [name for name, quals in INCLUSIVE.items() if qual in quals]
        hook = _HOOKS.get(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count:
                tracer.calls[qual] += 1
            frame = tracer._enter(layer)
            for name in groups:
                if tracer._depth[name] == 0:
                    tracer._incl_start[name] = tracer.clock()
                tracer._depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as ex:
                if hook is not None:
                    hook(tracer, args, kwargs, None, ex)
                raise
            finally:
                for name in groups:
                    tracer._depth[name] -= 1
                    if tracer._depth[name] == 0:
                        tracer.inclusive[name] += tracer.clock() - tracer._incl_start[name]
                if frame is not None:
                    tracer._exit(frame)
            if hook is not None:
                hook(tracer, args, kwargs, out, None)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._originals[(owner, attr)] = vars(owner)[attr]
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layer modules of the already imported twistflag package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"twistflag.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapper = self._wrap(obj, f"{layer}.{name}")
                    self._func_swap[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistflag" or mod_name.startswith("twistflag.")):
                continue
            for name, obj in list(vars(mod).items()):
                swap = self._func_swap.get(id(obj))
                if swap is not None and swap[0] is obj:
                    self._patch(mod, name, swap[1])

    def _wrap_class(self, cls, qual: str):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{qual}.{name}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{qual}.{name}")
            else:
                continue
            self._patch(cls, name, wrapped)

    def uninstall(self):
        for (owner, attr), value in self._originals.items():
            setattr(owner, attr, value)
        self._originals.clear()
        self._func_swap.clear()

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_time[k]
        for name, qual in CALLS.items():
            out[name] = self.calls[qual]
        out.update(self.inclusive)
        out["weyl.ball_elements"] = self.ball_elements
        out["posets.maximal_chains"] = self.maximal_chains
        calls = self.calls["twisted.j_leq"]
        out["twisted.j_leq_distinct_ratio"] = len(self.j_leq_keys) / calls if calls else 0.0
        out["doubleflag.q_member_accept_ratio"] = (
            self.q_member_true / self.q_member_calls if self.q_member_calls else 0.0)
        return {name: {"value": out[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}

    def write_spans(self, path):
        """One line per span: id, parent, op, layer, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,layer,start_s,end_s\n")
            for k in range(len(self.span_start)):
                fh.write(f"{self.span_id[k]},{self.span_parent[k]},{self.span_op[k]},"
                         f"{LAYERS[self.span_layer[k]]},{self.span_start[k]:.9f},"
                         f"{self.span_end[k]:.9f}\n")
        return len(self.span_start), self._next_span


# -- result hooks: counts that need the arguments or the result -------------

def _ball(tracer, args, kwargs, out, ex):
    if ex is None:
        tracer.ball_elements += len(out)
        return
    from twistflag.errors import BudgetExceeded
    if isinstance(ex, BudgetExceeded):
        # the breadth-first walk raises once it holds budget + 1 elements
        group = args[0]
        budget = kwargs.get("budget", args[3] if len(args) > 3 else None)
        tracer.ball_elements += (group.budget if budget is None else budget) + 1


def _maximal_chains(tracer, args, kwargs, out, ex):
    if ex is None:
        tracer.maximal_chains += len(out)


def _j_leq(tracer, args, kwargs, out, ex):
    v, w, J = args[:3]
    tracer.j_leq_keys.add((id(J.group), J.J, v.mat, w.mat))


def _q_member(tracer, args, kwargs, out, ex):
    tracer.q_member_calls += 1
    if out:
        tracer.q_member_true += 1


_HOOKS = {
    "weyl.WeylGroup.ball": _ball,
    "posets.FinitePoset.maximal_chains_down": _maximal_chains,
    "twisted.j_leq": _j_leq,
    "doubleflag.q_member": _q_member,
}
