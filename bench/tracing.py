"""Spans and counters recorded around the package's public functions.

Nothing inside ``idealaut`` is instrumented.  ``Tracer.install`` replaces
each public function by a recording wrapper in every module namespace that
holds it (modules bind imported names directly, so patching the defining
module alone would miss callers), and patches methods on their classes;
``uninstall`` restores the originals.

A span is (request id, span id, parent span id, name, start ns, end ns).
Spans stay in memory and are written out with :meth:`Tracer.write`.  A
span's self time is its duration minus the durations of its child spans.
A request is one outermost span: one library call, or one ``cli.run``.

Counters with no span, because a span per call would cost more than the
call: ``ring.elem.calls`` (``Ring.elem``) and ``ring.arith.calls`` (the
``RingElement`` operators, ``div_exact`` and ``inverse``); their time falls
into the calling span's self time.
"""

import sys
import time
from array import array

# (metric name, module, attribute); attribute "Class.method" patches a method
SPANS = [
    ("ring.nth_roots", "ring", "nth_roots"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.mul", "poly", "Poly.__rmul__"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.affine_substitute", "poly", "Poly.affine_substitute"),
    ("poly.gcd", "poly", "gcd"),
    ("poly.squarefree_decomposition", "poly", "squarefree_decomposition"),
    ("parsing.parse_poly", "parsing", "parse_poly"),
    ("autgroup.compute_aut", "autgroup", "compute_aut"),
    ("autgroup.from_elements", "autgroup", "FiniteAutGroup.from_elements"),
    ("autgroup.iso_test", "autgroup", "iso_test"),
    ("autgroup.all_iso_witnesses", "autgroup", "all_iso_witnesses"),
    ("factor_fp.factor", "factor_fp", "factor"),
    ("factor_fp.root_permutation", "factor_fp", "root_permutation"),
    ("oracle.enumerate_auts", "oracle", "enumerate_auts"),
    ("oracle.truncated_ideal_check", "oracle", "truncated_ideal_check"),
    ("oracle.agrees_with", "oracle", "agrees_with"),
    ("cli.run", "cli", "run"),
]
COUNTERS = [
    ("ring.elem.calls", "ring", "Ring.elem"),
] + [
    ("ring.arith.calls", "ring", f"RingElement.{name}")
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__pow__", "div_exact", "inverse")
]
BRANCHES = ("single_root", "centered_torsion", "z_units", "char_p_scan")
TIMED_DEGREES = (16, 32, 64)


def compute_aut_branch(f, group):
    """Which compute_aut branch ran, read off the input and the result."""
    if hasattr(group, "fixed_point"):
        return "single_root"
    ring, n = f.ring, f.degree()
    if ring.kind == "F" and n % ring.p == 0:
        return "char_p_scan"
    if ring.kind == "Z" and f.coeff(n - 1).value % n:
        return "z_units"
    return "centered_torsion"


def useful_outcomes(result):
    """Group elements or witnesses an autgroup call returned explicitly."""
    if result is None or hasattr(result, "fixed_point") or hasattr(result, "source_fixed_point"):
        return 0
    if hasattr(result, "elements"):
        return len(result.elements)
    if isinstance(result, list):
        return len(result)
    return 1  # one IsoWitness


class Tracer:
    def __init__(self, package):
        self.modules = [m for name, m in sys.modules.items()
                        if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self.package = package
        self.saved = []
        self.names = []
        self.name_ids = {}
        self.counts = {"ring.elem.calls": [0], "ring.arith.calls": [0]}
        self.reset()

    def reset(self):
        """Forget every span and counter; the wrappers stay installed."""
        self.span_req = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = []
        self.child_ns = []
        self.request = -1
        self.self_ns = {}
        self.calls = {}
        for cell in self.counts.values():
            cell[0] = 0
        self.autgroup_depth = 0
        self.identity_checks = 0
        self.useful = 0
        self.branch_self_ns = dict.fromkeys(BRANCHES, 0)
        self.degree_ns = {d: [0, 0] for d in TIMED_DEGREES}

    # -- patching ---------------------------------------------------------

    def _resolve(self, module, attr):
        mod = sys.modules[f"{self.package.__name__}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            return getattr(mod, cls_name), meth
        return None, attr

    def _patch(self, module, attr, make):
        owner, name = self._resolve(module, attr)
        if owner is not None:
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self.saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return
        original = getattr(sys.modules[f"{self.package.__name__}.{module}"], name)
        wrapped = make(original)
        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        for metric, module, attr in SPANS:
            self._patch(module, attr, lambda fn, metric=metric: self._span_wrapper(metric, fn))
        for metric, module, attr in COUNTERS:
            self._patch(module, attr, lambda fn, metric=metric: self._count_wrapper(metric, fn))

    def uninstall(self):
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)

    # -- wrappers ---------------------------------------------------------

    def _count_wrapper(self, metric, fn):
        cell = self.counts[metric]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, metric, fn):
        name_id = self.name_ids.setdefault(metric, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(metric)
        autgroup = metric.startswith("autgroup.")
        substitution = metric == "poly.affine_substitute"
        compute_aut = metric == "autgroup.compute_aut"
        clock = time.perf_counter_ns
        tracer = self

        def spanned(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                tracer.request += 1
            outermost_autgroup = autgroup and tracer.autgroup_depth == 0
            if substitution and tracer.autgroup_depth:
                tracer.identity_checks += 1
            if autgroup:
                tracer.autgroup_depth += 1
            span_id = len(tracer.span_start)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_req.append(tracer.request)
            tracer.span_name.append(name_id)
            tracer.span_end.append(0)
            stack.append(span_id)
            tracer.child_ns.append(0)
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.span_end[span_id] = end
                stack.pop()
                duration = end - start
                own = duration - tracer.child_ns.pop()
                if tracer.child_ns:
                    tracer.child_ns[-1] += duration
                tracer.self_ns[metric] = tracer.self_ns.get(metric, 0) + own
                tracer.calls[metric] = tracer.calls.get(metric, 0) + 1
                if autgroup:
                    tracer.autgroup_depth -= 1
            if outermost_autgroup:
                tracer.useful += useful_outcomes(result)
            if compute_aut:
                f = args[0]
                tracer.branch_self_ns[compute_aut_branch(f, result)] += own
                cell = tracer.degree_ns.get(f.degree())
                if cell is not None:
                    cell[0] += duration
                    cell[1] += 1
            return result

        return spanned

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Counts and self times (ms) of everything recorded since reset()."""
        out = {name: cell[0] for name, cell in self.counts.items()}
        for metric, _, _ in SPANS:
            out[f"{metric}.calls"] = self.calls.get(metric, 0)
            out[f"{metric}.self_ms"] = self.self_ns.get(metric, 0) / 1e6
        for branch, ns in self.branch_self_ns.items():
            out[f"autgroup.compute_aut.self_ms.{branch}"] = ns / 1e6
        for degree, (ns, calls) in self.degree_ns.items():
            out[f"autgroup.compute_aut.ms_per_call.deg{degree}"] = ns / 1e6 / calls if calls else 0.0
        out["autgroup.identity_checks"] = self.identity_checks
        out["autgroup.useful_ratio"] = (
            self.useful / self.identity_checks if self.identity_checks else 0.0)
        return out

    def write(self, path):
        """Write the recorded spans as tab-separated text."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                out.write(f"{self.span_req[i]}\t{i}\t{self.span_parent[i]}\t"
                          f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                          f"{self.span_end[i]}\n")
