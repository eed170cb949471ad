"""In-process tracing of bell_lab at its module boundaries, installed from outside.

The benchmark replaces each public function of the library modules with a
wrapper that records a span (layer, name, start, end, parent) and a few
work counts.  The package binds names with ``from .operators import
tensor``, so a wrapper must replace the function object in every
``bell_lab`` namespace that holds it, not only in the module that defines
it.  ``MeasurementOp.__post_init__`` is wrapped on the class to count
operator validations.  The cli layer is one span around ``main``; its self
time is argument parsing, the command loops and CSV formatting.

Spans stay in memory; ``write_spans`` writes them when the run ends.
"""

import functools
import gzip
import inspect
import sys
from time import perf_counter

LIBRARY_LAYERS = ("operators", "chsh", "mermin", "lhv", "fock", "dbb")
LAYERS = LIBRARY_LAYERS + ("cli",)

# work counts, each attached to the public function that does the work
COUNTS = (
    "operators.ops_validated",
    "operators.kron_calls",
    "chsh.identity_checks",
    "chsh.correlations",
    "mermin.operator_builds",
    "lhv.mc_samples",
    "lhv.strategies_enumerated",
    "fock.ladder_builds",
    "fock.probabilities",
    "dbb.velocity_evals",
    "dbb.overlap_evals",
    "dbb.rk4_steps",
    "dbb.spin_steps",
    "dbb.node_halts",
    "cli.rows_written",
    "cli.bytes_written",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _steps(result):
    return len(result.times) - 1


# qualified function name -> (counter, amount(args, kwargs, result))
_COUNTED = {
    "operators.MeasurementOp.__post_init__": ("operators.ops_validated", None),
    "operators.tensor": ("operators.kron_calls", None),
    "chsh.identity_residual": ("chsh.identity_checks", None),
    "chsh.correlation": ("chsh.correlations", None),
    "mermin.mermin_operator": ("mermin.operator_builds", None),
    "lhv.simulate_chsh_stats": (
        "lhv.mc_samples", lambda a, k, r: int(_arg(a, k, 2, "samples"))),
    "lhv.chsh_deterministic_max": ("lhv.strategies_enumerated", lambda a, k, r: 16),
    "lhv.mermin_deterministic_max": (
        "lhv.strategies_enumerated", lambda a, k, r: 4 ** int(_arg(a, k, 0, "n"))),
    "fock.annihilation": ("fock.ladder_builds", None),
    "fock.coincidence_probability": ("fock.probabilities", None),
    "dbb.velocity_2p": ("dbb.velocity_evals", None),
    "dbb.packet_overlap": ("dbb.overlap_evals", None),
    "dbb.integrate_trajectory": ("dbb.rk4_steps", lambda a, k, r: _steps(r)),
    "dbb.integrate_spin": ("dbb.spin_steps", lambda a, k, r: _steps(r)),
}


class Tracer:
    """Span recorder for one bell_lab package; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, package):
        self._package = package
        self._node_error = package.errors.NodeSingularityError
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget all spans and counts."""
        self.spans = []  # (span id, parent id, layer, name, start, end)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _enter_exit(self, layer, name, fn, args, kwargs, counted=None):
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans) + len(self._stack), layer, 0.0]  # id, layer, child time
        self._stack.append(frame)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            if parent is None or parent[1] != layer:  # escaped across a module boundary
                self.errors[layer] += 1
                if isinstance(err, self._node_error) and layer == "dbb":
                    self.counts["dbb.node_halts"] += 1
                    partial = getattr(err, "partial_trajectory", None)
                    if partial is not None and name == "integrate_trajectory":
                        self.counts["dbb.rk4_steps"] += _steps(partial)
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[2]
            self.calls[layer] += 1
            if parent is not None:
                parent[2] += duration
            self.spans.append((frame[0], parent[0] if parent else -1, layer, name, start, end))
            if counted is not None and (result is not None or counted[1] is None):
                counter, amount = counted
                self.counts[counter] += 1 if amount is None else amount(args, kwargs, result)

    def _wrap(self, layer, name, fn):
        tracer = self
        counted = _COUNTED.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._enter_exit(layer, name, fn, args, kwargs, counted)

        return wrapper

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap every public library function wherever a bell_lab namespace binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self._package.__name__
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == pkg or n.startswith(pkg + "."))]
        wrapped = {}
        for layer in LIBRARY_LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(module, name, wrapped[id(obj)][1])
        op = sys.modules[f"{pkg}.operators"].MeasurementOp
        self._patch(op, "__post_init__",
                    self._wrap("operators", "MeasurementOp.__post_init__", op.__post_init__))

    def uninstall(self):
        """Put every original function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def cli_call(self, fn, *args, **kwargs):
        """Run fn as the cli layer's span."""
        return self._enter_exit("cli", "main", fn, args, kwargs)

    def count_output(self, stdout):
        """Rows and bytes of one command's CSV (header and metadata line excluded)."""
        self.counts["cli.rows_written"] += max(stdout.count(b"\n") - 2, 0)
        self.counts["cli.bytes_written"] += len(stdout)

    def write_spans(self, path):
        """Write the recorded spans as gzipped CSV, times in seconds from the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="ascii", newline="") as fh:
            fh.write("span_id,parent_id,layer,name,start_s,end_s\n")
            for sid, parent, layer, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{layer},{name},{start - t0:.9f},{end - t0:.9f}\n")
