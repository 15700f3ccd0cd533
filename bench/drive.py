"""Running one cycle of a workload against the package, and checking it.

A driver turns a cycle of generated ops into prepared inputs (untimed), runs
them as one closed-loop caller on one thread (timed per operation), converts
each result to plain values, and checks those values with ``check``.  Between
operations (between batch files for the CLI) it samples the reference kernel,
outside the timed regions.

The package is reached only through public entry points looked up on the
package object at call time, so that the tracer's wrappers are seen.
"""

import gc
import random
import sys
import time

import check
import workloads


def _values(poly):
    return tuple(poly.coeff(j).value for j in range(poly.degree() + 1))


def _plain_group(group):
    if hasattr(group, "fixed_point"):
        return ("units", group.fixed_point.value)
    return ("finite", [(m.alpha.value, m.beta.value) for m in group.elements])


def _plain_witness(witness):
    if witness is None:
        return None
    return (witness.map.alpha.value, witness.map.beta.value, witness.lam.value)


class _Residue:
    """An immutable residue wrapper shaped like the package's scalar type."""

    __slots__ = ("modulus", "value")

    def __init__(self, modulus, value):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def _coerce(self, other):
        if isinstance(other, _Residue):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return _Residue(self.modulus, other % self.modulus)

    def __add__(self, other):
        other = self._coerce(other)
        return _Residue(self.modulus, (self.value + other.value) % self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        return _Residue(self.modulus, self.value * other.value % self.modulus)


class ReferenceKernel:
    """A fixed slice of pure-Python work that measures the host's current speed.

    The host's speed drifts by up to 1.7x over minutes (other tenants share
    its cores).  The kernel is a dense product of wrapped residues, the same
    kind of work as the package's inner loops but none of its code, so its
    time tracks the drift and no change to the package moves it.
    """

    SLICES = 3

    def __init__(self):
        rng = random.Random(5)
        p = 2**31 - 1
        self.a = [_Residue(p, rng.randrange(p)) for _ in range(10)]
        self.b = [_Residue(p, rng.randrange(p)) for _ in range(10)]
        self.zero = _Residue(p, 0)
        self.samples = []

    def _slice(self):
        start = time.perf_counter()
        out = [self.zero] * (len(self.a) + len(self.b) - 1)
        for i, x in enumerate(self.a):
            for j, y in enumerate(self.b):
                out[i + j] = out[i + j] + x * y
        return time.perf_counter() - start

    def sample(self):
        """Record the fastest of a few slices; collection is held off meanwhile."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(min(self._slice() for _ in range(self.SLICES)))
        finally:
            if enabled:
                gc.enable()

    def take(self):
        """Mean sample since the last take (seconds)."""
        samples, self.samples = self.samples, []
        return sum(samples) / len(samples)


class LibraryDriver:
    """fp_groups and fp_factor: direct library calls on prebuilt Poly objects."""

    def __init__(self, api):
        self.api = api
        self.kernel = ReferenceKernel()

    def prepare(self, ops):
        api, out = self.api, []
        for op in ops:
            ring = api.GF(op["p"])
            g = api.Poly(ring, op["g"]) if "g" in op else None
            out.append((op["kind"], api.Poly(ring, op["f"]), g))
        return out

    def run(self, prepared):
        """Outputs as plain values, per-operation seconds, and busy seconds."""
        api, clock = self.api, time.perf_counter
        outputs, latencies = [], []
        for kind, f, g in prepared:
            start = clock()
            if kind == "aut":
                result = api.compute_aut(f)
            elif kind == "iso":
                result = api.iso_test(f, g)
            else:
                result = api.factor(f)
            latencies.append(clock() - start)
            self.kernel.sample()
            if kind == "aut":
                outputs.append(_plain_group(result))
            elif kind == "iso":
                outputs.append(_plain_witness(result))
            else:
                outputs.append([(_values(q), e) for q, e in result.factors])
        return outputs, latencies, sum(latencies)

    def check(self, ops, outputs):
        reasons = []
        for op, out in zip(ops, outputs):
            p = op["p"]
            if op["kind"] == "aut":
                reasons.append(check.check_group(op["f"], p, out, op["order"]))
            elif op["kind"] == "iso":
                reasons.append(check.check_witness(op["f"], op["g"], p, out, op["iso"]))
            else:
                reasons.append(check.check_factorization(op["f"], p, out, op["factors"]))
        return reasons


class StampedWriter:
    """Stands in for stdout: keeps each output line with the time it completed."""

    def __init__(self):
        self.lines, self.stamps, self.pending = [], [], []

    def write(self, text):
        self.pending.append(text)
        if text.endswith("\n"):
            self.stamps.append(time.perf_counter())
            self.lines.extend("".join(self.pending).splitlines())
            self.pending = []
        return len(text)

    def flush(self):
        pass


class BatchDriver:
    """cli_batch: `ideal-aut batch FILE` called in process on fixed-size files."""

    SAMPLES_PER_FILE = 8

    def __init__(self, api, workdir):
        self.cli = sys.modules[api.__name__ + ".cli"]
        self.workdir = workdir
        self.files = 0
        self.kernel = ReferenceKernel()

    def write_batch(self, lines):
        path = self.workdir / f"batch-{self.files}.jsonl"
        self.files += 1
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path, len(lines)

    def prepare(self, ops):
        return [self.write_batch([op["line"] for op in chunk])
                for chunk in workloads.batch_files(ops)]

    def run_file(self, path):
        """Records written for one batch file, their completion times, start and end."""
        writer = StampedWriter()
        saved = sys.stdout
        sys.stdout = writer
        start = time.perf_counter()
        try:
            self.cli.main(["batch", str(path)])
        except Exception:
            # a line that crashes the batch ends it; later lines get no record
            pass
        finally:
            end = time.perf_counter()
            sys.stdout = saved
        return writer.lines, writer.stamps, start, end

    def run(self, prepared):
        outputs, latencies, busy = [], [], 0.0
        for path, count in prepared:
            lines, stamps, start, end = self.run_file(path)
            for _ in range(self.SAMPLES_PER_FILE):
                self.kernel.sample()
            busy += end - start
            previous = start
            for stamp in stamps[:count]:
                latencies.append(stamp - previous)
                previous = stamp
            outputs.extend(lines[:count] + [None] * (count - len(lines)))
        return outputs, latencies, busy

    def check(self, ops, outputs):
        return [check.check_record(op, out) if out is not None else "no record for this line"
                for op, out in zip(ops, outputs)]

    def crash_probe(self, valid_ops):
        """Run each crash shape between valid lines; return (lines without record, reasons).

        At the parent revision each shape ends its batch, so the shape's line
        and every later line get no record.  A fixed batch answers the shape
        with an error record and goes on.
        """
        lost, reasons = 0, []
        head, tail = valid_ops[:2], valid_ops[2:4]
        for shape in workloads.CRASH_SHAPES:
            path, count = self.write_batch(
                [op["line"] for op in head] + [shape] + [op["line"] for op in tail])
            lines = self.run_file(path)[0]
            lost += count - len(lines)
            if len(lines) not in (len(head), count):
                reasons.append("batch stopped somewhere other than the crash line")
            reasons += [check.check_record(op, text) for op, text in zip(head, lines)]
            if len(lines) == count:
                reasons.append(check.check_error_record(lines[len(head)]))
                reasons += [check.check_record(op, text)
                            for op, text in zip(tail, lines[len(head) + 1:])]
        return lost, [r for r in reasons if r]
