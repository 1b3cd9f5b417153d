"""One measured pass of a workload, in a fresh single-threaded interpreter.

Usage: ``python3 bench_worker.py SRC WORKLOAD JOBS_JSON TRACE OUT_JSON``

The pass loads a fresh ``Signature``, then handles every item the way the
CLI subcommands do, calling the same public functions in the same order.
It writes its verdicts, per-item latencies, work counts and peak memory
to ``OUT_JSON``.  With ``TRACE`` set to 1 it also records a span around
every call into a layer and writes the spans next to ``OUT_JSON``.

Tracing replaces the layer entry points on their modules with timing
wrappers for the pass, so an untraced pass runs the program untouched.
Calls the program makes through those module attributes are traced too:
``theorem_instances`` reaches ``derive_theorem`` that way, and
``equal_terms`` reaches ``elaborate`` and ``normalize``.  Recursive
functions (``infer_type`` and the printers) are not replaced on their
modules, since their inner calls would each become a span; the pass
calls them through wrappers of its own.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

perf = time.perf_counter

# The speed probe: fixed pure-Python work (hashing, dict lookups, integer
# arithmetic) that allocates nothing the garbage collector tracks.  Its
# duration at the reference speed, and the interval between two probes.
PROBE_REF_S = 120e-6
PROBE_EVERY_S = 0.01
_PROBE_TABLE = {(i, i & 7): i * 7 for i in range(512)}
_PROBE_KEYS = list(_PROBE_TABLE)


def probe_s() -> float:
    """The faster of two runs of the probe, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf()
            s = 0
            for _ in range(3):
                for k in _PROBE_KEYS:
                    s += _PROBE_TABLE[k] ^ k[0]
            best = min(best, perf() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


# (module, function, span name): the non-recursive layer entry points,
# replaced on their modules in a traced pass
LAYER_CALLS = (
    ("theorems", "derive_theorem", "theorems.derive"),
    ("dynamism", "derivation_errors", "dynamism.check"),
    ("derivio", "parse_derivations", "derivio.parse"),
    ("derivio", "derivations_to_text", "derivio.print"),
    ("grammar", "parse_term_file", "grammar.parse"),
    ("elaborate", "elaborate", "elaborate.elab"),
    ("elaborate", "normalize", "elaborate.norm"),
    ("elaborate", "equal_terms", "elaborate.equal"),
    ("model", "check_judgment_semantics", "model.semantic"),
    ("model", "check_equipment", "model.equipment"),
)
# the recursive ones, traced only where the pass calls them
PASS_CALLS = (
    ("typecheck", "infer_type", "typecheck.infer"),
    ("grammar", "term_to_text", "grammar.print"),
    ("grammar", "type_to_text", "grammar.print"),
)


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, item]``, with
    times relative to the pass start and ``parent`` an index or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.derive_calls = 0
        self.built = 0
        self._saved: list[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)
        return traced

    def install(self, modules: dict):
        for mod, attr, name in LAYER_CALLS:
            self._patch(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr)))
        derive = modules["theorems"].derive_theorem

        def counted_derive(*args, **kwargs):
            ds = derive(*args, **kwargs)
            self.derive_calls += 1
            self.built += len(ds)
            return ds
        self._patch(modules["theorems"], "derive_theorem", counted_derive)
        instances = modules["theorems"].theorem_instances

        def traced_instances(*args, **kwargs):
            it = instances(*args, **kwargs)
            while True:
                with _Span(self, "theorems.gen"):
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                yield x
        self._patch(modules["theorems"], "theorem_instances", traced_instances)

    def _patch(self, module, attr, fn):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, perf(), None, parent, t.item])
        t.stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf()
        t.stack.pop()
        return False


class Pass:
    """Item timing, work counts and speed samples of one pass.

    Work done only to verify a verdict or to count nodes runs inside
    ``paused()`` and is taken out of both the item's latency and the pass's
    wall time.  Every ``PROBE_EVERY_S`` of wall time a timer signal runs the
    speed probe; its time is taken out too.  The driver rescales each item's
    latency by the probes run while it was handled, because the machine's
    speed drifts by up to a factor of two, for seconds at a time, when other
    tenants load it."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.items: list[list] = []  # [id, seconds, start, end, verdict]
        self.counts: dict[str, float] = {}
        # [time, probe seconds, seconds the sample took]
        self.samples: list[list[float]] = []
        self.paused_s = 0.0
        self._pausing = False
        self._item_start = None
        self._item_paused = 0.0
        self.start = perf()
        t0 = perf()
        self.samples.append([0.0, probe_s(), perf() - t0])
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = perf()
        d = probe_s()
        t1 = perf()
        self.samples.append([(t0 + t1) / 2 - self.start, d, t1 - t0])
        if not self._pausing:
            self.paused_s += t1 - t0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def begin(self, item_id: str):
        if self.tracer:
            self.tracer.item = item_id
        self._item_paused = self.paused_s
        self._item_start = perf()

    def end(self, item_id: str | None, verdict):
        """Close the open item; ``None`` drops it without a verdict."""
        now = perf()
        elapsed = now - self._item_start - (self.paused_s - self._item_paused)
        if self.tracer:
            self.tracer.item = None
        if item_id is not None:
            self.items.append([item_id, elapsed, self._item_start - self.start,
                               now - self.start, verdict])

    def paused(self):
        return _Pause(self)

    def add(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n


class _Pause:
    def __init__(self, p: Pass):
        self.p = p

    def __enter__(self):
        self.p._pausing = True
        self.t0 = perf()

    def __exit__(self, *exc):
        self.p.paused_s += perf() - self.t0
        self.p._pausing = False
        return False


class NodeCounter:
    """Nodes of checked derivations, and how many of them are distinct.

    A node is identified by a hash of its rule, the ``repr`` of its
    judgment and aux, and its premises' identities.  The program's own
    hashes are not used: they do not tell apart constructors with the same
    fields, such as ``Fn`` and ``Prod`` or ``Upcast`` and ``Downcast``.
    Keeping hashes instead of nodes keeps no derivation alive."""

    def __init__(self):
        self.nodes = 0
        self.seen: set[int] = set()

    def add(self, d) -> int:
        self.nodes += 1
        key = hash((d.rule, repr(d.conclusion), repr(d.aux),
                    tuple(self.add(p) for p in d.premises)))
        self.seen.add(key)
        return key


def _read(path: Path) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_catalog(m, sig, p: Pass, jobs, work: Path):
    """`test-theorems --size 3`, then `test-model --bound 2 --size 3`."""
    theorems, dynamism, elaborate, model, typecheck = (
        m["theorems"], m["dynamism"], m["elaborate"], m["model"], m["typecheck"])
    size, bound = m["gen"].CATALOG_SIZE, m["gen"].MODEL_BOUND
    nodes = NodeCounter() if p.tracer else None
    it = theorems.theorem_instances(sig, size)
    n = 0
    while True:
        item = f"i{n}"
        p.begin(item)
        try:
            name, params, ds = next(it)
        except StopIteration:
            p.end(None, None)
            break
        if isinstance(ds, str):
            p.end(item, f"skipped {name}: {ds}")
            n += 1
            continue
        p.add("theorems.instances")
        p.add("theorems.derivations", len(ds))
        ok = True
        for d in ds:
            errors = dynamism.derivation_errors(sig, d)
            if nodes:
                with p.paused():
                    nodes.add(d)
            if errors:
                p.add("dynamism.rejected")
                ok = False
                break
        if ok and name in theorems.REDUCTION_THEOREMS:
            ctx, lhs, rhs = theorems.conclusion_equation(ds[0])
            ok = elaborate.equal_terms(sig, lhs, rhs, ctx)
        if ok:
            for d in ds:
                if not model.derivation_first_order(d):
                    p.add("model.skipped")
                    continue
                report = model.check_judgment_semantics(sig, d.conclusion, bound)
                p.add("model.judgments")
                p.add("model.env_checks", report.checks)
                if not report.passed:
                    ok = False
                    break
        p.end(item, "PASS" if ok else f"FAIL {name}")
        n += 1

    msig = model.model_signature(sig)
    with p.span("typecheck.tydyn"):
        types = [ty for ty in typecheck.enumerate_types(sig, size)
                 if model.first_order(ty)]
        pairs = [(a, b) for a in types for b in types if model.tydyn_holds(msig, a, b)]
    for k, (a, b) in enumerate(pairs):
        item = f"e{k}"
        p.begin(item)
        report = model.check_equipment(sig, a, b, bound)
        p.add("model.equipment_pairs")
        p.add("model.equipment_checks", report.checks)
        p.end(item, "PASS" if report.passed else "FAIL equipment")
    if nodes:
        p.counts["dynamism.nodes"] = nodes.nodes
        p.counts["dynamism.distinct_nodes"] = len(nodes.seen)


def run_prove(m, sig, p: Pass, jobs, work: Path):
    """Each file as `gtt prove` reads it and `gtt derive` writes it."""
    derivio, dynamism = m["derivio"], m["dynamism"]
    nodes = NodeCounter() if p.tracer else None
    for k, job in enumerate(jobs):
        item = f"p{k}"
        p.begin(item)
        text = _read(work / job["file"])
        p.add("derivio.bytes_in", len(text.encode()))
        ds = derivio.parse_derivations(text, sig)
        lines, accepted = [], []
        for i, d in enumerate(ds):
            errors = dynamism.derivation_errors(sig, d)
            if errors:
                p.add("dynamism.rejected")
                lines.append(f"RESULT FAIL derivation {i} ({d.rule})")
                lines.extend(f"  {e}" for e in errors)
            else:
                lines.append(f"RESULT PASS derivation {i} ({d.rule}): "
                             f"{m['describe'](d.conclusion)}")
            accepted.append(not errors)
        "\n".join(lines)  # the report `gtt prove` prints
        echo = derivio.derivations_to_text(ds)
        with p.paused():
            verdict = {"accept": accepted, "echo": echo == text}
            if nodes:
                for d in ds:
                    nodes.add(d)
        p.end(item, verdict)
        p.add("dynamism.derivations", len(ds))
    if nodes:
        p.counts["dynamism.nodes"] = nodes.nodes
        p.counts["dynamism.distinct_nodes"] = len(nodes.seen)


def run_normalize(m, sig, p: Pass, jobs, work: Path):
    """Each term file through `check`, `elaborate`, `normalize` and
    `compare --syntactic` against its partner file."""
    grammar, elaborate = m["grammar"], m["elaborate"]
    infer_type, term_to_text = m["infer_type"], m["term_to_text"]
    from gtt.elaborate import is_elaborated
    from gtt.syntax import term_size
    from gtt.typecheck import infer_type as plain_infer
    sigs = {"on": sig, "off": sig.replace(retract=False)}
    for k, job in enumerate(jobs):
        s = sigs[job["retract"]]
        left, right = work / job["left"], work / job["right"]
        item = f"n{k}"
        p.begin(item)
        text = _read(left)
        # check
        ctx, t = grammar.parse_term_file(text, s)
        ty_text = m["type_to_text"](infer_type(s, ctx, t))
        # elaborate
        ctx, t = grammar.parse_term_file(_read(left), s)
        elab = elaborate.elaborate(s, ctx, t)
        term_to_text(elab)
        # normalize
        ctx, t = grammar.parse_term_file(_read(left), s)
        nf = elaborate.normalize(s, elaborate.elaborate(s, ctx, t), ctx)
        term_to_text(nf)
        # compare --syntactic
        ctx1, t1 = grammar.parse_term_file(_read(left), s)
        right_text = _read(right)
        ctx2, t2 = grammar.parse_term_file(right_text, s)
        equal = ctx1.entries == ctx2.entries and elaborate.equal_terms(s, t1, t2, ctx1)
        with p.paused():
            p.add("grammar.bytes_in", 4 * len(text.encode()) + len(right_text.encode()))
            verdict = {
                "type": ty_text,
                "elaborated": is_elaborated(elab),
                "nf_type": plain_infer(s, ctx, nf) == plain_infer(s, ctx, t),
                "equal": equal,
            }
            if p.tracer:
                p.add("elaborate.size_in", term_size(t))
                p.add("elaborate.size_elab", term_size(elab))
                p.add("elaborate.size_nf", term_size(nf))
        p.end(item, verdict)


WORKLOADS = {"catalog": run_catalog, "prove": run_prove, "normalize": run_normalize}


def main(argv: list[str]) -> int:
    src, workload, jobs_path, trace, out_path = argv
    sys.path.insert(0, src)
    import bench_gen

    # the layer modules, then the functions the pass calls directly
    modules = {name: importlib.import_module(f"gtt.{name}") for name in (
        "theorems", "dynamism", "derivio", "grammar", "typecheck",
        "elaborate", "model")}
    modules["gen"] = bench_gen
    jobs_file = Path(jobs_path)
    jobs = json.loads(jobs_file.read_text())
    work = jobs_file.parent
    tracer = Tracer() if trace == "1" else None
    for mod, attr, name in PASS_CALLS:
        fn = getattr(modules[mod], attr)
        modules[attr] = tracer.wrap(name, fn) if tracer else fn
    describe = modules["dynamism"].DynJudgment.describe
    modules["describe"] = tracer.wrap("grammar.print", describe) if tracer else describe
    sig = modules["typecheck"].default_signature()
    if tracer:
        tracer.install(modules)
    p = Pass(tracer)
    try:
        WORKLOADS[workload](modules, sig, p, jobs, work)
    finally:
        end = perf()
        p.close()
        if tracer:
            tracer.uninstall()
    result = {
        "raw_wall_s": end - p.start - p.paused_s,
        "items": p.items,
        "samples": p.samples,
        "counts": p.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["counts"]["theorems.derive_calls"] = tracer.derive_calls
        result["counts"]["theorems.built"] = tracer.built
        spans_path = Path(out_path).with_suffix(".spans.json")
        base = p.start
        spans_path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "paused_s": p.paused_s,
            "spans": [[n, s - base, e - base, par, it]
                      for n, s, e, par, it in tracer.spans],
        }))
        result["spans"] = str(spans_path)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
