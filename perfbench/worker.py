"""Child process of run.py: the golden gate, one set-up probe, or one run.

    python3 perfbench/worker.py golden
    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE SPANS_PATH

An untraced measure run starts the set-up probes itself.  Each mode prints
one JSON object on stdout.  llvlat is imported from the checkout's src/
only.  A request is one closed-loop call chain of a single client; its
answer is checked against ``ref`` and a wrong value, a wrong exit code or an
unexpected exception fails it, while a refusal the reference predicts is a
success.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from statistics import median, quantiles
from time import perf_counter

import ref
import workloads
from spans import LAYERS, NullTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
Q = Fraction


class CheckFailed(Exception):
    """An answer disagreed with its reference; the message names the check."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


class Api:
    """The llvlat modules, imported from this checkout."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import llvlat
        from llvlat import (arith, cli, cohomology, errors, golden, harmonic,
                            isometry, lattice, lines, monodromy)

        if not os.path.abspath(llvlat.__file__).startswith(SRC + os.sep):
            raise ImportError(f"llvlat imported from {llvlat.__file__}, not {SRC}")
        self.arith, self.cli, self.coh, self.errors = arith, cli, cohomology, errors
        self.golden, self.harm, self.iso, self.lat = golden, harmonic, isometry, lattice
        self.lines, self.mono = lines, monodromy
        self.vec = lattice.LLVVector
        self.k32 = lattice.make_space("HilbK3", 2)
        self.k3 = lattice.make_space("K3")


def _refused(tr, name, fn, args, error, what):
    try:
        tr.call(name, fn, *args)
    except error:
        return "refused"
    raise CheckFailed(f"{what}: the gate should refuse this input")


# ---------------------------------------------------------------------------
# families


def _ch_class(coh, sp, rank, c1, ch2, ch3, ch4):
    return coh.scalar_class(sp, rank) + coh.h2_class(sp, c1) + ch2 + ch3 \
        + coh.point_class(sp, ch4)


def _square_integral(coh, x):
    return coh.integrate(coh.cup(x, x))


def run_chern_phiO(api, tr, req, stats):
    sp, r0, h, want = api.k32, req["r0"], req["h"], req["expect"]
    if want is None:
        return _refused(tr, "lines.chern_phiO", api.lines.chern_phiO, (sp, r0, h),
                        api.errors.NotRealizableError, "chern_phiO")
    ch2, ch3, ch4, _, chi = tr.call("lines.chern_phiO", api.lines.chern_phiO, sp, r0, h)
    check(chi == want["chi"], "chern_phiO: chi = closed form")
    check(ch4 == want["ch4"], "chern_phiO: ch4 = closed form")
    ch = tr.call("cohomology.ch_class", _ch_class, api.coh, sp, r0 * r0, h, ch2, ch3, ch4)
    check(tr.call("cohomology.chi", api.coh.chi, sp, ch) == want["chi"],
          "cohomology.chi of the phiO character = closed form")
    v = tr.call("cohomology.mukai_vector", api.coh.mukai_vector, sp, r0 * r0, h, ch2, ch3, ch4)
    check((v.a0, v.a2, v.a8) == (r0 * r0, h, want["mukai_top"]),
          "mukai_vector of the phiO character = closed form")
    g = api.vec(*want["gamma"])
    check(tr.call("lattice.pair", sp.pair, g, g) == -10, "phiO line: gamma^2 = -10")
    return repr((chi, ch4, v.a8))


def run_chern_isotropic(api, tr, req, stats):
    sp, r0, h, want = api.k32, req["r0"], req["h"], req["expect"]
    if want is None:
        return _refused(tr, "lines.chern_isotropic", api.lines.chern_isotropic_k32,
                        (sp, r0, h), api.errors.NotRealizableError, "chern_isotropic_k32")
    _, _, ch4, chi = tr.call("lines.chern_isotropic", api.lines.chern_isotropic_k32, sp, r0, h)
    check(chi == want["chi"], "chern_isotropic_k32: chi = closed form")
    check(ch4 == want["ch4"], "chern_isotropic_k32: ch4 = closed form")
    g = api.vec(*want["gamma"])
    check(tr.call("lattice.pair", sp.pair, g, g) == 0, "isotropic line: gamma^2 = 0")
    return repr((chi, ch4))


def run_lagrangian(api, tr, req, stats):
    want = req["expect"]
    data, (ch2, _, _) = tr.call("arith.lagrangian_data", api.arith.lagrangian_data,
                                api.k32, req["q"], req["chiZ"])
    check((data.c, data.t, data.chiOZ) == (want["c"], want["t"], want["chiOZ"]),
          "lagrangian_data: c, t, chi(O_Z) = closed forms")
    check(tr.call("cohomology.cup", _square_integral, api.coh, ch2) == req["chiZ"],
          "lagrangian_data: integral of ch2^2 = chi(Z)")
    return repr((data.c, data.t, data.chiOZ))


def _llv(x):
    return (x.r, x.v, x.s)


def run_ek(api, tr, req, stats):
    k, want = req["k"], req["expect"]
    res = tr.call("monodromy.ek_pipeline", api.mono.ek_pipeline, k)
    check(res["rank"] == 45 * k * k == want["rank"], "ek_pipeline: rank = 45 k^2")
    check((res["c1"], res["s"]) == (want["c1"], want["s"]), "ek_pipeline: c1 and s")
    check(_llv(res["line"].generator) == want["line"], "ek_pipeline: line")
    check(_llv(res["twist_line"].generator) == want["twist"], "ek_pipeline: twist line")
    return repr((res["rank"], res["s"], res["c1"]))


def _cli_main(cli, argv, out, err):
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


def run_cli(api, tr, req, stats):
    argv = req["argv"]
    code_want, doc_want = req["expect"]
    out, err = io.StringIO(), io.StringIO()
    code = tr.call("cli.main", _cli_main, api.cli, argv, out, err)
    stats["cli.calls"] += 1
    stats["cli.exit2"] += code == 2
    check(code == code_want, f"cli {argv[0]}: exit code {code}, expected {code_want}")
    if doc_want is None:
        check(out.getvalue() == "", f"cli {argv[0]}: a refusal prints nothing on stdout")
    else:
        check(json.loads(out.getvalue()) == doc_want, f"cli {argv[0]}: JSON output")
    return out.getvalue()


# ---------------------------------------------------------------------------
# monodromy


def _letter(api, tr, letter):
    kind, arg = letter
    if kind == "b_lambda":
        return tr.call("isometry.b_lambda", api.iso.b_lambda, api.k3, arg)
    if kind == "reflection":
        return tr.call("isometry.reflection", api.iso.reflection, api.k3, api.vec(*arg))
    if kind == "phi_p":
        return tr.call("monodromy.phi_p", api.mono.phi_p, api.k3)
    return tr.call("isometry.duality_D", api.iso.duality_D, api.k3)


def _lift(api, tr, g, n):
    return tr.call("monodromy.dmon_lift", api.mono.dmon_lift, g, n).lifted


def run_word(api, tr, req, stats):
    n = req["n"]
    gens = [_letter(api, tr, letter) for letter in req["word"]]
    word, rest = gens[-1], None
    for g in reversed(gens[:-1]):
        rest = word
        word = tr.call("isometry.compose", g.compose, word)
    lift = _lift(api, tr, word, n)
    if rest is not None:
        split = tr.call("isometry.compose", _lift(api, tr, gens[0], n).compose,
                        _lift(api, tr, rest, n))
        check(split.m == lift.m, "dmon_lift(g h) = dmon_lift(g) dmon_lift(h)")
    space = lift.space
    chi = tr.call("monodromy.chi_involution", api.mono.chi_involution, space)
    ident = tuple(tuple(int(i == j) for j in range(space.dim)) for i in range(space.dim))
    check(tr.call("isometry.compose", chi.compose, chi).m == ident, "chi^2 = id")
    result = tr.call("isometry.compose", chi.compose, lift)
    check(result.m == tr.call("isometry.compose", lift.compose, chi).m,
          "chi commutes with dmon_lift")
    check(tr.call("isometry.det_and_orientation", api.iso.det_and_orientation, result)
          == req["expect"], "det and orientation of chi o lift(word)")
    images = []
    for x, div, sq in req["vectors"]:
        y = tr.call("isometry.apply", result.apply, api.vec(*x))
        check(tr.call("lattice.in_integral_llv", api.lat.in_integral_llv, space, y),
              "chi o lift(word) preserves Lambda")
        check(tr.call("lattice.div_in_lambda", api.lat.div_in_lambda, space, y) == div,
              "chi o lift(word) preserves divisibility in Lambda")
        check(tr.call("lattice.pair", space.pair, y, y) == sq, "chi o lift(word) is an isometry")
        images.append(_llv(y))
    return repr(images)


# ---------------------------------------------------------------------------
# harmonic


def _context(api, sp, extra):
    gens = (sp.alpha(), sp.beta()) + tuple(api.vec(Q(0), v, Q(0)) for v in extra)
    return api.harm.GeneratorContext(sp, gens)


def _linear(harm, ctx, coeffs):
    out = harm.ReducedSymElement.zero(ctx)
    for i, c in enumerate(coeffs):
        if c:
            out = out + harm.ReducedSymElement.monomial(ctx, (i,), c)
    return out


def _projected(harm, x, p):
    return Q(1, factorial(p)) * harm.project_harmonic(x)


def _round_trips(api, tr, req, ctx, coeff_lists, expanded):
    """project_harmonic(gamma^p)/p!, then recover_line, for each class."""
    p, got = req["p"], []
    for coeffs in coeff_lists:
        lin = tr.call("harmonic.linear", _linear, api.harm, ctx, coeffs)
        h = tr.call("harmonic.project_harmonic", _projected, api.harm,
                    tr.call("harmonic.power", lin.power, p), p)
        if expanded:
            h = tr.call("harmonic.expand_qtilde", api.harm.expand_qtilde, h)
        got.append(_llv(tr.call("harmonic.recover_line", api.harm.recover_line, h)))
    check(tuple(got) == req["expect"], "recover_line returns the known gamma")
    return repr(got)


def run_roundtrip(api, tr, req, stats):
    sp = tr.call("lattice.make_space", api.lat.make_space, *req["space"])
    ctx = tr.call("harmonic.context", _context, api, sp, req["extra"])
    return _round_trips(api, tr, req, ctx, req["gammas"], False)


def run_expanded(api, tr, req, stats):
    sp = tr.call("lattice.make_space", api.lat.make_space, *req["space"])
    ctx = tr.call("harmonic.full_context", api.harm.full_context, sp)
    return _round_trips(api, tr, req, ctx, [ref.coords(g) for g in req["gammas"]], True)


# ---------------------------------------------------------------------------
# search


def run_search(api, tr, req, stats):
    lam, c_max, div = req["lambda_sq_max"], req["c_max"], req["div"]
    hits = tr.call("arith.arithmetic_search", api.arith.arithmetic_search, lam, c_max, div)
    stats["arith.hits"] += len(hits)
    for h in hits:
        bad = ref.search_hit_ok(h.lambda_sq, h.c, h.t, h.chiZ, h.chiOZ, h.div, lam, c_max, div)
        check(bad is None, f"arithmetic_search hit re-derivation: {bad}")
    return repr([(h.lambda_sq, h.c, h.t) for h in hits])


def check_smallest_box(api, block):
    """Compare the block's smallest box with a plain enumeration (untimed)."""
    req = min(block, key=lambda r: r["lambda_sq_max"] * r["c_max"])
    box = (req["lambda_sq_max"], req["c_max"], req["div"])
    got = [(h.lambda_sq, h.c, h.t, h.chiZ) for h in api.arith.arithmetic_search(*box)]
    check(got == ref.search_plain(*box), f"arithmetic_search{box} = plain enumeration")


EXECUTORS = {
    "chern_phiO": run_chern_phiO,
    "chern_isotropic": run_chern_isotropic,
    "lagrangian_data": run_lagrangian,
    "ek_pipeline": run_ek,
    "cli": run_cli,
    "word": run_word,
    "roundtrip": run_roundtrip,
    "expanded": run_expanded,
    "search": run_search,
}


def run_request(api, tr, req, stats):
    """Run one request; returns (ok, latency s, output text or failure)."""
    execute = EXECUTORS[req["kind"]]
    where = f"request {req['id']} ({req['kind']})"
    start = perf_counter()
    try:
        out = tr.request(req["id"], execute, api, tr, req, stats)
        ok = True
    except CheckFailed as exc:
        ok, out = False, f"{where}: {exc}"
    except Exception as exc:  # any other exception is a failed request
        ok, out = False, f"{where}: unexpected {type(exc).__name__}: {exc}"
    return ok, perf_counter() - start, out


class Run:
    """Counts, latencies and the output digest of a sequence of requests."""

    def __init__(self):
        self.latencies, self.failures = [], []
        self.ok = 0
        self.stats = Counter()
        self.digest = hashlib.sha256()

    def add(self, api, tr, req):
        ok, latency, out = run_request(api, tr, req, self.stats)
        self.latencies.append(latency)
        if ok:
            self.ok += 1
            self.digest.update(f"{req['id']}:{out}\n".encode())
        else:
            self.failures.append(out)

    @property
    def attempted(self):
        return len(self.latencies)

    def summary(self, errors=()) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10], "errors": list(errors),
                "digest": self.digest.hexdigest()}


SETUP_PROBES = 5

# time one block takes at the seed commit, per workload; each of the two
# passes of a traced run covers a fixed number of blocks, about a quarter
# of --seconds, so that its counts repeat exactly
_BLOCK_SECONDS = {"families": 1.5, "monodromy": 1.7, "harmonic": 0.7, "search": 0.5}


def trace_blocks(workload: str, seconds: int) -> int:
    return max(1, round(seconds / 4 / _BLOCK_SECONDS[workload]))


def fixed_run(api, tr, workload, seed, n_blocks) -> Run:
    run = Run()
    for i, block in enumerate(workloads.blocks(workload, seed)):
        if i == n_blocks:
            break
        for req in block:
            run.add(api, tr, req)
    return run


def measure(workload, seed, seconds, trace, spans_path) -> dict:
    api = Api()
    cold = Run()
    cold.add(api, NullTracer(), workloads.cold_request(workload))
    if cold.failures:
        return cold.summary(["the cold request failed"])
    if workload == "search":
        try:
            check_smallest_box(api, next(workloads.blocks(workload, seed)))
        except CheckFailed as exc:
            return cold.summary([str(exc)])
    if trace:
        return traced(api, workload, seed, seconds, spans_path)
    return timed(api, workload, seed, seconds)


# The shared host runs this benchmark's core at two speeds, about 1.5x
# apart, in phases of seconds to minutes, and a whole run can fall into a
# slow phase.  So the times of an untraced run are scaled to one machine
# speed: a fixed exact computation that does not use llvlat, the speed
# probe, runs between requests, and a request's latency is multiplied by
# SPEED_REF_S / (mean probe time just before and just after it).  The
# result reads in ms on this machine at its typical speed, and a change to
# llvlat moves it as it moves the raw time.
SPEED_REF_S = 0.85e-3  # typical speed_probe() on a 2-core 2.1 GHz Xeon, Python 3.11.7


def _speed_kernel():
    """Exact elimination on a fixed 7 x 7 rational matrix; plain Python."""
    n = 7
    a = [[Q((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + 9 * (i == j) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    det = Q(1)
    for i in range(n):
        det *= a[i][i]
    return det


_SPEED_DET = _speed_kernel()


def speed_probe() -> float:
    """Best of two timings of the speed kernel, in s."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        det = _speed_kernel()
        best = min(best, perf_counter() - start)
    if det != _SPEED_DET:
        raise CheckFailed("the speed probe gave a different determinant")
    return best


def timed(api, workload, seed, seconds) -> dict:
    """Whole blocks until --seconds are spent in requests; set-up probes between blocks."""
    run, tr, probes, scaled = Run(), NullTracer(), [], []
    hard_stop = perf_counter() + seconds + 80
    try:
        for block in workloads.blocks(workload, seed):
            # --seconds counts time spent in requests; the set-up probes run
            # between blocks, spread over the run so that their median does
            # not hang on the machine's speed at one moment
            busy, before = sum(run.latencies), None
            while len(probes) < SETUP_PROBES and busy >= len(probes) * seconds / SETUP_PROBES:
                probes.append(setup_probe(workload))
            if busy >= seconds or perf_counter() > hard_stop:
                break
            for req in block:
                before = speed_probe() if before is None else before
                run.add(api, tr, req)
                after = speed_probe()
                scaled.append(run.latencies[-1] * 2 * SPEED_REF_S / (before + after))
                before = after
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload))
    except CheckFailed as exc:
        return run.summary([str(exc)])
    metrics = {
        "setup_s": median(probes),
        "throughput_ops_s": run.ok / sum(scaled),
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_p90_ms": quantiles(scaled, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return run.summary() | {"metrics": metrics}


# per-call medians reported by the traced run: metric -> (span name, scale)
PER_CALL = {
    "lattice.pair_us": ("lattice.pair", 1),
    "lattice.in_integral_llv_us": ("lattice.in_integral_llv", 1),
    "lattice.div_in_lambda_us": ("lattice.div_in_lambda", 1),
    "isometry.b_lambda_ms": ("isometry.b_lambda", 1e-3),
    "isometry.reflection_ms": ("isometry.reflection", 1e-3),
    "isometry.compose_ms": ("isometry.compose", 1e-3),
    "isometry.apply_us": ("isometry.apply", 1),
    "isometry.det_and_orientation_ms": ("isometry.det_and_orientation", 1e-3),
    "monodromy.dmon_lift_ms": ("monodromy.dmon_lift", 1e-3),
    "monodromy.chi_involution_ms": ("monodromy.chi_involution", 1e-3),
    "monodromy.ek_pipeline_ms": ("monodromy.ek_pipeline", 1e-3),
    "cohomology.chi_ms": ("cohomology.chi", 1e-3),
    "cohomology.cup_ms": ("cohomology.cup", 1e-3),
    "cohomology.mukai_vector_ms": ("cohomology.mukai_vector", 1e-3),
    "lines.chern_phiO_ms": ("lines.chern_phiO", 1e-3),
    "lines.chern_isotropic_ms": ("lines.chern_isotropic", 1e-3),
    "arith.lagrangian_data_ms": ("arith.lagrangian_data", 1e-3),
    "arith.search_ms": ("arith.arithmetic_search", 1e-3),
    "harmonic.project_harmonic_ms": ("harmonic.project_harmonic", 1e-3),
    "harmonic.recover_line_ms": ("harmonic.recover_line", 1e-3),
    "harmonic.expand_qtilde_ms": ("harmonic.expand_qtilde", 1e-3),
    "cli.main_ms": ("cli.main", 1e-3),
}


def traced(api, workload, seed, seconds, spans_path) -> dict:
    n_blocks = trace_blocks(workload, seconds)
    start = perf_counter()
    plain = fixed_run(api, NullTracer(), workload, seed, n_blocks)
    plain_s = perf_counter() - start
    tr = Tracer()
    start = perf_counter()
    run = fixed_run(api, tr, workload, seed, n_blocks)
    traced_s = perf_counter() - start
    tr.write(spans_path)

    layers = tr.layer_table()
    metrics = {}
    for layer, (calls, self_ns) in layers.items():
        if layer != "bench":
            metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms"] = self_ns / 1e6
    for name, (span, scale) in PER_CALL.items():
        metrics[name] = tr.median_us(span) * scale
    metrics["lines.refusal_frac"] = tr.refused_frac("lines")
    metrics["arith.hits"] = run.stats["arith.hits"]
    cli_calls = run.stats["cli.calls"]
    metrics["cli.exit2_frac"] = run.stats["cli.exit2"] / cli_calls if cli_calls else 0.0
    metrics["fail_frac"] = len(run.failures) / run.attempted
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    calls = census(api, workload, seed)
    span_counts = {name: len(d) for name, d in tr.by_name().items()}
    span_counts |= {layer: n for layer, (n, _) in layers.items()}
    errors = separation_errors(workload, span_counts, calls)
    if plain.digest.hexdigest() != run.digest.hexdigest():
        errors.append("traced and untraced runs gave different outputs")
    return run.summary(errors) | {"metrics": metrics, "layers": layers,
                                  "census": calls, "blocks": n_blocks}


def _module_of(filename: str) -> str:
    """llvlat module of a source file; "" outside llvlat."""
    pkg = os.path.join(SRC, "llvlat") + os.sep
    return filename[len(pkg):].removesuffix(".py") if filename.startswith(pkg) else ""


def census(api, workload, seed) -> dict[str, int]:
    """Python calls made inside each llvlat module during the first block.

    A profile hook sees the calls llvlat makes internally, which the spans
    around the benchmark's own calls cannot; it is slow, so it covers one
    block and no timing is taken from it.  Keys are module names and
    "module.function" names.  _linalg is counted on its own: lattice,
    isometry, cohomology and harmonic all use it.
    """
    counts = Counter()
    module_of = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            module = module_of.get(code)
            if module is None:
                module = module_of[code] = _module_of(code.co_filename)
            if module:
                counts[module] += 1
                counts[f"{module}.{code.co_name}"] += 1

    run = Run()
    block = next(workloads.blocks(workload, seed))
    sys.setprofile(hook)
    try:
        for req in block:
            run.add(api, NullTracer(), req)
    finally:
        sys.setprofile(None)
    return dict(counts)


# what each workload must exercise, and what it must bypass
EXERCISES = {
    "families": ("lines", "cohomology", "arith", "monodromy", "cli", "lattice"),
    "monodromy": ("isometry", "monodromy", "lattice"),
    "harmonic": ("harmonic", "lattice"),
    "search": ("arith",),
}
BYPASSES = {
    "families": ("arith.arithmetic_search",),
    "monodromy": ("cohomology", "harmonic", "arith"),
    "harmonic": ("isometry", "cohomology", "arith"),
    "search": tuple(layer for layer in LAYERS if layer != "arith"),
}


def separation_errors(workload, span_counts, calls) -> list[str]:
    """Layer-separation check on span counts and on the census."""
    errors = []
    for name in EXERCISES[workload]:
        if not span_counts.get(name) or not calls.get(name):
            errors.append(f"layer separation: {workload} makes no {name} calls")
    for name in BYPASSES[workload]:
        spans = span_counts.get(name, 0)
        if spans or calls.get(name):
            errors.append(f"layer separation: {workload} makes {calls.get(name, 0)} "
                          f"{name} calls (census), {spans} (spans); expected 0")
    return errors


def setup_probe(workload) -> float:
    """setup_s of one fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise CheckFailed(f"set-up probe exited {proc.returncode}: {proc.stderr[-1000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failures"]:
        raise CheckFailed(f"set-up probe: {out['failures'][0]}")
    return out["setup_s"]


def setup(workload) -> dict:
    """import llvlat through the cold request, scaled like request latencies."""
    req = workloads.cold_request(workload)
    before = speed_probe()
    start = perf_counter()
    api = Api()
    ok, _, out = run_request(api, NullTracer(), req, Counter())
    elapsed = perf_counter() - start
    scale = 2 * SPEED_REF_S / (before + speed_probe())
    return {"setup_s": elapsed * scale, "failures": [] if ok else [out]}


def golden() -> dict:
    results, ok = Api().golden.run_golden()
    return {"passed": sum(r["ok"] for r in results), "total": len(results), "ok": ok,
            "failures": [r["name"] for r in results if not r["ok"]]}


def main(argv) -> int:
    if sys.flags.optimize:
        print(json.dumps({"error": "llvlat's exact checks are asserts; do not run with -O"}))
        return 1
    mode = argv[0]
    if mode == "golden":
        out = golden()
    elif mode == "setup":
        out = setup(argv[1])
    elif mode == "measure":
        out = measure(argv[1], int(argv[2]), int(argv[3]), int(argv[4]), argv[5])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
