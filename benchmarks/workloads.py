"""Seeded inputs and fixed operation lists of the benchmark's workloads.

Each workload is a closed loop: one caller runs the operations of a pass
in order, each only after the previous one returned. The seed fixes the
values of the inputs (coefficients, local rotations, sampling streams).
The shape of a pass (which d, which local dimensions, how many operations
of each size) is the same for every seed, so runs with different seeds do
the same amount of work and their timings can be compared.

The size mixes put most operations at small d, so that the median and the
90th percentile of per-operation latency land inside different size
classes instead of on the edge between two.

Every operation checks its own output and raises :class:`CheckFailed` on a
wrong verdict; any other exception is a failure too.
"""

from __future__ import annotations

import json
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from selftesting import (
    CorrelationTables,
    EmbeddingSpec,
    Realization,
    SchmidtCoefficients,
    angles,
    apply_isometry,
    block_scores,
    build_criterion_ops,
    check_criterion,
    compute_tables,
    embed_realization,
    extraction_report,
    ideal_realization,
    measurement_equivalence,
    no_signaling_check,
    reference_tables,
    sample_tables,
    verify_tables,
)
from selftesting import io
from spans import Spans, call

#: Verdict thresholds; the first two are the defaults of ``ExtractionReport.passes``.
FIDELITY_MIN = 1 - 1e-6
RESIDUAL_TOL = 1e-6
TABLE_TOL = 1e-8
BETA_TOL = 1e-9
NOSIGNAL_TOL = 1e-10
#: Exact values must survive a JSON round trip or a second computation to this.
SAME_TOL = 1e-12

#: Shots per setting pair for finite-statistics tables, and the allowed
#: deviation of a sampled entry in units of the largest standard error.
SHOTS = 10_000
SAMPLE_SIGMAS = 8.0

CHILD_TIMEOUT_S = 120

# (d, ideal devices, embedded devices) per pass. 30 of 40 devices have
# d <= 5, so the median falls among d = 4 and the 90th percentile among the
# embedded d = 12 devices; d = 32 is left out because one call takes ~25 s.
CERTIFY_MIX = ((2, 4, 4), (3, 4, 4), (4, 4, 3), (5, 4, 3), (8, 2, 2), (12, 1, 3), (16, 1, 1))

# (d, devices per pass), each hidden in local dimensions 32-35. Most are
# d = 2, where building the criterion operators is ~30% of a call.
WIDE_MIX = ((2, 26), (3, 6), (4, 2), (5, 6))
WIDE_DIM = 32

# (d, coefficient vectors per pass). The d = 32 vectors are the top fifth,
# so the 90th percentile sits among them, where validation dominates.
TABLES_MIX = tuple((d, 4) for d in range(2, 10)) + ((16, 6), (32, 10))

CLI_DIMS = (2, 8, 16)

IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import selftesting\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'numpy_s': t1 - t0, 'import_s': t2 - t0, 'file': selftesting.__file__}))\n"
)


class CheckFailed(Exception):
    """An operation returned, but with a wrong verdict or wrong numbers."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Context:
    """Where a run finds the package and keeps its files."""

    src: Path
    workdir: Path
    env: dict[str, str]


@dataclass(frozen=True)
class Op:
    """One operation of a pass. `run` takes the span log, or None when untraced."""

    label: str
    run: Callable[[Spans | None], None]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def _coefficients(rng: np.random.Generator, d: int) -> SchmidtCoefficients:
    c = rng.uniform(0.25, 1.0, size=d)
    return SchmidtCoefficients(c / np.linalg.norm(c))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _embed(spans: Spans | None, r: Realization, spec: EmbeddingSpec) -> Realization:
    return call(spans, "harness.embed_realization", embed_realization, r, spec)


# --- certify and certify-wide ------------------------------------------------


def setup_certify(seed: int, ctx: Context, spans: Spans | None) -> list[tuple[str, Any, Realization]]:
    rng = _rng(seed, "certify")
    cases = []
    j = 0
    for d, n_ideal, n_embedded in CERTIFY_MIX:
        for i in range(n_ideal + n_embedded):
            sc = _coefficients(rng, d)
            r = ideal_realization(sc)
            if i >= n_ideal:
                spec = EmbeddingSpec(1 + j % 4, 1 + (j + 1) % 4, _draw_seed(rng))
                r = _embed(spans, r, spec)
                j += 1
            cases.append((f"extract d={d} in {r.dim_a}x{r.dim_b}", sc, r))
    return cases


def setup_certify_wide(seed: int, ctx: Context, spans: Spans | None) -> list[tuple[str, Any, Realization]]:
    rng = _rng(seed, "certify-wide")
    cases = []
    j = 0
    for d, n in WIDE_MIX:
        for _ in range(n):
            sc = _coefficients(rng, d)
            dim_a = min(WIDE_DIM + j % 4, d + 32)
            dim_b = min(WIDE_DIM + (j + 2) % 4, d + 32)
            spec = EmbeddingSpec(dim_a - d, dim_b - d, _draw_seed(rng))
            r = _embed(spans, ideal_realization(sc), spec)
            cases.append((f"extract d={d} in {r.dim_a}x{r.dim_b}", sc, r))
            j += 1
    return cases


def _certify(sc: SchmidtCoefficients, r: Realization) -> Callable[[Spans | None], None]:
    def run(spans: Spans | None) -> None:
        if spans is None:
            expect(extraction_report(r, sc).passes(), "extraction_report does not pass")
            return
        # The traced run calls the stages in extraction_report's order.
        ops = spans.call("extraction.build_criterion_ops", build_criterion_ops, r, sc)
        crit = spans.call("extraction.check_criterion", check_criterion, ops, r, sc)
        _, iso = spans.call("extraction.apply_isometry", apply_isometry, ops, r, sc)
        meas = spans.call("extraction.measurement_equivalence", measurement_equivalence, ops, r, sc)
        worst = max(
            float(np.max(crit.projector_match)),
            float(np.max(crit.chain_map)),
            float(np.max(crit.chain_map_adjoint)),
            max(m.residual for m in meas),
        )
        expect(
            iso.fidelity >= FIDELITY_MIN and worst <= RESIDUAL_TOL,
            f"stages do not pass: fidelity {iso.fidelity!r}, worst residual {worst!r}",
        )

    return run


def ops_certify(cases: list[tuple[str, Any, Realization]], ctx: Context) -> list[Op]:
    return [Op(label, _certify(sc, r)) for label, sc, r in cases]


# --- tables ------------------------------------------------------------------


def setup_tables(seed: int, ctx: Context, spans: Spans | None) -> list[tuple[SchmidtCoefficients, int]]:
    rng = _rng(seed, "tables")
    return [(_coefficients(rng, d), _draw_seed(rng)) for d, n in TABLES_MIX for _ in range(n)]


def _max_diff(a: CorrelationTables, b: CorrelationTables, pairs: list[tuple[int, int]]) -> float:
    return max(float(np.max(np.abs(a.table(*p) - b.table(*p)))) for p in pairs)


def _check_scores(scores: list, sched: Any) -> None:
    alphas = np.concatenate([sched.alpha, sched.alpha_primed])
    expect(len(scores) == alphas.size, f"{len(scores)} block scores for {alphas.size} blocks")
    for s, alpha in zip(scores, alphas):
        expect(abs(s.alpha - alpha) <= SAME_TOL, f"block {s.pair} tilt {s.alpha!r} != {alpha!r}")
        bound = np.sqrt(8.0 + 2.0 * alpha * alpha) * s.mass
        expect(abs(s.target - bound) <= SAME_TOL, f"block {s.pair} target {s.target!r} != {bound!r}")
        expect(abs(s.beta - s.target) <= BETA_TOL, f"block {s.pair} |beta - target| = {abs(s.beta - s.target):.3e}")


def _check_sampled(sampled: CorrelationTables, exact: CorrelationTables, stderr_max: float) -> None:
    for p in exact.pairs():
        got = sampled.table(*p)
        expect(abs(got.sum() - 1.0) <= 1e-9, f"sampled table {p} sums to {got.sum()!r}")
    dev = _max_diff(sampled, exact, exact.pairs())
    expect(dev <= SAMPLE_SIGMAS * stderr_max, f"sampled tables off by {dev:.3e} > {SAMPLE_SIGMAS} x {stderr_max:.3e}")


def _tables(sc: SchmidtCoefficients, sample_seed: int) -> Callable[[Spans | None], None]:
    def run(spans: Spans | None) -> None:
        ref = call(spans, "correlations.reference_tables", reference_tables, sc)
        sched = call(spans, "schmidt.angles", angles, sc)
        r = call(spans, "ideal.ideal_realization", ideal_realization, sc)
        call(spans, "ideal.Realization.validate", r.validate)
        exact = call(spans, "correlations.compute_tables", compute_tables, r)
        gap = _max_diff(exact, ref, ref.pairs())
        expect(gap <= TABLE_TOL, f"Born-rule and closed-form tables differ by {gap:.3e}")
        report = call(spans, "correlations.verify_tables", verify_tables, exact, sc, TABLE_TOL)
        expect(report.passed, f"exact tables fail verify_tables at {TABLE_TOL:g}: {report}")
        _check_scores(call(spans, "chsh.block_scores", block_scores, exact, sc), sched)
        drift = call(spans, "correlations.no_signaling_check", no_signaling_check, exact)
        expect(drift <= NOSIGNAL_TOL, f"exact tables signal by {drift:.3e}")
        sampled = call(spans, "harness.sample_tables", sample_tables, r, SHOTS, sample_seed)
        _check_sampled(sampled.estimated, exact, sampled.stderr_max)
        noisy = call(spans, "chsh.block_scores", block_scores, sampled.estimated, sc)
        expect(
            len(noisy) == 2 * (sc.d // 2) and all(np.isfinite(s.beta) for s in noisy),
            "sampled tables give no finite score for every block",
        )

    return run


def ops_tables(cases: list[tuple[SchmidtCoefficients, int]], ctx: Context) -> list[Op]:
    return [Op(f"tables d={sc.d}", _tables(sc, sample_seed)) for sc, sample_seed in cases]


# --- cli ---------------------------------------------------------------------


@dataclass(frozen=True)
class CliInputs:
    """Files the cli pass reads, and the in-memory values its checks compare with.

    Coefficient files exist for every d in ``CLI_DIMS``; the other files
    only where a pass uses them.
    """

    coeffs_files: tuple[Path, ...]
    ideals: tuple[Realization, ...]
    reference16: CorrelationTables
    ideal2_file: Path
    ideal8_file: Path
    embedded8_file: Path
    embedded16: Realization
    embedded16_file: Path
    embed_spec: EmbeddingSpec
    embed_expected: Realization
    sample_seed: int
    sample_exact: CorrelationTables


def probe_import(spans: Spans | None, ctx: Context) -> dict[str, Any]:
    """Import numpy, then the package, in a fresh interpreter; return its timings."""
    proc = call(
        spans, "cli.python", subprocess.run, [sys.executable, "-c", IMPORT_PROBE],
        cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    expect(proc.returncode == 0, f"import selftesting exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    doc = json.loads(proc.stdout)
    expect(
        Path(doc["file"]).resolve().is_relative_to(ctx.src.resolve()),
        f"selftesting was imported from {doc['file']}, outside {ctx.src}",
    )
    if spans is not None:
        spans.add_child("cli.python", "cli.numpy_import", doc["numpy_s"])
        spans.add_child("cli.python", "cli.import", doc["import_s"])
    return doc


def _save(spans: Spans | None, r: Realization, path: Path) -> Path:
    call(spans, "io.save_realization", io.save_realization, r, path)
    if spans is not None:
        spans.count("io.bytes", path.stat().st_size)
    return path


def setup_cli(seed: int, ctx: Context, spans: Spans | None) -> CliInputs:
    rng = _rng(seed, "cli")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    coeffs = [_coefficients(rng, d) for d in CLI_DIMS]
    files = []
    for sc in coeffs:
        files.append(ctx.workdir / f"coeffs{sc.d}.json")
        io.save_coefficients(sc, files[-1])
    ideal2, ideal8, ideal16 = (ideal_realization(sc) for sc in coeffs)
    embedded8 = _embed(spans, ideal8, EmbeddingSpec(2, 3, _draw_seed(rng)))
    embedded16 = _embed(spans, ideal16, EmbeddingSpec(3, 4, _draw_seed(rng)))
    spec = EmbeddingSpec(3, 2, _draw_seed(rng))
    return CliInputs(
        coeffs_files=tuple(files),
        ideals=(ideal2, ideal8, ideal16),
        reference16=reference_tables(coeffs[2]),
        ideal2_file=_save(spans, ideal2, ctx.workdir / "ideal2.json"),
        ideal8_file=_save(spans, ideal8, ctx.workdir / "ideal8.json"),
        embedded8_file=_save(spans, embedded8, ctx.workdir / "embedded8.json"),
        embedded16=embedded16,
        embedded16_file=_save(spans, embedded16, ctx.workdir / "embedded16.json"),
        embed_spec=spec,
        embed_expected=_embed(spans, ideal8, spec),
        sample_seed=_draw_seed(rng),
        sample_exact=compute_tables(ideal8),
    )


def _cli(spans: Spans | None, ctx: Context, sub: str, *args: str) -> str:
    proc = call(
        spans, f"cli.{sub}", subprocess.run, [sys.executable, "-m", "selftesting", sub, *args],
        cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    expect(proc.returncode == 0, f"selftesting {sub} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def _same_realization(a: Realization, b: Realization, what: str) -> None:
    expect((a.dim_a, a.dim_b) == (b.dim_a, b.dim_b), f"{what}: dimensions differ")
    gap = float(np.max(np.abs(a.state - b.state)))
    for ma, mb in zip(a.alice + a.bob, b.alice + b.bob):
        expect(ma.projectors.shape == mb.projectors.shape, f"{what}: measurement shapes differ")
        gap = max(gap, float(np.max(np.abs(ma.projectors - mb.projectors))))
    expect(gap <= SAME_TOL, f"{what}: differs by {gap:.3e}")


def _same_tables(a: CorrelationTables, b: CorrelationTables, what: str) -> None:
    expect(a.pairs() == b.pairs(), f"{what}: pairs {a.pairs()} != {b.pairs()}")
    gap = _max_diff(a, b, b.pairs())
    expect(gap <= SAME_TOL, f"{what}: differs by {gap:.3e}")


def _stderr_max(exact: CorrelationTables, shots: int) -> float:
    return max(float(np.max(np.sqrt(exact.table(*p) * (1 - exact.table(*p)) / shots))) for p in exact.pairs())


def ops_cli(inp: CliInputs, ctx: Context) -> list[Op]:
    """One pass of CLI calls on the files written in set-up.

    Every CLI output is checked, either by a later CLI call that consumes
    it (``verify`` and ``chsh`` fail on wrong tables) or by reading it back
    in-process through ``io``. Those reads, plus a save and a load of the
    largest embedded device, are the operations that time the ``io`` layer.
    The embedded d = 16 device is not extracted here: ``certify`` does that
    in-process, and one call would take a fifth of the pass.
    """
    ops = [Op("python -c 'import selftesting'", lambda s: probe_import(s, ctx))]

    def cli(label: str, sub: str, *args: str, check: Callable[[str], None] | None = None) -> None:
        def run(s: Spans | None) -> None:
            out = _cli(s, ctx, sub, *args)
            if check is not None:
                check(out)

        ops.append(Op(f"selftesting {label}", run))

    def read(label: str, layer: str, fn: Callable[[Path], Any], path: Path, check: Callable[[Any], None]) -> None:
        def run(s: Spans | None) -> None:
            out = call(s, layer, fn, path)
            if s is not None:
                s.count("io.bytes", path.stat().st_size)
            check(out)

        ops.append(Op(f"{layer} {label}", run))

    def coeffs(d: int) -> tuple[str, str]:
        return ("--coeffs-file", inp.coeffs_files[CLI_DIMS.index(d)].name)

    def passes(what: str) -> Callable[[str], None]:
        return lambda out: expect(json.loads(out)["pass"] is True, f"{what} does not pass")

    def scores_all(d: int) -> Callable[[str], None]:
        def check(out: str) -> None:
            n = len(json.loads(out)["blocks"])
            expect(n == 2 * (d // 2), f"chsh d={d} scored {n} blocks")

        return check

    cli("generate d=2", "generate", *coeffs(2), "-o", "tables2.json")
    cli("verify d=2", "verify", "tables2.json", *coeffs(2), "--tol", repr(TABLE_TOL), check=passes("verify d=2"))
    cli("generate d=8", "generate", *coeffs(8), "-o", "tables8.json")
    cli("chsh d=8", "chsh", "tables8.json", *coeffs(8), "--tol", repr(BETA_TOL), check=scores_all(8))
    cli("generate d=16", "generate", *coeffs(16), "-o", "tables16.json")
    read(
        "generated d=16", "io.load_tables", io.load_tables, ctx.workdir / "tables16.json",
        lambda t: _same_tables(t, inp.reference16, "generate d=16"),
    )
    cli("verify d=16", "verify", "tables16.json", *coeffs(16), "--tol", repr(TABLE_TOL), check=passes("verify d=16"))
    cli("chsh d=16", "chsh", "tables16.json", *coeffs(16), "--tol", repr(BETA_TOL), check=scores_all(16))
    for d in (2, 16):
        out = ctx.workdir / f"cli-ideal{d}.json"
        expected = inp.ideals[CLI_DIMS.index(d)]
        cli(f"ideal d={d}", "ideal", *coeffs(d), "-o", out.name)
        read(
            f"ideal d={d}", "io.load_realization", io.load_realization, out,
            lambda r, d=d, expected=expected: _same_realization(r, expected, f"ideal d={d}"),
        )

    spec = inp.embed_spec
    cli(
        "embed d=8", "embed", inp.ideal8_file.name, "--extra-a", str(spec.extra_a),
        "--extra-b", str(spec.extra_b), "--seed", str(spec.seed), "-o", "cli-embedded.json",
    )
    read(
        "embedded d=8", "io.load_realization", io.load_realization, ctx.workdir / "cli-embedded.json",
        lambda r: _same_realization(r, inp.embed_expected, "embed d=8"),
    )
    cli(
        "sample d=8", "sample", inp.ideal8_file.name, "--shots", str(SHOTS),
        "--seed", str(inp.sample_seed), "-o", "cli-sampled.json",
    )
    stderr_max = _stderr_max(inp.sample_exact, SHOTS)
    read(
        "sampled d=8", "io.load_tables", io.load_tables, ctx.workdir / "cli-sampled.json",
        lambda t: _check_sampled(t, inp.sample_exact, stderr_max),
    )
    cli("extract ideal d=2", "extract", inp.ideal2_file.name, *coeffs(2), check=passes("extract ideal d=2"))
    cli(
        "extract embedded d=8", "extract", inp.embedded8_file.name, *coeffs(8),
        check=passes("extract embedded d=8"),
    )

    def save_big(s: Spans | None) -> None:
        copy = _save(s, inp.embedded16, ctx.workdir / "resaved.json")
        expect(copy.read_bytes() == inp.embedded16_file.read_bytes(), "save_realization is not deterministic")

    ops.append(Op("io.save_realization embedded d=16", save_big))
    read(
        "embedded d=16", "io.load_realization", io.load_realization, inp.embedded16_file,
        lambda r: _same_realization(r, inp.embedded16, "embedded d=16 round trip"),
    )
    return ops


@dataclass(frozen=True)
class Workload:
    """Input generator and pass builder; `children` if the work runs in child processes."""

    setup: Callable[[int, Context, Spans | None], Any]
    ops: Callable[[Any, Context], list[Op]]
    children: bool = False


WORKLOADS = {
    "certify": Workload(setup_certify, ops_certify),
    "certify-wide": Workload(setup_certify_wide, ops_certify),
    "tables": Workload(setup_tables, ops_tables),
    "cli": Workload(setup_cli, ops_cli, children=True),
}
