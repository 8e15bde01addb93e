"""Command line interface.

Subcommands mirror the library surface: ``generate`` and ``ideal`` turn
coefficients into reference tables or an ideal realization, ``verify`` and
``chsh`` score a table file, ``extract`` certifies a realization, ``embed``
and ``sample`` manufacture harder inputs. Exit codes: 0 on success (and on
passing checks), 1 on a failed constraint or domain error, 2 on unusable
input (bad JSON, a path that is missing, unreadable or not a file, bad
arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Callable

import numpy as np

from . import io
from .chsh import block_scores
from .correlations import reference_tables, verify_tables
from .errors import ParseError, SelfTestingError
from .extraction import extraction_report
from .harness import EmbeddingSpec, embed_realization, sample_tables
from .ideal import ideal_realization
from .schmidt import SchmidtCoefficients

__all__ = ["main", "build_parser"]


def _coefficients_from_args(args: argparse.Namespace) -> SchmidtCoefficients:
    if args.coeffs_file is not None:
        sc = io.load_coefficients(args.coeffs_file)
        _check_d(args, sc.d)
        return sc
    if args.coeffs is None:
        raise ParseError("coefficients required: pass --coeffs or --coeffs-file")
    try:
        values = [float(v) for v in args.coeffs.split(",") if v.strip()]
    except ValueError:
        raise ParseError(f"--coeffs {args.coeffs!r} is not a comma-separated float list") from None
    _check_d(args, len(values))
    return SchmidtCoefficients(np.array(values))


def _check_d(args: argparse.Namespace, n: int) -> None:
    """The -d cross-check against the number of coefficients given."""
    if args.d is not None and args.d != n:
        raise ParseError(f"-d {args.d} does not match {n} coefficients")


def _number(text: str) -> float:
    """A float option value; NaN is refused, since no comparison with it holds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if np.isnan(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return value


def _integer(low: int) -> Callable[[str], int]:
    """An integer option value of at least `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is below {low}")
        return value

    return parse


def _add_coeff_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-d", type=int, default=None, help="number of coefficients (cross-check)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--coeffs", default=None, help="comma-separated Schmidt coefficients")
    source.add_argument("--coeffs-file", default=None, help="coefficients JSON file")


def _emit(doc: Any) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, default=lambda a: a.tolist()) + "\n")


def _output(obj: Any, out: str | None, to_doc: Callable[[Any], Any],
            save: Callable[[Any, str], None]) -> None:
    """Print `obj` as a JSON document, or write it to the file `out` with `save`."""
    if out is None:
        _emit(to_doc(obj))
    else:
        save(obj, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selftesting", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="reference correlation tables from coefficients")
    _add_coeff_args(p)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("ideal", help="ideal realization from coefficients")
    _add_coeff_args(p)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("verify", help="check a table file against the reference")
    p.add_argument("tables", help="tables JSON file")
    _add_coeff_args(p)
    p.add_argument("--tol", type=_number, default=1e-8, help="entrywise tolerance")

    p = sub.add_parser("chsh", help="per-block tilted-CHSH scores of a table file")
    p.add_argument("tables", help="tables JSON file")
    _add_coeff_args(p)
    p.add_argument("--tol", type=_number, default=None,
                   help="if set, fail when any |beta - target| exceeds this")

    p = sub.add_parser("extract", help="run the certification pipeline on a realization")
    p.add_argument("realization", help="realization JSON file")
    _add_coeff_args(p)
    p.add_argument("--tol", type=_number, default=1e-6, help="residual tolerance")
    p.add_argument("--fidelity-threshold", type=_number, default=1 - 1e-6,
                   help="minimum acceptable extraction fidelity")

    p = sub.add_parser("embed", help="pad and rotate a realization")
    p.add_argument("realization", help="realization JSON file")
    p.add_argument("--extra-a", type=_integer(0), default=0, help="extra dimensions, first party")
    p.add_argument("--extra-b", type=_integer(0), default=0,
                   help="extra dimensions, second party")
    p.add_argument("--seed", type=_integer(0), default=None,
                   help="rotation seed (omit for identity rotations)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("sample", help="finite-shot tables from a realization")
    p.add_argument("realization", help="realization JSON file")
    p.add_argument("--shots", type=_integer(1), default=10000, help="shots per setting pair")
    p.add_argument("--seed", type=_integer(0), default=0, help="sampling seed")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "generate":
        sc = _coefficients_from_args(args)
        _output(reference_tables(sc), args.output, io.tables_to_doc, io.save_tables)
        return 0

    if args.command == "ideal":
        sc = _coefficients_from_args(args)
        _output(ideal_realization(sc), args.output, io.realization_to_doc, io.save_realization)
        return 0

    if args.command == "verify":
        sc = _coefficients_from_args(args)
        t = io.load_tables(args.tables)
        report = verify_tables(t, sc, tol=args.tol)
        doc = asdict(report)
        doc["pass"] = doc.pop("passed")
        _emit(doc)
        return 0 if report.passed else 1

    if args.command == "chsh":
        sc = _coefficients_from_args(args)
        t = io.load_tables(args.tables)
        scores = block_scores(t, sc)
        _emit({"blocks": [{**asdict(s), "residual": s.residual} for s in scores]})
        if args.tol is not None and any(abs(s.residual) > args.tol for s in scores):
            return 1
        return 0

    if args.command == "extract":
        sc = _coefficients_from_args(args)
        r = io.load_realization(args.realization)
        report = extraction_report(r, sc)
        passed = report.passes(fidelity_min=args.fidelity_threshold, residual_tol=args.tol)
        _emit({**asdict(report), "pass": passed})
        return 0 if passed else 1

    if args.command == "embed":
        try:
            spec = EmbeddingSpec(extra_a=args.extra_a, extra_b=args.extra_b, seed=args.seed)
        except ValueError as e:
            raise ParseError(str(e)) from None
        r = io.load_realization(args.realization)
        _output(embed_realization(r, spec), args.output, io.realization_to_doc,
                io.save_realization)
        return 0

    if args.command == "sample":
        r = io.load_realization(args.realization)
        result = sample_tables(r, args.shots, args.seed)
        _output(result.estimated, args.output, io.tables_to_doc, io.save_tables)
        summary = {"shots_per_pair": result.shots_per_pair, "seed": result.seed,
                   "stderr_max": result.stderr_max}
        sys.stderr.write(json.dumps(summary) + "\n")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ParseError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except OSError as e:
        # A missing, unreadable or unwritable path, or a directory given as a file.
        sys.stderr.write(f"error: {e}\n")
        return 2
    except SelfTestingError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
