"""Command-line front end.

Exit codes: 0 verdict YES / check passed, 1 NO / failed, 2 UNKNOWN or a
stalled numerical search, 64 usage error, 65 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .ensembles import build_catalog, catalog, parse_ensemble
from .exclusion import Verdict, decide_antidist
from .locc import (build_pairwise_lad_protocol, parse_protocol,
                   serialize_protocol, verify_conclusive_identification,
                   verify_local_protocol)
from .lsam import LsamTask, check_lsam, sweep_theta
from .qcore import DEFAULT_TOL, DataError

USAGE_EXIT = 64
DATA_EXIT = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    p = _Parser(prog="antimark",
                description="Antidistinguishability and sequence-antimarking "
                            "checks for small multipartite ensembles.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, ensemble=True, seed=False):
        if ensemble:
            sp.add_argument("--ensemble", required=True,
                            help="catalog name or ensemble JSON file")
            sp.add_argument("--param", action="append", default=[],
                            metavar="NAME=VALUE",
                            help="family parameter, e.g. theta=0.9 (radians)")
            sp.add_argument("--tol", type=float, default=None,
                            help="numerical tolerance (default 1e-9; env ANTIMARK_TOL)")
        if seed:
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for feasibility-search restarts")
        sp.add_argument("--json", action="store_true", help="machine-readable report")

    sp = sub.add_parser("catalog", help="list built-in ensembles")
    common(sp, ensemble=False)

    sp = sub.add_parser("check-antidist", help="decide antidistinguishability")
    common(sp, seed=True)
    sp.add_argument("--mode", choices=("global", "local"), default="global")

    sp = sub.add_parser("check-lsam", help="decide the (n,1) sequence task")
    common(sp, seed=True)
    sp.add_argument("--n", type=int, default=1, help="sequence length")
    sp.add_argument("--m", type=int, default=1, help="claims required")
    sp.add_argument("--global", dest="global_mode", action="store_true",
                    help="decide the sequence ensemble under global measurements")

    sp = sub.add_parser("verify-protocol", help="check a protocol file")
    common(sp)
    sp.add_argument("--protocol", required=True, help="protocol JSON file")
    sp.add_argument("--conclusive", action="store_true",
                    help="check conclusive identification instead of exclusion")

    sp = sub.add_parser("sweep", help="scan a tilt family")
    common(sp, ensemble=False)
    sp.add_argument("--family", choices=("nl2", "theta4"), required=True)
    sp.add_argument("--min", type=float, required=True)
    sp.add_argument("--max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("build-protocol", help="emit a pairwise exclusion protocol")
    common(sp)
    sp.add_argument("--method", choices=("pairwise-walgate",), required=True)
    sp.add_argument("--out", required=True, help="output protocol JSON file")
    return p


def _tolerance(args) -> float:
    """--tol, else ANTIMARK_TOL, else DEFAULT_TOL; either source must give a
    finite positive number."""
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise _UsageError(f"--tol must be a finite positive number, got {args.tol!r}")
        return args.tol
    env = os.environ.get("ANTIMARK_TOL")
    if env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise DataError(f"ANTIMARK_TOL is not a number: {env!r}") from exc
        if not (math.isfinite(tol) and tol > 0.0):
            raise DataError(f"ANTIMARK_TOL must be a finite positive number, got {env!r}")
        return tol
    return DEFAULT_TOL


def _parse_params(pairs) -> dict[str, float]:
    out = {}
    for raw in pairs:
        key, sep, val = raw.partition("=")
        if not sep or not key.strip():
            raise _UsageError(f"--param expects NAME=VALUE, got {raw!r}")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise _UsageError(f"--param {key.strip()} needs a number, "
                              f"got {val!r}") from exc
    return out


def _load_ensemble(args):
    params = _parse_params(args.param)
    entry = catalog().get(args.ensemble)
    if entry is not None:
        missing = [q for q in entry["params"] if q not in params]
        if missing:
            raise _UsageError(f"{args.ensemble} needs --param "
                              + " ".join(f"{q}=..." for q in missing))
        unknown = [q for q in params if q not in entry["params"]]
        if unknown:
            raise _UsageError(f"{args.ensemble} takes no parameter "
                              + ", ".join(repr(q) for q in unknown))
        return build_catalog(args.ensemble, **params)
    if not os.path.exists(args.ensemble):
        raise DataError(f"{args.ensemble!r} is neither a catalog name nor a file")
    if params:
        raise _UsageError("an ensemble file takes no parameter "
                          + ", ".join(repr(q) for q in params))
    with open(args.ensemble, encoding="utf-8") as fh:
        return parse_ensemble(fh.read())


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report))
    else:
        for line in lines:
            print(line)


def _verdict_exit(decision: str) -> int:
    return {"YES": 0, "NO": 1}.get(decision, 2)


def _verdict_lines(v: Verdict) -> list[str]:
    lines = [f"decision: {v.decision}", f"method: {v.method}",
             f"margins: {[repr(m) for m in v.margins] if v.margins else []}"]
    if v.detail:
        lines.append(f"detail: {v.detail}")
    return lines


def _party_lines(parts) -> list[str]:
    out = []
    for name, sub in (parts or {}).items():
        out.append(f"party {name}: {sub.decision} ({sub.method}"
                   + (f", margins {sub.margins}" if sub.margins else "") + ")")
    return out


def _cmd_catalog(args) -> int:
    rows = []
    lines = []
    for name, entry in catalog().items():
        dims = "x".join(str(d) for d in entry["dims"])
        params = ",".join(entry["params"]) or "-"
        rows.append({"name": name, "dims": list(entry["dims"]),
                     "params": list(entry["params"]), "blurb": entry["blurb"]})
        lines.append(f"{name:26s} dims {dims:7s} params {params:7s} {entry['blurb']}")
    _emit(args, {"command": "catalog", "ensembles": rows}, lines)
    return 0


def _check_seed(args) -> None:
    if args.seed < 0:
        raise _UsageError(f"--seed must be at least 0, got {args.seed}")


def _cmd_check_antidist(args) -> int:
    _check_seed(args)
    e = _load_ensemble(args)
    tol = _tolerance(args)
    start = time.perf_counter()
    if args.mode == "global":
        v = decide_antidist(e, tol=tol, seed=args.seed)
    else:
        v = check_lsam(e, 1, 1, tol=tol, seed=args.seed)
    duration = time.perf_counter() - start
    report = {"command": "check-antidist", "ensemble": e.name, "mode": args.mode,
              "tol": tol, "verdict": v.to_dict(), "duration_s": duration}
    if v.parts is not None:
        report["parts"] = {name: sub.to_dict() for name, sub in v.parts.items()}
    lines = [f"ensemble: {e.name}", f"mode: {args.mode}"] + _verdict_lines(v)
    lines += _party_lines(v.parts)
    _emit(args, report, lines)
    return _verdict_exit(v.decision)


def _cmd_check_lsam(args) -> int:
    _check_seed(args)
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    if args.m < 1:
        raise _UsageError("--m must be at least 1")
    if args.m > 1:
        raise _UsageError("m > 1 has no criterion; verify an explicit protocol "
                          "with verify-protocol instead")
    e = _load_ensemble(args)
    tol = _tolerance(args)
    start = time.perf_counter()
    task = LsamTask(e, args.n, 1)
    if args.global_mode:
        v = decide_antidist(task.sequences(), tol=tol, seed=args.seed)
    else:
        v = check_lsam(task, tol=tol, seed=args.seed)
    duration = time.perf_counter() - start
    report = {"command": "check-lsam", "ensemble": e.name, "n": args.n, "m": args.m,
              "global": args.global_mode, "tol": tol, "verdict": v.to_dict(),
              "duration_s": duration}
    if v.parts:
        report["parts"] = {name: sub.to_dict() for name, sub in v.parts.items()}
    lines = [f"ensemble: {e.name}", f"task: n={args.n} m={args.m}"
             + (" (global measurements)" if args.global_mode else "")]
    lines += _verdict_lines(v) + _party_lines(v.parts)
    _emit(args, report, lines)
    return _verdict_exit(v.decision)


def _cmd_verify_protocol(args) -> int:
    e = _load_ensemble(args)
    tol = _tolerance(args)
    try:
        with open(args.protocol, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read protocol file: {exc}") from exc
    proto = parse_protocol(text, e.layout)
    if args.conclusive:
        if proto.kind != "one_round_product":
            raise DataError("conclusive identification expects a one-round protocol")
        rep = verify_conclusive_identification(e, proto.party_povms, tol=tol)
        report = {"command": "verify-protocol", "ensemble": e.name,
                  "conclusive": True, "passed": rep.passed,
                  "identified": list(rep.identified), "missing": list(rep.missing),
                  "rows": [{"outcome": list(r.outcome), "probability": r.probability,
                            "support": list(r.support), "identifies": r.identifies}
                           for r in rep.rows]}
        lines = [f"ensemble: {e.name}", f"conclusive identification: "
                 f"{'pass' if rep.passed else 'FAIL'}"]
        lines += [f"  outcome {r.outcome}: support {list(r.support)}"
                  + (f" -> identifies {r.identifies}" if r.identifies else "")
                  for r in rep.rows]
        if rep.missing:
            lines.append(f"never identified: {list(rep.missing)}")
        _emit(args, report, lines)
        return 0 if rep.passed else 1
    rep = verify_local_protocol(e, proto, tol=tol)
    report = {"command": "verify-protocol", "ensemble": e.name, "conclusive": False,
              "passed": rep.passed, "sound": rep.sound,
              "excluded_labels": list(rep.excluded_labels),
              "missing_labels": list(rep.missing_labels),
              "completeness_residual": rep.completeness_residual,
              "failures": rep.failures,
              "rows": [{"outcome": list(r.outcome), "probability": r.probability,
                        "claims": None if r.claims is None else list(r.claims),
                        "worst_residual": r.worst_residual} for r in rep.rows]}
    lines = [f"ensemble: {e.name}",
             f"protocol: {'pass' if rep.passed else 'FAIL'} "
             f"(sound={rep.sound}, completeness residual "
             f"{rep.completeness_residual:.3e})"]
    lines += [f"  {msg}" for msg in rep.failures]
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be a finite number, got {value!r}")
    if not args.min < args.max:
        raise _UsageError("--min must be below --max")
    grid = [float(t) for t in np.linspace(args.min, args.max, args.steps)]
    res = sweep_theta(args.family, grid)
    report = {"command": "sweep", "family": res.family, "grid": res.grid,
              "points": [{"theta": pt.theta, **pt.flags} for pt in res.points],
              "boundaries": res.boundaries,
              "regions": [list(r) for r in res.regions]}
    lines = []
    for pt in res.points:
        flags = " ".join(f"{k}={'YES' if ok else 'NO'}" for k, ok in pt.flags.items())
        lines.append(f"theta={pt.theta!r} {flags}")
    lines += [f"boundary near {b!r}" for b in res.boundaries]
    lines += [f"gap region [{a!r}, {b!r}]" for a, b in res.regions]
    _emit(args, report, lines)
    return 0


def _cmd_build_protocol(args) -> int:
    e = _load_ensemble(args)
    tol = _tolerance(args)
    proto = build_pairwise_lad_protocol(e, tol=tol)
    rep = verify_local_protocol(e, proto, tol=tol)
    if not rep.passed:
        raise RuntimeError("generated protocol failed verification: "
                           + "; ".join(rep.failures))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_protocol(proto))
    except OSError as exc:
        raise DataError(f"cannot write protocol file: {exc}") from exc
    report = {"command": "build-protocol", "ensemble": e.name,
              "method": args.method, "out": args.out, "passed": True}
    _emit(args, report, [f"wrote {args.out} (verified on {e.name})"])
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "check-antidist": _cmd_check_antidist,
    "check-lsam": _cmd_check_lsam,
    "verify-protocol": _cmd_verify_protocol,
    "sweep": _cmd_sweep,
    "build-protocol": _cmd_build_protocol,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"antimark {args.command}: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataError as exc:
        print(f"antimark {args.command}: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ValueError as exc:
        print(f"antimark {args.command}: {exc}", file=sys.stderr)
        return DATA_EXIT
    except RuntimeError as exc:
        print(f"antimark {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
