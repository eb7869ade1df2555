"""Inputs, instances and CLI commands of the three benchmark workloads.

Every input is generated here from the benchmark seed; the program only ever
receives the generated ensembles.  Instances call into the package through
module attributes (``exclusion.decide_antidist``, not a name bound at import)
so that the tracer in ``tracer.py`` sees every call.

Why each workload exists:

* ``catalog`` -- what users run: the built-in ensembles, their two-draw
  sequence ensembles and pbr4 with three draws.  The exact criteria, triple
  enumeration, triple-certificate solves and ``verify_strong`` do the work;
  the numerical search runs only for pbr4.
* ``random-quartets`` -- Haar qutrit quartets from the generator of the
  oracle cross-validation test (seeds 1000..1039).  15 of the 40 end UNKNOWN
  after a few hundred milliseconds in ``search_exclusion_povm``; the rest end
  YES in milliseconds, so the p50 is a YES and the tail an UNKNOWN.  The
  search runs at that test's budget (2 restarts of 1500 iterations): every
  verdict is the same as at the default budget, which spends about 1.5 s to
  9 s on each UNKNOWN and would leave too few of them in a run for a steady
  tail.  The seed rotates each quartet by a Haar unitary, gives each state a
  phase and permutes the states: the Gram matrix, and with it the exact
  answer, is unchanged, while the inputs are new.
* ``locc-lsam`` -- local protocols and sequence tasks: pairwise protocol
  generation on fixed and seeded orthogonal sets, the tilted and PBR sequence
  readouts, conclusive identification, local-part verdicts and the nl2 sweep.
  The search runs only on the two local parts of the pbr4 sequence task,
  about a tenth of a pass: this is the bypass workload for search changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from antimark import ensembles, exclusion, locc, lsam
from antimark.qcore import PartyLayout

QUARTET_SEED_BASE = 1000   # first seed of the oracle cross-validation quartets
QUARTET_POOL = 40          # quartets per pass: 25 end YES, 15 UNKNOWN at 0.1.0
QUARTET_SEARCH = {"restarts": 2, "iters": 1500}   # the cross-validation test's budget
ORTHO_SETS = 20            # seeded orthogonal sets per locc-lsam pass
VARIANTS = 8               # seeded input variants; pass p uses variant p % 8
SWEEP_GRID = (0.1, 3.0, 60)


@dataclass
class Instance:
    """One closed-loop call: a decision, a protocol build+verify or a sweep.

    ``key`` names the row of the reference table the output is checked
    against; ``subject`` is what the independent check needs (the ensemble,
    the sequence ensemble or the sweep grid).
    """

    key: str
    kind: str
    run: Callable[[], object]
    subject: object


@dataclass
class Workload:
    name: str
    seed: int
    variants: list[list[Instance]]   # one list per input variant
    cli_argv: list[str]              # CLI arguments, without the program name
    cli_key: str                     # reference row the CLI output must match
    cli_subject: object
    cli_file: dict | None = None     # ensemble document the CLI reads, if any

    def pass_instances(self, p: int) -> list[Instance]:
        """Instances of pass p, in a seeded order."""
        insts = list(self.variants[p % len(self.variants)])
        order = rng_for(self.seed, 99, p).permutation(len(insts))
        return [insts[i] for i in order]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, *stream])


# ---------------------------------------------------------------------------
# generators


def haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The oracle cross-validation test's generator: a normalised complex
    Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def base_quartet(i: int) -> list[np.ndarray]:
    rng = np.random.default_rng(QUARTET_SEED_BASE + i)
    return [haar_ket(3, rng) for _ in range(4)]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def disguised_quartet(i: int, rng: np.random.Generator) -> ensembles.Ensemble:
    """Base quartet i under a Haar rotation, per-state phases and a
    permutation.  Labels follow their states, so s0 is always base state 0."""
    states = base_quartet(i)
    u = haar_unitary(3, rng)
    phases = np.exp(2j * math.pi * rng.random(4))
    perm = rng.permutation(4)
    return ensembles.Ensemble(f"q{QUARTET_SEED_BASE + i}", PartyLayout((3,)),
                              [f"s{j}" for j in perm],
                              [u @ (states[j] * phases[j]) for j in perm])


def orthogonal_sets(rng: np.random.Generator, count: int) -> list[ensembles.Ensemble]:
    """The pairwise-generator test's random orthogonal sets: columns of a
    random unitary on 2x2 and 3x3 layouts.  Where that test draws the number
    of states from 2..min(6, d), this cycles through it, so every seed runs
    the same sizes."""
    out = []
    for i in range(count):
        dims = (2, 2) if i % 2 == 0 else (3, 3)
        d = dims[0] * dims[1]
        n = 2 + (i // 2) % (min(6, d) - 1)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        out.append(ensembles.Ensemble(f"ortho{i}", PartyLayout(dims),
                                      [f"s{j}" for j in range(n)],
                                      [q[:, j] for j in range(n)]))
    return out


def ensemble_document(e: ensembles.Ensemble) -> dict:
    """The CLI's ensemble file format."""
    return {"name": e.name, "dims": list(e.layout.dims),
            "states": [{"label": lab,
                        "amplitudes": [[float(x.real), float(x.imag)] for x in s]}
                       for lab, s in zip(e.labels, e.states)]}


# ---------------------------------------------------------------------------
# instances


def decide(key: str, e: ensembles.Ensemble, **budget) -> Instance:
    return Instance(key, "decide", lambda: exclusion.decide_antidist(e, **budget), e)


def pairwise(key: str, e: ensembles.Ensemble) -> Instance:
    def run():
        proto = locc.build_pairwise_lad_protocol(e)
        return proto, locc.verify_local_protocol(e, proto)
    return Instance(key, "protocol", run, e)


def elimination(key: str, parent: ensembles.Ensemble, m: int, build) -> Instance:
    seq = ensembles.sequence_ensemble(parent, 2)

    def run():
        proto = build()
        return proto, lsam.verify_sequence_elimination(lsam.LsamTask(parent, 2, m), proto)
    return Instance(key, "elimination", run, seq)


def pbr_readout() -> locc.LoccProtocol:
    """Both parties apply the entangled pair readout to their two draw slots."""
    meas = lsam.pbr_sequence_measurement()
    return locc.LoccProtocol("one_round_product", PartyLayout((4, 4)),
                             party_povms=[list(meas.elements),
                                          [m.copy() for m in meas.elements]])


def identification(key: str, theta: float) -> Instance:
    e = ensembles.nl2(theta)
    povms = locc.nl2_identification_povms(theta)
    return Instance(key, "identify",
                    lambda: (povms, locc.verify_conclusive_identification(e, povms)), e)


def local_verdict(key: str, parent: ensembles.Ensemble, n: int) -> Instance:
    seq = ensembles.sequence_ensemble(parent, n)
    return Instance(key, "lsam", lambda: lsam.check_lsam(parent, n, 1), seq)


def sweep(key: str) -> Instance:
    lo, hi, steps = SWEEP_GRID
    grid = [float(t) for t in np.linspace(lo, hi, steps)]
    return Instance(key, "sweep", lambda: lsam.sweep_theta("nl2", grid), grid)


def catalog_ensembles() -> dict[str, ensembles.Ensemble]:
    """Every catalog ensemble at fixed parameters, the two-draw sequence
    ensembles of pbr4, su3, duan4 and theta4(0.9), and pbr4 with three draws."""
    out = {}
    for name, entry in ensembles.catalog().items():
        if name == "theta4":
            for theta in (0.6, 0.9):
                out[f"theta4({theta})"] = ensembles.build_catalog(name, theta=theta)
        elif entry["params"]:
            out[f"{name}(1.0)"] = ensembles.build_catalog(name, theta=1.0)
        else:
            out[name] = ensembles.build_catalog(name)
    for key in ("pbr4", "su3", "duan4", "theta4(0.9)"):
        out[f"{key}^[2]"] = ensembles.sequence_ensemble(out[key], 2)
    out["pbr4^[3]"] = ensembles.sequence_ensemble(out["pbr4"], 3)
    return out


def build_catalog_workload(seed: int, minimal: bool) -> Workload:
    ens = catalog_ensembles()
    keys = ["weak3", "duan4", "pbr4^[2]"] if minimal else list(ens)
    insts = [decide(k, ens[k]) for k in keys]
    return Workload("catalog", seed, [insts],
                    ["check-lsam", "--ensemble", "pbr4", "--n", "2", "--global", "--json"],
                    "pbr4^[2]", ens["pbr4^[2]"])


def build_quartet_workload(seed: int, minimal: bool) -> Workload:
    pool = 2 if minimal else QUARTET_POOL
    variants = []
    for v in range(VARIANTS):
        rng = rng_for(seed, v)
        variants.append([decide(f"q{QUARTET_SEED_BASE + i}", disguised_quartet(i, rng),
                                **QUARTET_SEARCH) for i in range(pool)])
    first = variants[0][0].subject
    return Workload("random-quartets", seed, variants,
                    ["check-antidist", "--ensemble", "{file}", "--json"],
                    f"q{QUARTET_SEED_BASE}", first, ensemble_document(first))


def build_locc_lsam_workload(seed: int, minimal: bool) -> Workload:
    theta4 = ensembles.theta4(0.9)
    fixed = [sweep("sweep_nl2"), pairwise("pairwise", ensembles.bell4())]
    if not minimal:
        fixed += [
            pairwise("pairwise", ensembles.bennett9()),
            elimination("theta_closed", theta4, 8,
                        lambda: lsam.theta_sequence_protocol(0.9)),
            elimination("theta_synthesized", theta4, 8,
                        lambda: lsam.theta_sequence_protocol(0.9, synthesize=True)),
            elimination("pbr_readout", ensembles.pbr4(), 4, pbr_readout),
            identification("nl2_identification", 1.0),
            local_verdict("check_lsam su3", ensembles.su3(), 2),
            local_verdict("check_lsam pbr4", ensembles.pbr4(), 2),
            local_verdict("check_lsam duan4", ensembles.duan4(), 2),
        ]
    sets = 1 if minimal else ORTHO_SETS
    variants = [fixed + [pairwise("pairwise", e) for e in orthogonal_sets(rng_for(seed, v), sets)]
                for v in range(VARIANTS)]
    lo, hi, steps = SWEEP_GRID
    return Workload("locc-lsam", seed, variants,
                    ["sweep", "--family", "nl2", "--min", str(lo), "--max", str(hi),
                     "--steps", str(steps), "--json"],
                    "sweep_nl2", fixed[0].subject)


BUILDERS = {"catalog": build_catalog_workload,
            "random-quartets": build_quartet_workload,
            "locc-lsam": build_locc_lsam_workload}


def build(name: str, seed: int, minimal: bool = False) -> Workload:
    """All inputs of one workload; this is the set-up that ``setup_s`` times."""
    return BUILDERS[name](seed, minimal)


def write_cli_file(w: Workload, directory: str) -> list[str]:
    """CLI arguments with the ensemble file, if the command reads one, written
    into ``directory``."""
    if w.cli_file is None:
        return list(w.cli_argv)
    path = f"{directory}/ensemble.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(w.cli_file, fh)
    return [path if a == "{file}" else a for a in w.cli_argv]

