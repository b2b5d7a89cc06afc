"""Batch front door: parse inputs, run computations and verification
suites, emit JSON/DOT reports.

Reports are deterministic: identical inputs and seed give byte-identical
JSON.  The exit code is 0 exactly when every requested verification
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from . import __version__
from .poset import (
    PosetError,
    _chain_counts,
    _require_count,
    lower_covers,
    lower_sets,
    is_forest,
    parse_poset,
    quiver_T,
    to_dot,
)
from .primon import MonoidError, apw_graph_shape, from_poset, monoid_iso, monoid_to_json
from .constructions import assemble, reconstruct_down
from .graphmon import _chain_order, graph_monoid, hereditary_saturated, parse_quiver
from .leavitt import _lemma26_exhaustive, generator, one
from . import toeplitz as tp

SCHEMA = 1


def _report(command, inputs, payload, ok=True):
    return {
        "schema": SCHEMA,
        "tool": "posetalg",
        "version": __version__,
        "command": command,
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
        "ok": bool(ok),
        **payload,
    }


def _emit(args, report):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(text)
    else:
        sys.stdout.write(text)


def cmd_info(args):
    poset = parse_poset(Path(args.poset).read_text())
    monoid = from_poset(poset)
    counts = _chain_counts(poset)
    chains = {p: counts[p] for p in poset.maximal()}
    payload = {
        "monoid": monoid_to_json(monoid),
        "lower_set_count": len(lower_sets(poset)),
        "maximal_chains": chains,
        "forest": is_forest(poset),
        "apw_graph_shape": apw_graph_shape(monoid),
    }
    _emit(args, _report("info", [args.poset], payload))
    return 0


def cmd_pipeline(args):
    poset = parse_poset(Path(args.poset).read_text())
    asm = assemble(poset)
    stages_out = {}
    for top, rec in asm.reconstructions.items():
        stages_out[top] = {
            "unfolded": sorted(rec.stages[0].poset.elements),
            "psi": dict(sorted(rec.stages[0].psi.items())),
            "stages": [
                {
                    "primes": sorted(s.poset.elements),
                    "rel": sorted(
                        [q, p] for p in s.poset.elements for q in s.poset.strict[p]
                    ),
                }
                for s in rec.stages
            ],
            "step_maps": [dict(sorted(m.items())) for m in rec.step_maps],
        }
    witness = monoid_iso(asm.monoid, from_poset(poset))
    payload = {
        "per_maximal": stages_out,
        "assembled": monoid_to_json(asm.monoid),
        "gluings": asm.gluings,
        "verdict": "iso" if witness is not None else "non-iso",
        "witness": dict(sorted(witness.items())) if witness else None,
    }
    ok = witness is not None
    _emit(args, _report("pipeline", [args.poset], payload, ok=ok))
    return 0 if ok else 1


def _random_words(poset, seed, count):
    gens = [("e", p) for p in poset.elements]
    for p in poset.elements:
        for q in lower_covers(poset, p):
            for kind in ("epq", "alpha", "alphabar", "beta", "betabar"):
                gens.append((kind, p, q))
    gens += [("t", 1), ("t", 2)]
    rng = random.Random(seed)
    return [
        [rng.choice(gens) for _ in range(rng.randint(1, 3))] for _ in range(count)
    ]


def cmd_verify_algebra(args):
    poset = parse_poset(Path(args.poset).read_text())
    space = tp.build_space(poset)
    relations = tp.run_relation_suite(poset, maxdeg=min(args.depth, 3))
    rel_ok = all(r["ok"] for r in relations)

    samples = tp.sample_vectors(space, 2)[:12]
    words = _random_words(poset, args.seed, args.samples)
    mismatches = 0
    for word in words:
        x = one(poset)
        for g in word:
            x = x * generator(poset, *g)
        images = lambda v: (tp.act_word(space, word, v), tp.act_element(space, x, v))  # noqa: E731
        mismatches += tp._first_disagreement(space, samples, images) is not None
    lemma26 = _lemma26_exhaustive(poset)
    # the one-sided inverse stays one-sided: alpha.alphabar must differ
    # from the vertex idempotent at every arrow
    strict = []
    one_sided_samples = tp.sample_vectors(space, 1)
    for p in poset.elements:
        for q in lower_covers(poset, p):
            bad = tp.check_relation(
                space,
                [(1, [("alpha", p, q), ("alphabar", p, q)])],
                [(1, [("e", p)])],
                one_sided_samples,
            )
            strict.append({"arrow": [p, q], "one_sided": bad is not None})
    one_sided_ok = all(s["one_sided"] for s in strict)
    payload = {
        "relations": relations,
        "relation_count": len(relations),
        "relations_ok": rel_ok,
        "oracle_samples": len(words),
        "oracle_mismatches": mismatches,
        "lemma26_ok": lemma26,
        "one_sided_inverses": strict,
        "depth": args.depth,
        "seed": args.seed,
    }
    ok = rel_ok and mismatches == 0 and lemma26 and one_sided_ok
    _emit(args, _report("verify-algebra", [args.poset], payload, ok=ok))
    return 0 if ok else 1


def cmd_graphmon(args):
    quiver = parse_quiver(Path(args.quiver).read_text())
    relations, oracle = graph_monoid(quiver, args.bound)
    lattice = [sorted(s) for s in hereditary_saturated(quiver)]
    sample_pairs = []
    for v, rhs in relations:
        sample_pairs.append(
            {
                "lhs": {v: 1},
                "rhs": dict(rhs),
                "equal": oracle.equal({v: 1}, dict(rhs)),
            }
        )
    order = _chain_order(quiver.vertices, relations)  # relations that prove M(quiver) = M(chain)
    payload = {
        "vertices": list(quiver.vertices),
        "arrows": [list(a) for a in quiver.arrows],
        "relations": [{"vertex": v, "rhs": dict(rhs)} for v, rhs in relations],
        "hereditary_saturated": lattice,
        "bounded_equalities": sample_pairs,
        "loop_chain_r": None if order is None else len(order) - 1,
        "loop_chain_check": None if order is None else True,
        "bound": args.bound,
    }
    ok = all(s["equal"] for s in sample_pairs)
    _emit(args, _report("graphmon", [args.quiver], payload, ok=ok))
    return 0 if ok else 1


def cmd_export(args):
    poset = parse_poset(Path(args.poset).read_text())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.what == "hasse":
        (outdir / "hasse.dot").write_text(to_dot(poset, name="hasse"))
        written.append("hasse.dot")
    elif args.what == "quiver":
        (outdir / "quiver.dot").write_text(to_dot(quiver_T(poset), name="quiver"))
        written.append("quiver.dot")
    elif args.what == "stages":
        for top in sorted(poset.maximal()):
            rec = reconstruct_down(poset, top)
            for i, stage in enumerate(rec.stages):
                name = f"stage_{top}_{i}.dot"
                (outdir / name).write_text(to_dot(stage.poset, name=f"stage_{i}"))
                written.append(name)
    for name in written:
        sys.stdout.write(f"{name}\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="posetalg",
        description="primitive monoids of posets: combinatorics, surgery, and the exact representation",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *flags, target="poset", out_required=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument(target, help=f"{target} DSL file")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, default=None)
        p.add_argument("--out", required=out_required, default=None)
        return p

    command("info", cmd_info, "monoid and lattice summary")
    command("pipeline", cmd_pipeline, "unfold, reconstruct, assemble, compare")
    command("verify-algebra", cmd_verify_algebra, "relation suite and oracle equivalence", "depth", "seed", "samples")
    command("graphmon", cmd_graphmon, "graph monoid of a quiver", "bound", target="quiver")
    pexp = command("export", cmd_export, "DOT export", out_required=True)
    pexp.add_argument("--what", choices=["hasse", "quiver", "stages"], default="hasse")

    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"--config {args.config}: {exc}")
    defaults = {"bound": 4, "depth": 6, "seed": 0, "samples": 50}
    if not isinstance(config, dict):
        parser.error("--config file must hold a JSON object")
    for key, value in config.items():
        if key not in defaults or type(value) is not int:
            parser.error(f"--config: {key}={value!r}; the keys are {', '.join(defaults)}, the values integers")
    for key, fallback in defaults.items():
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, config.get(key, fallback))

    try:
        for key in ("bound", "depth", "samples"):
            if key in vars(args):
                _require_count(getattr(args, key), f"--{key}", PosetError)
        return args.handler(args)
    except (OSError, PosetError, MonoidError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
