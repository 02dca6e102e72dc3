"""Command line surface: entropy tables, seeded simulation, comparison, segmentation.

Exit codes: 0 success, 2 validation error, 3 incomplete episode, 4 ingestion
error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import analysis
from .agent import (
    PRESETS,
    AgentConfig,
    run_episode,
)
from .inference import shannon_entropy
from .task import TaskError, lexical_entropy, positional_entropy
from .taskfile import TaskBundle, bundled_task_path, load_task
from .trace import Trace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCOMPLETE = 3
EXIT_INGEST = 4


@contextmanager
def _writing(path: str | Path):
    """Turn an OSError from writing an output into a validation error naming its path."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load(args) -> TaskBundle:
    path = Path(args.task) if args.task else bundled_task_path()
    return load_task(path)


def _agent_config(args, preset_name: str) -> AgentConfig:
    overrides = {}
    if getattr(args, "gamma_max", None) is not None:
        overrides["gamma_max"] = args.gamma_max
    if getattr(args, "beta", None) is not None:
        overrides["beta"] = args.beta
    if getattr(args, "sampling", False):
        overrides["sample_policies"] = True
    return PRESETS[preset_name](**overrides)


def cmd_entropy(args) -> int:
    bundle = _load(args)
    space = bundle.space
    lines = []
    for chunk in space.table.chunks:
        pos = positional_entropy(space, chunk.id)
        lex = lexical_entropy(space, chunk.id)
        label = chunk.source_text if chunk.kind == "content" else "(punctuation)"
        lines.append((chunk.id, label, pos, lex))
    prior_h = shannon_entropy(space.prior)
    print(f"task: {bundle.name} ({len(space.orderings)} candidate orderings)")
    print(f"{'chunk':>5}  {'positional_bits':>15}  {'lexical_bits':>12}  source")
    for cid, label, pos, lex in lines:
        print(f"{cid:>5}  {pos:>15.6f}  {lex:>12.6f}  {label}")
    print(f"prior ordering entropy: {prior_h:.6f} bits")
    if args.tsv:
        out = ["chunk\tpositional_bits\tlexical_bits"]
        out += [f"{cid}\t{pos:.9f}\t{lex:.9f}" for cid, _, pos, lex in lines]
        out.append(f"prior\t{prior_h:.9f}\t")
        with _writing(args.tsv):
            Path(args.tsv).write_text("\n".join(out) + "\n", encoding="utf-8")
    return EXIT_OK


def _analyze(trace: Trace):
    segments = analysis.segment_ohrf(trace)
    cycles = analysis.group_policies(segments)
    summary = analysis.summarize(trace, segments, cycles)
    return segments, cycles, summary


def _print_summary(tag: str, summary: analysis.TraceSummary) -> None:
    counts = " ".join(f"{s}:{n}" for s, n in summary.state_counts)
    print(
        f"{tag} latency={summary.first_keystroke_latency_ms:.0f}ms "
        f"orientation={summary.initial_orientation_ms:.0f}ms "
        f"states[{counts}] cycles={'-'.join(summary.cycle_labels) or '(none)'} "
        f"revisions={summary.revision_count} total={summary.total_time_ms:.0f}ms"
    )
    print(f"  target: {summary.final_target}")


def cmd_simulate(args) -> int:
    bundle = _load(args)
    cfg = _agent_config(args, args.preset)
    latent = args.latent or bundle.latent
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    for fmt in formats:
        if fmt not in analysis.EXPORT_FORMATS:
            raise analysis.AnalysisError(f"unknown export format {fmt!r}")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        with _writing(out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
    incomplete = 0
    for seed in args.seed:
        trace = run_episode(
            cfg, bundle.evidence, latent=latent, seed=seed, max_steps=args.max_steps
        )
        segments, cycles, summary = _analyze(trace)
        _print_summary(f"seed {seed}:", summary)
        if not trace.complete:
            incomplete += 1
        if out_dir:
            for fmt in formats:
                data = analysis.export_progression(trace, segments, cycles, fmt)
                path = out_dir / f"trace_{args.preset}_{latent}_{seed}.{fmt}"
                with _writing(path):
                    path.write_bytes(data)
    return EXIT_INCOMPLETE if incomplete else EXIT_OK


def _paired_stats(name: str, a: list[float], b: list[float], label_a: str, label_b: str) -> None:
    wins = sum(1.0 if x < y else 0.5 if x == y else 0.0 for x, y in zip(a, b))
    print(
        f"{name:>24}: {label_a} mean {np.mean(a):8.3f} | {label_b} mean {np.mean(b):8.3f} "
        f"| {label_a}-lower win rate {wins / len(a):.3f}"
    )


def _spearman_rho(x, y) -> float:
    """Spearman's rho: Pearson's r of the ranks, tied values sharing their average rank."""

    def ranks(values):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        last = np.cumsum(counts)  # rank, from 1, of the last member of each distinct value
        return (last - (counts - 1) / 2.0)[inverse]

    return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    gammas = [float(g) for g in args.gamma_sweep.split(",")] if args.gamma_sweep else []
    if gammas and len(set(gammas)) < 2:
        raise ValueError(f"--gamma-sweep needs two distinct values, got {args.gamma_sweep}")
    # Every config is built, and so validated, before any episode runs.
    sweep = [PRESETS[args.preset_a](gamma_max=g) for g in gammas]
    bundle = _load(args)
    latent = args.latent or bundle.latent
    seeds = list(range(args.seeds))
    if gammas:
        means = []
        print(f"gamma sweep on preset {args.preset_a} (latent {latent}, {len(seeds)} seeds)")
        for g, cfg in zip(gammas, sweep):
            tot = []
            for seed in seeds:
                tr = run_episode(
                    cfg, bundle.evidence, latent=latent, seed=seed, max_steps=args.max_steps
                )
                kinds = tr.columns.kind
                tot.append(kinds.count("fixate_source") + kinds.count("pause"))
            means.append(float(np.mean(tot)))
            print(f"  gamma_max {g:>6.2f}: mean epistemic actions {means[-1]:.3f}")
        if len(set(means)) < 2:
            print("spearman(gamma, epistemic actions) undefined: the means are constant")
        else:
            print(f"spearman(gamma, epistemic actions) = {_spearman_rho(gammas, means):.4f}")
        return EXIT_OK

    cfg_a = _agent_config(args, args.preset_a)
    cfg_b = _agent_config(args, args.preset_b)
    metrics = {
        "first_keystroke_ms": ([], []),
        "orientation_ms": ([], []),
        "revisions": ([], []),
        "hesitations": ([], []),
        "O_segments": ([], []),
        "F_segments": ([], []),
        "total_ms": ([], []),
    }
    for seed in seeds:
        for side, cfg in ((0, cfg_a), (1, cfg_b)):
            tr = run_episode(
                cfg, bundle.evidence, latent=latent, seed=seed, max_steps=args.max_steps
            )
            _, _, summary = _analyze(tr)
            metrics["first_keystroke_ms"][side].append(summary.first_keystroke_latency_ms)
            metrics["orientation_ms"][side].append(summary.initial_orientation_ms)
            metrics["revisions"][side].append(summary.revision_count)
            metrics["hesitations"][side].append(summary.hesitation_count)
            metrics["O_segments"][side].append(summary.count("O"))
            metrics["F_segments"][side].append(summary.count("F"))
            metrics["total_ms"][side].append(summary.total_time_ms)
    print(
        f"paired comparison {args.preset_a} vs {args.preset_b} "
        f"(latent {latent}, {len(seeds)} seeds)"
    )
    for name, (a, b) in metrics.items():
        _paired_stats(name, a, b, args.preset_a, args.preset_b)
    return EXIT_OK


def cmd_segment(args) -> int:
    try:
        data = Path(args.trace).read_bytes()
    except OSError as exc:
        print(f"ingestion error: cannot read {args.trace}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INGEST
    column_map = {"time": args.time_col, "kind": args.kind_col, "target": args.target_col}
    trace = analysis.ingest_tsv(data, column_map)
    segments = analysis.segment_ohrf(trace, theta_pause_ms=args.theta_pause)
    cycles = analysis.group_policies(segments)
    print(f"{len(trace.columns.kind)} events, {len(segments)} segments, {len(cycles)} cycles")
    for seg in segments:
        print(f"  {seg.state}  {seg.t_start:9.1f} .. {seg.t_end:9.1f}  events {list(seg.events)}")
    print("cycles:", " ".join(c.label for c in cycles))
    if args.svg:
        data = analysis.export_progression(trace, segments, cycles, "svg")
        with _writing(args.svg):
            Path(args.svg).write_bytes(data)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abctrans",
        description="Simulate translation production and analyze its process traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="per-chunk positional and lexical entropy table")
    p.add_argument("--task", help="task file (default: bundled sample task)")
    p.add_argument("--tsv", help="also write the table to this TSV file")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("simulate", help="run seeded episodes and export traces")
    p.add_argument("--task", help="task file (default: bundled sample task)")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, nargs="+", default=[0])
    p.add_argument("--latent", help="latent preferred ordering label (default: task file)")
    p.add_argument("--out", help="directory for trace exports")
    p.add_argument("--formats", default="tsv,svg")
    p.add_argument("--max-steps", type=int, default=40)
    p.add_argument("--gamma-max", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sampling", action="store_true", help="sample policies instead of argmax")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired strategy comparison or gamma sweep")
    p.add_argument("--task", help="task file (default: bundled sample task)")
    p.add_argument("--preset-a", default="head_starter", choices=sorted(PRESETS))
    p.add_argument("--preset-b", default="large_context_planner", choices=sorted(PRESETS))
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--latent")
    p.add_argument("--max-steps", type=int, default=40)
    p.add_argument("--gamma-sweep", help="comma list of 2+ distinct gamma_max values, e.g. 1,2,4,8")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("segment", help="segment an exported or external trace TSV")
    p.add_argument("trace", help="TSV file to ingest")
    p.add_argument("--time-col", default="time_ms")
    p.add_argument("--kind-col", default="event_kind")
    p.add_argument("--target-col", default="chunk_or_slot")
    p.add_argument("--theta-pause", type=float, default=1000.0)
    p.add_argument("--svg", help="write an SVG timeline here")
    p.set_defaults(func=cmd_segment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except analysis.IngestError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except (TaskError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
