"""Result sets: ``suite`` writes one, ``compare`` judges two, ``agree``
checks that sets of the same code agree within the benchmark's own bounds.

A result set holds, for every workload, the values of each end-to-end
metric over several untraced runs (one seed each), the per-layer metrics of
one traced run, and the machine it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import measure
from spec import HERE, ROOT, import_program, load_spec, on_path

FORMAT = "repro-e2e-bench"


# --------------------------------------------------------------------------
# suite
# --------------------------------------------------------------------------


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``bench.py run`` in a fresh process, as the driver makes it."""
    command = [
        sys.executable, str(HERE / "bench.py"), "run",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"suite: {' '.join(command)} exited {done.returncode}")
    return json.loads(lines[-1])


def _environment(spec: dict, runs: int, workers: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": runs,
    }


def run_suite(runs: int, base_seed: int) -> dict:
    spec = load_spec()
    import_program()
    from workloads import WORKERS, make_workload  # for each workload's layers

    out = {"format": FORMAT, "version": 1,
           "environment": _environment(spec, runs, WORKERS), "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        seeds = [base_seed + i for i in range(runs)]
        results = []
        for seed in seeds:
            results.append(_run_once(name, seed, spec["run_seconds"], 0))
            print(f"suite: {name} seed={seed} done", file=sys.stderr)
        traced = _run_once(name, base_seed + runs, spec["run_seconds"], 1)
        print(f"suite: {name} traced run done", file=sys.stderr)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = measure.quartiles(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "q1": q1, "median": q2, "q3": q3,
                "spread": measure.spread(values),
            }
        layers = make_workload(name, 0).layers
        per_layer = {
            key: item
            for key, item in traced["metrics"].items()
            if on_path(key, layers)
        }
        out["workloads"][name] = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    return out


def cmd_suite(args: argparse.Namespace) -> int:
    result = run_suite(args.runs, args.seed)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"suite: wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def _load_set(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("format") != FORMAT:
        raise SystemExit(f"{path} is not a {FORMAT} result set")
    return data


def compare_sets(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """One row per (workload, end-to-end metric); B is judged against A.

    ``worse_by`` is the share of A's median by which B's median is worse
    (negative: better).  A metric is ``unresolved`` when either input's own
    run-to-run spread exceeds the bound — unless every run of B reads
    better than every run of A — and a ``regression`` when it is resolved
    and worse by more than the bound.
    """
    rows = []
    bad = False
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        verdict = "regression" if share_b > share_a else "ok"
        bad = bad or verdict == "regression"
        rows.append({"workload": name, "metric": "failed_share", "unit": "share",
                     "a": share_a, "b": share_b, "bound": 0.0, "verdict": verdict})
        for metric in spec["end_to_end"]:
            ea = wa["end_to_end"].get(metric["name"])
            eb = wb["end_to_end"].get(metric["name"])
            if ea is None or eb is None:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (eb["median"] - ea["median"]) / ea["median"]
            if metric["better"] == "lower":
                b_always_better = max(eb["values"]) < min(ea["values"])
            else:
                b_always_better = min(eb["values"]) > max(ea["values"])
            noisy = max(ea["spread"], eb["spread"]) > metric["bound"]
            if noisy and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            bad = bad or verdict == "regression"
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": ea["median"], "b": eb["median"],
                "ratio_b_over_a": eb["median"] / ea["median"],
                "worse_by": worse_by, "bound": metric["bound"],
                "spread_a": ea["spread"], "spread_b": eb["spread"],
                "verdict": verdict,
            })
    return rows, bad


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18}{'metric':<22}{'A (base)':>13}{'B':>13}"
        f"{'B/A':>8}{'worse by':>10}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    ]
    for r in rows:
        if "ratio_b_over_a" not in r:
            lines.append(
                f"{r['workload']:<18}{r['metric']:<22}{r['a']:>13.4g}{r['b']:>13.4g}"
                f"{'':>8}{'':>10}{r['bound']:>7.0%}{'':>10}{'':>10}  {r['verdict']}"
            )
            continue
        lines.append(
            f"{r['workload']:<18}{r['metric']:<22}{r['a']:>13.4g}{r['b']:>13.4g}"
            f"{r['ratio_b_over_a']:>8.3f}{r['worse_by']:>+10.1%}{r['bound']:>7.0%}"
            f"{r['spread_a']:>10.1%}{r['spread_b']:>10.1%}  {r['verdict']}"
        )
    return "\n".join(lines)


def format_layers(a: dict, b: dict, spec: dict) -> str:
    """Per-layer metrics side by side; they carry no bound, so no verdict."""
    lines = [f"{'workload':<18}{'per-layer metric':<36}{'A (base)':>14}{'B':>14}{'B/A':>8}"]
    for name in (w["name"] for w in spec["workloads"]):
        la = a["workloads"].get(name, {}).get("per_layer", {})
        lb = b["workloads"].get(name, {}).get("per_layer", {})
        for metric in spec["per_layer"]:
            if metric["name"] not in la or metric["name"] not in lb:
                continue
            va, vb = la[metric["name"]]["value"], lb[metric["name"]]["value"]
            ratio = f"{vb / va:>8.3f}" if va else f"{'-':>8}"
            lines.append(f"{name:<18}{metric['name']:<36}{va:>14.5g}{vb:>14.5g}{ratio}")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    a, b = _load_set(args.a), _load_set(args.b)
    rows, bad = compare_sets(a, b, spec)
    print(format_rows(rows))
    print()
    print(format_layers(a, b, spec))
    return 1 if bad else 0


# --------------------------------------------------------------------------
# agree
# --------------------------------------------------------------------------


def cmd_agree(args: argparse.Namespace) -> int:
    """Sets of runs of the same code must agree: every spread within its
    bound, and no set's median worse than the previous set's by more than
    the bound, in either direction."""
    spec = load_spec()
    sets = [_load_set(args.first)] if args.first else []
    while len(sets) < args.sets:
        sets.append(run_suite(args.runs, args.seed + 1000 * len(sets)))
    rows = []
    agree = True
    for index, (a, b) in enumerate(zip(sets, sets[1:])):
        forward, _ = compare_sets(a, b, spec)
        backward, _ = compare_sets(b, a, spec)
        for fwd, back in zip(forward, backward):
            ok = fwd["verdict"] == "ok" and back["verdict"] == "ok"
            agree = agree and ok
            rows.append({**fwd, "sets": [index, index + 1], "agree": ok})
    print(format_rows(rows))
    print(f"agree: {'yes' if agree else 'NO'}")
    Path(args.out).write_text(json.dumps({
        "format": FORMAT + "-agree", "version": 1, "agree": agree,
        "environments": [s["environment"] for s in sets], "rows": rows,
    }, indent=1) + "\n")
    print(f"agree: wrote {args.out}")
    return 0 if agree else 1


def add_parsers(sub) -> None:
    suite = sub.add_parser("suite", help="run every workload, write a result set")
    suite.add_argument("--out", required=True)
    suite.add_argument("--runs", type=int, default=10,
                       help="untraced runs per workload, one seed each")
    suite.add_argument("--seed", type=int, default=1)
    suite.set_defaults(func=cmd_suite)

    compare = sub.add_parser("compare", help="judge result set B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=cmd_compare)

    agree = sub.add_parser("agree", help="check that sets of the same code agree")
    agree.add_argument("--sets", type=int, default=2)
    agree.add_argument("--first", default=None,
                       help="an existing result set to use as the first set")
    agree.add_argument("--out", required=True)
    agree.add_argument("--runs", type=int, default=10)
    agree.add_argument("--seed", type=int, default=1)
    agree.set_defaults(func=cmd_agree)
