#!/usr/bin/env python
"""Parallel InSiPS: the master/worker runtime and the multi-rack extension.

Demonstrates the two parallel layers this reproduction implements:

1. The multiprocessing master/worker backend (Algorithms 1-2): the GA
   runs unchanged while PIPE scoring is dispatched on demand to worker
   processes — and produces *bit-identical* results to the serial path.
2. The Sec. 3 multi-rack sketch: one master per rack with per-generation
   elite synchronisation (an island-model GA).

Run:  python examples/parallel_design.py [--workers 2] [--racks 3]
"""

import argparse
import time

import numpy as np

from repro import InhibitorDesigner, get_profile
from repro.ga import InSiPSEngine, SerialScoreProvider, WETLAB_PARAMS
from repro.parallel import MultiRackGA, MultiprocessScoreProvider
from repro.telemetry import MetricsRegistry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="tiny")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--racks", type=int, default=3)
    parser.add_argument("--generations", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    prof = get_profile(args.profile)
    world = prof.build_world(seed=args.seed)
    target = "YBL051C"
    non_targets = world.non_targets_for(target, limit=prof.non_target_limit)
    pop, length = 16, prof.candidate_length

    print(f"Problem: inhibit {target}, avoid {len(non_targets)} non-targets\n")

    # -- serial reference ---------------------------------------------------
    serial = SerialScoreProvider(world.engine, target, non_targets)
    engine = InSiPSEngine(
        serial, WETLAB_PARAMS, population_size=pop, candidate_length=length, seed=42
    )
    t0 = time.perf_counter()
    serial_result = engine.run(args.generations)
    t_serial = time.perf_counter() - t0
    print(f"serial:        best fitness {serial_result.best_fitness:.4f} "
          f"in {t_serial:.1f}s ({serial_result.evaluations} evaluations)")

    # -- master/worker ------------------------------------------------------
    # Providers are context managers: the worker processes are reaped on
    # any exit path, including exceptions raised by the GA.
    telemetry = MetricsRegistry()
    with MultiprocessScoreProvider(
        world.engine, target, non_targets,
        num_workers=args.workers, telemetry=telemetry,
    ) as mp_provider:
        engine = InSiPSEngine(
            mp_provider,
            WETLAB_PARAMS,
            population_size=pop,
            candidate_length=length,
            seed=42,
        )
        t0 = time.perf_counter()
        mp_result = engine.run(args.generations)
        t_mp = time.perf_counter() - t0
        worker_stats = mp_provider.runtime_stats()["workers"]
    identical = np.array_equal(serial_result.best.encoded, mp_result.best.encoded)
    print(f"master/worker: best fitness {mp_result.best_fitness:.4f} "
          f"in {t_mp:.1f}s with {args.workers} workers "
          f"(bit-identical to serial: {identical})")
    for wid, w in worker_stats.items():
        print(f"    worker {wid}: {int(w['items'])} candidates, "
              f"{w['throughput_per_s']:.1f}/s, "
              f"utilisation {w['utilisation'] * 100:.0f}%")

    # -- multi-rack ---------------------------------------------------------
    multirack = MultiRackGA(
        serial,
        WETLAB_PARAMS,
        population_size=pop // 2,
        candidate_length=length,
        num_racks=args.racks,
        seed=7,
    )
    res = multirack.run(args.generations)
    print(f"multi-rack:    best fitness {res.best_fitness:.4f} across "
          f"{args.racks} racks ({res.migrations} elite migrations)")
    for rack in res.racks:
        print(f"    rack {rack.rack_id}: best {rack.best.fitness:.4f}")


if __name__ == "__main__":
    main()
