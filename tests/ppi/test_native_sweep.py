"""The compiled window sweep's loader.

`repro.ppi._native.load` builds ``_sweep.c`` into a per-user cache and
loads it, or says why not; the kernel then runs the compiled loop or its
numpy tile body.  Whatever the loader meets — no compiler, an unsafe or
unwritable cache, a truncated library, a racing process — it must never
crash, never load a file it cannot vouch for, and the sweep's results
must be identical either way.  Once resolved, the answer is the
process's: forked pool workers inherit it and never run the compiler,
and threads share the library (the C loop is reentrant; ctypes drops the
GIL around it).
"""

import os
import shutil
import stat
import subprocess
import sys
import textwrap
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.ppi import _native, kernels
from repro.ppi.kernels import ChunkedNumpyKernel, native_sweep

REPO = Path(__file__).resolve().parents[2]
COMPILER = next(filter(None, map(shutil.which, _native.COMPILERS)), None)
needs_compiler = pytest.mark.skipif(
    COMPILER is None, reason=f"no C compiler ({', '.join(_native.COMPILERS)}) on PATH"
)


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """An empty XDG cache for this test; returns the ``repro`` dir in it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro"


def _batch(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 20, size=int(k)).astype(np.uint8) for k in rng.integers(1, 90, n)]


def _assert_sweeps_with(state, database, monkeypatch):
    """The batched kernel, with ``state`` as the process's compiled sweep,
    equals the float64 reference."""
    monkeypatch.setattr(kernels, "native_sweep", lambda: state)
    seqs = _batch()
    chunked = ChunkedNumpyKernel()
    for seq, got in zip(seqs, kernels.BatchedNumpyKernel().sweep_batch(database, seqs)):
        assert np.array_equal(got, chunked.sweep(database, seq))


def test_the_source_ships_in_the_package():
    source = resources.files("repro.ppi").joinpath(_native.SOURCE)
    assert source.is_file()
    assert b"repro_sweep_hits" in source.read_bytes()
    assert b"repro_result_block" in source.read_bytes()
    assert '"repro.ppi" = ["_sweep.c"]' in (REPO / "pyproject.toml").read_text()


def test_no_compiler_leaves_the_numpy_body(cache, tmp_path, monkeypatch, tiny_engine):
    monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
    state = _native.load()
    assert not state.available and state.library is None
    assert "no C compiler" in state.reason
    assert str(state) == f"numpy ({state.reason})"
    _assert_sweeps_with(state, tiny_engine.database, monkeypatch)


@needs_compiler
def test_a_built_library_is_reused_and_matches(cache, tiny_engine, monkeypatch):
    built = _native.load()
    assert built.available and built.compile_s is not None, built.reason
    assert Path(built.path).parent == cache
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert sorted(p.name for p in cache.iterdir()) == [
        Path(built.path).name,
        Path(built.path).name + ".sha256",
    ]
    reused = _native.load()
    assert reused.available and reused.compile_s is None
    assert (reused.path, reused.isa) == (built.path, built.isa)
    assert str(reused).startswith(f"native ({reused.isa}, ")
    _assert_sweeps_with(reused, tiny_engine.database, monkeypatch)


@needs_compiler
@pytest.mark.parametrize("problem", ["read-only", "other-uid", "world-writable"])
def test_an_unsafe_cache_is_never_loaded_from(cache, monkeypatch, problem, tiny_engine):
    assert _native.load().available
    if problem == "read-only":
        cache.chmod(0o500)
    elif problem == "world-writable":
        cache.chmod(0o777)
    else:
        uid = os.geteuid()
        monkeypatch.setattr(_native.os, "geteuid", lambda: uid + 1)
    try:
        state = _native.load()
    finally:
        cache.chmod(0o700)
    assert not state.available and state.library is None
    assert str(cache) in state.reason
    _assert_sweeps_with(state, tiny_engine.database, monkeypatch)


@needs_compiler
def test_a_truncated_library_is_rebuilt_or_skipped(cache, tmp_path, monkeypatch, tiny_engine):
    good = Path(_native.load().path)
    data = good.read_bytes()
    # A new file, as a torn copy would leave it: truncating the mapped
    # inode in place would fault this very process, which loaded it.
    torn = good.with_name("torn")
    torn.write_bytes(data[: len(data) // 2])
    os.replace(torn, good)
    # No compiler: the truncated file is not loaded, the numpy body runs.
    with monkeypatch.context() as m:
        m.setenv("PATH", str(tmp_path / "empty-bin"))
        skipped = _native.load()
    assert not skipped.available and "no C compiler" in skipped.reason
    _assert_sweeps_with(skipped, tiny_engine.database, monkeypatch)
    # With one: rebuilt in place, and the rebuilt library sweeps exactly.
    rebuilt = _native.load()
    assert rebuilt.available and rebuilt.compile_s is not None
    assert good.read_bytes() == data
    _assert_sweeps_with(rebuilt, tiny_engine.database, monkeypatch)


_CHILD = textwrap.dedent(
    """
    import numpy as np
    from repro.ppi._native import native_sweep
    from repro.synthetic import get_profile
    state = native_sweep()
    assert state.available, state.reason
    db = get_profile("tiny").build_world().engine.database
    stacked = np.random.default_rng(1).integers(0, 20, size=200).astype(np.uint8)
    n_rows, cols = stacked.size - db.window_size + 1, db.valid_columns.size
    for threshold in (-10**6, 20):
        got = np.sort(native_sweep().hits(
            db.score_rows, stacked, n_rows, db.window_size, threshold, cols))
        rows, c = db.kernel._numpy_tile_hits(db, stacked, n_rows, threshold)
        assert np.array_equal(got, np.sort(rows * cols + c))
    print(state.compile_s is not None)
    """
)


def _env(**extra):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.update(extra)
    return env


@needs_compiler
def test_two_processes_on_an_empty_cache_both_load_a_valid_library(cache):
    env = _env()
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert out.strip() in ("True", "False")
    assert not [p for p in cache.iterdir() if p.name.endswith(".tmp")]


_POOL = textwrap.dedent(
    """
    import shutil, sys
    from repro.ppi._native import native_sweep
    from repro.providers import make_score_provider
    from repro.synthetic import get_profile
    world = get_profile("tiny").build_world()
    assert native_sweep().available, native_sweep().reason
    # A worker that resolved again would have to compile: nothing cached.
    shutil.rmtree(sys.argv[1])
    target = "YBL051C"
    non_targets = world.non_targets_for(target, limit=8)
    import numpy as np
    rng = np.random.default_rng(3)
    batch = [rng.integers(0, 20, size=64).astype(np.uint8) for _ in range(12)]
    serial = make_score_provider(world.engine, target, non_targets).scores(batch)
    with make_score_provider(
        world.engine, target, non_targets, backend="process", workers=2
    ) as pool:
        assert pool.scores(batch) == serial
    """
)


@needs_compiler
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="pool workers are forked on Linux"
)
def test_forked_pool_workers_never_run_the_compiler(cache, tmp_path):
    """The master compiles once; its forked workers inherit the loaded
    library and score through it, with the cache emptied under them."""
    log = tmp_path / "cc.log"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "cc"
    wrapper.write_text(f'#!/bin/sh\necho "$$" >> "{log}"\nexec "{COMPILER}" "$@"\n')
    wrapper.chmod(0o755)
    env = _env(PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    run = subprocess.run(
        [sys.executable, "-c", _POOL, str(cache)], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert len(log.read_text().splitlines()) == 1


@pytest.mark.parametrize("body", ["native", "native-vec16"])
def test_threads_sharing_the_library_get_their_serial_results(
    tiny_engine, tile_kernel, body
):
    """Four threads sweep different batches through the compiled loop at
    once, switching often; each gets the numpy body's result every time."""
    kernel = tile_kernel(body)
    db = tiny_engine.database
    batches = [_batch(seed, n) for seed, n in ((1, 6), (2, 3), (3, 1), (4, 9))]
    expected = [tile_kernel("numpy").sweep_batch_sparse(db, b) for b in batches]
    start = threading.Barrier(len(batches))
    mismatches = []
    finished = []

    def run(i):
        start.wait()
        for _ in range(20):
            got = kernel.sweep_batch_sparse(db, batches[i])
            if any((g.tocsr() != e.tocsr()).nnz for g, e in zip(got, expected[i])):
                mismatches.append(i)
        finished.append(i)  # a thread that raised never gets here

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == list(range(len(batches)))
    assert mismatches == []


_NO_NDIMAGE = textwrap.dedent(
    """
    import sys
    import numpy as np
    import repro
    from repro.ga.fitness import score_batch
    from repro.ppi.kernels import native_sweep
    from repro.synthetic import get_profile
    if not native_sweep().available:
        print("skip:", native_sweep().reason)
        raise SystemExit(0)
    world = get_profile("tiny").build_world()
    target = "YBL051C"
    problem = (target, tuple(world.non_targets_for(target, limit=8)))
    rng = np.random.default_rng(5)
    batch = [rng.integers(0, 20, size=64).astype(np.uint8) for _ in range(6)]
    batch.append(world.engine.database.concatenated[:64].copy())
    score_sets, _ = score_batch(world.engine, batch, [problem] * len(batch))
    assert max(s.target_score for s in score_sets) > 0.0
    print(sorted(m for m in sys.modules if m.startswith("scipy.ndimage")))
    """
)


def test_the_compiled_route_never_imports_ndimage():
    """Scoring through the compiled result block leaves ``scipy.ndimage``
    unimported (importing it costs several MB of resident memory in every
    process); only the numpy body, ``evaluate`` and binding sites load it."""
    run = subprocess.run(
        [sys.executable, "-c", _NO_NDIMAGE], env=_env(), capture_output=True,
        text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout.strip()
    if out.startswith("skip:"):
        pytest.skip(f"compiled result block not loaded: {out[5:].strip()}")
    assert out == "[]"


def test_the_process_resolves_once():
    assert native_sweep() is native_sweep()
