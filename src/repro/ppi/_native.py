"""Build and load the compiled window sweep (``_sweep.c``).

The batched kernel's tile loop and the fused PIPE result block
(:meth:`~repro.ppi.pipe.PipeEngine.score_similarities`) have C twins
that ship as source in this package, in one file.  On first use in a
process it is compiled with the system C compiler into a per-user cache
and loaded with :mod:`ctypes`; no build step, no new dependency.  When
that is not possible — no compiler on ``PATH``, no safe cache directory,
a failed build — :func:`native_sweep` says why, and the kernel runs its
numpy tile body and the engine its numpy result groups instead.  The
choice is made by capability only: there is no option to request either
path.

Cache rules:

* the directory is ``${XDG_CACHE_HOME:-~/.cache}/repro/``, created with
  mode 0700; it must be a real directory owned by the effective uid,
  writable by its owner and by nobody else, or nothing is loaded from it
  (never ``/tmp``, never the working directory);
* the library's name is keyed by the sha256 of the source, the compiler
  flags and ``platform.machine()``, and a sidecar holds the sha256 of the
  library's bytes: a library is only loaded when its bytes match, so a
  truncated or foreign file is rebuilt, never ``dlopen``-ed;
* a build writes to a pid-suffixed temporary name, loads that file, then
  ``os.replace``-s it into place, so a racing process never sees a
  half-written library and a process that compiles runs exactly what it
  compiled.

The library is resolved once per process (a database with ``score_rows``
resolves it when it is built), so forked pool workers inherit the loaded
handle and never run the compiler.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import threading
import time
from importlib import resources

import numpy as np

__all__ = ["NativeSweep", "native_sweep", "load"]

SOURCE = "_sweep.c"
#: Compiler names tried, in order, on ``PATH``.
COMPILERS = ("cc", "gcc", "clang")
#: ``-ffp-contract=off``: GNU C's default (``fast``) may fuse a multiply
#: and an add into one FMA, which rounds once where the reference rounds
#: twice; the result block's float64 running sums must round as ndimage's.
CFLAGS = ("-O3", "-shared", "-fPIC", "-std=gnu11", "-ffp-contract=off")
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT_S = 120

_INT64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_ARGTYPES = [_PTR, _INT64, _INT64, _PTR, _INT64, _INT64, _INT64, _PTR, _INT64]
_BLOCK_ARGTYPES = [_INT64, _INT64, _INT64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                   _INT64, _PTR, _INT64, _PTR, _INT64, _PTR, _PTR, _PTR]


def _source() -> bytes:
    return resources.files("repro.ppi").joinpath(SOURCE).read_bytes()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass(frozen=True)
class NativeSweep:
    """The compiled library as this process resolved it: the window sweep
    (:meth:`hits`) and the fused result block (:meth:`result_block`).

    ``path`` is the loaded library and ``isa`` the body the sweep
    dispatches to on this CPU (``avx2``, ``sse2`` or ``vec16``), or
    ``reason`` says why no library is loaded.  ``compile_s`` is the
    build's wall time when this process compiled the library, None when
    it came from the cache.
    """

    path: str | None = None
    isa: str | None = None
    reason: str | None = None
    compile_s: float | None = None
    library: ctypes.CDLL | None = None

    @property
    def available(self) -> bool:
        return self.library is not None

    def __str__(self) -> str:
        if self.available:
            return f"native ({self.isa}, {self.path})"
        return f"numpy ({self.reason})"

    def accepts(
        self, score_rows: np.ndarray, stacked: np.ndarray, total_cols: int, w: int
    ) -> bool:
        """Whether :meth:`hits` may sweep ``stacked`` against these score
        rows: the library is loaded, the rows are C-contiguous int16 with
        the ``w - 1`` pad columns every window needs, and every residue
        code indexes one of them (the C loop does not bounds-check)."""
        return (
            self.library is not None
            and score_rows.dtype == np.int16
            and score_rows.flags.c_contiguous
            and score_rows.shape[1] >= total_cols + w - 1
            and (not stacked.size or int(stacked.max()) < score_rows.shape[0])
        )

    def hits(
        self,
        score_rows: np.ndarray,
        stacked: np.ndarray,
        n_rows: int,
        w: int,
        threshold: int,
        total_cols: int,
        *,
        body: str = "repro_sweep_hits",
    ) -> np.ndarray:
        """Flat indices ``r * total_cols + c`` of every cell whose exact
        window sum reaches ``threshold``, in no particular order.

        Only for inputs :meth:`accepts`.  The call drops the GIL.  ``body``
        names the exported entry point (tests pin the portable one).
        """
        stacked = np.ascontiguousarray(stacked, dtype=np.uint8)
        if w < 1 or n_rows > stacked.size - w + 1:
            raise ValueError(f"{n_rows} rows of width {w} need more than "
                             f"{stacked.size} stacked residues")
        # Past int16 either way: keep the C clamp's verdict, fit int64.
        threshold = min(max(threshold, -(1 << 15) - 1), 1 << 15)
        fn = getattr(self.library, body)
        cap = n_rows + 1024
        while True:
            out = np.empty(cap, dtype=np.int64)
            found = fn(
                score_rows.ctypes.data,
                score_rows.strides[0] // score_rows.itemsize,
                total_cols,
                stacked.ctypes.data,
                n_rows,
                w,
                threshold,
                out.ctypes.data,
                cap,
            )
            if found <= cap:
                return out[:found]
            cap = found  # one more pass, sized exactly

    def result_block(
        self,
        rows: np.ndarray,
        proteins: np.ndarray,
        weights: np.ndarray | None,
        evidence: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        n_win: int,
        radius: int,
        work: np.ndarray,
        index: np.ndarray,
        touched: np.ndarray,
    ) -> np.ndarray:
        """``(candidates, proteins)`` filtered maxima of the fused result
        blocks of candidates with ``n_win`` windows each: for every
        (candidate, protein) the maximum of the ``(2 * radius + 1)²`` box
        mean of its block of ``H``, bit-identical to ``uniform_filter``
        on that block (``_sweep.c`` says why).

        ``rows`` (int64, ``candidates * n_win + 1``), ``proteins`` (int32)
        and ``weights`` (float64, or None for the binary predicate) are
        the candidates' stacked match rows as CSR; ``evidence`` is the
        problem's ``(indptr, indices, data, bounds)`` (int32, int32,
        float64, int64), built by the engine with column indices below
        ``bounds[-1]`` and integer, non-negative data: its exactness rests
        on the data, which the engine checks once per problem.  ``work``
        (float64), ``index`` (int64, ``n_win``) and ``touched`` (uint8,
        one per evidence column) are the caller's scratch; ``work`` must
        hold ``(columns + 3) * nw`` cells for each candidate's ``nw``
        windows within ``radius`` of a match.  Layouts, sizes and the
        match rows' protein indices are checked here, since the C loop
        checks none of them.  The call drops the GIL.
        """
        indptr, indices, data, bounds = evidence
        n_cols = int(bounds[-1])
        n_cand, rest = divmod(rows.size - 1, n_win)
        arrays = {
            np.int64: (rows, index, bounds),
            np.int32: (proteins, indptr, indices),
            np.float64: (work, data) + (() if weights is None else (weights,)),
            np.uint8: (touched,),
        }
        if (
            rest
            or n_win < 1
            or radius < 0
            or index.size < n_win
            or touched.size < n_cols
            or int(rows[-1]) > proteins.size
            or (weights is not None and weights.size < proteins.size)
            or indices.size < int(indptr[-1])
            or data.size < int(indptr[-1])
            or any(
                a.dtype != dtype or not a.flags.c_contiguous
                for dtype, group in arrays.items()
                for a in group
            )
        ):
            raise ValueError("result block arguments of the wrong layout")
        if proteins.size and (
            int(proteins.min()) < 0 or int(proteins.max()) >= indptr.size - 1
        ):
            raise ValueError("a match row names a protein outside the evidence")
        out = np.empty((n_cand, bounds.size - 1), dtype=np.float64)
        status = self.library.repro_result_block(
            n_cand,
            n_win,
            radius,
            rows.ctypes.data,
            proteins.ctypes.data,
            None if weights is None else weights.ctypes.data,
            indptr.ctypes.data,
            indices.ctypes.data,
            data.ctypes.data,
            n_cols,
            bounds.ctypes.data,
            bounds.size - 1,
            work.ctypes.data,
            work.size,
            index.ctypes.data,
            touched.ctypes.data,
            out.ctypes.data,
        )
        if status:
            raise ValueError(
                f"candidate {-1 - status} needs more than {work.size} scratch cells"
            )
        return out


def _cache_dir() -> tuple[str | None, str | None]:
    """``(directory, None)`` when the cache is safe to use, else
    ``(None, reason)``."""
    if not hasattr(os, "geteuid"):
        return None, "no owner check for the build cache on this platform"
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None, "no home directory for the build cache"
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
    except OSError as exc:
        return None, f"cache {path} unusable: {exc.strerror or exc}"
    if not stat.S_ISDIR(st.st_mode):
        return None, f"cache {path} is not a directory"
    if st.st_uid != os.geteuid():
        return None, f"cache {path} is owned by uid {st.st_uid}"
    if st.st_mode & 0o022:
        return None, f"cache {path} is writable by group or others"
    if not st.st_mode & stat.S_IWUSR:
        return None, f"cache {path} is not writable"
    return path, None


def _open(path: str, compile_s: float | None) -> NativeSweep:
    library = ctypes.CDLL(path)
    for name in ("repro_sweep_hits", "repro_sweep_hits_vec16"):
        fn = getattr(library, name)
        fn.restype = _INT64
        fn.argtypes = _ARGTYPES
    library.repro_result_block.restype = _INT64
    library.repro_result_block.argtypes = _BLOCK_ARGTYPES
    library.repro_sweep_isa.restype = ctypes.c_char_p
    isa = library.repro_sweep_isa().decode()
    return NativeSweep(path=path, isa=isa, compile_s=compile_s, library=library)


def _load_cached(path: str) -> NativeSweep | None:
    """The cached library at ``path`` when its bytes are the ones its
    sidecar records and only this uid can have written them."""
    try:
        st = os.lstat(path)
        with open(path + ".sha256") as fh:
            recorded = fh.read().strip()
    except OSError:
        return None
    if (
        not stat.S_ISREG(st.st_mode)
        or st.st_uid != os.geteuid()
        or st.st_mode & 0o022
        or _digest(path) != recorded
    ):
        return None
    return _open(path, None)


def load() -> NativeSweep:
    """Resolve the compiled sweep now: load it from the cache, or build it
    there.  Never raises; a failure comes back as ``reason``.  Each call
    resolves afresh — the process-wide answer is :func:`native_sweep`."""
    try:
        source = _source()
    except OSError as exc:
        return NativeSweep(reason=f"{SOURCE} not found: {exc}")
    directory, reason = _cache_dir()
    if directory is None:
        return NativeSweep(reason=reason)
    key = hashlib.sha256(
        b"\0".join([source, " ".join(CFLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:24]
    path = os.path.join(directory, f"sweep-{key}.so")
    try:
        cached = _load_cached(path)
    except (OSError, AttributeError) as exc:
        return NativeSweep(reason=f"cannot load {path}: {exc}")
    if cached is not None:
        return cached
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    if compiler is None:
        return NativeSweep(reason=f"no C compiler ({', '.join(COMPILERS)}) on PATH")
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    started = time.perf_counter()
    try:
        build = subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source,
            capture_output=True,
            timeout=BUILD_TIMEOUT_S,
        )
        if build.returncode != 0:
            detail = build.stderr.decode(errors="replace").strip().splitlines()
            return NativeSweep(
                reason=f"{compiler} failed: {detail[-1] if detail else build.returncode}"
            )
        compile_s = time.perf_counter() - started
        digest = _digest(tmp)
        # Load what this process built, then publish it: the mapping
        # survives the rename, and the final name only ever holds a
        # complete file.
        built = _open(tmp, compile_s)
        with open(tmp + ".sha256", "w") as fh:
            fh.write(digest + "\n")
        os.replace(tmp, path)
        os.replace(tmp + ".sha256", path + ".sha256")
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        return NativeSweep(reason=f"build failed: {exc}")
    finally:
        for leftover in (tmp, tmp + ".sha256"):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return dataclasses.replace(built, path=path)


_LOCK = threading.Lock()
_RESOLVED: NativeSweep | None = None


def native_sweep() -> NativeSweep:
    """The process-wide compiled sweep, resolved by :func:`load` on the
    first call; later calls (and forked children) reuse the answer."""
    global _RESOLVED
    if _RESOLVED is None:
        with _LOCK:
            if _RESOLVED is None:
                _RESOLVED = load()
    return _RESOLVED
