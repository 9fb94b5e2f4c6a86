"""Build and load the compiled window sweep (``_sweep.c``).

The batched kernel's tile loop has a C twin that ships as source in this
package.  On first use in a process it is compiled with the system C
compiler into a per-user cache and loaded with :mod:`ctypes`; no build
step, no new dependency.  When that is not possible — no compiler on
``PATH``, no safe cache directory, a failed build — :func:`native_sweep`
says why and the kernel runs its numpy tile body instead.  The choice is
made by capability only: there is no option to request either path.

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
CFLAGS = ("-O3", "-shared", "-fPIC", "-std=gnu11")
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT_S = 120

_INT64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_ARGTYPES = [_PTR, _INT64, _INT64, _PTR, _INT64, _INT64, _INT64, _PTR, _INT64]


def _source() -> bytes:
    return resources.files("repro.ppi").joinpath(SOURCE).read_bytes()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclasses.dataclass(frozen=True)
class NativeSweep:
    """The compiled sweep as this process resolved it.

    ``path`` is the loaded library and ``isa`` the body it dispatches to
    on this CPU (``avx2``, ``sse2`` or ``vec16``), or ``reason`` says why
    no library is loaded.  ``compile_s`` is the build's wall time when
    this process compiled the library, None when it came from the cache.
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
