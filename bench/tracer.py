"""Outside-in tracer for fockspectra: wraps the public functions of each module.

The wrappers are installed from outside the package, at every binding site
(``from .schur import delta_at`` creates a second reference in ``finiteness``),
so the package itself carries no instrumentation.  Each wrapped call records a
span ``(name, start, end, parent, attrs)`` in memory; the spans are written out
once, when the command ends.

Run as a script, this file is the child process of one benchmark command:

    python bench/tracer.py OUT.json [--traced] -- <fockspectra CLI arguments>
    python bench/tracer.py OUT.json --probe

It imports fockspectra, optionally installs the wrappers, calls
``fockspectra.cli.main`` on the arguments and writes a JSON summary (import
time, in-process wall time of ``main``, thread counts, spans) to OUT.json.
``--probe`` writes the machine and library provenance instead.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import resource
import sys
import time

# The traced layers: module of src/fockspectra -> public functions.
LAYERS = {
    "grid": ("make_grid", "make_pair_grid"),
    "model": ("load_model", "mesh_samples", "check_assumption_a"),
    "operators": ("assemble_blocks", "assemble_A"),
    "schur": ("delta_values", "delta_at", "k_matrix", "hs_norm_k", "s_matrix",
              "bs_operator"),
    "spectra": ("eigvals_hermitian", "essential_spectrum", "discrete_spectrum_below",
                "discrete_spectrum_above", "birman_schwinger_check"),
    "finiteness": ("locate_t0", "estimate_exponents", "finiteness_verdict"),
    "verify": ("singular_sequence_norms",),
    "cli": ("main",),
}

# Functions whose spans also record the rise of ru_maxrss (two getrusage calls
# per call, so it is kept off the hot per-point functions).
RSS_TRACKED = {"spectra.essential_spectrum", "model.mesh_samples"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _shape_attrs(name: str, result) -> dict:
    """Attributes computed from the result's array shapes (not measured)."""
    if name == "spectra.eigvals_hermitian":
        return {"dim": int(result.shape[0])}
    if name == "operators.assemble_A":
        return {"dim": int(result.shape[0]), "bytes": int(result.shape[0] ** 2 * result.itemsize)}
    return {}


class Tracer:
    """Span recorder plus the wrappers it installed, restorable with ``restore``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.originals: dict = {}      # "module.function" -> original function
        self.missing: list = []        # listed functions the package no longer defines
        self._patched: list = []       # (module object, attribute, original)

    def wrap(self, name: str, fn, mesh_cache=None):
        spans = self.spans
        stack = self._stack
        track_rss = name in RSS_TRACKED
        track_cache = name == "model.mesh_samples" and mesh_cache is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(idx)
            attrs = span[4]
            if track_rss:
                rss0 = _maxrss_mb()
            if track_cache:
                miss0 = mesh_cache.cache_info().misses
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if track_rss:
                    attrs["rss_rise_mb"] = _maxrss_mb() - rss0
                if track_cache:
                    attrs["miss"] = mesh_cache.cache_info().misses - miss0
            attrs.update(_shape_attrs(name, result))
            return result

        return wrapper

    def install(self):
        """Wrap every LAYERS function at every binding site in loaded fockspectra modules."""
        import importlib

        pkg_modules = {name: importlib.import_module(f"fockspectra.{name}") for name in LAYERS}
        mesh_cache = getattr(pkg_modules["model"], "_mesh_samples_cached", None)
        wrappers = {}
        for mod_name, fnames in LAYERS.items():
            for fname in fnames:
                key = f"{mod_name}.{fname}"
                fn = getattr(pkg_modules[mod_name], fname, None)
                if fn is None:
                    self.missing.append(key)
                    continue
                self.originals[key] = fn
                wrappers[id(fn)] = (fn, self.wrap(key, fn, mesh_cache))
        for mod in fockspectra_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and value is hit[0]:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def unwrapped_sites(self) -> list:
        """Binding sites that still hold an original of a traced function."""
        originals = {id(fn): key for key, fn in self.originals.items()}
        return sorted(f"{mod.__name__}.{attr} -> {originals[id(value)]}"
                      for mod in fockspectra_modules()
                      for attr, value in vars(mod).items() if id(value) in originals)

    def restore(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def fockspectra_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fockspectra" or name.startswith("fockspectra."))]


def blas_info() -> list:
    """Version string and runtime thread count of every OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    entry["threads"] = int(get_threads())
                    entry["config"] = get_config().decode()
        libs.append(entry)
    return libs


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def probe() -> dict:
    """Library versions, BLAS threads and the built-in models' declared facts."""
    import numpy
    import scipy

    import fockspectra

    builtins = {name: {"a": bm.spec.a, "d": bm.spec.d, "expected": bm.expected}
                for name, bm in fockspectra.builtin_models().items()}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "os_threads": os_threads(),
        "builtins": builtins,
    }


def span_cost_s(calls: int = 20000) -> float:
    """Time one wrapper adds to a call, from a wrapped and a bare no-op."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def run_command(argv: list, traced: bool) -> dict:
    t0 = time.perf_counter()
    import fockspectra.cli  # the package import users pay on every command

    import_s = time.perf_counter() - t0
    tracer = Tracer().install() if traced else None
    main = fockspectra.cli.main
    t1 = time.perf_counter()
    rc = main(argv)
    main_s = time.perf_counter() - t1
    sys.stdout.flush()
    out = {"rc": rc, "import_s": import_s, "main_s": main_s, "os_threads": os_threads(),
           "blas_threads": [lib.get("threads") for lib in blas_info()]}
    if tracer is not None:
        out["span_cost_s"] = span_cost_s()
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
        out["unwrapped"] = tracer.unwrapped_sites()
    return out


def _main() -> int:
    if len(sys.argv) < 3:
        sys.stderr.write("usage: tracer.py OUT.json [--traced] -- <cli args> | OUT.json --probe\n")
        return 1
    out_path = sys.argv[1]
    rest = sys.argv[2:]
    if rest == ["--probe"]:
        result = probe()
    else:
        traced = rest[:1] == ["--traced"]
        if traced:
            rest = rest[1:]
        if rest[:1] != ["--"]:
            sys.stderr.write("usage: tracer.py OUT.json [--traced] -- <cli args> | OUT.json --probe\n")
            return 1
        result = run_command(rest[1:], traced)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
