"""Per-layer spans for traced runs, recorded around liecomm's public functions.

Installed only by the child of a traced run.  Each wrapped function records a
span (name, parent span, start, end) in memory; spans and work counters are
written as one JSON file when the child exits.  Every module attribute that
is bound to a wrapped function is patched, so calls made through re-exports
and through `from .x import f` bindings produce nested child spans too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

FUNCTIONS = (
    "cli.main",
    "rootdata.build_root_datum",
    "rootdata.lattice_quotient",
    "alcove.alcove_geometry",
    "weyl.generate",
    "weyl.molien_poincare",
    "weyl.irreducibility_check",
    "weyl.euler_char_rep",
    "weyl.face_stabilizer",
    "weyl.double_cosets",
    "weyl.cell_census",
    "weyl.alcove_reduce",
    "homology.snf_divisors",
    "homology.smith_normal_form",
    "homology.chain_homology",
    "simplicial.torus_triangulation",
    "simplicial.torus_inversion_quotient",
    "simplicial.quotient_by_involution",
    "simplicial.barycentric_subdivide",
    "simplicial.SimplicialComplex.boundary_matrices",
    "geom.beta_check",
    "geom.cocycle_check",
    "geom.triangulate_prism_boundary",
    "geom.degree_to_s2",
)

# spans that also record VmHWM growth
HWM_FUNCTIONS = (
    "weyl.generate",
    "weyl.cell_census",
    "weyl.face_stabilizer",
    "homology.chain_homology",
    "geom.beta_check",
    "geom.cocycle_check",
)

# work counts reported per layer; the generate hook also records cold_elements
# and cold_s, from which the run derives weyl.generate.elements_per_s
COUNTERS = (
    "weyl.generate.elements",
    "weyl.generate.cache_hits",
    "weyl.generate.cache_writes",
    "weyl.generate.cache_rejects",
    "weyl.cell_census.burnside_terms",
    "weyl.face_stabilizer.element_scans",
    "weyl.double_cosets.cosets",
    "weyl.alcove_reduce.points",
    "homology.snf_divisors.entries",
    "homology.chain_homology.cells",
    "geom.beta_check.mesh_points",
    "geom.cocycle_check.samples",
)


def vm_hwm_mb() -> float:
    """Peak resident set size of this process so far, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _file_state(path: Path):
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return (st.st_size, st.st_mtime_ns)


def _shape(mat) -> tuple[int, int]:
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return int(shape[0]), int(shape[1])
    return len(mat), (len(mat[0]) if len(mat) else 0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, hwm growth]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def _wrap(self, name: str, fn):
        hwm = name in HWM_FUNCTIONS
        count = _COUNT_HOOKS.get(name)
        before = _BEFORE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(index)
            hwm0 = vm_hwm_mb() if hwm else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span[2], span[3] = start, end
                if hwm:
                    span[4] = vm_hwm_mb() - hwm0
            if count:
                count(self.counters, args, kwargs, result, end - start, state)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in FUNCTIONS at every liecomm lookup site."""
        import liecomm

        modules = [m for k, m in sys.modules.items() if k == "liecomm" or k.startswith("liecomm.")]
        for name in FUNCTIONS:
            modname, *path = name.split(".")
            owner = getattr(liecomm, modname)
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            setattr(owner, path[-1], wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str, import_s: float) -> None:
        Path(path).write_text(
            json.dumps({"import_s": import_s, "spans": self.spans, "counters": self.counters})
        )


# --- work counters, computed from each call's inputs and outputs -------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _generate_before(args, kwargs):
    from liecomm import weyl

    datum = args[0]
    cache_dir = _arg(args, kwargs, 2, "cache_dir")
    memo = (datum.lie_type.family, datum.lie_type.rank) in weyl._MEMO
    path = weyl._cache_path(datum, Path(cache_dir)) if cache_dir is not None else None
    return memo, path, _file_state(path) if path is not None else None


def _generate_count(c, args, kwargs, group, seconds, state):
    memo, path, before = state
    c["weyl.generate.elements"] += group.order
    if memo:
        return
    after = _file_state(path) if path is not None else None
    if before is not None and after == before:
        c["weyl.generate.cache_hits"] += 1
        return
    if before is not None:
        # _load_cache refused the file and generate re-enumerated it
        c["weyl.generate.cache_rejects"] += 1
    elif after is not None:
        c["weyl.generate.cache_writes"] += 1
    c["weyl.generate.cold_elements"] += group.order
    c["weyl.generate.cold_s"] += seconds


def _census_count(c, args, kwargs, result, seconds, state):
    group, k = args[0], _arg(args, kwargs, 2, "k")
    faces = 2 ** (group.datum.rank + 1) - 1
    c["weyl.cell_census.burnside_terms"] += faces**k * group.order


def _stabilizer_count(c, args, kwargs, result, seconds, state):
    c["weyl.face_stabilizer.element_scans"] += args[0].order


def _cosets_count(c, args, kwargs, result, seconds, state):
    c["weyl.double_cosets.cosets"] += len(result)


def _reduce_count(c, args, kwargs, result, seconds, state):
    c["weyl.alcove_reduce.points"] += 1


def _snf_count(c, args, kwargs, result, seconds, state):
    m, n = _shape(args[0])
    c["homology.snf_divisors.entries"] += m * n


def _chain_count(c, args, kwargs, result, seconds, state):
    mats = args[0]
    c["homology.chain_homology.cells"] += _shape(mats[0])[0] + sum(_shape(b)[1] for b in mats)


def _mesh_count(c, args, kwargs, result, seconds, state):
    c["geom.beta_check.mesh_points"] += len(result[0])


def _samples_count(c, args, kwargs, result, seconds, state):
    c["geom.cocycle_check.samples"] += _arg(args, kwargs, 0, "samples", 10_000)


_BEFORE_HOOKS = {"weyl.generate": _generate_before}
_COUNT_HOOKS = {
    "weyl.generate": _generate_count,
    "weyl.cell_census": _census_count,
    "weyl.face_stabilizer": _stabilizer_count,
    "weyl.double_cosets": _cosets_count,
    "weyl.alcove_reduce": _reduce_count,
    "homology.snf_divisors": _snf_count,
    "homology.chain_homology": _chain_count,
    "geom.triangulate_prism_boundary": _mesh_count,
    "geom.cocycle_check": _samples_count,
}
