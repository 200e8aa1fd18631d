"""sha256 of the oracle's numbers, one digest per family of results.

The sources are the kl, cl and hpz presets and the 100 sources of
acceptance criterion 02 (its seed 20260816 and recipe: a normal form with
random omega0, gamma and b, then 3-6 random flows).  For each source, at
each basis size n x n of SIZES, in the frame of the stationary Gaussian
that the source's reduction plan transports, the families hash:

- assemble_matrix: the band shifts and the band stack of the Liouvillian;
- expand: the coefficient vectors of the 9 modes m <= 2;
- residual: the residuals of those vectors at the modes' eigenvalues;
- all_eigenvalues: the spectrum of the degree blocks;
- window: eigenvalues_in_window at radius 4 max(omega0, gamma);
- pairing: the Gram matrix of biorthogonality_check on the 9 modes;
- product: the matrix times a seeded vector of each top degree the basis
  holds, exactly zero above it, and a copy of the matrix with one infinite
  entry times the vectors of the lowest and the highest top degree;
- evolve: on the presets only, evolve_series from the start of `klform
  evolve`, the stationary state plus 0.2 times the unit mode (1, 0, +1),
  over 81 times up to 10/gamma; then, from the same start, the series
  `klform evolve` computes on the configs of tools/artifact_digests.py
  away from the presets (EVOLVE_CONFIGS), each at its own basis size and
  b_target.

Each digest covers the exact bytes of every array and float, so two trees
print the same line for a family only if it is bit for bit the same on
every source.  klform is imported from PYTHONPATH, which makes two
checkouts comparable:

    PYTHONPATH=src python3 tools/oracle_digests.py > new.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/oracle_digests.py > old.json
    diff old.json new.json
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import klform  # noqa: E402
from klform import cli, verify  # noqa: E402

from artifact_digests import SOURCES as ARTIFACT_SOURCES  # noqa: E402

SIZES = (24, 32, 40)
FAMILIES = (
    "assemble_matrix",
    "expand",
    "residual",
    "all_eigenvalues",
    "window",
    "pairing",
    "product",
    "evolve",
)
CRITERION_02_SEED = 20260816
PRESETS = ("kl", "cl", "hpz")
EVOLVE_CONFIGS = ("cl-a", "cl-b", "hpz-a", "hpz-b", "generic", "generic-b")


def criterion_02_sources(count: int = 100) -> list:
    """The first `count` sources of acceptance criterion 02."""
    rng = np.random.default_rng(CRITERION_02_SEED)
    sources = []
    for _ in range(count):
        omega0 = float(rng.uniform(0.5, 1.5))
        gamma = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(0.6, 1.6))
        src = klform.kl_coefficients(omega0, gamma, b)
        for _ in range(int(rng.integers(3, 7))):
            gid = klform.GENERATOR_ORDER[rng.integers(7)]
            src = klform.conjugate_coefficients(gid, float(rng.uniform(-0.5, 0.5)), src)
        sources.append(src)
    return sources


def all_sources() -> dict:
    """{name: coefficients} of the presets and the criterion-02 sources."""
    sources = {name: cli.MODELS[name](**cli.DESK_PRESETS[name]) for name in PRESETS}
    sources.update({f"c02-{i}": src for i, src in enumerate(criterion_02_sources())})
    return sources


def graded_vectors(n: int) -> list:
    """Seeded complex vectors on the n x n basis, one of each top degree
    0..2n-2, exactly zero above it."""
    rng = np.random.default_rng(n)
    degree = np.add.outer(np.arange(n), np.arange(n)).reshape(-1)
    vecs = []
    for top in range(2 * n - 1):
        vec = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
        vec[degree > top] = 0.0
        vecs.append(vec)
    return vecs


def evolve_start(plan, state, src, cfg) -> tuple:
    """(f0, times) of `klform evolve` at its defaults: the stationary state
    plus 0.2 times the unit mode (1, 0, +1), and 81 times up to 10/gamma."""
    mode = klform.transformed_eigenfunction(plan, klform.EigenLabel(1, 0, 1), src)
    seed = verify.expand(mode, cfg)
    f0 = verify.expand(state, cfg) + 0.2 * seed / np.linalg.norm(seed)
    return f0, np.linspace(0.0, 10.0 / src.gamma, 81)


def run_config(name: str):
    """The RunConfig that `klform evolve --config` reads from the config
    of tools/artifact_digests.py with this name."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ARTIFACT_SOURCES[name], fh)
        return cli.load_config(cli.build_parser().parse_args(["evolve", "--config", path]))


def config_series(cfg) -> np.ndarray:
    """The series `klform evolve` computes for a RunConfig that keeps the
    defaults of its start and time grid."""
    src, plan = cli._reduce(cfg)
    state, _ = plan.transport(src)
    basis, k_mat = cli._oracle(cfg, src, state)
    return verify.evolve_series(k_mat, *evolve_start(plan, state, src, basis))


def with_infinite_entry(k_mat):
    """A copy of k_mat's matrix whose (0, 0) band has inf at (1, 2)."""
    mat = k_mat.matrix
    stack = mat._stack.copy()
    stack[mat._shifts.index((0, 0)), 1, 2] = np.inf
    return verify.BandedMatrix._of_stack(mat._shifts, stack)


def digests(sources: dict, sizes=SIZES, configs=()) -> dict:
    """{family: sha256 hex} over the sources, in order, and the sizes, the
    evolve family then over the RunConfigs given."""
    sha = {family: hashlib.sha256() for family in FAMILIES}
    labels = klform.distinct_labels(2)
    vectors = {n: graded_vectors(n) for n in sizes}
    for name, src in sources.items():
        plan = klform.reduce_to_kl(src, b_target=1.0)
        state, _ = plan.transport(src)
        modes = [klform.transformed_eigenfunction(plan, lab, src) for lab in labels]
        h0, h1, h2 = src.h
        radius = 4.0 * max(0.5 * math.sqrt(h0 * h0 - h1 * h1 - h2 * h2), src.gamma)
        op = klform.assemble_liouvillian(src)
        for n in sizes:
            cfg = verify.BasisConfig(n, n, state.frame())
            k_mat = verify.assemble_matrix(op, cfg)
            sha["assemble_matrix"].update(repr(k_mat.matrix._shifts).encode())
            sha["assemble_matrix"].update(k_mat.matrix._stack.tobytes())
            for mode in modes:
                vec = verify.expand(mode, cfg)
                sha["expand"].update(vec.tobytes())
                res = verify.residual(k_mat, vec, mode.eigenvalue)
                sha["residual"].update(np.float64(res).tobytes())
            sha["all_eigenvalues"].update(verify.all_eigenvalues(k_mat).tobytes())
            sha["window"].update(verify.eigenvalues_in_window(k_mat, radius).tobytes())
            sha["pairing"].update(verify.biorthogonality_check(k_mat, modes).gram.tobytes())
            for vec in vectors[n]:
                sha["product"].update((k_mat.matrix @ vec).tobytes())
            spoiled = with_infinite_entry(k_mat)
            with np.errstate(invalid="ignore"):
                for vec in (vectors[n][0], vectors[n][-1]):
                    sha["product"].update((spoiled @ vec).tobytes())
            if name in PRESETS:
                f0, times = evolve_start(plan, state, src, cfg)
                sha["evolve"].update(verify.evolve_series(k_mat, f0, times).tobytes())
    for cfg in configs:
        sha["evolve"].update(config_series(cfg).tobytes())
    return {family: sha[family].hexdigest() for family in FAMILIES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    print(f"klform from {os.path.dirname(klform.__file__)}", file=sys.stderr)
    sources = all_sources()
    configs = [run_config(name) for name in EVOLVE_CONFIGS]
    doc = {
        "sources": len(sources),
        "sizes": list(SIZES),
        "evolve_configs": list(EVOLVE_CONFIGS),
        "sha256": digests(sources, configs=configs),
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
