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
- pairing: the Gram matrix of biorthogonality_check on the 9 modes.

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

import numpy as np

import klform
from klform import cli, verify

SIZES = (24, 32, 40)
FAMILIES = ("assemble_matrix", "expand", "residual", "all_eigenvalues", "window", "pairing")
CRITERION_02_SEED = 20260816


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
    sources = {name: cli.MODELS[name](**cli.DESK_PRESETS[name]) for name in ("kl", "cl", "hpz")}
    sources.update({f"c02-{i}": src for i, src in enumerate(criterion_02_sources())})
    return sources


def digests(sources: dict, sizes=SIZES) -> dict:
    """{family: sha256 hex} over the sources, in order, and the sizes."""
    sha = {family: hashlib.sha256() for family in FAMILIES}
    labels = klform.distinct_labels(2)
    for src in sources.values():
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
    return {family: sha[family].hexdigest() for family in FAMILIES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    print(f"klform from {os.path.dirname(klform.__file__)}", file=sys.stderr)
    sources = all_sources()
    doc = {"sources": len(sources), "sizes": list(SIZES), "sha256": digests(sources)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
