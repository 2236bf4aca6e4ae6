"""Per-layer scaling sweep in N for the traced run. It gates nothing.

Each cell is the median time of one representative call into the layer at
particle number N. Layers that need a dense sector density get it from
`ensemble_to_state`; where that refuses N with SectorTooLarge the cell is
marked not applicable, with the refusal, rather than left out.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

SWEEP_N = (40, 100, 256, 1000, 4000)
_CELL_BUDGET_S = 0.1
_MIN_REPEATS = 3


def _time_call(fn) -> float:
    times = []
    deadline = perf_counter() + _CELL_BUDGET_S
    while len(times) < _MIN_REPEATS or perf_counter() < deadline:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_sweep(workdir: Path, seed: int) -> dict:
    from bosewit import cli, fock, scan, separable, statespec, witnesses
    from bosewit.errors import SectorTooLarge

    x_axis = fock.GeneratorSpec.axis("x")
    z_axis = fock.GeneratorSpec.axis("z")
    table = {}

    def cell(layer: str, n: int, fn) -> None:
        table.setdefault(layer, {})[str(n)] = _time_call(fn)

    def not_applicable(layers, n: int, reason: str) -> None:
        for layer in layers:
            table.setdefault(layer, {})[str(n)] = f"not applicable: {reason}"

    def cli_witness(path: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["witness", "--state", path])

    for n in SWEEP_N:
        coherent = separable.CoherentSpinState(0.3, 0.7, n)
        pure = separable.to_fock(coherent)
        ensemble = separable.sample_ensemble(seed, n, 4)
        text = f"kind = coherent_spin\nn = {n}\nz = 0.3\nphi = 0.7\n"
        path = workdir / f"sweep-{n}.state"
        path.write_text(text, encoding="utf-8")

        cell("separable.to_fock", n, lambda: separable.to_fock(coherent))
        cell("witnesses.g2m", n, lambda: witnesses.integrated_g2m(pure, 1))
        cell("witnesses.xi2", n, lambda: witnesses.spin_squeezing(pure))
        cell("witnesses.eta2", n, lambda: witnesses.number_squeezing_direct(pure))
        cell("fock.moments.pure", n, lambda: fock.angular_moments(pure, x_axis))
        cell("statespec.parse_build", n, lambda: statespec.parse_state_text(text).build())
        cell("cli.witness_coherent", n, lambda: cli_witness(str(path)))

        dense_layers = ("separable.build", "fock.eig", "fock.generator", "fock.moments.dense",
                        "witnesses.qfi.dense", "scan.one_sample")
        try:
            density = separable.ensemble_to_state(ensemble)
        except SectorTooLarge as exc:
            not_applicable(dense_layers, n, f"SectorTooLarge: {exc}")
            continue
        cell("separable.build", n, lambda: separable.ensemble_to_state(ensemble))
        cell("fock.eig", n, lambda: fock.hermitian_eig(density.matrix))
        cell("fock.generator", n, lambda: fock.generator_matrix(n, x_axis))
        cell("fock.moments.dense", n, lambda: fock.angular_moments(density, x_axis))
        cell("witnesses.qfi.dense", n, lambda: witnesses.qfi(density, z_axis))
        cell("scan.one_sample", n, lambda: scan.run_scan(samples=1, seed=seed, n_total=n))
    return table
