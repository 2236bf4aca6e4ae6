"""One input budget: MAX_EXPANDED_SIZE = 2^22 amplitudes, worked out from
the input and checked before any amplitude row is built, bounds every
state file and every scan."""

import pytest

from bosewit import scan, separable, witnesses
from bosewit.cli import main
from bosewit.separable import CoherentSpinState, NumberDistribution
from bosewit.statespec import parse_state_text

TS = "2026-01-01T00:00:00+00:00"


@pytest.fixture
def no_rows(monkeypatch):
    """Make every binding of _coherent_rows, and the scan's draws (after
    which a scan with K <= N + 1 builds no row at all), raise, so that an
    input built before its size check fails the test."""

    def refuse(*_):
        raise AssertionError("amplitude rows or draws built before the size check")

    for module in (separable, witnesses):
        monkeypatch.setattr(module, "_coherent_rows", refuse)
    monkeypatch.setattr(scan, "_draw_chunk", refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pure_sector(n: int) -> str:
    return f"sector:\n    weight = 0.2\n    n = {n}\n    kind = coherent_spin\n    z = 0.5\n"


def _components(count: int, indent: str = "") -> str:
    weight = 1.0 / count
    return "".join(
        f"{indent}component:\n{indent}    weight = {weight!r}\n{indent}    z = 0.5\n"
        for _ in range(count)
    )


def _files():
    million = 10**6
    sectors = "kind = fluctuating\n" + "".join(_pure_sector(million - i) for i in range(5))
    # the fifth sector takes 999997 amplitudes past the 3999998 of the first four
    yield "sectors", sectors, 22, "the state expands into 4999995 amplitudes"
    # 4 components of 10^6 + 1 amplitudes fit in 2^22; the fifth does not
    mixture = f"kind = mixture\nn = {million}\n" + _components(5)
    yield "mixture", mixture, 15, "the state expands into 5000005 amplitudes"
    # a pure sector, then a mixture sector whose fourth component passes
    mixed = (
        "kind = fluctuating\n"
        + _pure_sector(million).replace("0.2", "0.5")
        + f"sector:\n    weight = 0.5\n    n = {million - 1}\n"
        + _components(4, "    ")
    )
    yield "mixed", mixed, 19, "the state expands into 5000001 amplitudes"
    # a mixture may hold no more particles than a pure state
    yield "particles", "kind = mixture\nn = 1000001\n" + _components(1), 2, (
        "'n' must be <= 1000000 for a mixture state; got 1000001"
    )


@pytest.mark.parametrize("name,text,line,message", list(_files()), ids=[f[0] for f in _files()])
def test_state_files_past_the_budget_exit_2_at_the_offending_block(
    name, text, line, message, tmp_path, capsys, no_rows
):
    path = tmp_path / f"{name}.state"
    path.write_text(text)
    code, out, err = run_cli(capsys, "witness", "--state", str(path))
    assert (code, out) == (2, "")
    assert f"{path}:{line}:" in err and message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["--fluctuating", "binomial:256,0.5", "--components", "1000"],
            "a sample of 257 sectors x 1000 components expands into 33153000 amplitudes",
        ),
        (["--n", "2896"], "csi order m = 1448 at max N = 2896 expands into 4194856 amplitudes"),
        (["--n", "1000001", "--components", "1"], "n_total must be at most 1000000"),
    ],
    ids=["sample-amplitudes", "orders", "particles"],
)
def test_scans_past_the_budget_exit_2_before_any_row(argv, message, capsys, no_rows):
    code, out, err = run_cli(capsys, "scan-separable", "--samples", "1", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_scan_budget_is_inclusive(no_rows):
    # m (N + 1) = 1024 * 4096 = 2^22 exactly reaches the draws
    with pytest.raises(AssertionError, match="built before the size check"):
        scan.run_scan(samples=1, seed=1, n_total=4095, csi_orders=(1024,))
    with pytest.raises(ValueError, match="expands into 4198400 amplitudes"):
        scan.run_scan(samples=1, seed=1, n_total=4095, csi_orders=(1025,))
    # K (N + 1) summed over the sectors, the rule of state files: one
    # sector of 1000 * 4194 fits, 1000 * 4195 does not
    with pytest.raises(AssertionError, match="built before the size check"):
        scan.run_scan(samples=1, seed=1, n_total=4193, n_components=1000, csi_orders=(1,))
    with pytest.raises(ValueError, match="expands into 4195000 amplitudes"):
        scan.run_scan(samples=1, seed=1, n_total=4194, n_components=1000, csi_orders=(1,))
    # and 4 components over the sectors 0..1446 of binomial:1446,0.5 take
    # 4 * 1447 * 1448 / 2 = 4190512; those of binomial:1447,0.5 take 4196304
    with pytest.raises(AssertionError, match="built before the size check"):
        scan.run_scan(samples=1, seed=1, distribution=NumberDistribution.binomial(1446, 0.5))
    with pytest.raises(ValueError, match="expands into 4196304 amplitudes"):
        scan.run_scan(samples=1, seed=1, distribution=NumberDistribution.binomial(1447, 0.5))


def test_mixture_file_past_256_builds_its_components(tmp_path, capsys):
    text = (
        "kind = mixture\nn = 300\n"
        "component:\n    weight = 0.25\n    z = 0.2\n"
        "component:\n    weight = 0.75\n    z = 0.7\n    phi = 1.0\n"
    )
    state = parse_state_text(text).build()
    # ensemble_to_state refuses N = 300; the file is held as its components
    assert state.components == (
        (0.25, CoherentSpinState(0.2, 0.0, 300)),
        (0.75, CoherentSpinState(0.7, 1.0, 300)),
    )
    path = tmp_path / "mixture300.state"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "witness", "--state", str(path), "--timestamp", TS)
    assert code == 0 and out

