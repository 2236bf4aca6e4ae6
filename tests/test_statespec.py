import math
import textwrap

import numpy as np
import pytest

from bosewit.errors import StateSpecError
from bosewit.fock import FockVector, NumberSectorMixture, SectorDensity, twin_fock
from bosewit.separable import (
    CoherentSpinState,
    FluctuatingEnsemble,
    SeparableEnsemble,
    ensemble_to_state,
    to_fock,
)
from bosewit.statespec import parse_state_file, parse_state_text


def parse(text):
    return parse_state_text(textwrap.dedent(text), source="sample.state")


def test_twin_fock_round_trip():
    spec = parse(
        """\
        # balanced pair source
        kind = twin_fock
        n = 20
        """
    )
    assert spec.kind == "twin_fock"
    assert spec.describe() == "twin_fock(n=20)"
    state = spec.build()
    assert isinstance(state, FockVector)
    np.testing.assert_allclose(state.amplitudes, twin_fock(20).amplitudes)


def test_coherent_spin_defaults_and_build():
    spec = parse(
        """\
        kind = coherent_spin
        n = 50
        z = 0.3
        """
    )
    assert spec.params["phi"] == 0.0
    state = spec.build()
    # held as its one product component, whose rows are to_fock's
    assert isinstance(state, SeparableEnsemble)
    assert state.components == ((1.0, CoherentSpinState(0.3, 0.0, 50)),)
    expected = to_fock(CoherentSpinState(0.3, 0.0, 50))
    np.testing.assert_allclose(ensemble_to_state(state).vectors[0], expected.amplitudes, atol=1e-14)


def test_coherent_spin_phase_wrapping():
    spec = parse(
        """\
        kind = coherent_spin
        n = 4
        z = 0.5
        phi = 7.0
        """
    )
    assert -np.pi <= spec.params["phi"] <= np.pi
    assert spec.params["phi"] == pytest.approx(7.0 - 2 * np.pi)


def test_dicke_build():
    spec = parse(
        """\
        kind = dicke
        n = 6
        k = 2
        """
    )
    state = spec.build()
    assert state.amplitudes[2] == 1.0
    assert state.n_total == 6


def test_mixture_builds_density():
    spec = parse(
        """\
        kind = mixture
        n = 10
        component:
            weight = 0.5
            z = 0.1
        component:
            weight = 0.5
            z = 0.9
            phi = 1.0
        """
    )
    state = spec.build()
    assert isinstance(state, SeparableEnsemble)
    assert state.n_total == 10
    density = ensemble_to_state(state)
    assert isinstance(density, SectorDensity)
    assert np.trace(density.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_mixture_weight_renormalization_within_tolerance():
    spec = parse(
        """\
        kind = mixture
        n = 4
        component:
            weight = 0.4999999997
            z = 0.2
        component:
            weight = 0.5
            z = 0.7
        """
    )
    weights = [w for w, _, _ in spec.params["components"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-15)
    spec.build()


def test_fluctuating_explicit_sectors():
    spec = parse(
        """\
        kind = fluctuating
        sector:
            weight = 0.1
            n = 4
            kind = twin_fock
        sector:
            weight = 0.9
            n = 20
            component:
                weight = 0.5
                z = 0.1
            component:
                weight = 0.5
                z = 0.9
        """
    )
    state = spec.build()
    assert isinstance(state, NumberSectorMixture)
    numbers = [s.n_total for _, s in state.sectors]
    assert numbers == [4, 20]
    assert state.mean_n == pytest.approx(0.1 * 4 + 0.9 * 20)


def test_fluctuating_poisson_distribution():
    spec = parse(
        """\
        kind = fluctuating
        distribution:
            kind = poisson
            mean = 6.0
        z = 0.3
        """
    )
    state = spec.build()
    assert isinstance(state, FluctuatingEnsemble)
    assert state.mean_n == pytest.approx(6.0, abs=1e-6)
    total = sum(w for _, w in state.number_weights)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_fluctuating_binomial_and_deterministic():
    spec = parse(
        """\
        kind = fluctuating
        distribution:
            kind = binomial
            trials = 4
            prob = 0.5
        z = 0.5
        """
    )
    state = spec.build()
    assert [n for n, _ in state.number_weights] == [0, 1, 2, 3, 4]
    spec = parse(
        """\
        kind = fluctuating
        distribution:
            kind = deterministic
            n = 7
        z = 0.2
        phi = 0.4
        """
    )
    state = spec.build()
    assert state.number_weights == ((7, 1.0),)
    assert state.per_sector[7].n_total == 7


def test_fluctuating_nested_dicke_sector():
    spec = parse(
        """\
        kind = fluctuating
        sector:
            weight = 1.0
            n = 5
            kind = dicke
            k = 3
        """
    )
    state = spec.build()
    sector = state.sectors[0][1]
    probs = sector.occupation_probabilities()
    assert probs[3] == pytest.approx(1.0, abs=1e-12)


def test_error_positions_tab():
    with pytest.raises(StateSpecError) as err:
        parse("kind = twin_fock\n\tn = 4\n")
    assert "sample.state:2:1" in str(err.value)
    assert "tab" in str(err.value)


def test_error_positions_bad_value():
    with pytest.raises(StateSpecError) as err:
        parse(
            """\
            kind = coherent_spin
            n = 50
            z = blue
            """
        )
    assert "sample.state:3" in str(err.value)
    assert "'z'" in str(err.value)


def test_error_positions_unknown_key():
    with pytest.raises(StateSpecError) as err:
        parse(
            """\
            kind = twin_fock
            n = 8
            flavor = up
            """
        )
    assert "sample.state:3" in str(err.value)
    assert "flavor" in str(err.value)


def test_error_unknown_kind():
    with pytest.raises(StateSpecError, match="kind"):
        parse("kind = squeezed\nn = 4\n")


def test_error_odd_twin_fock():
    with pytest.raises(StateSpecError, match="even"):
        parse("kind = twin_fock\nn = 7\n")


def test_error_missing_required_key():
    with pytest.raises(StateSpecError, match="'z'"):
        parse("kind = coherent_spin\nn = 10\n")


def test_error_duplicate_key_position():
    with pytest.raises(StateSpecError) as err:
        parse("kind = twin_fock\nn = 4\nn = 6\n")
    assert "sample.state:3" in str(err.value)
    assert "duplicate" in str(err.value)


def test_error_weight_sum():
    with pytest.raises(StateSpecError, match="sum"):
        parse(
            """\
            kind = mixture
            n = 4
            component:
                weight = 0.3
                z = 0.5
            """
        )


def test_error_bad_indent():
    with pytest.raises(StateSpecError) as err:
        parse(
            """\
            kind = mixture
            n = 4
                z = 0.5
            """
        )
    assert "sample.state:3" in str(err.value)


def test_error_z_range():
    with pytest.raises(StateSpecError, match=r"\[0.0, 1.0\]"):
        parse("kind = coherent_spin\nn = 4\nz = 1.5\n")


def test_error_empty_text():
    with pytest.raises(StateSpecError, match="empty"):
        parse_state_text("# nothing here\n")


def test_error_both_distribution_and_sectors():
    with pytest.raises(StateSpecError, match="not both"):
        parse(
            """\
            kind = fluctuating
            distribution:
                kind = poisson
                mean = 3
            z = 0.5
            sector:
                weight = 1.0
                n = 4
                kind = twin_fock
            """
        )


def test_error_duplicate_sector_number():
    with pytest.raises(StateSpecError, match="duplicate sector"):
        parse(
            """\
            kind = fluctuating
            sector:
                weight = 0.5
                n = 4
                kind = twin_fock
            sector:
                weight = 0.5
                n = 4
                kind = twin_fock
            """
        )


def _in_sector(body):
    """The same lines as the one sector of a fluctuating state, three lines
    further down and four columns further in."""
    return "kind = fluctuating\nsector:\n    weight = 1.0\n" + textwrap.indent(body, "    ")


# The pure-kind cases of the error tests above: (text, message, line of the
# offending key, or None where the error points at the enclosing block).
PURE_KIND_ERRORS = [
    ("kind = twin_fock\nn = 7\n", "twin_fock needs a positive even n; got 7", None),
    ("kind = twin_fock\nn = 8\nflavor = up\n", "unknown key 'flavor' in {context}", 3),
    ("kind = twin_fock\nn = 4\nn = 6\n", "duplicate key 'n'", 3),
    ("kind = coherent_spin\nn = 50\nz = blue\n", "'z' must be a number; got 'blue'", 3),
    ("kind = coherent_spin\nn = 4\nz = 1.5\n", "'z' must lie in [0.0, 1.0]; got 1.5", 3),
    ("kind = coherent_spin\nn = 4\nz = 0.5\nphi = up\n", "'phi' must be a number; got 'up'", 4),
    ("kind = coherent_spin\nn = 10\n", "{context} needs 'z'", None),
    ("kind = dicke\nn = 6\nk = 9\n", "dicke occupation k=9 exceeds n=6", None),
    ("kind = dicke\nn = 6\n", "{context} needs 'k'", None),
    # one above the largest pure-state particle number
    ("kind = twin_fock\nn = 1000001\n", "'n' must be <= 1000000 for a twin_fock state; got 1000001", 2),
    ("kind = coherent_spin\nn = 1000001\nz = 0.5\n", "'n' must be <= 1000000 for a coherent_spin state; got 1000001", 2),
    ("kind = dicke\nn = 1000001\nk = 0\n", "'n' must be <= 1000000 for a dicke state; got 1000001", 2),
]


@pytest.mark.parametrize("text,message,line", PURE_KIND_ERRORS)
def test_pure_kind_errors_read_the_same_in_a_sector(text, message, line):
    with pytest.raises(StateSpecError) as top:
        parse_state_text(text, source="sample.state")
    with pytest.raises(StateSpecError) as sector:
        parse_state_text(_in_sector(text), source="sample.state")
    assert top.value.message == message.format(context="state description")
    assert sector.value.message == message.format(context="sector")
    if line is None:
        assert (top.value.line, top.value.col) == (1, 1)
        assert (sector.value.line, sector.value.col) == (2, 1)
    else:
        assert (top.value.line, top.value.col) == (line, 1)
        assert (sector.value.line, sector.value.col) == (line + 3, 5)


def test_parse_file_and_missing_file(tmp_path):
    path = tmp_path / "tf.state"
    path.write_text("kind = twin_fock\nn = 4\n")
    spec = parse_state_file(str(path))
    assert spec.kind == "twin_fock"
    assert spec.source == str(path)
    with pytest.raises(StateSpecError, match="cannot read"):
        parse_state_file(str(tmp_path / "absent.state"))


def test_pure_state_n_cap_is_inclusive():
    spec = parse_state_text("kind = dicke\nn = 1000000\nk = 3\n")
    assert spec.params["n"] == 10**6


@pytest.mark.parametrize(
    "body,message",
    [
        ("kind = poisson\n    mean = 1e12", "poisson mean 1000000000000.0 reaches N = 1000020000060"),
        ("kind = binomial\n    trials = 1000001\n    prob = 0.5", "binomial trials reaches N = 1000001"),
        ("kind = deterministic\n    n = 1000001", "deterministic n reaches N = 1000001"),
    ],
)
def test_distribution_past_the_particle_cap_is_an_error_at_its_block(body, message):
    text = f"kind = fluctuating\nz = 0.3\ndistribution:\n    {body}\n"
    with pytest.raises(StateSpecError) as error:
        parse_state_text(text, source="big.state")
    assert error.value.message.startswith(message)
    assert (error.value.line, error.value.col) == (3, 1)


def test_distribution_past_the_expanded_size_cap_is_an_error_at_its_block():
    text = "kind = fluctuating\nz = 0.3\ndistribution:\n    kind = binomial\n    trials = 3000\n    prob = 0.5\n"
    with pytest.raises(StateSpecError) as error:
        parse_state_text(text, source="wide.state")
    assert error.value.message.startswith("binomial distribution [3000, 0.5] expands into 4504501 amplitudes")
    assert (error.value.line, error.value.col) == (3, 1)


def test_binomial_distribution_with_many_trials_parses():
    spec = parse_state_text("kind = fluctuating\nz = 0.3\ndistribution:\n    kind = binomial\n    trials = 2000\n    prob = 0.5\n")
    weights = [w for w, _ in spec.params["sectors"]]
    assert len(weights) == 2001 and all(math.isfinite(w) for w in weights)
