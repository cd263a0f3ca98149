"""Batched evolution maps: bit-identical to the one-window product, one
exponential per distinct factor, each factor freed after its last use."""

import sys
import weakref

import numpy as np
import pytest

import qmflow
from qmflow import (
    StepFunction,
    evolution_map,
    flow_matrix_element,
    kernel_cp_residual,
    matrix_exponential,
    parse_config,
    point_generator,
    rng_for,
    run_suite,
    schur_product_check,
)
from qmflow import flows
from qmflow.flows import _as_step, _evolution_maps, _segments
from qmflow.suite import _random_step, _split_pieces


def reference_map(sm, f, g, start, end, mode):
    """The ordered product with one fresh exponential per segment."""
    total = np.eye(sm.theta_zero.shape[0], dtype=complex)
    for a, b in _segments(f, g, start, end):
        mid = 0.5 * (a + b)
        k = point_generator(sm, f.value_at(mid), g.value_at(mid), mode)
        total = total @ matrix_exponential(k, b - a)
    return total


def segment_keys(f, g, start, end):
    """The bits of (f0, g0, length) of every segment (so -0.0 != 0.0)."""
    keys = []
    for a, b in _segments(f, g, start, end):
        mid = 0.5 * (a + b)
        keys.append(np.array([f.value_at(mid), g.value_at(mid), b - a]).tobytes())
    return keys


@pytest.fixture()
def expm_calls(monkeypatch):
    """Count matrix_exponential calls made through every qmflow binding."""
    calls = []

    def counted(m, t=1.0):
        calls.append(t)
        return matrix_exponential(m, t)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qmflow" or name.startswith("qmflow.")):
            for key, value in list(vars(mod).items()):
                if value is matrix_exponential:
                    monkeypatch.setattr(mod, key, counted)
    return calls


F = StepFunction(((0.0, 0.7, 0.3 - 0.2j), (0.9, 1.6, -0.5 + 0.4j)))
G = StepFunction(((0.2, 1.1, 0.6 + 0.1j), (1.1, 1.9, 0.2 - 0.7j)))


def batch_windows():
    return [
        (F, G, 0.1, 1.8),                                  # crossing breakpoints
        (F, G, 0.0, 2.0),
        (F, G, 0.0, 1.0), (F, G, 1.0, 2.0),                # pieces of the last one
        (_split_pieces(F), _split_pieces(G), 0.0, 2.0),    # split pieces
        (F, StepFunction.zero(), 0.5, 1.8),                # zero gap in f
        (StepFunction.zero(), StepFunction.zero(), 0.0, 0.3),
        (F, G, 1.2, 1.2),                                  # degenerate
        (_as_step(0.4 - 0.3j, (0.0, 0.8)), _as_step(1.0, (0.0, 0.8)), 0.0, 0.8),
        (_as_step(2j, (0.5, 0.5)), _as_step(1.0, (0.5, 0.5)), 0.5, 0.5),
    ]


class TestBitIdentical:
    @pytest.mark.parametrize("model", ["qubit_sm", "glauber_sm"])
    @pytest.mark.parametrize("mode", ["physical", "conservative"])
    def test_batch_equals_reference(self, request, model, mode):
        sm = request.getfixturevalue(model)
        windows = batch_windows()
        got = _evolution_maps(sm, windows, mode)
        assert len(got) == len(windows)
        for (f, g, s, t), m in zip(windows, got):
            want = reference_map(sm, f, g, s, t, mode)
            assert np.array_equal(m, want), (s, t)
            assert np.array_equal(evolution_map(sm, f, g, s, t, mode), want), (s, t)

    def test_signed_zero_is_a_distinct_key(self, qubit_sm, expm_calls):
        # -0.0 and 0.0 give the same generator but are kept apart on purpose
        f = StepFunction.indicator(0.0, 1.0, complex(-0.0, 0.0))
        g = StepFunction.indicator(0.0, 1.0, 0.0)
        _evolution_maps(qubit_sm, [(f, g, 0.0, 1.0), (g, g, 0.0, 1.0)])
        assert len(expm_calls) == 2


class TestCallCounts:
    def test_flow_group(self, expm_calls):
        run_suite(parse_config({}), groups=("flow",))
        assert len(expm_calls) == 2044

    def test_composition_batch_one_call_per_distinct_key(self, glauber_sm, expm_calls):
        rng = rng_for(0, "flow-composition")
        shared = 0
        for _ in range(10):
            f, g = _random_step(rng), _random_step(rng)
            windows = [(f, g, 0.0, 2.0), (f, g, 0.0, 1.0), (f, g, 1.0, 2.0),
                       (_split_pieces(f), _split_pieces(g), 0.0, 2.0)]
            keys = [k for w in windows for k in segment_keys(*w)]
            expm_calls.clear()
            _evolution_maps(glauber_sm, windows)
            assert len(expm_calls) == len(set(keys))
            shared += len(keys) - len(set(keys))
        assert shared > 0

    def test_flow_matrix_element_one_call_per_segment(self, glauber_sm, expm_calls):
        x = np.eye(glauber_sm.dim)
        flow_matrix_element(glauber_sm, F, G, 0.1, 1.8, x)
        assert len(expm_calls) == len(_segments(F, G, 0.1, 1.8)) == 6

    def test_gram_tables_share_one_batch(self, glauber_sm, expm_calls):
        fs = [F, G, 1.0]
        xs = [np.eye(glauber_sm.dim)] * 3
        steps = [_as_step(f, (0.0, 0.4)) for f in fs]
        keys = {k for t in (0.4, 0.3) for fj in steps for fk in steps
                for k in segment_keys(fj, fk, 0.0, t)}
        schur_product_check(glauber_sm, fs, xs, 0.4, 0.3)
        assert len(expm_calls) == len(keys)


class TestLastUse:
    def test_no_factor_outlives_its_last_use(self, qubit_sm, monkeypatch):
        refs = []

        def watched(m, t=1.0):
            assert all(r() is None for r in refs), "an earlier factor is still alive"
            out = matrix_exponential(m, t)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(flows, "matrix_exponential", watched)
        windows = [(F, G, 0.1, 1.8), (G, F, 0.0, 2.0)]
        keys = [k for w in windows for k in segment_keys(*w)]
        assert len(keys) == len(set(keys))
        _evolution_maps(qubit_sm, windows)
        assert len(refs) == len(keys)
        assert all(r() is None for r in refs)

    def test_repeated_factor_lives_until_its_last_use(self, qubit_sm, monkeypatch):
        refs, alive = [], []

        def watched(m, t=1.0):
            alive.append([r() is not None for r in refs])
            out = matrix_exponential(m, t)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(flows, "matrix_exponential", watched)
        f = StepFunction(((0.0, 0.5, 1.0), (1.0, 1.5, 1.0)))
        # [0, 0.5) and [1, 1.5) share one factor, which the second window
        # uses again: it is alive when the [0.5, 1) factor is computed
        maps = _evolution_maps(qubit_sm, [(f, f, 0.0, 1.5), (f, f, 0.0, 0.5)])
        assert alive == [[], [True]]
        assert all(r() is None for r in refs)
        assert np.array_equal(maps[0], reference_map(qubit_sm, f, f, 0.0, 1.5, "physical"))


class TestMessages:
    def test_reversed_window(self, qubit_sm):
        with pytest.raises(ValueError, match=r"^window is reversed: \[1\.0, 0\.5\]$"):
            evolution_map(qubit_sm, F, G, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"^window is reversed: \[2\.0, 1\.0\]$"):
            _evolution_maps(qubit_sm, [(F, G, 0.0, 1.0), (F, G, 2.0, 1.0)])

    def test_negative_window_length(self, qubit_sm):
        xs = [np.eye(2)] * 2
        with pytest.raises(ValueError, match=r"^window length must be nonnegative, got -0\.1$"):
            kernel_cp_residual(qubit_sm, [F, 1.0], xs, -0.1)
        with pytest.raises(ValueError, match=r"^window length must be nonnegative, got -0\.3$"):
            schur_product_check(qubit_sm, [F, 1.0], xs, 0.4, -0.3)

    def test_batch_routine_stays_private(self):
        assert "_evolution_maps" not in flows.__all__
        assert not hasattr(qmflow, "_evolution_maps")
