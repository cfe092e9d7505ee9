"""Tests for utility modules: rng, math helpers, table rendering."""

import math

import numpy as np
import pytest

from repro.utils.math import harmonic_number, log_ratio
from repro.utils.rng import ensure_rng
from repro.utils.tables import TextTable


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_seed_sequence(self):
        rng = ensure_rng(np.random.SeedSequence(5))
        assert isinstance(rng, np.random.Generator)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestMath:
    def test_harmonic_small(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_harmonic_zero(self):
        assert harmonic_number(0) == 0.0

    def test_harmonic_large_matches_asymptotic(self):
        direct = float(np.sum(1.0 / np.arange(1, 100_001)))
        assert harmonic_number(100_000) == pytest.approx(direct, rel=1e-12)

    def test_harmonic_continuity_at_crossover(self):
        # The exact/asymptotic switch at 256 must be seamless.
        exact = float(np.sum(1.0 / np.arange(1, 257)))
        assert harmonic_number(256) == pytest.approx(exact, rel=1e-10)

    def test_harmonic_negative(self):
        with pytest.raises(ValueError):
            harmonic_number(-1)

    def test_log_ratio(self):
        assert log_ratio(1.0, 0.1) == pytest.approx(math.log(10))
        with pytest.raises(ValueError):
            log_ratio(0.0, 1.0)


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"])
        table.add_row(name="alpha", value=1)
        table.add_row(name="b", value=2.5)
        rendered = table.render()
        lines = rendered.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned
        assert "alpha" in rendered
        assert "2.500" in rendered

    def test_float_format(self):
        table = TextTable(["x"], float_format=".1f")
        table.add_row(x=3.14159)
        assert "3.1" in table.render()

    def test_none_renders_dash(self):
        table = TextTable(["x"])
        table.add_row(x=None)
        assert "-" in table.render()

    def test_bool_rendering(self):
        table = TextTable(["ok"])
        table.add_row(ok=True)
        assert "yes" in table.render()

    def test_title(self):
        table = TextTable(["x"], title="My Table")
        table.add_row(x=1)
        assert table.render().startswith("### My Table")

    def test_unknown_column_rejected(self):
        table = TextTable(["x"])
        with pytest.raises(ValueError):
            table.add_row(y=1)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TextTable(["x", "x"])

    def test_extend_and_len(self):
        table = TextTable(["x"])
        table.extend([{"x": 1}, {"x": 2}])
        assert len(table) == 2

    def test_mapping_plus_kwargs(self):
        table = TextTable(["a", "b"])
        table.add_row({"a": 1}, b=2)
        assert table.rows[0] == {"a": 1, "b": 2}

    def test_empty_table_renders_header(self):
        table = TextTable(["col"])
        assert "col" in table.render()
