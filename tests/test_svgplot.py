"""Tests for the deterministic SVG line-plot renderer."""

import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilqr import ConfigError, NumericError, PlotStyle, Series, render_svg
from tilqr.svgplot import HEIGHT, PALETTE, WIDTH, _axis_range, _tick_label, _ticks


def simple_series(n: int = 1):
    return [Series(label=f"series {i}", xs=tuple(range(5)),
                   ys=tuple(float(i + j * j) for j in range(5)))
            for i in range(n)]


class TestSeries:
    def test_coerces_samples_to_float_tuples(self):
        s = Series(label="a", xs=[1, 2], ys=np.array([3.0, 4.5]))
        assert s.xs == (1.0, 2.0)
        assert s.ys == (3.0, 4.5)
        assert isinstance(s.xs, tuple)

    def test_rejects_empty_series(self):
        with pytest.raises(ConfigError, match="empty"):
            Series(label="a", xs=(), ys=())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError, match="2 x values"):
            Series(label="a", xs=(1.0, 2.0), ys=(1.0,))


class TestAxisRange:
    def test_pads_by_four_percent(self):
        assert _axis_range([0.0, 10.0]) == (-0.4, 10.4)

    def test_constant_series_spans_a_unit_either_side(self):
        assert _axis_range([3.0, 3.0, 3.0]) == (2.0, 4.0)


class TestTicks:
    def test_unit_interval_uses_fifths(self):
        assert np.allclose(_ticks(0.0, 1.0), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_decade_uses_twos(self):
        assert np.allclose(_ticks(0.0, 10.0), [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])

    def test_ticks_need_not_include_the_endpoints(self):
        assert np.allclose(_ticks(-1.3, 2.7), [-1.0, 0.0, 1.0, 2.0])

    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
    def test_ladder_properties(self, lo, span):
        hi = lo + span
        ticks = _ticks(lo, hi)
        # rungs sit within a factor 2.5 of each other, so the window always
        # contains at least two multiples and never more than seven
        assert 2 <= len(ticks) <= 7
        # k*step rounding leaves ulp-scale wobble when |ticks| >> step
        scale = max(1.0, max(abs(t) for t in ticks))
        step = ticks[1] - ticks[0]
        assert np.allclose(np.diff(ticks), step, rtol=0.0, atol=1e-12 * scale)
        mantissa = step / 10.0 ** math.floor(math.log10(step))
        # recovering the step by subtraction cancels, so tolerate ulp(scale)
        tol = 1e-9 + 16 * np.finfo(float).eps * scale / step
        assert min(abs(mantissa - m) for m in (1.0, 2.0, 5.0, 10.0)) < tol
        assert ticks[0] >= lo - 1e-8 * scale
        assert ticks[-1] <= hi + 1e-8 * scale

    @pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-1.7e308, 1.7e308)])
    def test_a_range_with_no_finite_step_raises_without_a_warning(self, lo, hi):
        # the step underflowed to zero or overflowed, and the tick indices
        # came out as NaN or infinity: a crash with a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^no tick step fits the axis range \["):
                _ticks(lo, hi)

    def test_labels_snap_ladder_roundoff(self):
        assert _tick_label(0.30000000000000004) == "0.3"
        assert _tick_label(2.0) == "2"
        assert _tick_label(-0.5) == "-0.5"


class TestRenderSvg:
    def test_byte_identical_for_identical_inputs(self):
        style = PlotStyle(title="t", x_label="x", y_label="y", header="h")
        first = render_svg(simple_series(3), style)
        second = render_svg(simple_series(3), style)
        assert first == second
        assert first.startswith('<?xml version="1.0"')
        assert first.endswith("</svg>\n")

    def test_output_is_well_formed_xml_on_the_fixed_canvas(self):
        root = ET.fromstring(render_svg(simple_series(2), PlotStyle(title="T")))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.attrib["width"] == str(WIDTH)
        assert root.attrib["height"] == str(HEIGHT)

    def test_one_polyline_and_legend_entry_per_series(self):
        svg = render_svg(simple_series(3))
        assert svg.count("<polyline") == 3
        for i in range(3):
            assert f"series {i}" in svg
            assert PALETTE[i] in svg

    def test_palette_cycles_past_eight_series(self):
        svg = render_svg(simple_series(9))
        assert svg.count(PALETTE[0]) == 2 * svg.count(PALETTE[1])

    def test_requires_at_least_one_series(self):
        with pytest.raises(ConfigError, match="no series"):
            render_svg([])

    def test_non_finite_values_listed_by_index(self):
        bad = Series(label="b", xs=(0.0, 1.0, 2.0, 3.0),
                     ys=(0.0, math.nan, 1.0, math.inf))
        with pytest.raises(NumericError, match=r"indices \[1, 3\]"):
            render_svg([bad])

    def test_long_bad_index_lists_are_truncated(self):
        bad = Series(label="b", xs=tuple(range(30)), ys=(math.nan,) * 30)
        with pytest.raises(NumericError, match=r"\+10 more"):
            render_svg([bad])

    def test_labels_and_titles_are_escaped(self):
        series = [Series(label="a<b&c>d", xs=(0.0, 1.0), ys=(0.0, 1.0))]
        svg = render_svg(series, PlotStyle(title="x & y"))
        assert "a&lt;b&amp;c&gt;d" in svg
        assert "x &amp; y" in svg
        ET.fromstring(svg)

    def test_header_becomes_a_safe_xml_comment(self):
        style = PlotStyle(header="line one\nvalue -- with dashes")
        svg = render_svg(simple_series(1), style)
        body = svg.split("<!--\n", 1)[1].split("\n-->", 1)[0]
        assert body == "line one\nvalue - - with dashes"
        assert "--" not in body
        ET.fromstring(svg)

    def test_no_header_no_comment(self):
        assert "<!--" not in render_svg(simple_series(1))

    def test_optional_titles_are_omitted_when_blank(self):
        plain = render_svg(simple_series(1))
        titled = render_svg(simple_series(1),
                            PlotStyle(title="T", x_label="X", y_label="Y"))
        assert plain.count("<text") + 3 == titled.count("<text")

    def test_constant_series_renders_with_the_degenerate_range_rule(self):
        flat = [Series(label="flat", xs=(0.0, 1.0, 2.0), ys=(3.0, 3.0, 3.0))]
        svg = render_svg(flat)
        for label in ("2", "2.5", "3", "3.5", "4"):
            assert f">{label}</text>" in svg
