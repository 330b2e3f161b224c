"""One spelling rule for numbers written as strings: a codebook number and a
results-CSV cell read back only as repr() spells them."""

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam.harness import CSV_COLUMNS, records_from_csv
from v2ibeam.inputs import _decimal

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _results_csv(x_true: str) -> str:
    """A one-row results CSV whose x_true cell is x_true."""
    cells = {"trial": "0", "step": "1", "alpha_hat": "", "beam_index": "",
             "gain_norm": "", "rate_bps_hz": "", "x_true": x_true}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerow([cells.get(name, "0.5") for name in CSV_COLUMNS])
    return buf.getvalue()


def _respellings(text: str) -> list[str]:
    """Other spellings of the same float that float() takes: a leading '+',
    surrounding spaces, '_' between digits, an upper-case 'E' and an extra
    trailing zero."""
    mantissa, e, exponent = text.partition("e")
    out = [" " + text, text + " ", " " + text + " "]
    if not text.startswith("-"):
        out.append("+" + text)
    out += [text[:i] + "_" + text[i:] for i in range(1, len(text))
            if text[i - 1].isdigit() and text[i].isdigit()][:1]
    if e:
        out.append(mantissa + "E" + exponent)
    out.append(mantissa + ("0" if "." in mantissa else ".0") + e + exponent)
    return out


@settings(max_examples=300, deadline=None)
@given(x=_finite)
def test_repr_of_a_finite_float_reads_back_bit_for_bit(x):
    text = repr(x)
    assert _decimal(text).hex() == x.hex()
    assert float(records_from_csv(_results_csv(text)).columns["x_true"][0]).hex() == x.hex()


@settings(max_examples=300, deadline=None)
@given(x=_finite)
def test_every_other_spelling_float_takes_is_rejected(x):
    for text in _respellings(repr(x)):
        assert float(text) == x  # a spelling float() takes, of the same value
        with pytest.raises(TypeError, match="repr"):
            _decimal(text)
        with pytest.raises(ValueError, match="bad x_true cell"):
            records_from_csv(_results_csv(text))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_nan_and_inf_are_no_codebook_number_but_a_results_csv_cell(text):
    with pytest.raises(TypeError, match="finite"):
        _decimal(text)
    cell = records_from_csv(_results_csv(text)).columns["x_true"][0]
    assert repr(float(cell)) == text
