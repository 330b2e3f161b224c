from xml.etree import ElementTree

from v2ibeam.plotting import svg_line_chart

SVG = "{http://www.w3.org/2000/svg}"


def test_chart_text_is_escaped():
    """Markup characters in the title, axis labels and series names are
    written as text, so the chart stays well-formed and reads back as given."""
    chart = svg_line_chart({"x < y & z": [(0.0, 1.0), (1.0, 0.5)]}, title="R&D <a>",
                           x_label="t > 0 & s", y_label="<NMSE>")
    texts = [t.text for t in ElementTree.fromstring(chart).iter(f"{SVG}text")]
    assert texts[0] == "R&D <a>"
    assert {"x < y & z", "t > 0 & s", "<NMSE>"} <= set(texts)
