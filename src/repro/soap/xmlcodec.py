"""Typed Python value <-> XML codec.

Mirrors SOAP section-5 encoding: every element carries an ``xsi:type``-like
``t`` attribute so values round-trip with their types::

    <value t="int">42</value>
    <value t="struct"><member name="a"><value t="string">x</value></member></value>

Supported types: None, bool, int, float, str, date, time, datetime,
list/tuple, dict (string keys).

Encoding builds the text directly: :func:`encode_value` appends string
pieces whose concatenation is byte-for-byte what ``ET.tostring`` writes
for the same element tree — its escaping, its ``<tag t="null" />``
self-closing form — except that ``\\r`` in text is written as ``&#13;``
so it survives the parser (see :func:`escape_text`).  Decoding walks the
element tree expat builds (:func:`decode_value`): on nested values a
pure-Python parser is slower than expat, so the wire format has one
writer and one reader.
"""

from __future__ import annotations

import datetime as _dt
import xml.etree.ElementTree as ET
from typing import Any

from repro.soap.errors import EncodingError

_DATETIME_FMT = "%Y-%m-%dT%H:%M:%S.%f"
_DATE_FMT = "%Y-%m-%d"
_TIME_FMT = "%H:%M:%S.%f"


def escape_text(text: str) -> str:
    """Character data: ElementTree's escaping, plus ``\\r`` as ``&#13;``.

    A bare ``\\r`` (and ``\\r\\n``) in text reaches the reader as ``\\n``:
    XML parsers normalize line ends.  A character reference does not.
    """
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def escape_attr(text: str) -> str:
    """An attribute value, escaped exactly as ElementTree escapes it."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def encode_value(out: list[str], value: Any, tag: str = "value") -> None:
    """Append *value*, as one typed ``<tag>`` element, to the pieces in *out*."""
    if value is None:
        out.append("<" + tag + ' t="null" />')
        return
    if isinstance(value, bool):
        kind, text = "boolean", "1" if value else "0"
    elif isinstance(value, int):
        kind, text = "int", str(value)
    elif isinstance(value, float):
        kind, text = "double", repr(value)
    elif isinstance(value, str):
        kind, text = "string", escape_text(value)
    elif isinstance(value, _dt.datetime):
        kind, text = "dateTime", value.strftime(_DATETIME_FMT)
    elif isinstance(value, _dt.date):
        kind, text = "date", value.strftime(_DATE_FMT)
    elif isinstance(value, _dt.time):
        kind, text = "time", value.strftime(_TIME_FMT)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("<" + tag + ' t="array" />')
            return
        out.append("<" + tag + ' t="array">')
        for item in value:
            encode_value(out, item, "item")
        out.append("</" + tag + ">")
        return
    elif isinstance(value, dict):
        if not value:
            out.append("<" + tag + ' t="struct" />')
            return
        out.append("<" + tag + ' t="struct">')
        for key, item in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"struct keys must be strings, got {key!r}")
            out.append('<member name="' + escape_attr(key) + '">')
            encode_value(out, item)
            out.append("</member>")
        out.append("</" + tag + ">")
        return
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    # ``+``, not an f-string: a str subclass (an enum) must contribute
    # its characters, never its ``__format__``.
    if text:
        out.append("<" + tag + ' t="' + kind + '">' + text + "</" + tag + ">")
    else:
        out.append("<" + tag + ' t="' + kind + '" />')


def decode_value(element: ET.Element) -> Any:
    """Inverse of :func:`encode_value`, over the parsed element."""
    kind = element.get("t")
    text = element.text or ""
    if kind == "null":
        return None
    if kind == "boolean":
        return text == "1"
    if kind == "int":
        return int(text)
    if kind == "double":
        return float(text)
    if kind == "string":
        return text
    if kind == "dateTime":
        return _dt.datetime.strptime(text, _DATETIME_FMT)
    if kind == "date":
        return _dt.datetime.strptime(text, _DATE_FMT).date()
    if kind == "time":
        return _dt.datetime.strptime(text, _TIME_FMT).time()
    if kind == "array":
        return [decode_value(child) for child in element]
    if kind == "struct":
        out: dict[str, Any] = {}
        for member in element:
            name = member.get("name")
            if name is None or len(member) != 1:
                raise EncodingError("malformed struct member")
            out[name] = decode_value(member[0])
        return out
    raise EncodingError(f"unknown encoded type {kind!r}")
