"""Deterministic artifact writers for computed fundamental domains.

Every artifact is rendered from one object, the JSON run record of a
build (`report_dict`): the OFF, OBJ and SVG files are views of the
vertices and faces it lists, so the files of one build always agree, and
a record read back with `json.loads` renders the same bytes again.
Identical inputs must give byte-identical files, so none of the writers
embed timestamps or environment data, floats are printed with %.17g
(value-faithful for doubles), and every file is written atomically via a
temporary file in the target directory followed by os.replace.  Files
get the mode open() gives a new file, 0o666 less the umask.  The domain
types are imported for annotations only, so the format and label helpers
load no numpy.
"""

from __future__ import annotations

import itertools
import os
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .domain import Polyhedron, PairingReport, ConstraintSet

SCHEMA_VERSION = 1

SVG_SIZE = 512
SVG_MARGIN = 16.0

_FACE_STROKE = {"a": "#b03030", "b": "#3050b0", "c": "#30a050"}

_INFINITY = float("inf")


def singularity_label(series: str, k: int) -> str:
    """Arnold normal-form label of the quotient singularity the link bounds."""
    if series == "E":
        return f"E_{4 * k + 10}"
    if series == "Z":
        return f"Z_{4 * k + 9}"
    raise ValueError(f"unknown series {series!r}")


def artifact_basename(series: str, k: int) -> str:
    return f"fund_{series}_k{k}"


def _fmt(x: float) -> str:
    # +0.0 folds negative zero so reruns cannot differ in sign of zero
    return "%.17g" % (float(x) + 0.0)


def _temp_file(directory: str) -> tuple:
    """A new empty file in `directory` under a random name, created as
    open() creates one (mode 0o666 less the umask, where mkstemp gives
    0o600); returns its descriptor and path.  O_EXCL never opens an
    existing file, and O_BINARY (Windows only) keeps newlines as written."""
    path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    return os.open(path, flags, 0o666), path


def check_writable(directory: str) -> None:
    """Create and remove one temporary file in `directory`, as every
    artifact write does; raises OSError where no file can be created."""
    fd, tmp = _temp_file(directory)
    os.close(fd)
    os.unlink(tmp)


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _temp_file(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def off_text(report: dict) -> str:
    """OFF with outward-oriented faces; slab faces carry a trailing comment."""
    counts = report["counts"]
    lines = ["OFF", f"{counts['vertices']} {counts['faces']} {counts['edges']}"]
    for v in report["vertices"]:
        lines.append(" ".join(_fmt(c) for c in v))
    for face in report["faces"]:
        row = f"{len(face['loop'])} " + " ".join(str(i) for i in face["loop"])
        if face["slab"]:
            row += "  # slab"
        lines.append(row)
    return "\n".join(lines) + "\n"


def obj_text(report: dict) -> str:
    lines = []
    for v in report["vertices"]:
        lines.append("v " + " ".join(_fmt(c) for c in v))
    for face in report["faces"]:
        lines.append("g " + face["label"])
        lines.append("f " + " ".join(str(i + 1) for i in face["loop"]))
    return "\n".join(lines) + "\n"


def _element_tuple(g) -> list:
    return [
        float(g.z.real),
        float(g.z.imag),
        float(g.w.real),
        float(g.w.imag),
        float(g.phi),
    ]


def report_dict(
    cs: ConstraintSet,
    poly: Polyhedron,
    pairing_report: PairingReport,
    symmetry_angle,
    edge_cycles,
    reduction,
) -> dict:
    """Full run record; every group element is (Re z, Im z, Re w, Im w, phi)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "series": cs.series,
        "k": cs.k,
        "singularity": singularity_label(cs.series, cs.k),
        # the only reading there is; kept so schema_version 1 files are unchanged
        "p_reading": "tri",
        "signature": [cs.tri.p, cs.tri.q, cs.tri.r],
        "level": {
            "k": cs.config.k,
            "p_tri": cs.config.p_tri,
            "p_lcm": cs.config.p_lcm,
            "lam": cs.config.lam,
            "central_corrections": list(cs.config.central_corrections),
        },
        "counts": {
            "vertices": len(poly.vertices),
            "edges": len(poly.edges),
            "faces": len(poly.faces),
            "euler_characteristic": poly.euler_characteristic,
        },
        "symmetry_angle": None if symmetry_angle is None else float(symmetry_angle),
        "vertices": poly.vertices.tolist(),
        "faces": [
            {"label": f.label, "loop": list(f.loop), "slab": f.is_slab}
            for f in poly.faces
        ],
        "pairings": [
            {
                "face_i": p.face_i,
                "face_j": p.face_j,
                "g1": _element_tuple(p.g1),
                "g2": _element_tuple(p.g2),
                "vertex_map": [list(ab) for ab in p.vertex_map],
                "syllables": p.syllables,
                "word": p.word,
            }
            for p in pairing_report.pairings
        ],
        "unpaired": list(pairing_report.unpaired),
        "edge_cycles": {
            "count": len(edge_cycles),
            "exponents": sorted(set(n for n, _ in edge_cycles)),
            "lengths": sorted(set(steps for _, steps in edge_cycles)),
        },
        "reduction": {
            "alpha": reduction.alpha,
            "R": reduction.R,
            "ell_minus_at_sec": reduction.ell_minus_at_sec,
            "rhs": reduction.rhs,
            "holds": reduction.holds,
            "margin": reduction.margin,
            "orbit_premise_ok": reduction.orbit_premise_ok,
        },
    }


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _number_body(items, inner: str):
    """The body of a list of floats or of ints, or of equally long lists
    of them (vertices, vertex maps), one type throughout, as `json` writes
    it with its items at the indent of inner; None for any other list.
    Each item is one %-format: %r gives a float its `float.__repr__` and
    %d an int its `int.__repr__`.  A float's repr holds an n only as nan
    or inf, and those go item by item."""
    kinds, item = set(map(type, items)), "%s"
    if kinds == {list}:
        size = set(map(len, items))
        if len(size) != 1 or 0 in size:
            return None
        cell = inner + "  "
        item = "[" + cell + ("," + cell).join(["%s"] * size.pop()) + inner + "]"
        kinds = set(map(type, itertools.chain.from_iterable(items)))
        items = map(tuple, items)
    if kinds != {float} and kinds != {int}:
        return None
    item = item.replace("%s", "%r" if float in kinds else "%d")
    text = ("," + inner).join(map(item.__mod__, items))
    return None if "n" in text else text


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _json(o, nl: str) -> str:
    """The text `json.dumps(o, indent=2, sort_keys=True)` writes for o at
    the indent of nl (a newline and the enclosing indent), for what a
    report holds: the exact scalar types, by table, lists, tuples and
    str-keyed dicts.  Anything else raises TypeError."""
    write = _SCALARS.get(type(o))
    if write is not None:
        return write(o)
    if type(o) in (list, tuple):
        return _json_list(o, nl)
    if type(o) is dict:
        return _json_dict(o, nl)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_list(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    body = _number_body(o, inner)
    if body is None:
        body = ("," + inner).join([_json(v, inner) for v in o])
    return "[" + inner + body + nl + "]"


def _json_dict(o, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    items = []
    for k in sorted(o):
        if type(k) is not str:
            raise TypeError(f"keys must be str, not {k.__class__.__name__}")
        v = o[k]
        write = _SCALARS.get(type(v))
        items.append(
            encode_basestring_ascii(k) + ": " + (write(v) if write is not None else _json(v, inner))
        )
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def json_text(report: dict) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)` and a newline, byte
    for byte, without the pure-Python encoder that `indent` selects:
    containers recurse, and each list of numbers, or of equally long
    lists of them, is one join of %-formats (`_number_body`).  Strings go
    through `json`'s own ASCII escaper and NaN and the infinities are
    spelled as `json` spells them.  Only what a report holds is written
    (`_json`): the types `json` rejects, and keys other than str, raise
    TypeError."""
    return _json(report, "\n") + "\n"


def _svg_map(x: float, y: float) -> tuple:
    half = SVG_SIZE / 2.0
    scale = (half - SVG_MARGIN)
    return half + scale * x, half - scale * y


def svg_text(report: dict) -> str:
    """Disc-projection render: side faces only, drawn over the unit circle."""
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    cx, cy = _svg_map(0.0, 0.0)
    r_unit = (SVG_SIZE / 2.0) - SVG_MARGIN
    lines.append(
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{r_unit:.3f}" '
        'fill="none" stroke="#888888" stroke-width="1"/>'
    )
    points = [_svg_map(v[0], v[1]) for v in report["vertices"]]
    for face in report["faces"]:
        if face["slab"]:
            continue
        pts = " ".join(f"{points[i][0]:.3f},{points[i][1]:.3f}" for i in face["loop"])
        stroke = _FACE_STROKE.get(face["label"][0], "#000000")
        lines.append(
            f'<polygon points="{pts}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.2"/>'
        )
    for px, py in points:
        lines.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2" fill="#202020"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


WRITERS = {"off": off_text, "obj": obj_text, "json": json_text, "svg": svg_text}


def parse_formats(text: str) -> tuple:
    """The formats of a comma-separated list such as "off,json", blank
    entries dropped.  An empty list or an unknown format raises ValueError."""
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    if not formats:
        raise ValueError(f"no artifact format in {text!r}")
    unknown = [fmt for fmt in formats if fmt not in WRITERS]
    if unknown:
        raise ValueError(f"unknown format {unknown[0]!r}")
    return formats


def write_artifacts(out_dir, report: dict, formats=("off", "obj", "json", "svg")):
    """Write the requested artifact files, each rendered from the run
    record `report` and named from its series and level; returns
    {format: path}.  An unknown format raises ValueError before any file
    is written."""
    unknown = [fmt for fmt in formats if fmt not in WRITERS]
    if unknown:
        raise ValueError(f"unknown format {unknown[0]!r}")
    base = artifact_basename(report["series"], report["k"])
    written = {}
    for fmt in formats:
        path = os.path.join(out_dir, f"{base}.{fmt}")
        _write_text(path, WRITERS[fmt](report))
        written[fmt] = path
    return written
