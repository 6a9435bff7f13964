"""Pointwise certification engine for the product fractional integral.

Given balanced, tail-admissible exponents, the convolution value at a
grid node is split at radii (r1, r2) into four regions, each bounded
with per-block lattice constants built once per grid and exponents
(:func:`region_tables`): an inner constant A, the Abel sum of the kernel
over the offset shells against dyadic window counts, and a tail constant
T, the Hoelder sum over the offsets outside the radius.  Both offsets
inside: the strong maximal value times A_x A_y; both outside: the L^p
norm times T_x T_y; mixed: the inner block's A against a partial maximal
slice norm, times the outer block's T.

In the continuum A(r) scales as r^a and T(r) as r^(a - d/p).  Choosing
the radii so that those inner and outer bounds coincide (and the two
mixed bounds coincide) collapses everything, via the balance relation
``alpha/m = beta/n = 1/p - 1/q``, into

    case 1 (G f <= M f * ||f||):   M f^(p/q) * ||f||^(1 - p/q)
    case 2 (G f >  M f * ||f||):   G f^(p/q) * ||f||^(1 - 2 p/q)

The lattice bounds hold on the grid as it stands, so a region sum above
its bound beyond floating-point headroom is a hard failure, not a warning.

One call, :func:`certify_points`, certifies a set of nodes of f: it takes
``||f||_p``, M f, n1 and n2 at the nodes
(:func:`~prodhls.maximal.node_maximals`) and the tables, then runs the
bound chain at every node in one array pass.  A tensor product held as
its two block factors (:class:`~prodhls.grid.TensorProduct`) gives the
same inputs from its blocks, with no N^rank array, to one bound chain.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .convolution import RegionBounds, block_region_sums, region_sums
from .grid import (GridFunction, ProductGrid, TensorProduct, check_positive, lp_norm,
                   normalize_points)
from .kernel import Exponents, block_factors, check_blocks, sphere_surface
from .maximal import _dyadic_radii, _window_cells, block_maximals, node_maximals

__all__ = [
    "ExponentError",
    "CertificateViolation",
    "tail_integral_constant",
    "BlockTable",
    "region_tables",
    "region_limits",
    "balanced_radii",
    "final_bound",
    "HedbergCertificate",
    "CertificateTable",
    "certify_points",
]

CERTIFICATE_SCHEMA_VERSION = 1

REGION_NAMES = ("region11", "region12", "region21", "region22")

# relative tolerance of the radius balancing identities that certify_points
# checks against the recorded case
_IDENTITY_TOL = 1e-12


class ExponentError(ValueError):
    """An exponent tuple fails an admissibility condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class CertificateViolation(RuntimeError):
    """A region sum or the mixed collapse exceeded its bound beyond rounding."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _require_admissible(exps: Exponents) -> None:
    if (violation := exps.violation) is not None:
        raise ExponentError(violation, f"exponents fail condition '{violation}'")


def tail_integral_constant(dim: int, decay: float) -> float:
    """Integral of |u|^(-decay) over the complement of the unit ball."""
    if not decay > dim:
        raise ValueError(f"tail decay {decay} must exceed the dimension {dim}")
    return sphere_surface(dim) / (decay - dim)


@dataclass(frozen=True)
class BlockTable:
    """One block's region-bound constants: ``shells`` holds the distinct
    kernel-offset norms, ascending, and entry k of ``inner`` and ``tail``
    the constants A and T at radii with k shells inside (``|x| <= r``, as
    in :func:`~prodhls.convolution.region_sums`)."""

    shells: np.ndarray
    inner: np.ndarray
    tail: np.ndarray

    def at(self, r):
        """A(r) and T(r), for a radius or an array of radii."""
        k = np.searchsorted(self.shells, r, side="right")
        return self.inner[k], self.tail[k]


def _block_table(grid: ProductGrid, dim: int, norm: np.ndarray, factor: np.ndarray,
                 decay: float, p_conjugate: float, side: str) -> BlockTable:
    if not decay > dim:
        raise ExponentError(f"tail_{side}",
                            f"{side}-block tail (d - a) p' = {decay} must exceed d = {dim}")
    N = grid.points_per_axis
    # offset j sits N/2 - j cells from the node on each block axis; count is
    # the divisor of the smallest dyadic window holding it, the first of
    # radius rc with |N/2 - j|^2 < rc^2 (the rule of maximal._window_rows)
    delta = N // 2 - np.indices((N,) * dim).reshape(dim, -1)
    radii = _dyadic_radii(grid)
    cells = np.array([_window_cells(dim, rc) for rc in radii], dtype=np.float64)
    count = cells[np.searchsorted(np.square(radii), np.sum(delta ** 2, axis=0), side="right")]
    shells, at_shell, shell_of = np.unique(norm, return_index=True, return_inverse=True)
    size = np.zeros(shells.size)
    np.maximum.at(size, shell_of, count)
    size = np.maximum.accumulate(size)  # |W_k|: the window holds every shell up to k
    cell = grid.spacing ** dim
    # the Abel sum by parts: shell k adds K(s_k) (|W_k| - |W_{k-1}|)
    inner = np.cumsum(factor[at_shell] * np.diff(size, prepend=0.0))
    tail = np.cumsum(np.bincount(shell_of, weights=factor ** p_conjugate)[::-1])[::-1]
    arrays = {"shells": shells, "inner": np.insert(cell * inner, 0, 0.0),
              "tail": np.append((cell * tail) ** (1.0 / p_conjugate), 0.0)}
    for a in arrays.values():
        a.setflags(write=False)
    return BlockTable(**arrays)


@functools.lru_cache(maxsize=8)
def region_tables(grid: ProductGrid, exps: Exponents) -> tuple[BlockTable, BlockTable]:
    """The x-block and y-block :class:`BlockTable` of ``grid``, built once
    per (grid, exponents) pair (the last few pairs are kept), read-only.

    Over a block's offset shells ``s_1 < s_2 < ...``, with K the kernel
    factor of :func:`~prodhls.kernel.block_factors`::

        A(r) = h^d sum_{s_k <= r} (K(s_k) - K(s_{k+1})) |W_k|
        T(r) = (h^d sum_{|x_j| > r} |x_j|^((a - d) p'))^(1/p')

    K is 0 past the last shell inside r, and ``|W_k|`` is the full cell
    count of the smallest dyadic window of :mod:`prodhls.maximal` holding
    every offset cell of norm at most ``s_k``: by Abel summation an inner
    sum is a positive combination of window sums, each at most ``|W_k|``
    times the maximal value at the node.  Raises ``ExponentError``
    (``tail_x`` or ``tail_y``) for a block whose kernel tail at the dual
    power p' is not integrable.
    """
    x_norm, y_norm, x_factor, y_factor = block_factors(grid, exps)
    pc = exps.p_conjugate
    return (_block_table(grid, exps.m, x_norm, x_factor, exps.tail_exponent_x, pc, "x"),
            _block_table(grid, exps.n, y_norm, y_factor, exps.tail_exponent_y, pc, "y"))


def region_limits(m_value, n1, n2, f_norm, r1, r2,
                  tables: tuple[BlockTable, BlockTable]) -> dict:
    """The bounds of the four region sums at radii (r1, r2), for one node
    or, given arrays, for each node.

    With A and T read from the x-block and y-block ``tables`` of
    :func:`region_tables` at r1 and r2::

        region11 <= A_x A_y M f     region12 <= A_x T_y n1
        region21 <= A_y T_x n2      region22 <= T_x T_y ||f||

    The mixed regions take the inner block's window bound slice by slice,
    which M1 f or M2 f dominates, then Hoelder along the outer block.
    """
    check_positive(m_value=m_value, n1=n1, n2=n2, f_norm=f_norm, r1=r1, r2=r2)
    (a_x, t_x), (a_y, t_y) = tables[0].at(r1), tables[1].at(r2)
    return {"region11": a_x * a_y * m_value, "region12": a_x * t_y * n1,
            "region21": a_y * t_x * n2, "region22": t_x * t_y * f_norm}


def balanced_radii(ratio: float, n1: float, n2: float, exps: Exponents) -> tuple[float, float]:
    """Radii equalizing the inner bound with the outer bound and the two
    mixed bounds with each other.

    ``ratio`` is ``Mf/||f||`` in case 1 and ``Gf/||f||^2`` in case 2.
    Closed forms::

        r1 = [ ratio (n1/n2) ]^(-p/2m)
        r2 = [ ratio (n2/n1) ]^(-p/2n)

    The radii satisfy r1^(-m/p) r2^(-n/p) = ratio and r1^(-m/p) /
    r2^(-n/p) = n1/n2 up to rounding; :func:`certify_points` checks both
    against the case it records.
    """
    check_positive(ratio=ratio, n1=n1, n2=n2)
    b = n1 / n2
    r1 = (ratio * b) ** (-exps.p / (2.0 * exps.m))
    r2 = (ratio / b) ** (-exps.p / (2.0 * exps.n))
    return r1, r2


def final_bound(value: float, f_norm: float, case_id: int, exps: Exponents) -> float:
    """Collapsed pointwise bound ``value^(p/q) ||f||^(1 - case_id p/q)``:
    ``value`` is M f in case 1 and G f in case 2."""
    if case_id not in (1, 2):
        raise ValueError(f"case_id must be 1 or 2, got {case_id!r}")
    e = exps.p / exps.q
    return value ** e * f_norm ** (1.0 - case_id * e)


def _check_json_keys(d, expected, where: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    missing, unknown = sorted(set(expected) - set(d)), sorted(set(d) - set(expected))
    if missing or unknown:
        raise ValueError(f"{where}: missing keys {missing}, unknown keys {unknown}")


def _read_int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _read_float(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v!r}")
    return float(v)


def _read_tuple(read):
    def read_tuple(v, what: str) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{what} must be a list, got {v!r}")
        return tuple(read(x, what) for x in v)
    return read_tuple


def _read_numbers(d, keys, where: str) -> dict[str, float]:
    """A map of ``keys`` to finite numbers >= 0: region sums, limits, slacks."""
    _check_json_keys(d, keys, where)
    numbers = {k: _read_float(v, f"{where}: {k}") for k, v in d.items()}
    for k, v in numbers.items():
        if not v >= 0.0:
            raise ValueError(f"{where}: {k} must be >= 0, got {v!r}")
    return numbers


# JSON value -> field value, by the field's annotation
_READERS = {"tuple[int, ...]": _read_tuple(_read_int),
            "tuple[float, ...]": _read_tuple(_read_float), "int": _read_int,
            "float": _read_float,
            "dict": lambda v, what: _read_numbers(v, REGION_NAMES, "certificate region map"),
            "RegionBounds": lambda v, what: RegionBounds(**_read_numbers(
                v, [f.name for f in fields(RegionBounds)], "certificate regions"))}

# the record's scalars that every certificate has positive and finite
_POSITIVE = ("r1", "r2", "m_value", "n1", "n2", "f_norm", "final_bound")
# schema 1 writes the derived values, and 1.0 as the slack of every region
_DERIVED, _SCHEMA1_SLACKS = ("g_value", "lhs", "ratio"), dict.fromkeys(REGION_NAMES, 1.0)


@dataclass(frozen=True)
class HedbergCertificate:
    """Machine-checkable record of the pointwise bound at one grid node,
    storing each quantity once.

    ``case_id`` is 1 exactly when ``g_value = n1 * n2`` is at most
    ``m_value * f_norm``.  The final bound is ``m_value^(p/q)
    f_norm^(1-p/q)`` in case 1 and ``g_value^(p/q) f_norm^(1-2p/q)`` in
    case 2.  ``regions`` holds the four region sums at the radii
    ``(r1, r2)``, whose total ``lhs`` is the convolution value, and
    ``region_limits`` their lattice bounds.  Schema-1 JSON adds the derived
    ``g_value``, ``lhs`` and ``ratio``, ``schema_version``, and
    ``slack_factors``, 1.0 for every region (readers of ``limit * slack``).
    """

    point: tuple[int, ...]
    point_coordinates: tuple[float, ...]
    case_id: int
    r1: float
    r2: float
    regions: RegionBounds
    m_value: float
    n1: float
    n2: float
    f_norm: float
    final_bound: float
    region_limits: dict

    @property
    def g_value(self) -> float:
        """G f at the node: the product of the two slice norms."""
        return self.n1 * self.n2

    @property
    def lhs(self) -> float:
        """The convolution value at the node: the total of the region sums."""
        return self.regions.total

    @property
    def ratio(self) -> float:
        """Observed lhs / final_bound."""
        return self.lhs / self.final_bound

    def to_json_dict(self) -> dict:
        d = dict(vars(self), regions=vars(self.regions), schema_version=CERTIFICATE_SCHEMA_VERSION,
                 slack_factors=_SCHEMA1_SLACKS, **{k: getattr(self, k) for k in _DERIVED})
        # tuples become lists; the region sums and the mappings become new dicts
        return {k: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
                for k, v in d.items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HedbergCertificate":
        """Parse a schema-1 record.  Raise ``ValueError`` on: missing or
        unknown keys; region maps that are not the four names mapped to
        finite numbers >= 0; a ``slack_factors`` other than 1.0 for every
        region; a ``point`` that is not a list of integers as long as
        ``point_coordinates``; a ``case_id`` other than the integer 1 or 2;
        a scalar given as a string or a boolean, or not finite; an ``r1``,
        ``r2``, ``m_value``, ``n1``, ``n2``, ``f_norm`` or ``final_bound``
        that is not positive; and a ``g_value``, ``lhs`` or ``ratio`` other
        than the one the fields give."""
        if d.get("schema_version") != CERTIFICATE_SCHEMA_VERSION:
            raise ValueError(f"unsupported certificate schema: {d.get('schema_version')}")
        _check_json_keys(d, ["schema_version", "slack_factors", *(f.name for f in fields(cls)),
                             *_DERIVED], "certificate")
        cert = cls(**{f.name: _READERS[f.type](d[f.name], f"certificate {f.name}")
                      for f in fields(cls)})
        if cert.case_id not in (1, 2):
            raise ValueError(f"certificate case_id must be 1 or 2, got {cert.case_id!r}")
        if len(cert.point) != len(cert.point_coordinates):
            raise ValueError(f"certificate point {list(cert.point)} does not match its "
                             f"{len(cert.point_coordinates)} point_coordinates")
        check_positive(**{k: getattr(cert, k) for k in _POSITIVE})
        slacks = _read_numbers(d["slack_factors"], REGION_NAMES, "certificate slack_factors")
        if slacks != _SCHEMA1_SLACKS:
            raise ValueError(f"certificate slack_factors {slacks} must be 1.0 for every region")
        for key in _DERIVED:
            if _read_float(d[key], f"certificate {key}") != getattr(cert, key):
                raise ValueError(f"certificate {key} {d[key]!r} differs from the "
                                 f"{getattr(cert, key)!r} its fields give")
        return cert


# the columns of a CertificateTable, in HedbergCertificate's field order
_COLUMNS = tuple(f.name for f in fields(HedbergCertificate) if f.name != "f_norm")
_COLUMN_DTYPES = {"point": np.int64, "case_id": np.int8}

# one schema-1 record with a %s slot for each value, its keys in the sorted
# order json.dumps(sort_keys=True) writes: case_id, seven floats, the node's
# "point" and "point_coordinates" text, then eleven floats
_RECORD = (
    '{"case_id":%s,"f_norm":%s,"final_bound":%s,"g_value":%s,"lhs":%s,"m_value":%s,"n1":%s,'
    '"n2":%s,%s,"r1":%s,"r2":%s,"ratio":%s,"region_limits":{"region11":%s,"region12":%s,'
    '"region21":%s,"region22":%s},"regions":{"t11":%s,"t12":%s,"t21":%s,"t22":%s},'
    f'"schema_version":{CERTIFICATE_SCHEMA_VERSION},"slack_factors":'
    f'{json.dumps(_SCHEMA1_SLACKS, sort_keys=True, separators=(",", ":"))}}}')


def _json_floats(values: np.ndarray) -> np.ndarray:
    """The JSON text of each float of ``values``, as an object array of its
    shape.  Each distinct bit pattern is written once (so -0.0 and 0.0
    stay apart): by ``repr``, which is what json's encoder writes for a
    finite float, and by json itself otherwise."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    unique, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    unique = unique.view(np.float64)
    texts = np.array(list(map(repr, unique.tolist())), dtype=object)
    if not (finite := np.isfinite(unique)).all():
        texts[~finite] = list(map(json.dumps, unique[~finite].tolist()))
    # the inverse's shape differs between numpy releases: reshape it here
    return texts[inverse.reshape(values.shape)]


@dataclass(frozen=True, eq=False)
class CertificateTable:
    """The certificates of one :func:`certify_points` call as read-only
    columns, one row per node in input order: ``point`` and
    ``point_coordinates`` of shape (K, rank), ``regions`` (t11, t12, t21,
    t22) and ``region_limits`` (region11 to region22) of shape (K, 4),
    every other column of shape (K,), and the ``f_norm`` they share.

    ``table[k]`` and iteration give the rows as :class:`HedbergCertificate`
    views holding the same values as Python numbers, and a table equals a
    table or a list of the same certificates.  The derived columns
    ``g_value``, ``lhs`` and ``ratio`` are the views' values bit for bit.
    """

    point: np.ndarray
    point_coordinates: np.ndarray
    case_id: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    regions: np.ndarray
    m_value: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    final_bound: np.ndarray
    region_limits: np.ndarray
    f_norm: float

    def __post_init__(self) -> None:
        rows = len(self.case_id)
        for name in _COLUMNS:
            # a view, so that freezing it leaves the caller's array writable
            column = np.asarray(getattr(self, name),
                                dtype=_COLUMN_DTYPES.get(name, np.float64)).view()
            if column.shape[:1] != (rows,):
                raise ValueError(f"column {name} of shape {column.shape} does not have "
                                 f"{rows} rows")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "f_norm", float(self.f_norm))

    @classmethod
    def empty(cls, rank: int) -> "CertificateTable":
        """The table of no nodes."""
        column, nodes, regions = np.empty(0), np.empty((0, rank)), np.empty((0, 4))
        return cls(nodes, nodes, column, column, column, regions, column, column, column, column,
                   regions, 0.0)

    def __len__(self) -> int:
        return len(self.case_id)

    def __getitem__(self, k: int) -> HedbergCertificate:
        k = range(len(self))[k]
        return self._rows(slice(k, k + 1))[0]

    def __iter__(self):
        return iter(self._rows(slice(None)))

    def __eq__(self, other):
        if isinstance(other, (CertificateTable, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def _rows(self, rows: slice) -> list[HedbergCertificate]:
        f_norm = self.f_norm
        return [HedbergCertificate(
            point=tuple(point), point_coordinates=tuple(xy), case_id=cid, r1=a, r2=b,
            regions=RegionBounds(*t), m_value=mv, n1=u, n2=v, f_norm=f_norm,
            final_bound=fb, region_limits=dict(zip(REGION_NAMES, lim)))
            for point, xy, cid, a, b, t, mv, u, v, fb, lim in zip(
                *(getattr(self, name)[rows].tolist() for name in _COLUMNS))]

    @property
    def g_value(self) -> np.ndarray:
        return self.n1 * self.n2

    @property
    def lhs(self) -> np.ndarray:
        """The total of each row's region sums, in the order of
        :attr:`RegionBounds.total` (not ``sum``'s pairwise order)."""
        t = self.regions
        return ((t[:, 0] + t[:, 1]) + t[:, 2]) + t[:, 3]

    @property
    def ratio(self) -> np.ndarray:
        return self.lhs / self.final_bound

    def json_nodes(self) -> np.ndarray:
        """Each row's ``"point":[...],"point_coordinates":[...]`` text of
        schema-1 JSON, as an object array."""
        coords = [",".join(xy) for xy in _json_floats(self.point_coordinates).tolist()]
        return np.array([f'"point":[{",".join(map(str, p))}],"point_coordinates":[{xy}]'
                         for p, xy in zip(self.point.tolist(), coords)], dtype=object)

    def json_records(self, nodes: np.ndarray, rows: slice) -> list[str]:
        """The schema-1 record of each row in ``rows``: the text
        ``json.dumps(sort_keys=True, separators=(",", ":"))`` writes for
        ``self[k].to_json_dict()``.  ``nodes`` is :meth:`json_nodes` of this
        table, or of any table with the same nodes."""
        floats = _json_floats(np.column_stack([column[rows] for column in (
            np.full(len(self), self.f_norm), self.final_bound, self.g_value, self.lhs,
            self.m_value, self.n1, self.n2, self.r1, self.r2, self.ratio,
            self.region_limits, self.regions)]))
        cells = np.empty((len(floats), 20), dtype=object)
        cells[:, 0] = [str(c) for c in self.case_id[rows].tolist()]
        cells[:, 1:8] = floats[:, :7]
        cells[:, 8] = nodes[rows]
        cells[:, 9:] = floats[:, 7:]
        return list(map(_RECORD.__mod__, map(tuple, cells.tolist())))


# relative headroom for pure floating-point noise in the hard checks
_CHECK_REL = 1e-9


# the checks of every node, in the order they are reported
_CHECKS = ("radii_balance", *REGION_NAMES, "mixed_collapse")


def _node_inputs(f, exps: Exponents, idx: np.ndarray):
    """What the bound chain reads at the nodes ``idx``: ``||f||_p``, M f,
    n1 and n2, and the region sums as a function of the radii; ``None``
    when f is empty on the grid (see :func:`certify_points`)."""
    p = exps.p
    if isinstance(f, GridFunction):
        if not (f_norm := lp_norm(f, p)) > 0.0:
            return None
        return (f_norm, *node_maximals(f, p, idx),
                functools.partial(region_sums, f, exps, idx))
    norm_x, norm_y = f.block_norms(p)
    # the largest cell of the field a(x) b(y) is max a times max b
    largest = float(f.x.max()) * float(f.y.max())
    if not (norm_x * norm_y > 0.0 and largest ** p * f.grid.cell_volume > 0.0):
        return None
    m_x, m_y = block_maximals(f, idx)
    return (norm_x * norm_y, m_x * m_y, m_x * norm_y, norm_x * m_y,
            functools.partial(block_region_sums, f, exps, idx))


def certify_points(f: GridFunction | TensorProduct, exps: Exponents,
                   points) -> CertificateTable:
    """Run the full pointwise bound chain at every node of ``points`` (one
    multi-index per row) of ``f``, in one array pass: ``f`` is a sampled
    field, or a tensor product ``a(x) b(y)`` held as its two block factors.
    Checks the exponents and the grid blocks, then the nodes.

    Returns one :class:`CertificateTable`: a column per certificate field,
    one row per node in input order, whose rows are the nodes'
    :class:`HedbergCertificate` views.  No nodes, or an ``f`` that is
    empty on the grid (below), give a table of length 0.

    The bound chain reads five inputs: ``||f||_p``, which every closed form
    divides by, and at each node M f, n1 = ``||M1 f(x, .)||_p``, n2 =
    ``||M2 f(., y)||_p`` and the four region sums at the node's radii.

    * A :class:`~prodhls.grid.GridFunction` takes ``||f||_p`` from
      :func:`~prodhls.grid.lp_norm`, and is empty when that is 0.  One
      :func:`~prodhls.maximal.node_maximals` call gives M f, n1 and n2 at
      the nodes alone, from one pass over the dyadic windows the
      :func:`region_tables` are built from, on the nodes' slices only
      (each block's window sums gathered at the nodes' slice centres, and
      read densely only on a block whose every slice holds a node), and
      :func:`~prodhls.convolution.region_sums` splits the convolution.  A
      node's values are the same bytes whichever other nodes are
      certified with it.
    * A :class:`~prodhls.grid.TensorProduct` (the gaussian, box,
      tensor-box and spike families of a campaign) is read from its
      blocks, and no N^rank array is built: ``||f||_p = ||a||_p ||b||_p``,
      and :func:`~prodhls.maximal.block_maximals` gives M a and M b at
      the nodes, so M f = M a M b, n1 = M a ``||b||_p`` and n2 =
      ``||a||_p`` M b; :func:`~prodhls.convolution.block_region_sums`
      splits the convolution block by block.  It is empty when its largest
      cell's share of ``||f||_p^p``, ``(max a max b)^p h^rank``, is 0.0,
      or ``||a||_p ||b||_p`` is.  The sampled field ``a (x) b`` is empty
      exactly then, except where every cell's share is below the least
      normal float64 (2.2e-308) and the sampled field sums subnormal
      shares.  On the four families in the pointwise reference configs,
      no float of a certificate deviates from the sampled field's by more
      than 1.0e-14 relative, and a region sum is 0.0 on both or on
      neither.

    Gathers M f, n1 and n2 at all nodes and selects each node's case from
    them; picks the balancing radii in closed form; splits the convolution
    at those radii; and checks that the radii balance the recorded case
    (both identities of :func:`balanced_radii`, to 1e-12 relative), every
    region sum against its lattice bound from :func:`region_limits`, and in
    case 1 the collapse of the mixed bound, each bound to a relative 1e-9
    of floating-point headroom.  The case rule, the table lookups, the
    limits and the checks are array operations; a NaN fails its check.
    The closed forms of :func:`balanced_radii` and :func:`final_bound` and
    the check values built from the radii are evaluated on Python floats
    node by node, written into preallocated columns: numpy's SIMD ``pow``
    differs from ``**`` in the last bit.  With numpy 2.4.6 on an AVX-512
    host, ``np.power`` gave 70 of the 1200 ``r1`` values and 93 of the
    ``r2`` values of the benchmark's pointwise-2d configs one ulp away
    from ``**``.  Raises :class:`CertificateViolation` for the first node,
    in input order, with a failing check, naming its first failing check
    in the order above.

    For a tensor product, sampled or held as blocks, ``G f = M f ||f||``
    holds in exact arithmetic, so at its nodes rounding decides
    ``case_id``; both branches then give the same radii and final bound to
    rounding.
    """
    _require_admissible(exps)
    grid = f.grid
    check_blocks(grid, exps)
    idx = normalize_points(points, grid.rank, grid.points_per_axis)
    if not len(idx) or (inputs := _node_inputs(f, exps, idx)) is None:
        return CertificateTable.empty(grid.rank)
    f_norm, m_value, n1, n2, split = inputs
    tables = region_tables(grid, exps)

    g_value = n1 * n2
    case_id = np.where(g_value <= m_value * f_norm, 1, 2)
    case_value = np.where(case_id == 1, m_value, g_value)
    ratio = case_value / np.where(case_id == 1, f_norm, f_norm ** 2)
    r1, r2, final, balance, mixed = (np.empty(len(idx)) for _ in range(5))
    s1_power, s2_power = -exps.m / exps.p, -exps.n / exps.p
    mixed_power = exps.beta - exps.n / exps.p
    for k, (node_ratio, u, v, value, cid) in enumerate(zip(
            ratio.tolist(), n1.tolist(), n2.tolist(), case_value.tolist(), case_id.tolist())):
        x, y = balanced_radii(node_ratio, u, v, exps)
        # the radii balance the recorded case: the largest relative residual of
        # r1^(-m/p) r2^(-n/p) = ratio and r1^(-m/p) / r2^(-n/p) = n1/n2
        s1, s2 = x ** s1_power, y ** s2_power
        balance[k] = max(abs(s1 * s2 / node_ratio - 1.0), abs(s1 / s2 / (u / v) - 1.0))
        # the mixed-bound common value must itself collapse under the case-1
        # hypothesis: n1 r1^a r2^(b - n/p) <= Mf^(p/q) ||f||^(1-p/q)
        mixed[k] = u * x ** exps.alpha * y ** mixed_power if cid == 1 else 0.0
        r1[k], r2[k], final[k] = x, y, final_bound(value, f_norm, cid, exps)

    regions = split(r1, r2)
    by_region = region_limits(m_value, n1, n2, f_norm, r1, r2, tables)
    limits = np.column_stack([by_region[name] for name in REGION_NAMES])
    # one column per check, in the order of _CHECKS
    values = np.column_stack([balance, regions, mixed])
    bounds = np.column_stack([np.full(len(idx), _IDENTITY_TOL), limits, final])
    # written so that a NaN value or bound fails its check
    failed = ~(values <= bounds * (1.0 + _CHECK_REL))
    failed[:, -1] &= case_id == 1  # case 2 has no mixed collapse
    if failed.any():
        k = int(np.argmax(failed.any(axis=1)))
        check = int(np.argmax(failed[k]))
        name, value, limit = _CHECKS[check], float(values[k, check]), float(bounds[k, check])
        point = tuple(idx[k].tolist())
        raise CertificateViolation(
            f"{name} value {value} exceeds its bound {limit} at point {point}",
            diagnostics={"point": list(point), "region": name, "value": value,
                         "limit": limit, "r1": float(r1[k]), "r2": float(r2[k]),
                         "case_id": int(case_id[k])})

    return CertificateTable(
        point=idx, point_coordinates=grid.axis_centers()[idx], case_id=case_id, r1=r1, r2=r2,
        regions=regions, m_value=m_value, n1=n1, n2=n2, final_bound=final,
        region_limits=limits, f_norm=f_norm)
