"""Configuration-driven experiment runner with CSV and plot-script outputs.

Experiments are declared in an INI-style file (``[section]`` headers, ``key =
value`` pairs, ``#`` comments).  Unknown sections or keys are errors, and
a ``[DEFAULT]`` section with keys is an unknown section.  Each field of
:class:`ExperimentSpec` declares one key, and a missing or empty key takes
that field's default.  The keys:

    [problem]       name (required); any further numeric keys are passed to
                    the named problem builder (e.g. nu, beta, gamma,
                    extra_diffusion, chi, T).  name = custom declares a 1-d
                    constant-coefficient problem inline through the keys
                    a00, a01, a10, a11, b01, b11, T.
    [scheme]        constructor (example1 | example2)
    [time]          n
    [space]         period, points0, rungs
    [extrapolation] level, base (auto | 2 | 4; base 4 extrapolates a
                    symmetric scheme alone)
    [reference]     mode (auto | spectral | fine-grid), refine (>= 1 with
                    a fine-grid reference; read by corrector studies, not
                    by converge, and applied twice: the correctors march
                    the finest rung refined 2**refine times, a fine-grid
                    v^(0) that grid refined 2**refine times again)
    [correctors]    k, expected_residual_order (optional)
    [run]           seeds (comma-separated, distinct; a correctors study runs
                    on the first seed alone and ignores the others),
                    expected_order (optional), order_tolerance, out, format
                    (csv | binary), threads

Keys are case-insensitive; the horizon may be written ``T`` or ``t``.
``threads`` is accepted, validated (>= 1) and saved, but has no effect: a
study steps all its seeds together in one thread.

Each seed's Wiener increments are sampled once and drive every rung and the
study's target.  All seeds of all rungs march as one packed state, one
block of ``stepper.BLOCK_ROWS`` time indices at a time, each block's real
states read in one :meth:`stepper.Marcher.march` call; no target marches
alongside the ladder.  The errors of every column are reduced per block
into running per-seed maxima, so no rung trajectory is stored; each norm
has the bits of measuring its index alone, so the block size changes no
output.  Every study measures through that one path: each rung's
candidate is its extrapolation sum_j beta_j v^{h/2^j}, at level 0 (beta =
(1), the plain scheme) for ``converge`` and ``correctors``.  The target,
a function of the block that gives its weighted terms per rung, is all
that tells the studies apart: the reference time-scheme solution for
``converge``/``accelerate``, and the expansion sum_{m<=k} (h^m/m!) v^(m)
of the corrector system for ``correctors``.  The reference has one form,
the extrapolation of the march's top rungs.  On constant coefficients
(spectral) it is level 0 over the exact rung: the reference time scheme,
exact per Fourier mode, on the ladder's top lattice, one more rung of
the ladder's own march, which steps in Fourier space.  Otherwise
(fine-grid) it is over the ladder's own rungs, one more on top, one
level of extrapolation above the study's in the scheme's own base, so
its error is of higher order than the rungs' (at the conditioning
guard's level, 12, it keeps that level a rung higher).
Errors are measured pathwise, as max over time of the sup over grid
points; squared errors are averaged over the seed set before order
fitting, so the reported quantity realizes the expected squared sup
norm.  A study fits its order or fails: a ladder with fewer than two
errors above 1e-14 fits none and raises
:class:`richardson.ExtrapolationError`.

Outputs: ``report.csv`` with columns (h, sup_error, l2h_error,
pairwise_order, ls_order, expected_order, pass); one ``rung_<points>.csv``
per mesh with per-seed errors; and ``plot.gp``, a self-contained gnuplot
script (log-log error against h with a reference-slope guide line).  All
output bytes are determined by the spec and seeds alone.
"""

import configparser
import functools
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .correctors import (
    ResolutionError,
    _remainder,
    _weighted,
    run_corrector_system,
)
from .grids import _norms, _restricted, make_torus_grid
from .problems import (
    DifferentialProblem,
    ProblemError,
    build_scheme_example1,
    build_scheme_example2,
    check_degenerate_parabolicity,
    make_problem,
)
from .richardson import (
    MAX_LEVEL,
    ORDER_TOLERANCE,
    ConvergenceReport,
    ExtrapolationError,
    _combine,
    estimate_order,
    vandermonde_weights,
)
from .stepper import (
    Marcher,
    SolveFailure,
    SpectralModeError,
    _blocks,
    increment_columns,
    lattice_operators,
    run_space_time_scheme,  # unused: perfbench/check_bench.py reads it here
)
from .wiener import sample_increments


class ConfigError(ValueError):
    """Malformed configuration: parse error, unknown key, or bad value."""


def _parse_seeds(text: str):
    try:
        seeds = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad seeds list {text!r}") from exc
    if not seeds:
        raise ConfigError("seeds list must not be empty")
    return seeds


def _key(section: str, key: str, default, parse=str):
    """A spec field that ``key`` in ``[section]`` of a config file sets:
    ``parse`` casts its text, and the field default is the key's default."""
    return field(default=default,
                 metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment byte-for-byte.

    Each field after ``problem_params`` declares one config key: its
    section, name, parser and default (the config default), in the order
    :func:`save_config` writes them."""

    problem: str = ""
    problem_params: tuple = ()          # sorted (key, value) pairs
    scheme: str = _key("scheme", "constructor", "example1")
    n: int = _key("time", "n", 256, int)
    period: float = _key("space", "period", 1.0, float)
    points0: int = _key("space", "points0", 16, int)
    rungs: int = _key("space", "rungs", 3, int)
    level: int = _key("extrapolation", "level", 1, int)
    base: str = _key("extrapolation", "base", "auto")
    reference_mode: str = _key("reference", "mode", "auto")
    refine: int = _key("reference", "refine", 3, int)
    correctors_k: int = _key("correctors", "k", 2, int)
    expected_residual_order: float | None = _key(
        "correctors", "expected_residual_order", None, float)
    seeds: tuple = _key("run", "seeds", (1,), _parse_seeds)
    expected_order: float | None = _key("run", "expected_order", None, float)
    order_tolerance: float = _key("run", "order_tolerance", ORDER_TOLERANCE,
                                  float)
    out: str = _key("run", "out", "out")
    format: str = _key("run", "format", "csv")
    threads: int = _key("run", "threads", 1, int)

    def params_dict(self) -> dict:
        return dict(self.problem_params)


# section -> {key: field}, both in field order; [problem] is free-form
_SECTIONS = {}
for _field in fields(ExperimentSpec):
    if _field.metadata:
        _SECTIONS.setdefault(_field.metadata["section"], {})[
            _field.metadata["key"]] = _field

# name = custom: inline key -> (coefficient, index); T is the horizon
_INLINE_COEFFICIENTS = {"a00": ("a", (0, 0)), "a01": ("a", (0, 1)),
                        "a10": ("a", (1, 0)), "a11": ("a", (1, 1)),
                        "b01": ("b", (0, 1)), "b11": ("b", (1, 1))}
_INLINE_KEYS = tuple(_INLINE_COEFFICIENTS) + ("T",)


def _config_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=("#",),
                                     interpolation=None, delimiters=("=",))


def load_config(path) -> ExperimentSpec:
    """Parse and validate a configuration file into an ExperimentSpec."""
    parser = _config_parser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    # configparser would copy the keys of [DEFAULT] into every section
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section != "problem" and section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    if not parser.has_section("problem") or not parser.has_option("problem", "name"):
        raise ConfigError("missing required key: [problem] name")
    name = parser.get("problem", "name").strip()
    params = []
    for key in parser.options("problem"):
        if key == "name":
            continue
        raw = parser.get("problem", key).strip()
        try:
            # option names arrive lowercased; the horizon keyword is T
            params.append(("T" if key == "t" else key, float(raw)))
        except ValueError as exc:
            raise ConfigError(f"[problem] {key}: expected a number, got "
                              f"{raw!r}") from exc

    # a missing or empty key keeps its field default
    values = {}
    for section, keys in _SECTIONS.items():
        for key, spec_field in keys.items():
            raw = parser.get(section, key, fallback="").strip()
            if not raw:
                continue
            try:
                values[spec_field.name] = spec_field.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: bad value {raw!r}") from exc
    return _validate_spec(ExperimentSpec(
        problem=name, problem_params=tuple(sorted(params)), **values))


def _validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.scheme not in ("example1", "example2"):
        raise ConfigError(f"unknown scheme constructor {spec.scheme!r}")
    if spec.base not in ("auto", "2", "4"):
        raise ConfigError(f"extrapolation base must be auto, 2, or 4, "
                          f"not {spec.base!r}")
    if spec.reference_mode not in ("auto", "spectral", "fine-grid"):
        raise ConfigError(f"unknown reference mode {spec.reference_mode!r}")
    if spec.format not in ("csv", "binary"):
        raise ConfigError(f"unknown output format {spec.format!r}")
    if spec.n < 1:
        raise ConfigError("need at least one time step")
    if spec.n >= np.iinfo(np.intp).max:
        raise ConfigError(f"[time] n: {spec.n} steps are more time indices "
                          "than numpy can index")
    if not 0 < spec.period < math.inf:
        raise ConfigError("period must be positive and finite")
    if spec.points0 < 2:
        raise ConfigError("points0 must be >= 2")
    if spec.rungs < 1:
        raise ConfigError("rungs must be >= 1")
    if spec.level < 0:
        raise ConfigError("extrapolation level must be >= 0")
    if spec.refine < 0:
        raise ConfigError("refine must be >= 0")
    if spec.threads < 1:
        raise ConfigError("threads must be >= 1")
    if len(set(spec.seeds)) < len(spec.seeds):
        # a repeated seed marches one path twice and weighs it twice in the rms
        raise ConfigError(f"seeds must be distinct, not {list(spec.seeds)}")
    if spec.correctors_k < 0:
        raise ConfigError("correctors k must be >= 0")
    for key, value in spec.params_dict().items():
        if not math.isfinite(value):
            raise ConfigError(f"[problem] {key} must be finite, not {value!r}")
    if not 0 <= spec.order_tolerance < math.inf:
        raise ConfigError("order_tolerance must be >= 0 and finite")
    for key, value in (("expected_order", spec.expected_order),
                       ("expected_residual_order", spec.expected_residual_order)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, not {value!r}")
    return spec


def _read_back(text: str):
    """The loader's parser after reading ``text``, or None where it rejects
    the text."""
    parser = _config_parser()
    try:
        parser.read_file(io.StringIO(text, newline=None))
    except configparser.Error:
        return None
    return parser


def _text(section: str, key: str, value: str, default: str = "") -> str:
    """``value`` as written for ``key``, once a config file is known to load
    it back as itself: an inline `` #``, spaces at either end or a line
    break would change it, and an empty value loads as ``default``."""
    parser = _read_back(f"[{section}]\n{key} = {value}\n")
    loaded = None
    if parser is not None and parser.has_option(section, key):
        loaded = parser.get(section, key).strip() or default
    if loaded != value:
        raise ConfigError(f"[{section}] {key}: {value!r} would not load back "
                          "as itself")
    return value


def _problem_lines(params: tuple) -> list:
    """The ``[problem]`` lines of ``params`` after its name, once a config
    file is known to load each key back as itself, after the keys before
    it: keys load lowercased (``t`` as ``T``), and a `` #``, an ``=``,
    spaces at either end, a repeat or the key ``name`` would change them."""
    lines = [f"{key} = {format(value, '.17g')}" for key, value in params]
    for j, (key, _) in enumerate(params, start=1):
        parser = _read_back("\n".join(["[problem]", "name = x"] + lines[:j]))
        loaded = None if parser is None else [
            "T" if k == "t" else k for k in parser.options("problem")]
        if loaded != ["name"] + [k for k, _ in params[:j]]:
            raise ConfigError(f"[problem] key {key!r} would not load back as "
                              "itself")
    return lines


def _show(spec_field, value) -> str:
    meta = spec_field.metadata
    if meta["parse"] is _parse_seeds:
        return ",".join(str(s) for s in value)
    if meta["parse"] is str:
        return _text(meta["section"], meta["key"], value, spec_field.default)
    return format(value, ".17g") if meta["parse"] is float else f"{value}"


def save_config(spec: ExperimentSpec, path) -> None:
    """Serialize a spec back to the configuration format (round-trips); an
    optional key that is None is left out.  A text value or a ``[problem]``
    key that would not load back as itself is a :class:`ConfigError`."""
    lines = ["[problem]", f"name = {_text('problem', 'name', spec.problem)}",
             *_problem_lines(spec.problem_params)]
    for section, keys in _SECTIONS.items():
        lines += ["", f"[{section}]"]
        for key, spec_field in keys.items():
            value = getattr(spec, spec_field.name)
            if value is not None:
                lines.append(f"{key} = {_show(spec_field, value)}")
    lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def _named_problem(spec: ExperimentSpec) -> DifferentialProblem:
    params = spec.params_dict()
    if spec.problem != "custom":
        return make_problem(spec.problem, **params)
    unknown = set(params) - set(_INLINE_KEYS)
    if unknown:
        raise ConfigError(f"unknown inline coefficient keys {sorted(unknown)}; "
                          f"allowed: {_INLINE_KEYS}")
    coefficients = {"a": {}, "b": {}}
    for key, (kind, idx) in _INLINE_COEFFICIENTS.items():
        if params.get(key):
            coefficients[kind][idx] = params[key]
    a, b = coefficients["a"], coefficients["b"]
    return DifferentialProblem(
        d=1, d1=1 if b else 0, T=params.get("T", 0.5), a=a, b=b,
        u0=lambda x: np.cos(2.0 * np.pi * x[..., 0]),
        constant_coefficients=True, name="custom")


def _check_periodic(problem: DifferentialProblem, grid) -> None:
    """u0 and every a, b, f and g evaluator (at index 0) on the points x of
    ``grid`` and at x + period e_a, for every axis a, must be finite and
    agree to 1e-10 of their size, else the problem is not periodic on the
    torus and the spec is a config error."""
    data = {"u0": problem.u0, "f": functools.partial(problem.f, 0)}
    for kind in ("a", "b", "g"):
        for key, ev in getattr(problem, kind).items():
            data[f"{kind}[{key}]"] = functools.partial(ev, 0)
    x = grid.coordinates
    # a value that is not finite is reported below, not warned about
    with np.errstate(all="ignore"):
        for name, fn in data.items():
            here = fn(x) * np.ones(grid.shape)
            for axis, period in enumerate(grid.periods):
                there = fn(x + period * np.eye(grid.dim)[axis]) \
                    * np.ones(grid.shape)
                if not (np.isfinite(here).all() and np.isfinite(there).all()):
                    raise ConfigError(
                        f"{name} takes a value that is not finite on the torus "
                        f"of [space] period {period:g}")
                gap = float(np.max(np.abs(there - here)))
                if gap > 1e-10 * max(1.0, np.max(np.abs(here)),
                                     np.max(np.abs(there))):
                    raise ConfigError(
                        f"{name} is not periodic on the torus of [space] "
                        f"period {period:g}: it moves by {gap:.3g} over one "
                        f"period along x{axis + 1}")


def _check_lattice(spec: ExperimentSpec, d: int, doublings: int,
                   keys: str) -> None:
    """``keys`` set the largest lattice a command builds from ``spec``,
    ``points0 * 2**doublings`` points per axis in ``d`` dimensions: more
    points than numpy can index is a config error, raised before anything
    is allocated."""
    limit = np.iinfo(np.intp).max
    if doublings >= limit.bit_length() or \
            (spec.points0 << doublings) ** d > limit:
        raise ConfigError(f"{keys}: the largest lattice would have "
                          f"({spec.points0} * 2**{doublings})**{d} points, "
                          "more than numpy can index")


def build_problem(spec: ExperimentSpec) -> DifferentialProblem:
    """The spec's problem.  Its coarsest ladder grid must fit numpy's index
    range (:func:`_check_lattice`), and the problem must be finite and
    periodic on the torus (:func:`_check_periodic`) and degenerate
    parabolic (2a - bb^T positive semidefinite) at the points of that grid
    at time index 0, else the spec is a config error."""
    try:
        problem = _named_problem(spec)
    except ProblemError as exc:
        raise ConfigError(str(exc)) from exc
    _check_lattice(spec, problem.d, 0, "[space] points0")
    grid = ladder_grids(spec, problem)[0]
    _check_periodic(problem, grid)
    points = grid.coordinates.reshape(-1, problem.d)
    report = check_degenerate_parabolicity(problem, [(0, x) for x in points])
    if not report.passed:
        raise ConfigError("problem is not degenerate parabolic: the smallest "
                          f"eigenvalue of 2a - bb^T is {report.min_eigenvalue:.6g}")
    return problem


def build_scheme(spec: ExperimentSpec, problem: DifferentialProblem):
    if spec.scheme == "example1":
        return build_scheme_example1(problem)
    return build_scheme_example2(problem)


def _resolve_base(spec: ExperimentSpec, scheme, level: int) -> int:
    if spec.base == "auto":
        return 4 if scheme.is_symmetric else 2
    if spec.base == "4" and level >= 1 and not scheme.is_symmetric:
        raise ConfigError(f"[extrapolation] base 4 assumes that odd powers "
                          f"of h vanish, but the {spec.scheme} scheme has "
                          "one-sided terms; use base 2 or auto")
    return int(spec.base)


def _resolve_reference_mode(spec: ExperimentSpec, problem) -> str:
    if spec.reference_mode == "auto":
        mode = ("spectral-const-coef" if problem.constant_coefficients
                else "fine-grid")
    elif spec.reference_mode == "spectral":
        mode = "spectral-const-coef"
    else:
        mode = "fine-grid"
    if mode == "fine-grid" and spec.refine == 0:
        # a corrector system would march the finest rung's own lattice; a
        # convergence study reads no refine, but its spec is checked alike
        raise ConfigError("[reference] a fine-grid reference needs refine "
                          ">= 1, got 0")
    return mode


def ladder_grids(spec: ExperimentSpec, problem, extra: int = 0):
    d = problem.d
    return [make_torus_grid(d, [spec.period] * d,
                            [spec.points0 * 2 ** j] * d)
            for j in range(spec.rungs + extra)]


@dataclass
class ExperimentResult:
    kind: str
    spec: ExperimentSpec
    report: ConvergenceReport | None
    rung_points: list
    per_rung_errors: dict            # rung index -> [(seed, sup, l2h), ...]
    failed: bool = False
    failure: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (not self.failed) and self.report is not None and self.report.passed


def _extrapolated_target(weights, rungs: int):
    """A convergence study's target, either reference's: the extrapolation
    by ``weights`` of the march's top ``weights.level + 1`` lattices
    (``marcher.operators.grids``), the topmost of which only this target
    reads.  A spectral reference is level 0 (beta = (1)) over the exact
    rung.  A fine-grid one is one level above the study's, over the finest
    measured rung, ``rungs - 1``, its partners and one more ladder rung; at
    the conditioning guard's level it keeps that level and starts a rung
    higher.  It is read on rung ``rungs - 1``'s grid and restricted onto
    each coarser rung; its failure record is the top rung's."""
    def make(marcher, _) -> tuple:
        grids = marcher.operators.grids
        finest, first = grids[rungs - 1], len(grids) - 1 - weights.level

        def terms(block: range, states: list) -> list:
            reference = _combine(
                [_restricted(states[first + m], grids[first + m], finest)
                 for m in range(weights.level + 1)], weights.beta)
            return [[_restricted(reference, finest, grid)]
                    for grid in grids[:rungs]]

        return terms, marcher.failures[-1]

    return make


def _replay_target(cs, grids: list) -> tuple:
    """A corrector study's target, the expansion of the corrector set ``cs``
    of one path, on the rungs ``grids``: a block's terms are sliced from
    the restricted trajectories' rows and weighted when they are read.  A
    corrector with no nonzero entry (every odd one of a centred scheme) has
    no term: subtracting (h^m/m!) 0 could flip only the sign of a zero,
    which no norm sees."""
    orders = [m for m, traj in enumerate(cs.trajectories)
              if m == 0 or traj.values.any()]
    rungs = [{m: cs[m].restricted(cs.grid.shape[0] // grid.shape[0]).values
              for m in orders} for grid in grids]

    def terms(block: range, _) -> list:
        return [_weighted({m: np.moveaxis(v[block.start:block.stop], 0, -1)
                           [..., None] for m, v in values.items()}, grid.h)
                for grid, values in zip(grids, rungs)]

    return terms, {}


def _march_ladder(spec: ExperimentSpec, kind: str, problem, scheme, seeds,
                  weights, expected_order, make_target,
                  reference: str | None = None) -> ExperimentResult:
    """The rung loop of every study, the one path from a ladder to a
    fitted order.

    The ladder holds the measured rungs and their extrapolation partners,
    and on top one more rung that only the target reads, by the
    ``reference`` mode: with "fine-grid", one more ladder rung; with
    "spectral-const-coef", the exact reference time scheme on the ladder's
    top lattice (``marcher.operators.exact`` is then 1), which only a
    ladder that steps in Fourier space can carry; with None, no rung.
    ``make_target(marcher, increments)`` gives the target and its failure
    record, keyed by column; the march's lattices are
    ``marcher.operators.grids``.  The target is a function of a block
    of time indices, the next ones, and of the ladder's states there: it
    gives, per measured rung, the weighted expansion terms (h^m/m!) v^(m)
    there on the rung's grid, each ``grid.shape + (rows, S)``, from the
    ladder's states or from what it made when it was built.

    The rungs march as one packed state under one :class:`Marcher`, on the
    operators :func:`stepper.lattice_operators` chooses: a 1-d circulant
    ladder steps pointwise in Fourier space, any other one makes one block
    LU solve (GMRES rungs solve apart); every rung has the bits of its run
    alone.  The ladder marches one block of indices at a time
    (:meth:`Marcher.march`), and the block is measured: each rung's
    candidate, its extrapolation by ``weights`` (partners restricted when
    read; level 0, beta = (1), is the rung itself, every bit kept), less
    the target's terms (:func:`correctors._remainder`) goes through one
    :func:`grids._norms` call whose rows are the (index, path) pairs, so
    every norm has the bits of measuring its index alone.  The block
    maxima are folded into running per-seed maxima.  Every column is
    measured: a failed one is zeroed in place, so it stays finite, and its
    seed's rows are never reported.

    The marcher's failure record holds a dict per rung: a rung's failure
    fails that seed on that rung alone, whose column is zeroed; a rung only
    the target reads, the exact one too, fails the target.  The ladder
    marches on to find the first failing (seed, mesh) pair in seed-major
    order, which is reported.  Target failures are reported only when
    every rung succeeded, after the rows of the seeds before the failing
    one, and a failure the target raises while it is built as itself.  An
    exact rung asked of a ladder that does not step in Fourier space (a
    spectral reference on variable coefficients), refused before the
    ladder takes a step, and a corrector target the reference grid cannot
    resolve, are configuration errors; a ladder whose errors fit no order
    raises the :class:`richardson.ExtrapolationError` of
    :func:`estimate_order`.
    """
    grids = ladder_grids(spec, problem,
                         extra=weights.level + (reference == "fine-grid"))
    tau = problem.T / spec.n

    # a deterministic problem has one path whatever the seeds: march it once
    # and give every seed its row; column[k] is seed k's path
    paths = seeds if problem.d1 > 0 else seeds[:1]
    column = [k if problem.d1 > 0 else 0 for k in range(len(seeds))]
    increments = [sample_increments(spec.n, problem.d1, tau, seed)
                  for seed in paths]
    xi = increment_columns(problem, spec.n, increments)

    sup, l2h = np.zeros((2, spec.rungs, len(paths)))
    rung_points = [spec.points0 * 2 ** j for j in range(spec.rungs)]
    per_rung = {j: [] for j in range(spec.rungs)}

    def failed(message):
        return ExperimentResult(kind=kind, spec=spec, report=None,
                                rung_points=rung_points, per_rung_errors=per_rung,
                                failed=True, failure=message)

    try:
        marcher = Marcher(xi, lattice_operators(
            problem, grids, tau, scheme, "auto",
            grids[-1:] if reference == "spectral-const-coef" else ()))
        ladder = marcher.failures[:spec.rungs + weights.level]
        target, target_failures = make_target(marcher, increments)
        for block in _blocks(spec.n):
            # once a rung failed, the study reports that failure: the rungs
            # march on only to find the first failing pair, and not once
            # every column of every rung has failed (rungs the target
            # reads may live on)
            if all(len(failed) == len(paths) for failed in ladder):
                break
            measured, rows = not any(ladder), len(block)
            states = marcher.march(rows)
            if not measured:
                continue
            terms = target(block, states)
            for j, grid in enumerate(grids[:spec.rungs]):
                # partner m of rung j is rung j + m, read on rung j's grid
                candidate = _combine(
                    [_restricted(states[j + m], grids[j + m], grid)
                     for m in range(weights.level + 1)], weights.beta)
                err = _remainder(candidate, terms[j])
                # one contiguous row per (index, path), as _norms needs
                s, l = _norms(np.ascontiguousarray(
                    err.reshape(-1, rows * len(paths)).T), grid.h ** grid.dim)
                sup[j] = np.maximum(sup[j], s.reshape(rows, -1).max(axis=0))
                l2h[j] = np.maximum(l2h[j], l.reshape(rows, -1).max(axis=0))
    except (SpectralModeError, ResolutionError) as exc:
        raise ConfigError(f"[reference] {exc}") from exc
    except SolveFailure as exc:
        return failed(str(exc))

    for k, seed in zip(column, seeds):
        for j, failures in enumerate(ladder):
            if k in failures:
                return failed(f"seed {seed}, mesh {j}: {failures[k]}")

    sup_sq, l2h_sq = np.zeros((2, spec.rungs))
    for k, seed in zip(column, seeds):
        if k in target_failures:
            return failed(f"reference, seed {seed}: {target_failures[k]}")
        for j in range(spec.rungs):
            s, l = float(sup[j, k]), float(l2h[j, k])
            per_rung[j].append((seed, s, l))
            sup_sq[j] += s ** 2
            l2h_sq[j] += l ** 2

    report = estimate_order([g.h for g in grids[:spec.rungs]],
                            list(np.sqrt(sup_sq / len(seeds))), expected_order,
                            spec.order_tolerance,
                            l2h_errors=list(np.sqrt(l2h_sq / len(seeds))))
    return ExperimentResult(kind=kind, spec=spec, report=report,
                            rung_points=rung_points, per_rung_errors=per_rung)


def _prepare(spec: ExperimentSpec, what: str, level: int) -> tuple:
    """The problem, scheme, weights of extrapolation ``level`` and reference
    mode of a validated ``spec`` of two rungs or more, for a ``what`` study,
    whose top lattice must fit numpy's index range: the ladder's, one rung
    higher for a fine-grid reference, or a corrector system's, its finest
    rung refined 2**refine times (twice for a fine-grid v^(0))."""
    _validate_spec(spec)
    if spec.rungs < 2:
        raise ConfigError(f"{what} experiments need rungs >= 2")
    problem = build_problem(spec)
    scheme = build_scheme(spec, problem)
    try:
        weights = vandermonde_weights(level, _resolve_base(spec, scheme, level))
    except ExtrapolationError as exc:
        raise ConfigError(f"[extrapolation] {exc}") from exc
    ref_mode = _resolve_reference_mode(spec, problem)
    fine = ref_mode == "fine-grid"
    top, key = ((spec.refine * (1 + fine), "[reference] refine")
                if what == "corrector" else (level + fine, "[extrapolation] level"))
    _check_lattice(spec, problem.d, spec.rungs - 1 + top,
                   f"[space] points0, [space] rungs and {key}")
    return problem, scheme, weights, ref_mode


def run_convergence_experiment(spec: ExperimentSpec,
                               accelerate: bool = False) -> ExperimentResult:
    """Measure the convergence order of the plain scheme (extrapolation
    level 0) or the extrapolated one against the reference time-scheme
    solution on the finest measured rung, restricted to each rung (see
    :func:`_march_ladder`).  One target serves both references
    (:func:`_extrapolated_target`): spectral, level 0 over the exact rung on
    the ladder's top lattice, or fine-grid, the ladder's own top rungs one
    level above the study's."""
    kind = "accelerate" if accelerate else "converge"
    problem, scheme, weights, ref_mode = _prepare(
        spec, "convergence", spec.level if accelerate else 0)
    # the exact rung itself (level 0), or the ladder's own rungs one level
    # above the study's, in the scheme's own base whatever the study's, so
    # the reference is of higher order than every candidate
    target = vandermonde_weights(
        min(weights.level + 1, MAX_LEVEL) if ref_mode == "fine-grid" else 0,
        4 if scheme.is_symmetric else 2)
    result = _march_ladder(spec, kind, problem, scheme, spec.seeds, weights,
                           spec.expected_order,
                           _extrapolated_target(target, spec.rungs), ref_mode)
    if not result.failed:
        result.extras["reference_mode"] = ref_mode
        if accelerate:
            result.extras.update(base=weights.base, level=weights.level)
    return result


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return format(x, ".17g")
    return str(x)


REPORT_HEADER = "h,sup_error,l2h_error,pairwise_order,ls_order,expected_order,pass"


def emit_outputs(result: ExperimentResult, out_dir) -> list:
    """Write report.csv, per-rung CSVs, and plot.gp; returns written paths.

    A failed experiment flushes whatever rows exist plus a FAILED marker row.
    An empty ladder produces the report only (no plot). Identical inputs give
    byte-identical outputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    report_path = out / "report.csv"
    buf = io.StringIO()
    buf.write(REPORT_HEADER + "\n")
    if result.report is not None:
        for row in result.report.csv_rows():
            buf.write(",".join(_fmt(v) for v in row) + "\n")
    if result.failed:
        buf.write(f"FAILED,{result.failure}\n")
    report_path.write_text(buf.getvalue(), encoding="utf-8")
    paths.append(report_path)

    for j, points in enumerate(result.rung_points):
        rung_path = out / f"rung_{points}.csv"
        rows = ["seed,sup_error,l2h_error"]
        for seed, sup, l2h in result.per_rung_errors.get(j, []):
            rows.append(f"{seed},{_fmt(sup)},{_fmt(l2h)}")
        if result.failed:
            rows.append("FAILED,,")
        rung_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(rung_path)

    if result.report is not None and result.report.hs and not result.failed:
        paths.append(_emit_plot_script(result, out / "plot.gp"))
    return paths


def _emit_plot_script(result: ExperimentResult, path: Path) -> Path:
    report = result.report
    guide_order = (report.expected_order if report.expected_order is not None
                   else round(report.ls_order, 1))
    c = report.sup_errors[0] / report.hs[0] ** guide_order
    lines = [
        f"# {result.kind} study: sup/l2h error against mesh width",
        "set logscale xy",
        "set xlabel 'h'",
        "set ylabel 'error'",
        "set key left top",
        "set grid",
        "$data << EOD",
    ]
    for h, sup, l2h in zip(report.hs, report.sup_errors,
                           report.l2h_errors or [float("nan")] * len(report.hs)):
        lines.append(f"{_fmt(h)} {_fmt(sup)} {_fmt(l2h)}")
    lines += ["EOD",
              "plot $data using 1:2 with linespoints title 'sup error', \\",
              "     $data using 1:3 with linespoints title 'l2h error', \\",
              f"     {_fmt(c)}*x**{_fmt(float(guide_order))} with lines "
              f"dashtype 2 title 'order {_fmt(float(guide_order))} guide'", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Corrector study and self-check
# ---------------------------------------------------------------------------

def run_corrector_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Expansion-residual decay over the mesh ladder plus the odd-corrector
    vanishing check for symmetric schemes, on the path of the first seed
    (``spec.seeds[0]``); further seeds are ignored.

    The corrector system is solved first, on the finest mesh refined
    2**refine times.  A fine-grid reference applies ``refine`` twice: its
    v^(0) marches on that grid refined 2**refine times again, so rungs of
    16 to 64 points with refine 3 march v^(0) on 4096 points and the
    correctors on 512.  The rungs march in lock-step against its expansion
    sum_{m<=k} (h^m/m!) v^(m) (see :func:`_march_ladder`), and a rung's
    error is the remainder :func:`correctors.expansion_residual` reports.
    """
    problem, scheme, weights, ref_mode = _prepare(spec, "corrector", 0)
    cs = None

    def expansion(marcher, increments):
        nonlocal cs
        grids = marcher.operators.grids
        cs = run_corrector_system(
            spec.correctors_k, problem, scheme,
            grids[-1].refined(2 ** spec.refine), spec.n, increments[0],
            reference_mode=ref_mode, refine=spec.refine)
        return _replay_target(cs, grids)

    result = _march_ladder(spec, "correctors", problem, scheme,
                           spec.seeds[:1], weights,
                           spec.expected_residual_order, expansion)
    if result.failed:
        return result
    scale = max(np.max(np.abs(cs[0].values)), 1e-300)
    result.extras.update(
        odd_corrector_ratios={j: np.max(np.abs(cs[j].values)) / scale
                              for j in range(1, spec.correctors_k + 1, 2)},
        reference_mode=ref_mode, corrector_set=cs)
    return result


def selfcheck() -> list[tuple[str, bool, str]]:
    """Fast structural checks: weight identities, summation by parts, and a
    dense-elimination oracle for the implicit solves that the studies run
    (:func:`stepper.lattice_operators`): by LU for a variable coefficient
    and on the lattice symbols for a constant one.  Returns (name, ok,
    detail) triples."""
    from .grids import basis_stencil, forward_difference
    from .problems import DifferenceScheme

    results = []

    worst = 0.0
    for k in range(7):
        for base in (2, 4):
            worst = max(worst, vandermonde_weights(k, base).identity_residual())
    results.append(("weight-identities", worst <= 1e-12,
                    f"max residual {worst:.2e}"))

    g = make_torus_grid(2, [1.0, 1.0], [8, 8])
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(4):
        f = g.field(rng.standard_normal(g.shape))
        w = g.field(rng.standard_normal(g.shape))
        lam = (1, 1)
        lhs = g.h ** 2 * np.sum(forward_difference(f, lam).values * w.values)
        rhs = -g.h ** 2 * np.sum(f.values
                                 * forward_difference(w, lam, -1).values)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    results.append(("summation-by-parts", worst <= 1e-12,
                    f"max relative residual {worst:.2e}"))

    g1 = make_torus_grid(1, [1.0], [8])
    tau = 0.05
    # dense oracle: shift matrices composed with plain matrix algebra
    N = 8
    x = g1.coordinates
    eye = np.eye(N)
    rows = np.arange(N)
    T_plus = np.zeros((N, N)); T_plus[rows, (rows + 1) % N] = 1.0
    T_minus = np.zeros((N, N)); T_minus[rows, (rows - 1) % N] = 1.0
    sym = (T_plus - T_minus) / (2 * g1.h)
    rhs = rng.standard_normal(N)
    for name, a11 in (("dense-solve-oracle", lambda i, x: 1.0 + 0.4 * np.sin(
            2 * np.pi * x[..., 0])), ("circulant-solve-oracle", 0.7)):
        scheme = DifferenceScheme(stencil=basis_stencil(1), d1=0,
                                  a={((1,), (1,)): a11}, p={(1,): 0.3})
        # the scheme is given, so no problem is read
        ops = lattice_operators(None, [g1], tau, scheme)
        L = (np.diag(scheme.a_at((1,), (1,), 0, x)) @ sym @ sym
             + 0.3 * (T_plus - eye) / g1.h)
        failures = [{}]
        ours = ops.states(ops.solve_values(ops.sample(lambda _: rhs)[:, None],
                                           0, failures))[0][:, 0]
        oracle = np.linalg.solve(eye - tau * L, rhs)
        gap = float(np.max(np.abs(ours - oracle)))
        results.append((name, gap <= 1e-11 and not failures[0],
                        f"max gap {gap:.2e}"))
    return results
