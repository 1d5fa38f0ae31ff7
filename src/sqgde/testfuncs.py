"""Box-bounded synthetic test functions for fixed-budget benchmarking.

Ten zero-normalized base landscapes (each evaluates to 0 at its canonical
optimum) are turned into concrete instances by shifting the optimum,
applying a random orthogonal rotation, adding a bias, and optionally
multiplying the zero-normalized value by Gaussian noise. Weighted Gaussian
mixtures of several transformed bases give multimodal hybrid compositions.
All instance data is generated from an explicit seed, so a descriptor plus
a seed fully reproduces the function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .core import RngStream, SearchSpace, derive_seed, make_rng, record_dict
from .core import check_names, json_fields, json_list, json_value, refuse_unknown_keys

__all__ = [
    "BaseFunction",
    "BASE_FUNCTIONS",
    "random_rotation",
    "CompositionComponent",
    "TestFunction",
    "custom_function",
    "ComponentDescriptor",
    "FunctionDescriptor",
    "resolve_descriptor",
    "make_test_function",
    "default_suite",
    "suite_by_label",
]

# Base landscapes reduce over the last axis, so each maps points (..., D)
# to values (...).


def _sphere(z: np.ndarray) -> np.ndarray:
    return (z * z).sum(axis=-1)


def _schwefel12(z: np.ndarray) -> np.ndarray:
    c = np.cumsum(z, axis=-1)
    return (c * c).sum(axis=-1)


def _elliptic(z: np.ndarray) -> np.ndarray:
    d = z.shape[-1]
    weights = np.power(1e6, np.arange(d) / max(d - 1, 1))
    return (weights * z * z).sum(axis=-1)


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    head, tail = z[..., :-1], z[..., 1:]
    return (100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2).sum(axis=-1)


def _rastrigin(z: np.ndarray) -> np.ndarray:
    return 10.0 * z.shape[-1] + (z * z - 10.0 * np.cos(2.0 * np.pi * z)).sum(axis=-1)


def _ackley(z: np.ndarray) -> np.ndarray:
    d = z.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt((z * z).sum(axis=-1) / d))
        - np.exp(np.cos(2.0 * np.pi * z).sum(axis=-1) / d)
        + 20.0
        + np.e
    )


def _griewank(z: np.ndarray) -> np.ndarray:
    i = np.arange(1, z.shape[-1] + 1, dtype=float)
    return (z * z).sum(axis=-1) / 4000.0 - np.cos(z / np.sqrt(i)).prod(axis=-1) + 1.0


# Weierstrass with a = 0.5, b = 3, k = 0..20 (CEC 2005). The kernel relies on
# b being the integer 3.
_W_A = 0.5
_W_KMAX = 20
_W_COEF = _W_A ** np.arange(1, _W_KMAX + 1)
# Coordinates per pass: a population batch (100 x 50) is one pass, and a
# larger batch reuses the same small buffers instead of growing them.
_W_BLOCK = 8192


def _weierstrass_sum(u: np.ndarray) -> np.ndarray:
    """sum_k a^k cos(3^k u) per coordinate, from one complex exponential.

    With z = exp(i u), cos(3^k u) = Re z^(3^k), so each term's z is the cube
    of the previous one's: one trig call instead of 21, and none at the huge
    arguments 3^k u (past about 4e8 for k >= 16 cos needs its slow range
    reduction). Cubing carries the rounding of exp(i u) up by 3^k, which a^k
    more than damps: the sum stays within 1e-12 of the exact one, closer
    than the direct cos(3^k u) for |u| > 1.
    """
    u = np.asarray(u, dtype=float)
    flat = u.reshape(-1)
    if flat.size % _W_BLOCK == 1:  # numpy multiplies a one-element complex block outside its SIMD loop
        flat = np.append(flat, 0.0)
    total = np.empty_like(flat)
    z = np.empty(min(flat.size, _W_BLOCK), dtype=complex)
    sq = np.empty_like(z)
    for lo in range(0, flat.size, _W_BLOCK):
        part = total[lo : lo + _W_BLOCK]
        zb, sb = z[: part.size], sq[: part.size]
        np.multiply(flat[lo : lo + _W_BLOCK], 1j, out=zb)
        np.exp(zb, out=zb)
        part[:] = zb.real
        for a_k in _W_COEF:
            np.square(zb, out=sb)
            zb *= sb
            part += a_k * zb.real
    return total[: u.size].reshape(u.shape)


# The per-coordinate sum at the optimum (u = pi), computed by the same code,
# so the global minimum value is exactly 0.
_W_FLOOR = float(_weierstrass_sum(np.array(np.pi)))


def _weierstrass(z: np.ndarray) -> np.ndarray:
    return (_weierstrass_sum(2.0 * np.pi * (z + 0.5)) - _W_FLOOR).sum(axis=-1)


def _next(z: np.ndarray) -> np.ndarray:
    """Each coordinate's cyclic successor: z_2, ..., z_D, z_1."""
    return np.concatenate((z[..., 1:], z[..., :1]), axis=-1)


def _griewank_rosenbrock(z: np.ndarray) -> np.ndarray:
    # Cyclic pairwise expansion, including the wrap-around pair (z_D, z_1).
    r = 100.0 * (z * z - _next(z)) ** 2 + (z - 1.0) ** 2
    return (r * r / 4000.0 - np.cos(r) + 1.0).sum(axis=-1)


def _schaffer_f6(z: np.ndarray) -> np.ndarray:
    nxt = _next(z)
    s = z * z + nxt * nxt
    return (0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class BaseFunction:
    """A zero-normalized base landscape.

    ``optimum_offset`` gives the canonical optimum position as offset * ones
    (0 for most bases, 1 for the Rosenbrock family). ``half_range`` is the
    conventional domain half-width used for default bounds and for scaling
    the base inside compositions.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    half_range: float
    optimum_offset: float = 0.0
    min_dim: int = 1


BASE_FUNCTIONS: dict[str, BaseFunction] = {
    "sphere": BaseFunction(_sphere, 100.0),
    "schwefel12": BaseFunction(_schwefel12, 100.0),
    "elliptic": BaseFunction(_elliptic, 100.0),
    "rosenbrock": BaseFunction(_rosenbrock, 100.0, optimum_offset=1.0, min_dim=2),
    "rastrigin": BaseFunction(_rastrigin, 5.0),
    "ackley": BaseFunction(_ackley, 32.0),
    "griewank": BaseFunction(_griewank, 600.0),
    "weierstrass": BaseFunction(_weierstrass, 0.5),
    "griewank_rosenbrock": BaseFunction(_griewank_rosenbrock, 5.0, optimum_offset=1.0, min_dim=2),
    "schaffer_f6": BaseFunction(_schaffer_f6, 100.0, min_dim=2),
}


def random_rotation(dim: int, rng: RngStream) -> np.ndarray:
    """Random orthogonal matrix, uniform over the orthogonal group.

    QR of a standard normal matrix with the sign of R's diagonal folded into
    Q. Columns are orthonormal to machine precision.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True, eq=False)
class CompositionComponent:
    """A base landscape moved to ``shift``, optionally rotated, plus ``bias``.

    ``lam`` scales its coordinates and ``sigma`` is its width in a
    composition's Gaussian weights; a single-body function uses lam = 1.
    """

    kind: str
    shift: np.ndarray
    rotation: np.ndarray | None = None
    bias: float = 0.0
    sigma: float = 1.0
    lam: float = 1.0

    def value(self, x: np.ndarray, sq_dist: np.ndarray | None = None):
        """Base value, without the bias, of points (..., D): values (...).

        ``sq_dist``, if given, receives each point's ||x - shift||^2, taken
        from the same difference that is then mapped to canonical coordinates.
        """
        z = x - self.shift
        if sq_dist is not None:
            sq_dist[...] = (z * z).sum(axis=-1)
        base = BASE_FUNCTIONS[self.kind]
        if self.lam != 1.0:
            z /= self.lam
        if self.rotation is not None:
            z = z @ self.rotation.T
        if base.optimum_offset != 0.0:
            z += base.optimum_offset
        return base.fn(z)


def _mixture(comps: tuple[CompositionComponent, ...], sigma2: np.ndarray, X: np.ndarray):
    """Weights and component values plus biases, both (..., K), of points (..., D).

    ``sigma2`` holds each component's sigma^2. One pass per component: its
    value and its squared distance to its shift come from one x - shift.
    That difference lives only inside ``value``, so the rotated copy replaces
    it rather than adding to the peak memory. If every unnormalized weight
    of a point underflows to zero, the nearest component takes weight 1.
    """
    k = len(comps)
    sq_dists, vals = np.empty(X.shape[:-1] + (k,)), np.empty(X.shape[:-1] + (k,))
    for i, c in enumerate(comps):
        vals[..., i] = c.value(X, sq_dists[..., i]) + c.bias
    w = np.exp(-sq_dists / (2.0 * X.shape[-1] * sigma2))
    total = w.sum(axis=-1)
    dead = total <= 0.0
    w /= np.where(dead, 1.0, total)[..., None]
    if dead.any():
        w[dead] = np.eye(k)[np.argmin(sq_dists[dead], axis=-1)]
    return w, vals


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A concrete box-bounded objective, evaluated as ``fn(x, rng)``.

    ``x`` holds points of shape (..., D) and gives values of shape (...),
    with one noise draw per point in C order; a single point (D,) gives a
    float. A built function's ``body`` is the tuple of its components: one
    gives its value, then the noise, then its bias, and several are mixed by
    their Gaussian weights. A body that is a plain callable (see
    :func:`custom_function`) takes one point and is called once per point,
    in C order.

    ``noisy`` multiplies the zero-normalized value by (1 + 0.4 |N(0, 1)|)
    before the bias is added, so noisy values never fall below the noiseless
    ones and the optimum value is preserved in the noise-free limit.
    """

    label: str
    space: SearchSpace
    body: tuple[CompositionComponent, ...] | Callable[[np.ndarray], float]
    noisy: bool = False
    # Each component's sigma^2, once per build: an sqg run makes hundreds of
    # 6-row calls, and each pays every fixed cost of a call.
    sigma2: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        sigma2 = np.array([c.sigma for c in self.body]) ** 2 if isinstance(self.body, tuple) else None
        object.__setattr__(self, "sigma2", sigma2)

    def __call__(self, x, rng: RngStream | None = None):
        x = np.asarray(x, dtype=float)
        if x.ndim < 1 or x.shape[-1] != self.space.dim:
            raise ValueError(f"expected points of shape (..., {self.space.dim})")
        bias = 0.0
        if not isinstance(self.body, tuple):
            rows = x.reshape(-1, x.shape[-1])
            raw = np.array([float(self.body(row)) for row in rows]).reshape(x.shape[:-1])
        elif len(self.body) == 1:
            raw = self.body[0].value(x)
            bias = self.body[0].bias
        else:
            w, vals = _mixture(self.body, self.sigma2, x)
            raw = (w * vals).sum(axis=-1)
        if self.noisy:
            if rng is None:
                raise ValueError("a noisy function needs an rng stream")
            raw = raw * (1.0 + 0.4 * np.abs(rng.standard_normal(x.shape[:-1])))
        values = raw + bias
        return float(values) if x.ndim == 1 else values


def custom_function(label: str, space: SearchSpace, fn: Callable[[np.ndarray], float]) -> TestFunction:
    """Wrap a scalar callable ``fn(x) -> float`` so it can be used wherever a
    TestFunction is; points (..., D) call it once per point."""
    return TestFunction(label=label, space=space, body=fn)


@dataclass
class ComponentDescriptor:
    """One composition entry; lam defaults to box half-range / base half-range."""

    kind: str
    sigma: float = 1.0
    lam: float | None = None
    bias: float = 0.0

    def to_dict(self) -> dict:
        # Not in field order: spec.json names lam "lambda" and puts it last.
        d = {"kind": self.kind, "sigma": self.sigma, "bias": self.bias}
        if self.lam is not None:
            d["lambda"] = self.lam
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ComponentDescriptor":
        what = "composition component"
        casts = {"kind": "str", "sigma": "float", "lambda": "float", "bias": "float"}
        refuse_unknown_keys(json_value(what, d, "object"), casts, what)
        c = json_fields({k: v for k, v in d.items() if v is not None}, casts, what)
        kind = json_value(f"{what}: kind", c.get("kind"), "str")
        return cls(kind, c.get("sigma", 1.0), c.get("lambda"), c.get("bias", 0.0))


@dataclass
class FunctionDescriptor:
    """JSON-compatible recipe for a reproducible function instance.

    Exactly one of ``kind`` (single base) or ``composition`` must be given.
    ``seed`` may be left unset and supplied at build time; the dimension is
    always supplied at build time.
    """

    label: str
    kind: str | None = None
    composition: list[ComponentDescriptor] | None = None
    bounds: tuple[float, float] | None = None
    shifted: bool = True
    rotated: bool = False
    noisy: bool = False
    optimum_on_bounds: bool = False
    bias: float = 0.0
    category: str = "uncategorized"
    seed: int | None = None

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionDescriptor":
        label = json_value("function", d, "object").get("label")
        check_names("function label", [label])
        what = f"function {label!r}"
        # Each field after the label by its annotation's type: "str", "bool", ...
        casts = {f.name: f.type.removesuffix(" | None") for f in fields(cls)[1:]}
        casts["composition"] = lambda v: json_list(what, "composition", v, ComponentDescriptor.from_dict)
        casts["bounds"] = lambda v: tuple(json_list(what, "bounds", v, "float"))
        refuse_unknown_keys(d, ["label", *casts], what)
        return cls(label, **json_fields({k: v for k, v in d.items() if v is not None}, casts, what))


def _sample_shift(space: SearchSpace, rng: RngStream, shifted: bool, on_bounds: bool) -> np.ndarray:
    if not shifted:
        return np.zeros(space.dim)
    o = space.sample_uniform(rng)
    if on_bounds:
        # Pin alternating components to a bound so part of the optimum sits
        # exactly on the box edge; the rest stays interior.
        idx = np.arange(1, space.dim, 2) if space.dim > 1 else np.array([0])
        for i in idx:
            o[i] = space.lower[i] if rng.random() < 0.5 else space.upper[i]
    return o


def resolve_descriptor(
    desc: FunctionDescriptor, seed: int | None = None, dim: int | None = None
) -> tuple[int, SearchSpace, list[ComponentDescriptor]]:
    """The seed, box and component entries a descriptor builds from at ``dim``.

    Every refusal of :func:`make_test_function` happens here, and nothing
    here draws, so a whole benchmark can be checked before anything is built.
    ``seed`` falls back to the descriptor's field.
    """
    if seed is None:
        seed = desc.seed
    if seed is None or seed < 0:
        raise ValueError(f"{desc.label}: a non-negative seed is required, in the descriptor or supplied")
    if dim is None or dim < 1:
        raise ValueError(f"{desc.label}: a positive dimension is required")

    single = desc.kind is not None
    if single == (desc.composition is not None):
        raise ValueError(f"{desc.label}: exactly one of kind or composition must be set")
    if not single and len(desc.composition) < 2:
        raise ValueError(f"{desc.label}: a composition needs at least 2 components")
    if not single and (desc.bias or desc.optimum_on_bounds):
        raise ValueError(f"{desc.label}: a composition takes no bias or optimum_on_bounds; set component biases")
    # A single body is the one-entry case of a composition's component list.
    entries = [ComponentDescriptor(desc.kind, lam=1.0, bias=desc.bias)] if single else desc.composition
    for c in entries:
        if c.kind not in BASE_FUNCTIONS:
            raise ValueError(f"{desc.label}: unknown base function kind {c.kind!r}")
        if dim < BASE_FUNCTIONS[c.kind].min_dim:
            raise ValueError(f"{desc.label}: {c.kind} needs dim >= {BASE_FUNCTIONS[c.kind].min_dim}")
        if not (0.0 < c.sigma < np.inf and (c.lam is None or 0.0 < c.lam < np.inf)):
            raise ValueError(f"{desc.label}: component sigma and lambda must be positive and finite")
        if not -np.inf < c.bias < np.inf:
            raise ValueError(f"{desc.label}: a bias must be finite, got {c.bias}")

    half_range = BASE_FUNCTIONS[desc.kind].half_range if single else 5.0
    bounds = tuple(desc.bounds) if desc.bounds is not None else (-half_range, half_range)
    if len(bounds) != 2:
        raise ValueError(f"{desc.label}: bounds must be a pair (lower, upper), got {bounds}")
    try:
        return seed, SearchSpace.box(dim, *bounds), entries
    except ValueError as err:  # the box's own refusals: unordered, infinite or overflowing bounds
        raise ValueError(f"{desc.label}: bounds {bounds}: {err}") from None


def make_test_function(
    desc: FunctionDescriptor, seed: int | None = None, dim: int | None = None
) -> TestFunction:
    """Build the concrete function instance a descriptor describes.

    The same (descriptor, seed, dim) always produces the same shifts and
    rotations. ``seed`` falls back to the descriptor's field; a descriptor
    that cannot build is refused by :func:`resolve_descriptor`.
    """
    seed, space, entries = resolve_descriptor(desc, seed, dim)
    half_width = float(space.upper[0] - space.lower[0]) / 2.0

    rng = make_rng(seed)
    comps = []
    for c in entries:
        lam = c.lam if c.lam is not None else half_width / BASE_FUNCTIONS[c.kind].half_range
        shift = _sample_shift(space, rng, desc.shifted, desc.optimum_on_bounds)
        rotation = random_rotation(space.dim, rng) if desc.rotated else None
        comps.append(CompositionComponent(c.kind, shift, rotation, c.bias, c.sigma, lam))
    return TestFunction(label=desc.label, space=space, body=tuple(comps), noisy=desc.noisy)


_SUITE_SEED = 101

_STANDARD_MIX = ("rastrigin", "weierstrass", "griewank", "ackley", "sphere")
_EXPANDED_MIX = ("griewank_rosenbrock", "schaffer_f6", "ackley", "rastrigin", "sphere")


def _mix(kinds, sigmas=None) -> list[ComponentDescriptor]:
    sigmas = sigmas or [1.0] * len(kinds)
    return [ComponentDescriptor(kind=k, sigma=s) for k, s in zip(kinds, sigmas)]


def default_suite() -> list[FunctionDescriptor]:
    """Benchmark suite spanning four difficulty categories.

    Unimodal, basic multimodal, expanded multimodal, and hybrid composition
    functions, with shift/rotation/noise/boundary-optimum variations. Seeds
    are fixed per label so instances are stable across runs.
    """
    entries: list[tuple[str, dict]] = [
        ("shifted_sphere", dict(kind="sphere", category="unimodal")),
        ("shifted_schwefel12", dict(kind="schwefel12", category="unimodal")),
        ("shifted_rotated_elliptic", dict(kind="elliptic", rotated=True, category="unimodal")),
        ("shifted_schwefel12_noisy", dict(kind="schwefel12", noisy=True, category="unimodal")),
        ("shifted_rosenbrock", dict(kind="rosenbrock", category="multimodal_basic")),
        ("shifted_rotated_griewank", dict(kind="griewank", rotated=True, category="multimodal_basic")),
        (
            "shifted_rotated_ackley_bounds",
            dict(kind="ackley", rotated=True, optimum_on_bounds=True, category="multimodal_basic"),
        ),
        ("shifted_rastrigin", dict(kind="rastrigin", category="multimodal_basic")),
        ("shifted_rotated_rastrigin", dict(kind="rastrigin", rotated=True, category="multimodal_basic")),
        ("shifted_rotated_weierstrass", dict(kind="weierstrass", rotated=True, category="multimodal_basic")),
        (
            "shifted_griewank_rosenbrock",
            dict(kind="griewank_rosenbrock", category="multimodal_expanded"),
        ),
        (
            "shifted_rotated_schaffer_f6",
            dict(kind="schaffer_f6", rotated=True, category="multimodal_expanded"),
        ),
        ("hybrid_basic", dict(composition=_mix(_STANDARD_MIX), category="multimodal_hybrid")),
        (
            "hybrid_rotated",
            dict(composition=_mix(_STANDARD_MIX), rotated=True, category="multimodal_hybrid"),
        ),
        (
            "hybrid_rotated_noisy",
            dict(composition=_mix(_STANDARD_MIX), rotated=True, noisy=True, category="multimodal_hybrid"),
        ),
        (
            "hybrid_rotated_narrow",
            dict(
                composition=_mix(_STANDARD_MIX, sigmas=[0.1, 1.0, 1.0, 1.0, 2.0]),
                rotated=True,
                category="multimodal_hybrid",
            ),
        ),
        (
            "hybrid_rotated_mixed",
            dict(composition=_mix(_EXPANDED_MIX), rotated=True, category="multimodal_hybrid"),
        ),
    ]
    return [FunctionDescriptor(label, seed=derive_seed(_SUITE_SEED, label), **kwargs) for label, kwargs in entries]


def suite_by_label() -> dict[str, FunctionDescriptor]:
    return {d.label: d for d in default_suite()}
