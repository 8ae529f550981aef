"""Locate the circle zeros of paraorthogonal polynomials and check interlacing.

Zero location works on the rotated real-valued trace (see para.real_form):
its zeros on [0, 2pi) are exactly the polynomial's zeros relative to the
base point, they are simple, and the sign alternates between consecutive
zeros, so sign-change bracketing plus bisection is a complete detector.
The brackets come from the eigenvalues of the cut-off CMV matrix, which
are the zeros; the trace must change sign across every cell between
consecutive eigenvalues, which certifies that each cell holds exactly
one zero.  Where that certificate fails, a doubling grid scan with a
cluster zoom looks for the sign changes instead.  The base point itself
is handled out of band: for the first kind it is a known zero pinned at
theta = 0; for the second kind the trace equals +2 at theta = 0 and
2(-1)^n as theta -> 2pi, and those exact values are used as endpoint
signs (the evaluated trace loses all precision there once magnitudes
are large, while the true values are fixed).

Interlacing compares two zero sets.  Zeros of the two sets closer than
COLLISION_TOL cannot be ordered from their float64 angles; interlace
orders them at raised precision from the sets' source polynomials (see
the precision module).

An independent verification path locates local minima of the polynomial
modulus (kernel-sum definition) on a dense grid and refines them by
golden-section search; it shares nothing with the sign-change route
except the polynomial itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import precision
from .errors import AmbiguousMinimaError, ResolutionError
from .para import ParaPolynomial, _trace_at_levels, beta_coefficient, para_eval, real_form_grid

TWO_PI = 2.0 * math.pi

# collision threshold between distinct zero sets, below which float64
# angles cannot order two zeros and interlace raises the precision
COLLISION_TOL = 1e-10
# half-width of the bracket tried around each CMV eigenvalue angle
NARROW = 1e-9
# largest Cayley-transform eigenvalue accepted, and the pole's step
CAYLEY_LIMIT = 1e3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# largest degree whose brackets come from the CMV eigenvalues; the dense
# eigenproblem holds several n x n complex matrices at once (10 MB at
# n = 400), so higher degrees keep to the grid scan, whose memory is O(n)
EIGEN_MAX_N = 200
# most trace samples one batched evaluation of find_zeros_sweep takes
SWEEP_BATCH = 16384


@dataclass
class ZeroFindConfig:
    initial_grid_multiplier: int = 8
    max_refinements: int = 6
    theta_tol: float = 1e-12
    residual_tol: float = 1e-6  # relative to the grid evaluation scale


@dataclass
class ZeroSet:
    """All n zeros of one polynomial, as angles relative to the base point."""

    kind: str
    n: int
    lambda_theta: float
    angles: np.ndarray
    residuals: np.ndarray
    scale: float
    simplicity: bool
    # the polynomial the zeros belong to; interlace needs it to decide
    # colliding zeros at raised precision (never serialized)
    source: ParaPolynomial | None = field(default=None, repr=False, compare=False)

    def interior_angles(self) -> np.ndarray:
        """Angles with the pinned base-point zero (first kind) removed."""
        if self.kind == "first":
            return self.angles[self.angles > 0.0]
        return self.angles

    def without_base_point(self) -> "ZeroSet":
        """The set with the pinned base-point zero (first kind) removed."""
        keep = self.angles > 0.0 if self.kind == "first" else slice(None)
        return replace(self, angles=self.angles[keep], residuals=self.residuals[keep])

    def absolute_angles(self) -> np.ndarray:
        return (self.angles + self.lambda_theta) % TWO_PI

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "lambda_theta": self.lambda_theta,
            "angles": [float(a) for a in self.angles],
            "residuals": [float(r) for r in self.residuals],
            "scale": self.scale,
            "simplicity": self.simplicity,
        }

    def to_csv_rows(self) -> list[list]:
        rows = []
        for i, (a, r) in enumerate(zip(self.angles, self.residuals)):
            rows.append([i, float(a), float((a + self.lambda_theta) % TWO_PI), float(r)])
        return rows


CSV_COLUMNS = ["index", "theta", "theta_abs", "residual"]


def _bisect(fun, lo, hi, flo, tol):
    """Vectorized bisection on sign changes; returns bracket midpoints.

    Each bracket is halved until it is narrower than tol; fun(thetas,
    sel) evaluates the trace at the midpoints of the brackets `sel`.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(flo, dtype=float).copy()
    if lo.size == 0:
        return lo
    steps = np.maximum(1, np.ceil(np.log2(np.maximum(hi - lo, tol) / tol))).astype(int)
    for step in range(int(steps.max())):
        sel = np.nonzero(steps > step)[0]
        mid = 0.5 * (lo[sel] + hi[sel])
        fm = fun(mid, sel)
        left = flo[sel] * fm <= 0.0
        hi[sel] = np.where(left, mid, hi[sel])
        lo[sel] = np.where(left, lo[sel], mid)
        flo[sel] = np.where(left, flo[sel], fm)
    return 0.5 * (lo + hi)


def _grid_values(p: ParaPolynomial, m: int):
    """Trace values on the m+1 point grid with exact endpoint pinning."""
    th = np.linspace(0.0, TWO_PI, m + 1)
    f = np.empty(m + 1)
    inner, _, _ = real_form_grid(p, th[1:-1])
    f[1:-1] = inner
    if p.kind == "first":
        f[0] = 0.0
        f[-1] = 0.0
    else:
        f[0] = 2.0
        f[-1] = 2.0 if p.n % 2 == 0 else -2.0
    return th, f


def _sign_brackets(p: ParaPolynomial, th: np.ndarray, f: np.ndarray):
    """Indices i with a sign change in cell (th_i, th_{i+1})."""
    prod = f[:-1] * f[1:]
    idx = np.nonzero(prod < 0.0)[0]
    if p.kind == "first":
        # endpoint cells border the pinned zero; interior zeros there are
        # caught by the count check and grid refinement
        idx = idx[(idx != 0) & (idx != len(f) - 2)]
    return idx


def _zoom_cell(p: ParaPolynomial, a: float, b: float, tol: float, depth: int = 60):
    """Search one no-sign-change cell for an even cluster of zeros.

    Subdivides, following the smallest |trace| subcell; returns bracket
    triples (lo, hi, f_lo) for any sign changes uncovered.
    """
    for _ in range(depth):
        th = np.linspace(a, b, 17)
        v, _, _ = real_form_grid(p, th)
        hits = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        if hits.size:
            return [(th[i], th[i + 1], v[i]) for i in hits]
        if b - a < 4.0 * tol:
            return []
        j = int(np.argmin(np.abs(v)))
        a, b = th[max(j - 1, 0)], th[min(j + 1, 16)]
    return []


def _cmv_matrix(p: ParaPolynomial) -> np.ndarray:
    """The n x n cut-off CMV matrix L M whose eigenvalues are the zeros of p.

    Its coefficients are alpha_0..alpha_{n-2} (flipped for the second
    kind) and, in place of alpha_{n-1}, the unimodular
    beta_coefficient(p), which makes it unitary; its characteristic
    polynomial is then the monic paraorthogonal polynomial (Cantero,
    Moral and Velazquez, LAA 362, 2003).  With L = Theta_0 + Theta_2 +
    ... and M = 1 + Theta_1 + Theta_3 + ..., Theta_j = [[conj(a_j),
    rho_j], [rho_j, -a_j]], rows 2i, 2i+1 of L M are Theta_{2i} times
    rows 2i, 2i+1 of M, which sit on columns 2i-1 .. 2i+2.
    """
    n = p.n
    a = p.seq.alphas(n - 1)
    if p.kind == "second":
        a = -a
    m = n + n % 2
    al = np.zeros(m + 2, dtype=complex)  # al[j + 1] = alpha_j; alpha_{-1} = -1 makes M's 1 x 1 block
    al[0] = -1.0
    al[1:n] = a
    al[n] = beta_coefficient(p)
    rho = np.sqrt(np.maximum(1.0 - np.abs(al) ** 2, 0.0))
    rho[n:] = 0.0
    i = np.arange(0, m, 2)
    theta = np.array([[np.conj(al[i + 1]), rho[i + 1]], [rho[i + 1], -al[i + 1]]]).transpose(2, 0, 1)
    rows_m = np.zeros((i.size, 2, 4), dtype=complex)
    rows_m[:, 0, 0], rows_m[:, 0, 1] = rho[i], -al[i]
    rows_m[:, 1, 2], rows_m[:, 1, 3] = np.conj(al[i + 2]), rho[i + 2]
    blocks = np.einsum("kab,kbc->kac", theta, rows_m)
    rows = np.broadcast_to((i[:, None] + np.arange(2))[:, :, None], blocks.shape)
    cols = np.broadcast_to((i[:, None] - 1 + np.arange(4))[:, None, :], blocks.shape)
    keep = (rows < n) & (cols >= 0) & (cols < n)
    c = np.zeros((n, n), dtype=complex)
    c[rows[keep], cols[keep]] = blocks[keep]
    return c


def _cmv_angles(p: ParaPolynomial) -> np.ndarray:
    """Zero angles relative to lambda, sorted in [0, 2pi), from the CMV matrix.

    The unitary matrix C is turned Hermitian by the Cayley transform
    H = i (I - V)(I + V)^-1 of V = -conj(zeta) C, whose eigenvalues
    tan(phi / 2) give those of C as zeta e^{i (phi + pi)}; a Hermitian
    eigensolver is several times faster than the general one.  The pole
    zeta must stay clear of every eigenvalue, since the absolute error
    of the angles grows like |H|: it starts opposite lambda and moves by
    golden-ratio turns while |H| exceeds CAYLEY_LIMIT (after eight poles
    the last is kept: coarse angles only make the certificate fail).  For
    the first kind the eigenvalue at lambda itself is dropped.
    """
    c = _cmv_matrix(p)
    eye = np.eye(p.n)
    for k in range(8):
        psi = math.pi + TWO_PI * ((k * GOLDEN) % 1.0)
        v = -np.exp(-1j * psi) * np.conj(p.lam) * c
        h = 1j * np.linalg.solve(eye + v, eye - v)
        mu = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
        if np.max(np.abs(mu)) <= CAYLEY_LIMIT:
            break
    th = np.sort((psi + math.pi + 2.0 * np.arctan(mu)) % TWO_PI)
    if p.kind == "first":
        th = np.delete(th, np.argmin(np.minimum(th, TWO_PI - th)))
    return th


def _search_points(p: ParaPolynomial, t: np.ndarray, cfg: ZeroFindConfig):
    """Cells around the sorted zero estimates t, a narrow bracket in each,
    and the grid that sets the scale.

    Cells end at the midpoints between consecutive estimates; for the
    second kind the outer cells end at the base point, where the trace
    is known exactly.  The narrow bracket is t +- max(NARROW, theta_tol),
    clipped to the cell.  The interior points of the initial grid of
    initial_grid_multiplier * n cells only measure the trace's size: a
    midpoint can sit far below the peak of a wide cell (a gap in the
    support).  Returns (midpoints, cell lo, cell hi, narrow lo, narrow
    hi, grid).
    """
    if p.kind == "first":
        edges = np.concatenate([[0.0], t, [TWO_PI]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        lo, hi = mids[:-1], mids[1:]
    else:
        mids = 0.5 * (t[:-1] + t[1:])
        lo, hi = np.concatenate([[0.0], mids]), np.concatenate([mids, [TWO_PI]])
    w = max(NARROW, cfg.theta_tol)
    grid = np.linspace(0.0, TWO_PI, cfg.initial_grid_multiplier * p.n + 1)[1:-1]
    return mids, lo, hi, np.maximum(t - w, lo), np.minimum(t + w, hi), grid


def _search_thetas(points) -> np.ndarray:
    """Where the search samples the trace: midpoints, narrow ends, grid."""
    mids, _, _, nlo, nhi, grid = points
    return np.concatenate([mids, nlo, nhi, grid])


def _certified_brackets(p: ParaPolynomial, points, values):
    """Brackets from the search points, or None without a sign-change certificate.

    The trace must change sign across every cell; the n cells then hold
    the n zeros one each (n - 1 interior ones for the first kind).  A
    narrow bracket replaces its cell where the trace changes sign across
    it too.  Returns (lo, hi, f_lo, scale), scale the largest |trace|
    sampled.
    """
    mids, lo, hi, nlo, nhi, _ = points
    fmid, fnlo, fnhi, fgrid = np.split(values, np.cumsum([mids.size, nlo.size, nhi.size]))
    if p.kind == "first":
        f = fmid
    else:
        f = np.concatenate([[2.0], fmid, [2.0 if p.n % 2 == 0 else -2.0]])
    scale = float(np.max(np.abs(np.concatenate([f, fgrid]))))
    if np.any(f[:-1] * f[1:] >= 0.0):
        return None
    flo, fhi = f[:-1], f[1:]
    fnlo = np.where(nlo == lo, flo, fnlo)
    fnhi = np.where(nhi == hi, fhi, fnhi)
    narrow = fnlo * fnhi < 0.0
    return (np.where(narrow, nlo, lo), np.where(narrow, nhi, hi),
            np.where(narrow, fnlo, flo), scale)


def _placements(p: ParaPolynomial, t: np.ndarray, cfg: ZeroFindConfig):
    """The zero estimates t, then t with an estimate at the base point moved across it.

    A second-kind zero closer to lambda than the eigenvalue accuracy can
    come out on either side of the cut at theta = 0; only the signs tell.
    """
    yield t
    w = max(NARROW, cfg.theta_tol)
    if p.kind == "second" and t.size > 1 and (t[0] < w or t[-1] > TWO_PI - w):
        yield np.sort(np.where(t < w, t + TWO_PI, np.where(t > TWO_PI - w, t - TWO_PI, t)))


def _eigen_brackets(p: ParaPolynomial, t: np.ndarray, cfg: ZeroFindConfig, first_values):
    """Certified brackets around the estimates t, trying each placement in turn.

    first_values are the trace values at the search points of the first
    placement (the zero path evaluates those in one batch).
    """
    for i, cand in enumerate(_placements(p, t, cfg)):
        points = _search_points(p, cand, cfg)
        values = first_values if i == 0 else real_form_grid(p, _search_thetas(points))[0]
        brackets = _certified_brackets(p, points, values)
        if brackets is not None:
            return brackets
    return None


def _grid_brackets(p: ParaPolynomial, cfg: ZeroFindConfig):
    """Sign-change brackets from a doubling grid scan and a cluster zoom.

    The grid starts at initial_grid_multiplier * n points and doubles up
    to max_refinements times until the expected sign-change count is
    seen; cells whose trace dips without changing sign are then zoomed
    as a last resort (tight even clusters).  Anything still missing is a
    ResolutionError reporting the found count.  Returns (lo, hi, f_lo,
    scale).
    """
    n = p.n
    target = n - 1 if p.kind == "first" else n

    th = f = None
    idx = np.empty(0, dtype=int)
    for level in range(cfg.max_refinements + 1):
        m = cfg.initial_grid_multiplier * n * (1 << level)
        th, f = _grid_values(p, m)
        if np.any(f[1:-1] == 0.0):
            # exact grid hit: shift interior points deterministically
            shifted = th[1:-1] + (th[1] - th[0]) * 0.37
            inner, _, _ = real_form_grid(p, shifted)
            th = np.concatenate([[0.0], shifted, [TWO_PI]])
            f = np.concatenate([[f[0]], inner, [f[-1]]])
        idx = _sign_brackets(p, th, f)
        if idx.size == target:
            break
    scale = float(np.max(np.abs(f[1:-1]))) if len(f) > 2 else 1.0

    lo, hi, flo = th[idx], th[idx + 1], f[idx]
    if idx.size != target:
        extra = []
        if idx.size < target:
            quiet = np.setdiff1d(np.arange(len(f) - 1), idx)
            if p.kind == "first":
                quiet = quiet[(quiet != 0) & (quiet != len(f) - 2)]
            dip = np.minimum(np.abs(f[quiet]), np.abs(f[quiet + 1]))
            order = quiet[np.argsort(dip)]
            for cell in order[: 4 * (target - idx.size) + 8]:
                extra.extend(_zoom_cell(p, th[cell], th[cell + 1], cfg.theta_tol))
                if idx.size + len(extra) >= target:
                    break
        if idx.size + len(extra) != target:
            found = idx.size + len(extra) + (1 if p.kind == "first" else 0)
            raise ResolutionError(
                n,
                found,
                f"{p.kind}-kind degree {n}: isolated {found} of {n} zeros after "
                f"{cfg.max_refinements} grid doublings (base point "
                f"lambda = {p.lam})",
            )
        if extra:
            lo = np.concatenate([lo, [e[0] for e in extra]])
            hi = np.concatenate([hi, [e[1] for e in extra]])
            flo = np.concatenate([flo, [e[2] for e in extra]])
    return lo, hi, flo, scale


def find_zeros(p: ParaPolynomial, cfg: ZeroFindConfig | None = None) -> ZeroSet:
    """All n zeros of the polynomial, bracketed by sign changes of the trace.

    The brackets come from the eigenvalues of the cut-off CMV matrix and
    are certified by a sign change of the trace across every cell; where
    that certificate fails, or above EIGEN_MAX_N, the grid scan of
    _grid_brackets takes over.
    Brackets are then bisected to theta_tol.  A degree whose zeros
    cannot be isolated is a ResolutionError reporting the found count; a
    short list is never returned silently.  This is find_zeros_sweep on
    the one degree of p.
    """
    return _zero_sets({p.n: p}, cfg or ZeroFindConfig(), skip_unresolved=False)[p.n]


def _all_roots(p: ParaPolynomial, roots: np.ndarray) -> np.ndarray:
    """The refined interior zeros plus the pinned one (first kind), sorted."""
    if p.kind == "first":
        roots = np.concatenate([[0.0], roots])
    return np.sort(roots)


def _midpoints(roots: np.ndarray) -> np.ndarray:
    return 0.5 * (roots[:-1] + roots[1:])


def _assemble(p: ParaPolynomial, roots: np.ndarray, values: np.ndarray, scale: float,
              cfg: ZeroFindConfig) -> ZeroSet:
    """Check and package the refined zeros; values holds the trace at the
    roots followed by the trace at the midpoints between them."""
    residuals = np.abs(values[: roots.size])
    bad = residuals > cfg.residual_tol * scale
    if np.any(bad):
        raise ResolutionError(
            p.n,
            int(np.sum(~bad)),
            f"{int(np.sum(bad))} refined zeros have residual above "
            f"{cfg.residual_tol} * scale",
        )
    if np.any(np.diff(roots) <= 0.0):
        raise ResolutionError(p.n, len(roots), "refined zeros are not strictly increasing")
    msign = np.sign(values[roots.size :])
    simplicity = bool(np.all(msign[:-1] * msign[1:] < 0.0)) and bool(np.all(msign != 0.0))
    lam_theta = float(np.angle(p.lam) % TWO_PI)
    return ZeroSet(p.kind, p.n, lam_theta, roots, residuals, scale, simplicity, source=p)


def find_zeros_sweep(
    kind: str,
    lam: complex,
    seq,
    n_values,
    cfg: ZeroFindConfig | None = None,
    skip_unresolved: bool = False,
) -> dict[int, ZeroSet]:
    """find_zeros for a whole range of degrees of one family at once.

    Eigenvalues and grid fallbacks run per degree, but the certificate,
    all bracket refinements and the final checks are batched through
    one multi-level evaluation per step, which is what makes long degree
    sweeps affordable.  Results match find_zeros.

    With skip_unresolved, degrees whose zeros cannot be isolated are
    left out of the result instead of aborting the sweep; callers must
    treat missing keys as explicit resolution failures.
    """
    polys = {n: ParaPolynomial(kind, n, lam, seq) for n in sorted(set(int(n) for n in n_values))}
    return _zero_sets(polys, cfg or ZeroFindConfig(), skip_unresolved)


def _zero_sets(polys: dict[int, ParaPolynomial], cfg: ZeroFindConfig,
               skip_unresolved: bool) -> dict[int, ZeroSet]:
    """The zero path of find_zeros and find_zeros_sweep.

    polys maps increasing degrees to polynomials of one family (kind,
    base point and coefficients).  The highest one evaluates the trace of
    every degree, and its base-point values, one recursion pass, serve
    every degree: level j does not depend on the degree.
    """
    top = polys[max(polys)]
    lam_phi, lam_star = top._lambda_values()
    for n, p in polys.items():
        if p._lam_phi is None:
            p._lam_phi, p._lam_star = lam_phi[: n + 1], lam_star[: n + 1]

    def trace(parts):
        """Trace at per-degree point lists, returned split the same way.

        Degrees go in batches of at most SWEEP_BATCH points, which bounds
        the memory of the multi-level evaluation.
        """
        out, degrees = {}, list(parts)
        while degrees:
            batch, size = [], 0
            while degrees and (not batch or size + parts[degrees[0]].size <= SWEEP_BATCH):
                batch.append(degrees.pop(0))
                size += parts[batch[-1]].size
            th = np.concatenate([parts[n] for n in batch])
            nn = np.concatenate([np.full(parts[n].size, n) for n in batch])
            flat = _trace_at_levels(top, th, nn)
            out.update(zip(batch, np.split(flat, np.cumsum([parts[n].size for n in batch])[:-1])))
        return out

    estimates = {n: _cmv_angles(p) for n, p in polys.items() if n <= EIGEN_MAX_N}
    values = trace({n: _search_thetas(_search_points(polys[n], t, cfg)) for n, t in estimates.items()})
    found: dict[int, tuple] = {}
    for n, p in polys.items():
        try:
            brackets = _eigen_brackets(p, estimates[n], cfg, values[n]) if n in estimates else None
            found[n] = brackets or _grid_brackets(p, cfg)
        except ResolutionError:
            if not skip_unresolved:
                raise

    out: dict[int, ZeroSet] = {}
    if not found:
        return out
    lo, hi, flo = (np.concatenate([b[i] for b in found.values()]) for i in range(3))
    nn = np.concatenate([np.full(b[0].size, n) for n, b in found.items()])
    roots = _bisect(lambda th, sel: _trace_at_levels(top, th, nn[sel]), lo, hi, flo, cfg.theta_tol)
    roots = {n: _all_roots(polys[n], roots[nn == n]) for n in found}
    checks = trace({n: np.concatenate([r, _midpoints(r)]) for n, r in roots.items()})
    for n, r in roots.items():
        try:
            out[n] = _assemble(polys[n], r, checks[n], found[n][3], cfg)
        except ResolutionError:
            if not skip_unresolved:
                raise
    return out


def oracle_zeros(p: ParaPolynomial, grid_points: int | None = None) -> ZeroSet:
    """Slow cross-check: modulus minima on a dense grid, golden-section refined.

    Uses |p(z)| through the kernel-sum definition and never consults the
    real trace for locations, so it is structurally independent of
    find_zeros.  Minima count mismatches raise AmbiguousMinimaError with
    the candidate list.
    """
    n = p.n
    m = 64 * n if grid_points is None else int(grid_points)
    if m < 64 * n:
        raise ValueError(f"oracle grid needs at least 64*n = {64 * n} points, got {m}")

    def g(thetas):
        return np.abs(para_eval(p, p.lam * np.exp(1j * np.asarray(thetas)), "kernel"))

    th = np.arange(m) * (TWO_PI / m)
    gv = g(th)
    left = np.roll(gv, 1)
    right = np.roll(gv, -1)
    is_min = (gv <= left) & (gv <= right) & ((gv < left) | (gv < right))
    cand = np.nonzero(is_min)[0]
    if cand.size == 0:
        raise AmbiguousMinimaError([], f"no modulus minima on a {m}-point grid")

    a = th[cand] - TWO_PI / m
    b = th[cand] + TWO_PI / m
    local_scale = np.maximum(g(a), g(b))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = g(c), g(d)
    while float(np.max(b - a)) > 1e-11:
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = g(c), g(d)
    mins = 0.5 * (a + b)
    vals = g(mins)
    keep = vals <= 1e-7 * np.maximum(local_scale, 1e-300)
    zeros = np.mod(mins[keep], TWO_PI)
    if p.kind == "first":
        # the pinned zero may be localized on either side of the wrap
        zeros = np.where(zeros > TWO_PI - 1e-9, 0.0, zeros)
        zeros[np.abs(zeros) < 1e-12] = 0.0
    zeros = np.sort(zeros)
    dup = np.nonzero(np.diff(zeros) < 1e-12)[0]
    if dup.size:
        zeros = np.delete(zeros, dup + 1)
    if zeros.size != n:
        raise AmbiguousMinimaError(
            list(zip(np.mod(mins, TWO_PI), vals)),
            f"{p.kind}-kind degree {n}: modulus oracle found {int(zeros.size)} "
            f"zeros on a {m}-point grid",
        )
    values, _, _ = real_form_grid(p, zeros)
    grid_scale = float(np.max(g(th)))
    lam_theta = float(np.angle(p.lam) % TWO_PI)
    simplicity = True
    if len(zeros) > 1:
        mids = 0.5 * (zeros[:-1] + zeros[1:])
        msign = np.sign(real_form_grid(p, mids)[0])
        simplicity = bool(np.all(msign[:-1] * msign[1:] < 0.0))
    return ZeroSet(p.kind, n, lam_theta, zeros, np.abs(values), grid_scale, simplicity, source=p)


# ---------------------------------------------------------------------------
# interlacing


@dataclass
class InterlaceVerdict:
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: dict = field(default_factory=dict)
    # colliding zero pairs ordered at raised precision, counted by the
    # precision.LADDER label of the precision that decided them
    decided: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _circular_gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs((x - y + math.pi) % TWO_PI - math.pi)


def _order_collisions(a: ZeroSet, b: ZeroSet, xa, xb, pairs, collision_tol: float):
    """The angles of a and b with each colliding pair moved into its true order.

    pairs lists (i, j) with xa[i] and xb[j] closer than collision_tol.
    For each, b's zero is decided to lie just after (+1) or just before
    (-1) a's zero, counterclockwise, at the first precision of
    precision.LADDER that clears its rounding bound.  A pinned
    first-kind zero at theta = 0 is exact; its partner is placed by the
    side of lambda it lies on.  Every other pair is ordered by the sign
    of b's trace at a's refined zero, against the sign b's trace has
    just below its own zero: right after lambda it is +1 (second kind,
    value 2 at lambda) or -1 (first kind), and it flips at each zero.
    The moved zero goes to 1e-3 collision_tol from its partner, so no
    other order changes.

    A zero of a may collide with two zeros of b, which are then
    neighbours in b.  The sign at a's zero gives only the parity of the
    number of b's zeros below it, so it decides the one odd case: a's
    zero lies between the two (as at a symmetric gap in the support).

    Returns (xa, xb, decided), or None if a pair stays open, a set has
    no source polynomial, the sources differ in coefficient sequence or
    base point, a non-pinned zero lies within collision_tol of lambda, a
    zero of b takes part in two pairs, or a zero of a in more than two or
    lies outside its two partners.
    """
    fa, fb = a.source, b.source
    i, j = pairs[:, 0], pairs[:, 1]
    first, repeats = np.unique(i, return_counts=True)
    if (fa is None or fb is None or fa.seq is not fb.seq or fa.lam != fb.lam or repeats.max() > 2
            or not (a.simplicity and b.simplicity) or np.unique(j).size < j.size):
        return None
    pinned_a = (a.kind == "first") & (xa[i] == 0.0)
    pinned_b = (b.kind == "first") & (xb[j] == 0.0)
    ordinary = ~pinned_a & ~pinned_b
    near_base = np.minimum(np.minimum(xa[i], TWO_PI - xa[i]), np.minimum(xb[j], TWO_PI - xb[j]))
    doubled = np.isin(i, first[repeats == 2])
    if np.any(ordinary & (near_base < collision_tol)) or np.any(doubled & ~ordinary):
        return None
    below = (-1.0 if b.kind == "first" else 1.0) * (-1.0) ** np.searchsorted(b.interior_angles(), xb[j])

    # b's zero after a's pinned one lies after lambda; a's zero after b's
    # pinned one puts b's zero before it
    one = np.ones(len(pairs))
    cases = [c for c in ((ordinary, fa, fb, xa[i], below), (pinned_a, fb, None, xb[j], one),
                         (pinned_b, fa, None, xa[i], -one)) if c[0].any()]
    relation = np.zeros(len(pairs))
    label = np.full(len(pairs), "", dtype=object)
    results = precision.order([(f, g, theta[m]) for m, f, g, theta, _ in cases])
    for (m, *_, ref), (sign, stage) in zip(cases, results):
        relation[m] = sign * ref[m]
        label[m] = stage
    if np.any(label == ""):
        return None
    for k in np.nonzero(repeats == 2)[0]:
        lower, upper = sorted(np.nonzero(i == first[k])[0], key=lambda m: xb[j[m]])
        if relation[lower] > 0 or relation[upper] < 0:
            return None

    xa, xb = xa.copy(), xb.copy()
    gap = 1e-3 * collision_tol
    xb[j[ordinary]] = xa[i[ordinary]] + relation[ordinary] * gap
    xb[j[pinned_a]] = np.where(relation[pinned_a] > 0, gap, TWO_PI - gap)
    xa[i[pinned_b]] = np.where(relation[pinned_b] < 0, gap, TWO_PI - gap)
    stages, counts = np.unique(label.astype(str), return_counts=True)
    return xa, xb, dict(zip(stages.tolist(), counts.tolist()))


def interlace(a: ZeroSet, b: ZeroSet, collision_tol: float = COLLISION_TOL) -> InterlaceVerdict:
    """Strict circular interlacing of two zero sets.

    Same-degree sets: every open arc between consecutive zeros of `a`
    must contain exactly one zero of `b` (arcs wrap at 2pi).  If `b` has
    one zero more than `a`, the variant for consecutive degrees applies:
    on the interval cut at the base point, the zeros must alternate
    b, a, b, ..., a, b (callers strip the shared base-point zero first).

    Float64 angles cannot order two zeros closer than collision_tol.
    Such pairs are ordered at raised precision from the source
    polynomials of the two sets (see _order_collisions and the precision
    module); the verdict records how many pairs each precision decided.
    It is "inconclusive", with the closest pair as witness, if a set has
    no source, a pair stays open at the highest precision, or the
    collisions take a shape _order_collisions does not decide.  The one
    exception is two identical angle lists - a degenerate
    self-comparison, which fails outright with an empty-arc witness.
    """
    if abs(a.lambda_theta - b.lambda_theta) > 1e-12:
        raise ValueError("zero sets have different base points")
    xa = np.asarray(a.angles, dtype=float)
    xb = np.asarray(b.angles, dtype=float)
    if xb.size != xa.size and xb.size != xa.size + 1:
        raise ValueError(
            f"interlacing needs |b| = |a| or |a|+1, got |a|={xa.size}, |b|={xb.size}"
        )
    if xa.size == xb.size == 0:
        raise ValueError("cannot interlace empty zero sets")
    identical = xa.size == xb.size and bool(np.array_equal(xa, xb))
    decided = {}
    if xa.size and xb.size and not identical:
        gaps = _circular_gap(xa[:, None], xb[None, :])
        dmin = float(np.min(gaps))
        if dmin < collision_tol:
            ordered = _order_collisions(a, b, xa, xb, np.argwhere(gaps < collision_tol), collision_tol)
            if ordered is None:
                return InterlaceVerdict(
                    "inconclusive",
                    {"min_pair_distance": dmin, "collision_tol": collision_tol},
                )
            xa, xb, decided = ordered
    bad = None
    if xb.size == xa.size + 1:
        # consecutive-degree variant: zeros alternate b, a, b, ..., a, b on
        # the interval cut at the shared (already removed) base-point zero
        bounds = np.concatenate([[0.0], xa, [TWO_PI]])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            count = int(np.sum((xb > lo) & (xb < hi)))
            if count != 1:
                bad = {"arc": (float(lo), float(hi)), "count": count}
                break
    else:
        for i in range(xa.size):
            lo = xa[i]
            span = (xa[(i + 1) % xa.size] - lo) % TWO_PI
            if xa.size == 1:
                span = TWO_PI
            rel = (xb - lo) % TWO_PI
            count = int(np.sum((rel > 0.0) & (rel < span)))
            if count != 1:
                bad = {"arc": (float(lo % TWO_PI), float((lo + span) % TWO_PI)), "count": count}
                break
    if bad is not None:
        return InterlaceVerdict("fail", bad, decided)
    return InterlaceVerdict("pass", {}, decided)
