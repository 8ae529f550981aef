"""The raised-precision passes of paraortho.precision against mpmath.

The references are the scalar mpmath recursion that the integer
fixed-point pass replaced (mp_pairs) and mpmath's own differentiation of
the value it gives.  Each pass must agree within the bound it states.
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import paraortho as pa
from paraortho import precision
from paraortho.precision import U_DOUBLE, U_LONG
from paraortho.zeros import _circular_gap


def mp_pairs(alphas, x, star0):
    """Reference for the fixed-point pass: the monic pair at level
    len(alphas) at one point, in mpmath complex arithmetic."""
    phi, star = mpmath.mpc(1), mpmath.mpc(star0)
    for a in alphas:
        t = x * phi
        phi, star = t - a.conjugate() * star, star - a * t
    return phi, star


def mp_evaluator(p):
    """z -> p at the mpc point z, at the working mpmath precision."""
    alphas = [mpmath.mpc(a) for a in p.seq.alphas(p.n - 1)]
    lam = mpmath.mpc(p.lam)
    lp, ls = mp_pairs(alphas, lam, 1)

    def value(z):
        phi, star = mp_pairs(alphas, z, 1 if p.kind == "first" else -1)
        v = ls.conjugate() * star - z * lam.conjugate() * lp.conjugate() * phi
        return v if p.kind == "first" else -v

    return value


def mp_pair_product(f):
    """z -> L* P_F(z): f's monic Phi_{n-1} (its own kind's start) times
    the first-kind Phi*_{n-1} at lambda, as the passes carry it for a g
    of the other kind."""
    alphas = [mpmath.mpc(a) for a in f.seq.alphas(f.n - 1)]
    _, ls = mp_pairs(alphas, mpmath.mpc(f.lam), 1)
    return lambda z: ls * mp_pairs(alphas, z, 1 if f.kind == "first" else -1)[0]


def mp_entries(f, g):
    """References for the entries the passes return for the group (f, g):
    F, then g (same kind) or L* P_F (other kind), none for g None."""
    if g is None:
        return [mp_evaluator(f)]
    return [mp_evaluator(f), mp_evaluator(g) if g.kind == f.kind else mp_pair_product(f)]


@pytest.fixture(scope="module")
def colliding():
    """h and s of seed 1 at degrees 100 and 101, and the angles of the zeros
    of h_100 that lie within 1e-10 of a zero of s_100 (24 of them)."""
    seq = pa.RandomSequence(0.7, 1)
    polys = {(kind, n): pa.ParaPolynomial(kind, n, 1.0, seq)
             for kind in ("first", "second") for n in (100, 101)}
    h = pa.find_zeros(polys["first", 100])
    s = pa.find_zeros(polys["second", 100])
    theta = h.angles[np.any(_circular_gap(h.angles[:, None], s.angles[None, :]) < 1e-10, axis=1)]
    assert theta.size == 24
    return polys, theta


def ld_to_mp(z):
    """A long double complex number as an mpc, exactly at 60 digits or more."""
    re, im = float(z.real), float(z.imag)
    return mpmath.mpc(mpmath.mpf(re) + float(z.real - re), mpmath.mpf(im) + float(z.imag - im))


# the two kinds of one degree (h_100, s_100: F and L* P_F on h's row),
# one kind at two levels (h_101, h_100), and a group without g (s_101)
SHAPES = ((("first", 100), ("second", 100)), (("first", 101), ("first", 100)), (("second", 101), None))


def shaped_groups(polys):
    return [tuple(None if key is None else polys[key] for key in shape) for shape in SHAPES]


def test_long_double_pass_matches_mpmath(colliding):
    polys, theta = colliding
    groups = shaped_groups(polys)
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    values = precision._fused_values(groups, [z] * len(groups))
    with mpmath.workdps(60):
        for (f, g), per_poly in zip(groups, values):
            refs = mp_entries(f, g)
            assert len(per_poly) == len(refs)
            for reference, (f0, f1, f2, e0, e1, e2) in zip(refs, per_poly):
                for i in range(z.size):
                    x = ld_to_mp(z[i])
                    # F, F' and F'' by mpmath's differentiation of the reference
                    ref = [mpmath.diff(reference, x, k) for k in range(3)]
                    for got, want, bound in zip((f0[i], f1[i], f2[i]), ref, (e0[i], e1[i], e2[i])):
                        assert abs(ld_to_mp(got) - want) <= bound


@pytest.mark.parametrize("p", [p for _, p in precision.LADDER[1:]], ids=[label for label, _ in precision.LADDER[1:]])
def test_fixed_point_stages_match_mpmath(colliding, p):
    polys, theta = colliding
    groups = shaped_groups(polys)
    bits = p + precision.FIXED_GUARD_BITS
    # points off the long double grid by 2^-p, so that every bit of the
    # scale takes part
    z = (1.0 * np.exp(1j * theta[::4])).astype(np.clongdouble)
    xr, xi = precision._to_fixed(z, bits)
    points = (xr + (1 << precision.FIXED_GUARD_BITS), xi - (3 << precision.FIXED_GUARD_BITS))
    # and a base point off the real axis, for both parts of lambda
    rotated = [(pa.ParaPolynomial("second", 101, np.exp(0.9j), polys["first", 100].seq), None)]
    with mpmath.workdps(2 * p // 3):  # well above p bits
        xs = [mpmath.mpc(mpmath.mpf((int(r), -bits)), mpmath.mpf((int(m), -bits))) for r, m in zip(*points)]
        for groups in (groups, rotated):
            values = precision._fused_values(groups, [z] * len(groups))
            fixed, ims = precision._fixed_values(groups, [points] * len(groups), bits)
            lam = mpmath.mpc(groups[0][0].lam)
            for (f, g), per_poly, fixed_per_poly, im in zip(groups, values, fixed, ims):
                for i, x in enumerate(xs):
                    # Im(x conj(lambda)) is exact before its rounding to long double
                    assert abs(ld_to_mp(im[i]) - (x * lam.conjugate()).imag) <= U_LONG * float(abs(im[i]))
                refs = mp_entries(f, g)
                assert len(fixed_per_poly) == len(refs)
                for reference, (_, _, _, e0, _, _), v in zip(refs, per_poly, fixed_per_poly):
                    for i, x in enumerate(xs):
                        # the stated bound of a fixed-point stage: the long double value
                        # bound rescaled to 2^-p, plus the rounding to long double
                        bound = e0[i] * 2.0**-p / U_LONG + U_LONG * float(abs(v[i]))
                        assert abs(ld_to_mp(v[i]) - reference(x)) <= bound


def test_values_past_the_double_range_round_from_their_top_bits():
    # at the 269-bit scale a value above 2^739 has no float conversion
    bits = 269 + precision.FIXED_GUARD_BITS
    got = precision._to_long([(1 << 2000) + 12345, -(3 << 1500), (1 << 100) + (1 << 40)], bits)
    want = [np.ldexp(precision.LONG(1), 2000 - bits), -np.ldexp(precision.LONG(3), 1500 - bits),
            np.ldexp(precision.LONG(2.0**60) + 1, 40 - bits)]
    assert got.tolist() == want


@pytest.mark.parametrize("bits", [80, 120])
def test_to_fixed_is_the_exact_truncation(bits):
    # long doubles with every significand bit set at random, from 1 down
    # to 1e-30, both signs; a hi + lo split truncated part by part is off
    # by one unit where the two fractions straddle
    rng = np.random.default_rng(23)
    size = 4000
    L = precision.LONG
    mant = rng.random((2, size)).astype(L) + rng.random((2, size)).astype(L) * L(2.0**-53)
    x = mant * np.power(L(10), -rng.uniform(0, 30, (2, size)).astype(L)) * rng.choice([-1, 1], (2, size))
    z = x[0] + 1j * x[1].astype(precision.CLONG)
    for got, part in zip(precision._to_fixed(z, bits), (z.real, z.imag)):
        want = [math.trunc(Fraction(*v.as_integer_ratio()) * 2**bits) for v in part.tolist()]
        assert list(got) == want


def test_newton_steps_recover_a_start_off_the_zero(monkeypatch):
    # seed 5's interior zeros of h_150 against h_151 (one pair 9.4e-32
    # apart), with every angle moved 1e-5 off its zero: with one
    # evaluation per stage, 39 of the 83 signs go to 40 or 80 digits and
    # one stays open; the Newton steps of the fixed-point stages decide
    # all of them at 2^-104 but one, at 40 digits
    order, calls = precision.order, []

    def recording(groups):
        calls.append(groups)
        return order(groups)

    monkeypatch.setattr(precision, "order", recording)
    seq = pa.RandomSequence(0.7, 5)
    a, b = (pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq)).without_base_point() for n in (150, 151))
    assert pa.interlace(a, b).verdict == "pass"
    groups, = calls
    moved = order([(f, g, np.asarray(theta) + 1e-5) for f, g, theta in groups])
    for (signs, labels), (want, _) in zip(moved, order(groups)):
        assert np.array_equal(signs, want)
        assert set(labels) <= {"fixed-104", "fixed-136"}


def mp_zero(value, z):
    """The zero of value near z, by Newton steps in the reference
    (derivatives by a difference quotient)."""
    h = mpmath.sqrt(mpmath.eps)
    for _ in range(12):
        fz = value(z)
        step = -fz * h / (value(z + h) - fz)
        z += step
        if abs(step) < mpmath.eps ** 0.4:  # z is then within about eps^0.8 of the zero
            return z
    raise AssertionError(f"no convergence at z = {z!r}")


@pytest.mark.parametrize("p", [p for _, p in precision.LADDER], ids=[label for label, _ in precision.LADDER])
def test_step_and_carried_pair_product_match_mpmath(colliding, p):
    # at each stage, the Newton step from the point to h_100's zero zeta
    # and L* P_F carried to zeta, against the reference at zeta, within
    # the bounds _step and _carry state; the fixed-point stages start from
    # the long double Newton offset, as order does
    polys, theta = colliding
    f = polys["first", 100]
    group = (f, polys["second", 100])
    z = (f.lam * np.exp(1j * theta)).astype(np.clongdouble)
    derivs, = precision._fused_values([group], [z])
    d0 = 0.0
    values = [(v[0], v[3]) for v in derivs]
    if p is not None:
        bits = p + precision.FIXED_GUARD_BITS
        offset = precision._to_fixed(precision._newton(*derivs[0][:3]), bits)
        d0 = precision._to_long(offset[0], bits) + 1j * precision._to_long(offset[1], bits)
        points = tuple(a + b for a, b in zip(precision._to_fixed(z, bits), offset))
        (fixed,), _ = precision._fixed_values([group], [points], bits)
        values = [(v, e[3] * 2.0**-p / U_LONG + U_LONG * abs(v)) for v, e in zip(fixed, derivs)]
    d1, err = precision._step(values[0], derivs[0], d0)
    carried, bound = precision._carry(values[1], derivs[1], d0, d1, err)
    with mpmath.workdps(100):
        value, reference = mp_evaluator(f), mp_pair_product(f)
        for i in range(z.size):
            zeta = mp_zero(value, ld_to_mp(z[i]))
            if p is None:
                point = ld_to_mp(z[i])
            else:  # exactly the fixed-point point
                point = mpmath.mpc(mpmath.mpf((int(points[0][i]), -bits)), mpmath.mpf((int(points[1][i]), -bits)))
            assert abs(point + ld_to_mp(d1[i]) - zeta) <= float(err[i])
            # plus the rounding of the carried sum, which _judge allows for
            assert abs(ld_to_mp(carried[i]) - reference(zeta)) <= float(bound[i] + 2 * U_LONG * abs(carried[i]))


def mp_decision(f, g, theta, evaluator=mp_evaluator):
    """The sign precision.order should give for the zero of f near the
    angle theta: found by Newton steps in the mpmath reference (derivatives
    by a difference quotient), then g's real trace there, or with g None
    the side of lambda it lies on."""
    lam = mpmath.mpc(f.lam)
    z = mp_zero(evaluator(f), lam * mpmath.expj(theta))
    if g is None:
        return mpmath.sign(mpmath.im(z / lam))
    angle = theta + mpmath.arg(z / (lam * mpmath.expj(theta)))
    rotate = mpmath.expj(-0.5 * g.n * angle) * (-1j if g.kind == "first" else 1)
    trace = (evaluator(g)(z) * rotate).real
    assert abs(trace) > mpmath.eps ** 0.6
    return mpmath.sign(trace)


def test_decided_signs_agree_with_mpmath_80(monkeypatch):
    # every sign that interlace's collision ladder decides, on seed 1's
    # h_100 against s_100, seed 4's interior zeros of h_207 against h_208
    # and seed 16's h_140 against s_140, recomputed in the 80-digit
    # reference: 123 long double and 93 fixed-104 (one pinned-zero side
    # in each), 20 fixed-136 and 1 fixed-269 decisions; the two highest
    # stages come from the consecutive degrees, since the same-degree
    # pairs are decided from f's row alone
    order, calls = precision.order, []

    def recording(groups):
        result = order(groups)
        calls.append((groups, result))
        return result

    monkeypatch.setattr(precision, "order", recording)
    verdicts = []
    for seed, kinds, n, m in ((1, ("first", "second"), 100, 100), (4, ("first", "first"), 207, 208),
                              (16, ("first", "second"), 140, 140)):
        seq = pa.RandomSequence(0.7, seed)
        a, b = (pa.find_zeros(pa.ParaPolynomial(k, d, 1.0, seq)) for k, d in zip(kinds, (n, m)))
        if m > n:
            a, b = a.without_base_point(), b.without_base_point()
        verdicts.append(pa.interlace(a, b).verdict)
    stages, sides, evaluator = set(), 0, functools.cache(mp_evaluator)
    with mpmath.workdps(80):
        for groups, result in calls:
            for (f, g, theta), (signs, labels) in zip(groups, result):
                for t, sign, label in zip(np.atleast_1d(theta), signs, labels):
                    stages.add(label)
                    sides += g is None
                    assert mp_decision(f, g, mpmath.mpf(float(t)), evaluator) == sign, (label, f.kind, f.n, t)
    assert stages == {"long double", "fixed-104", "fixed-136", "fixed-269"} and sides > 0
    assert verdicts == ["pass", "pass", "pass"]


def test_same_degree_signs_from_the_identity_agree_with_mpmath_80(monkeypatch):
    # every sign decided for g of the other kind from f's row alone (the
    # Wronskian identity), recomputed in the 80-digit reference: seed 1's
    # h_100 and s_100 in both orders, seed 9 at lambda = e^{0.9i}, n =
    # 120, seed 16 at n = 140 (its pair at 4.38 needed 80 digits when g
    # had a walk of its own) and seed 3 at n = 300, whose 222 points reach
    # the fixed-point stages: there P_F(zeta) has decayed far below the
    # running magnitude of its recursion, beyond long double
    order, calls = precision.order, []

    def recording(groups):
        result = order(groups)
        calls.append((groups, result))
        return result

    monkeypatch.setattr(precision, "order", recording)
    verdicts = []
    for seed, lam, n, swap in ((1, 1.0, 100, False), (1, 1.0, 100, True), (9, np.exp(0.9j), 120, False),
                               (16, 1.0, 140, False), (3, 1.0, 300, False)):
        seq = pa.RandomSequence(0.7, seed)
        h, s = (pa.find_zeros(pa.ParaPolynomial(kind, n, lam, seq)) for kind in ("first", "second"))
        verdicts.append(pa.interlace(*((s, h) if swap else (h, s))).verdict)
    stages, points, evaluator = set(), 0, functools.cache(mp_evaluator)
    with mpmath.workdps(80):
        for groups, result in calls:
            for (f, g, theta), (signs, labels) in zip(groups, result):
                if g is None or g.kind == f.kind:
                    continue
                for t, sign, label in zip(np.atleast_1d(theta), signs, labels):
                    stages.add(label)
                    points += 1
                    assert mp_decision(f, g, mpmath.mpf(float(t)), evaluator) == sign, (label, f.kind, f.n, t)
    assert {"long double", "fixed-104", "fixed-136"} <= stages and points > 300
    assert verdicts == ["pass"] * 5


@pytest.mark.parametrize("seed", [1, 5])
def test_ladder_with_long_double_as_double(monkeypatch, seed):
    # where long double is float64 (Windows, macOS on arm64) the first
    # stage runs in doubles: pairs move up to fixed point, and every
    # verdict and the number of pairs decided stay the same
    seq = pa.RandomSequence(0.7, seed)
    h = {n: pa.find_zeros(pa.ParaPolynomial("first", n, 1.0, seq)) for n in (100, 101)}
    s = pa.find_zeros(pa.ParaPolynomial("second", 100, 1.0, seq))
    pairs = [(h[100], s), (h[100].without_base_point(), h[101].without_base_point())]
    native = [pa.interlace(a, b) for a, b in pairs]
    monkeypatch.setattr(precision, "LONG", np.float64)
    monkeypatch.setattr(precision, "CLONG", np.complex128)
    monkeypatch.setattr(precision, "U_LONG", 2.0**-53)
    double = [pa.interlace(a, b) for a, b in pairs]
    for x, y in zip(native, double):
        assert x.verdict == y.verdict == "pass"
        assert sum(x.decided.values()) == sum(y.decided.values()) > 0
    assert sum(y.decided.get("long double", 0) for y in double) < sum(x.decided["long double"] for x in native)


def recording(monkeypatch, name):
    """The (groups, result) of every call of precision's function name
    from now on, in a list that the calls fill."""
    fn, calls = getattr(precision, name), []

    def record(groups):
        result = fn(groups)
        calls.append((groups, result))
        return result

    monkeypatch.setattr(precision, name, record)
    return calls


def reference_trace_signs(groups):
    """The loop trace_signs replaced, kept as its reference: one pass over
    the rows of every group at once, each started at (1, 1) or (1, -1) by
    its kind on the plain coefficients, with lambda's pair stepped
    alongside by 2 x 2 products and its running |phi| kept per level."""
    p0 = groups[0][0]
    thetas = [np.atleast_1d(np.asarray(t, dtype=float)) for _, t in groups]
    deep = sorted(range(len(groups)), key=lambda i: -groups[i][0].n)
    sizes = [thetas[i].size for i in deep]
    th = np.concatenate([thetas[i] for i in deep])
    z = p0.lam * np.exp(1j * th)
    n = np.repeat([groups[i][0].n for i in deep], sizes)
    sigma = np.repeat([1.0 if groups[i][0].kind == "first" else -1.0 for i in deep], sizes)
    top = int(n[0]) - 1
    alphas = p0.seq.alphas(top)
    r = 1.0 / np.sqrt(1.0 - np.abs(alphas) ** 2)
    steps = np.stack([r, -np.conj(alphas) * r, -alphas * r, r], axis=-1).reshape(-1, 2, 2)
    active = np.searchsorted(1 - n, -np.arange(1, top + 1), side="right").tolist()
    cur, nxt = np.ones((2, z.size), dtype=complex), np.empty((2, z.size), dtype=complex)
    cur[1] = sigma
    mag, size, live = np.ones(z.size), np.empty(z.size), z.size
    lam_rows = [(np.ones(2, dtype=complex), 1.0)]
    for k, c in zip(steps, active):
        if c < live:
            nxt[:, c:live] = cur[:, c:live]
            live = c
        np.multiply(z[:c], cur[0, :c], out=cur[0, :c])
        np.matmul(k, cur[:, :c], out=nxt[:, :c])
        np.maximum(mag[:c], np.abs(nxt[0, :c], out=size[:c]), out=mag[:c])
        cur, nxt = nxt, cur
        pair, lm = lam_rows[-1]
        pair = k @ (pair * [p0.lam, 1.0])
        lam_rows.append((pair, max(lm, abs(pair[0]))))
    phi, star = cur
    pairs, lm = (np.array(v)[n - 1] for v in zip(*lam_rows))
    lp, ls = pairs.T
    v = sigma * (np.conj(ls) * star - z * np.conj(p0.lam) * np.conj(lp) * phi)
    bound = precision.ROUNDING_FACTOR * n * U_DOUBLE * (np.abs(lp) * mag + lm * np.abs(phi))
    trace = (v * np.exp(-0.5j * n * th) * np.where(sigma > 0, -1j, 1.0)).real
    decided = np.abs(trace) > bound + 8 * U_DOUBLE * np.abs(v)
    cuts, out = np.cumsum(sizes)[:-1], [None] * len(groups)
    for i, signs, known in zip(deep, np.split(np.sign(trace), cuts), np.split(decided, cuts)):
        out[i] = signs, known
    return out


@pytest.mark.parametrize("seq, lam, degrees, undecided", [
    (pa.ConstantSequence(0.5), np.exp(1j * np.pi), range(40, 61), False),
    (pa.RandomSequence(0.7, 5), 1.0, (60, 150), False),
    (pa.ConstantSequence(0.5), 1.0, range(20, 41), True),
], ids=["const0.5@pi", "seed5@1", "const0.5@1"])
def test_trace_signs_match_the_reference_loop(monkeypatch, seq, lam, degrees, undecided):
    # the certificate's windows, one kernel pass per kind, against the loop
    # over all rows at once: the same signs and the same decisions, also
    # for the second kind alone with its degrees shuffled; with the base
    # point on the atom (const 0.5 at lambda = 1) most windows stay open
    windows = recording(monkeypatch, "trace_signs")
    ctx = pa.TheoremContext(seq=seq, lam=lam, degrees=degrees)
    for n in degrees:
        ctx.second_kind_interlaces(n)
    (groups, result), = windows
    order = np.random.default_rng(8).permutation(len(groups))
    one_kind = [groups[i] for i in order if groups[i][0].kind == "second"]
    assert [p.n for p, _ in one_kind] != sorted(p.n for p, _ in one_kind)
    for gs, got in ((groups, result), (one_kind, precision.trace_signs(one_kind))):
        for (signs, decided), (want, known) in zip(got, reference_trace_signs(gs), strict=True):
            assert np.array_equal(signs, want) and np.array_equal(decided, known)
    # the groups come in pairs (h_n, s_n), each point list the windows'
    # left ends, then their right ends; a window is decided at all four
    open_windows = []
    for (_, hd), (_, sd) in zip(result[::2], result[1::2]):
        k = hd.size // 2
        open_windows.append(~(hd[:k] & hd[k:] & sd[:k] & sd[k:]))
    assert (np.mean(np.concatenate(open_windows)) > 0.5) == undecided


def test_signs_the_theorem2_certificate_trusts_agree_with_mpmath_80(monkeypatch, record_property):
    # every window sign trace_signs decides for the certificate, and every
    # sign its ladder call decides, recomputed in the 80-digit reference:
    # seed 5 at lambda = 1, n = 60 and 150; const -0.5 at lambda = pi, n =
    # 100, with one site per degree at z = 1 on the ladder; const 0.5 at
    # lambda = pi, n = 45, whose atom at z = 1 holds two zeros of h_45
    windows, ladder = recording(monkeypatch, "trace_signs"), recording(monkeypatch, "order")
    for seq, lam, degrees in ((pa.RandomSequence(0.7, 5), 1.0, (60, 150)),
                              (pa.ConstantSequence(-0.5), np.exp(1j * np.pi), (100,)),
                              (pa.ConstantSequence(0.5), np.exp(1j * np.pi), (45,))):
        ctx = pa.TheoremContext(seq=seq, lam=lam, degrees=degrees)
        assert all(ctx.second_kind_interlaces(n) for n in degrees)
    trusted = disagreements = 0
    evaluator = functools.cache(mp_evaluator)
    with mpmath.workdps(80):
        for groups, result in windows:
            for (p, points), (signs, decided) in zip(groups, result):
                value, lam = evaluator(p), mpmath.mpc(p.lam)
                for t, sign in zip(points[decided], signs[decided]):
                    t = mpmath.mpf(float(t))
                    rotate = mpmath.expj(-0.5 * p.n * t) * (-1j if p.kind == "first" else 1)
                    trusted += 1
                    disagreements += mpmath.sign((value(lam * mpmath.expj(t)) * rotate).real) != sign
        for groups, result in ladder:
            for (f, g, theta), (signs, labels) in zip(groups, result):
                for t, sign in zip(np.atleast_1d(theta), signs):
                    trusted += 1
                    disagreements += mp_decision(f, g, mpmath.mpf(float(t)), evaluator) != sign
    record_property("trusted_signs", trusted)
    assert disagreements == 0 and trusted > 1000


def test_sign_at_z1_for_lambda_minus_one_agrees_with_mpmath_80(monkeypatch):
    # const -0.5 at lambda = -1 exactly: for even n, h_n vanishes at z = 1
    # (angle pi from lambda), the middle of its n - 1 interior zeros, and
    # s_n has a zero on either side closer than doubles resolve; the
    # certificate's ladder gives s_n's sign there, (-1)^(n/2)
    ladder = recording(monkeypatch, "order")
    ctx = pa.TheoremContext(seq=pa.ConstantSequence(-0.5), lam=-1.0, degrees=range(70, 101, 2))
    assert all(ctx.second_kind_interlaces(n) for n in range(70, 101, 2))
    (groups, result), = ladder
    sites = {f.n: (f, g, theta, signs) for (f, g, theta), (signs, _) in zip(groups, result)}
    evaluator = functools.cache(mp_evaluator)
    with mpmath.workdps(80):
        for n in range(70, 101, 2):
            f, g, theta, signs = sites[n]
            at_pi = np.nonzero(np.abs(np.atleast_1d(theta) - np.pi) < 1e-12)[0]
            assert at_pi.size == 1
            assert signs[at_pi[0]] == (-1) ** (n // 2) == mp_decision(f, g, mpmath.pi, evaluator)
