"""Construction of the denominator polynomials Xi_D and multi-indexed P_{D,n}.

Both arise as polynomial parts of Casoratians of virtual-state entries (plus
the base eigenpolynomial for P).  Working at sample points, the determinant

    detPoly(x) = i^{R(R-1)/2} det[ prod_{m<j} N_c(x_m) * p_col(eta(x_j)) ]_{jk}

carries a rational prefactor that depends only on the type counts
(M_I, M_II) and on whether the P column is present, never on the degrees d_j
or n.  Xi_D and P_{D,n} are therefore recovered by interpolating the ratio of
detPoly against a canonical reference instance of the same class; mixed
classes bootstrap the reference denominator polynomial from a two-instance
pairing solve on the same extraction nodes, a square solve through the first
nodes.  The nodes, their ladder frames and the reference values therefore
belong to the class (R, column kinds, reference columns), not to D: a
builder makes each node once, with its sample arg, eta, frame and reference
value, and every extraction of the class shares it, so no value depends on the
order of calls.  The nodes and the interpolation are the scalar backend's: 2^k
roots of unity on a circle in eta with a radix-2 inverse FFT on Gaussian floats
(each set the first half of the next; the coefficients past deg must vanish),
the first rational points with Newton's divided differences otherwise.
Xi_D and P_{D,n} take one extraction path, each on the nodes of its own degree.
A node keeps each column polynomial's loaded values at its etas, made once
(Builder._column), and, detPoly being linear in its last column, one row per
(head columns, last kind): the backend's cofactor_row, the head values' cofactors
with the phase and the last column's row weights folded in.  Every detPoly value,
of every degree of that last column and every n of P_{D,n}, is that row at the
last column's values (Builder._kept_value), a loaded value of the backend, and it
stays loaded up to the fit: an extraction value is one product of it and the
node's reference ratio Xi_{D0}(eta) / detPoly_{D0}, which the node keeps loaded
with its eta and reference value, the interpolation takes and gives loaded
values, and each fitted coefficient is stored once, into its Poly.  Only
det_values stores a detPoly value.
Every build is gated: the degree law (an extracted leading coefficient above
the fit's noise floor; the class references and base polynomials have theirs
by construction), the vanishing DFT coefficients, held-out node residuals (these
on magnitudes of loaded values), the deformed eigenrelation (on one set of
frames for every n) and shape invariance.  A fit that fails its gates although
every fit value is rounding noise of its row is degenerate, not a failed check:
the Casoratian vanishes at the nodes.
The per-point work of the frames, ladder and H~_D alike, is the backend's
(Gaussian floats on floats): a builder makes one ladder_frames kernel per (R,
kinds), at its own working precision, a bundle one htilde_frames kernel per working
precision, both from affine factors (Family.eta_factors, v_factors), and an eigen
residual is the stencil residual of its H~_D frame (_Frame.residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .families import FAMILIES, ParamSet
from .numkernel import GUARD_BITS, HELD_OUT, workbits
from .polycore import Poly, ladder_points, solve_dense

HALF = Fraction(1, 2)
ROTATIONS = 4   # node sets an extraction tries before its reference counts as vanishing
GATE_SAMPLES = 12   # pole-free frames of the eigen gate, shared by every n


class DegenerateIndexSet(RuntimeError):
    """Casoratian vanished or leading coefficient is numerically zero."""


class PrefactorResidue(RuntimeError):
    """Polynomial-part extraction failed its held-out residual gate."""


class PoleAtSample(RuntimeError):
    """A denominator polynomial vanished at the requested sample point."""


@dataclass(frozen=True)
class IndexSet:
    """Multi-index D: degrees and types of the virtual states, standard order."""

    entries: tuple

    @staticmethod
    def make(pairs) -> "IndexSet":
        ent = tuple(sorted(((int(d), str(t)) for d, t in pairs), key=lambda e: (e[1], e[0])))
        d1 = [d for d, t in ent if t == "I"]
        d2 = [d for d, t in ent if t == "II"]
        if len(set(d1)) != len(d1) or len(set(d2)) != len(d2):
            raise ValueError("degrees must be mutually distinct within each type")
        if any(d < 0 for d, _ in ent) or any(t not in ("I", "II") for _, t in ent):
            raise ValueError("entries must be (nonnegative degree, 'I'|'II')")
        return IndexSet(ent)

    @property
    def d1(self):
        return tuple(d for d, t in self.entries if t == "I")

    @property
    def d2(self):
        return tuple(d for d, t in self.entries if t == "II")

    @property
    def M(self):
        return len(self.entries)

    @property
    def M1(self):
        return len(self.d1)

    @property
    def M2(self):
        return len(self.d2)

    @property
    def counts(self):
        return (self.M1, self.M2)

    @property
    def ell(self):
        return ell_degree(self)

    def key(self) -> str:
        return ";".join(f"{d}{t}" for d, t in self.entries)

    def __str__(self):
        return "{" + ", ".join(f"{d}^{t}" for d, t in self.entries) + "}"


def ell_degree(D: IndexSet) -> int:
    """ell_D = sum d_j - M(M-1)/2 + 2 M_I M_II."""
    M = D.M
    return sum(d for d, _ in D.entries) - (M * (M - 1)) // 2 + 2 * D.M1 * D.M2


def reference_index_set(counts) -> IndexSet:
    m1, m2 = counts
    return IndexSet.make([(d, "I") for d in range(m1)] + [(d, "II") for d in range(m2)])


def _bumped_reference(counts) -> IndexSet:
    m1, m2 = counts
    if m1 > 0:
        pairs = [(d, "I") for d in range(m1 - 1)] + [(m1, "I")] + [(d, "II") for d in range(m2)]
    else:
        pairs = [(d, "II") for d in range(m2 - 1)] + [(m2, "II")]
    return IndexSet.make(pairs)


# -- determinant values ----------------------------------------------------------


@dataclass
class _Node:
    """One extraction node of a class: its sample arg, eta, ladder frame (Builder.frames)
    and reference value detPoly(ref_cols); the _column values read at it, keyed (kind,
    degree), and the _rows of every value made at it, keyed (head columns, last kind);
    and, from its first extraction on, the reference ratio Xi_{D0}(eta) / ref.  A class
    has one reference, Xi_{D0} at lambda for Xi_D and at lambda + delta for P_{D,n}
    (their kinds differ), so the ratio belongs to the node.  eta, ref and ratio are
    loaded values of the backend, at the builder's working bits plus GUARD_BITS."""

    u: object
    eta: object
    frame: tuple
    ref: object = None
    ratio: object = None
    values: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)


class Builder:
    """Per-parameter-set construction engine with caches.

    bits is its one precision: what it makes and keeps (column polynomials, ladder frames,
    Xi_D, P_{D,n}, detPoly values) is made at bits + 32 working bits, whatever the caller's
    precision, and its fits judge each degree against 2^-bits.
    """

    def __init__(self, lam: ParamSet, bits: int = 256):
        self.lam = lam
        self.fam = lam.fam
        self.sc = lam.scalars
        self.bits = bits
        self.w = bits + 32 + GUARD_BITS   # the bits of its loaded values
        self._runs = {}         # 'I' | 'II' | 'P' -> the kind's families.BaseRun
        self._xi_cache = {}     # IndexSet.key -> Poly
        self._p_cache = {}      # (IndexSet.key, n) -> Poly
        self._node_cache = {}   # (class, attempt, node id) -> _Node
        self._node_sets = {}    # (class, attempt, len(ids)) -> (nodes, interpolator) or False
        self._kernels = {}      # (R, kinds) -> the backend's ladder_frames
        self._shift_builder = None

    # .. column polynomials ......................................................

    def col_poly(self, kind: str, deg: int) -> Poly:
        """The kind's base polynomial of degree deg on the builder's scalars, from the
        kind's one recurrence run, continued when a higher degree is asked for."""
        run = self._runs.get(kind)
        if run is None or deg >= len(run.polys):
            with workbits(self.bits + 32):
                lam = self.lam if kind == "P" else self.lam.with_a(self.fam.twist_a(kind, self.lam))
                run = self._runs[kind] = self.fam.base_poly(deg, lam, self.sc, run)
        return run.polys[deg]

    def _class_weight_params(self, kind: str):
        """The a tuple and alpha of a column kind's row weights."""
        if kind == "P":
            return self.lam.a, self.sc.one
        return self.fam.twist_a(kind, self.lam), self.fam.alpha(kind, self.lam)

    # .. determinant values ......................................................

    def frames(self, us, R: int, kinds):
        """Per sample u: the etas of its R ladder points and, per column kind, the row
        weights prod_{m<j} alpha N(x_m), shared by every determinant at u, from one backend
        ladder_frames kernel per (R, kinds), at the builder's working precision."""
        fam, lam, key = self.fam, self.lam, (R, tuple(sorted(kinds)))
        with workbits(self.bits + 32):
            if key not in self._kernels:
                self._kernels[key] = self.sc.ladder_frames(
                    [_shifted(fam, fam.eta_factors(lam), fam.shift_step(t, lam))
                     for t in ladder_points(R)], {k: self._weight_ratios(k, R) for k in key[1]})
            return list(map(self._kernels[key], us))

    def _weight_ratios(self, kind: str, R: int):
        """The affine ratios alpha N(x_m) of a column kind at the ladder points x_m of R
        but the last, alpha folded into the first factor."""
        fam, lam = self.fam, self.lam
        a, alpha = self._class_weight_params(kind)
        num, ratios = fam.v_factors(a, lam)[0], []
        for t in ladder_points(R)[:-1]:
            (c0, c1), *rest = fam.shift_factors(num, fam.shift_step(t, lam))
            ratios.append(([(alpha * c0, alpha * c1)] + rest, []))
        return ratios

    def _column(self, kind: str, deg: int, node: _Node):
        """The loaded values of the column polynomial (kind, deg) at the etas of the node's
        frame: made once (_fill), then kept in the node's values."""
        key = (kind, deg)
        if key not in node.values:
            node.values[key] = self._fill(kind, deg, node.frame)
        return node.values[key]

    def _fill(self, kind: str, deg: int, frame) -> tuple:
        """The kind's Horner kernel at the frame's etas, at the builder's working bits."""
        ev = self.col_poly(kind, deg).evaluator()
        return tuple(ev.fixed(x, self.w) for x in frame[0])

    def _row(self, head, kind: str, node: _Node):
        """The backend's cofactor_row of the head columns' _column values at the node, the
        phase and the last column's row weights folded in: detPoly is linear in its last
        column, so row(vals) is detPoly of head + [(kind, d)] at the node's _column vals of
        (kind, d), every degree d."""
        cum = node.frame[1]
        R = len(head) + 1
        return self.sc.cofactor_row([(self._column(k, d, node), cum[k]) for k, d in head],
                                    cum[kind], (R * (R - 1)) // 2)

    def det_values(self, cols, us):
        """detPoly values at the sample arguments us, each frame with a store of its own:
        the one place a detPoly value is stored as a scalar."""
        with workbits(self.bits + 32):
            return [self.sc._store(self._kept_value(cols, _Node(u, None, fr)), self.bits + 32)
                    for u, fr in zip(us, self.frames(us, len(cols), {k for k, _ in cols}))]

    def _kept_value(self, cols, node: _Node):
        """detPoly(cols) at a node, a loaded value: the _row of the head columns and last
        kind of cols, made once and kept in the node's rows, at its _column of the last
        column.  Every detPoly value is made here."""
        *head, (kind, deg) = cols
        key = (tuple(head), kind)
        if key not in node.rows:
            node.rows[key] = self._row(head, kind, node)
        return node.rows[key](self._column(kind, deg, node))

    # .. nodes / fitting .........................................................

    def _nodes(self, fit: int, R: int, kinds, ref_cols):
        """The extraction nodes of the class (R, kinds, ref_cols) for fit unknowns (the
        backend's fit nodes, then HELD_OUT), at the first rotation where no reference
        value vanishes, and the interpolator of their fit nodes.

        The class salts the nodes, and each node is made once per builder: every
        extraction of the class shares it, whatever its degree or index set.  A node set
        keeps its interpolator, or that it vanishes.
        """
        sc, cache = self.sc, self._node_cache
        cls = (R, tuple(sorted(kinds)), tuple(ref_cols))
        for attempt in range(ROTATIONS):
            ids, node = sc.extraction_nodes(self.fam, self.lam, fit,
                                            f"{cls}|{self.lam.digest()}", attempt)
            key = (cls, attempt, len(ids))
            if key not in self._node_sets:
                new = [k for k in ids if (cls, attempt, k) not in cache]
                if new:
                    us, etas = map(list, zip(*map(node, new)))
                    for k, u, eta, fr in zip(new, us, etas, self.frames(us, R, kinds)):
                        nd = cache[cls, attempt, k] = _Node(u, sc._load(eta, self.w), fr)
                        nd.ref = self._kept_value(ref_cols, nd)
                nodes = [cache[cls, attempt, k] for k in ids]
                ok = not _vanishing(sc, [nd.ref for nd in nodes], self.bits)
                self._node_sets[key] = ok and (nodes, sc.interpolator(
                    [nd.eta for nd in nodes[:len(ids) - HELD_OUT]]))
            if self._node_sets[key]:
                return self._node_sets[key]
        raise DegenerateIndexSet(f"reference Casoratian vanished at {ROTATIONS} node rotations")

    def _residual_gate(self, what: str, rows, deg: int, height) -> None:
        """PrefactorResidue unless err <= tol max(|val|, height max(1, |eta|)^deg),
        tol = 2^(48 - bits), for every triple of magnitudes (|eta|, err, |val|) in rows:
        err is |pred - val| of loaded values (_misfit), or |c_m| |eta_0|^m for a term
        c_m eta_0^m that must vanish."""
        tol = mp.mpf(2) ** (-self.bits + 48)
        for e, err, val in rows:
            lim = tol * max(val, height * max(1, e) ** deg)
            if err > lim:
                raise PrefactorResidue(
                    f"{what} residual {mp.nstr(err, 5)} exceeds {mp.nstr(lim, 5)}")

    def _misfit(self, eta, pred, val):
        """The magnitudes (|eta|, |pred - val|, |val|) of loaded values, as _residual_gate
        takes them."""
        sc = self.sc
        return sc._mag(eta), sc._mag(sc._add(pred, sc._neg(val))), sc._mag(val)

    def _fit_held_out(self, etas, vals, coeffs, deg: int) -> Poly:
        """The eta polynomial of degree deg from the fit nodes, on the loaded values of the
        nodes etas and their values vals; its coefficients are stored once, into the Poly.
        Gated, each gate on magnitudes (_mag) of loaded values: its leading coefficient
        must stand above the fit's noise floor, |c_deg| |eta_0|^deg > 2^-bits max_j |v_j|
        over the fit nodes, 32 bits above the working precision's rounding (else
        DegenerateIndexSet: the one test of a lost degree); each coefficient c_m past deg
        that the fit nodes give (the inverse DFT's) must vanish, as |c_m| |eta_0|^m, and
        the HELD_OUT last nodes must agree with the stored polynomial."""
        sc, fit = self.sc, len(etas) - HELD_OUT
        cs = coeffs(vals[:fit], deg)
        mag, node = sc._mag, sc._mag(etas[0])
        if mag(cs[deg]) * node ** deg <= mp.mpf(2) ** -self.bits * max(map(mag, vals[:fit])):
            raise DegenerateIndexSet(f"leading coefficient of degree {deg} below the noise floor")
        height = max(map(mag, cs[:deg + 1]))
        self._residual_gate("extraction coefficient",
                            [(node, mag(c) * node ** m, 0)
                             for m, c in enumerate(cs[deg + 1:], deg + 1)], deg, height)
        poly = Poly([sc._store(c, self.bits + 32) for c in cs[:deg + 1]], sc)
        ev = poly.evaluator()
        self._residual_gate("extraction held-out",
                            [self._misfit(e, ev.fixed(e, self.w), v)
                             for e, v in zip(etas[fit:], vals[fit:])], deg, height)
        return poly

    def _extract(self, cols, deg: int, ref_cols, ref_poly: Poly) -> Poly:
        """The eta polynomial of detPoly(cols) against the class reference detPoly(ref_cols)
        = Xi_{D0} (ref_poly), fitted on the nodes of deg + 1 unknowns: at each node, its
        ratio Xi_{D0}(eta) / detPoly_{D0} times the node's _kept_value of cols, one
        product of loaded values.  A fit that fails its coefficient or held-out gate
        although every fit value is rounding noise of its row (_noise) is a
        DegenerateIndexSet: the Casoratian vanishes at the nodes."""
        nodes, coeffs = self._nodes(deg + 1, len(cols), {k for k, _ in cols + ref_cols}, ref_cols)
        sc, w, ev = self.sc, self.w, ref_poly.evaluator()
        for nd in nodes:
            if nd.ratio is None:
                nd.ratio = sc._div(ev.fixed(nd.eta, w), nd.ref, w)
        vals = [sc._mul(nd.ratio, self._kept_value(cols, nd), w) for nd in nodes]
        try:
            return self._fit_held_out([nd.eta for nd in nodes], vals, coeffs, deg)
        except PrefactorResidue:
            if self._noise(cols, nodes[:len(nodes) - HELD_OUT]):
                raise DegenerateIndexSet("Casoratian vanishes at the extraction nodes") from None
            raise

    def _noise(self, cols, nodes) -> bool:
        """Whether detPoly(cols) lies below 2^-bits sum_j |c_j| |vals_j| of its kept row
        (numkernel._Row) at every one of the nodes: all of it rounding noise."""
        *head, (kind, deg) = cols
        mag, floor = self.sc._mag, mp.mpf(2) ** -self.bits
        for nd in nodes:
            row, vals = nd.rows[tuple(head), kind], self._column(kind, deg, nd)
            scale = sum(mag(c) * mag(v) for c, v in zip(row.cs, vals))
            if mag(row(vals)) >= floor * scale:
                return False
        return True

    # .. class references ..........................................................

    def _pairing_bootstrap(self, D0: IndexSet, D1: IndexSet) -> Poly:
        """Solve detPoly_{D1} * B(eta) = detPoly_{D0} * A(eta) for monic B = Xi_{D0}.

        The square system of the first nodes is solved directly, on their stored etas and
        values; every further node, fit or held-out, gates detPoly_{D0} * A against
        detPoly_{D1} * B in loaded values.  A node keeps D1's row for the extractions with
        D1's head columns and last kind."""
        sc = self.sc
        dB, dA = D0.ell, D1.ell
        nunk = (dA + 1) + dB
        c0, c1 = _xi_cols(D0), _xi_cols(D1)
        nodes, _ = self._nodes(nunk, D0.M, {k for k, _ in c0 + c1}, c0)
        v1 = [self._kept_value(c1, nd) for nd in nodes]
        fit = [[sc._store(x, self.bits + 32) for x in (nd.eta, a_s, nd.ref)]
               for nd, a_s in zip(nodes[:nunk], v1)]
        rows = [[b_s * e ** k for k in range(dA + 1)] + [-a_s * e ** k for k in range(dB)]
                for e, a_s, b_s in fit]
        sol = solve_dense(rows, [a_s * e ** dB for e, a_s, _ in fit], sc)
        xi0 = Poly(list(sol[dA + 1:]) + [sc.one], sc)
        a_ev, xi_ev = Poly(sol[: dA + 1], sc).evaluator(), xi0.evaluator()
        w, mul = self.w, sc._mul
        self._residual_gate("pairing held-out", [
            self._misfit(nd.eta, mul(nd.ref, a_ev.fixed(nd.eta, w), w),
                         mul(a_s, xi_ev.fixed(nd.eta, w), w))
            for nd, a_s in zip(nodes[nunk:], v1[nunk:])], 0, 0)
        return xi0

    def shift_builder(self) -> "Builder":
        """Builder at lambda + delta (used by the P normalization anchor)."""
        if self._shift_builder is None:
            lam_d = self.fam.apply_shift_vec(self.lam, self.fam.delta_vec)
            self._shift_builder = Builder(lam_d, self.bits)
        return self._shift_builder

    # .. public construction ......................................................

    def xi(self, D: IndexSet) -> Poly:
        """Xi_D: the constant 1 for the reference set D0 of a pure class, the pairing
        bootstrap (monic) for that of a mixed class, else extracted against Xi_{D0}."""
        key = D.key()
        if key in self._xi_cache:
            return self._xi_cache[key]
        D0 = reference_index_set(D.counts)
        with workbits(self.bits + 32):
            if D != D0:
                poly = self._extract(_xi_cols(D), D.ell, _xi_cols(D0), self.xi(D0))
            elif D.M1 == 0 or D.M2 == 0:
                poly = Poly([self.sc.one], self.sc)
            else:
                poly = self._pairing_bootstrap(D0, _bumped_reference(D.counts))
        self._xi_cache[key] = poly
        return poly

    def P(self, D: IndexSet, n: int) -> Poly:
        """P_{D,n}: the base polynomial for empty D, else extracted against Xi_{D0} at
        lambda + delta on the nodes of its own ell_D + n + 1 unknowns."""
        key = (D.key(), n)
        if key in self._p_cache:
            return self._p_cache[key]
        with workbits(self.bits + 32):
            if D.M == 0:
                poly = self.col_poly("P", n)
            else:
                D0 = reference_index_set(D.counts)
                poly = self._extract(_p_cols(D, n), D.ell + n, _p_cols(D0, 0),
                                     self.shift_builder().xi(D0))
        self._p_cache[key] = poly
        return poly


def _vanishing(sc, values, bits: int) -> bool:
    """Whether some loaded value is at most 2^(-bits/2) times the median magnitude."""
    mags = [sc._mag(v) for v in values]
    floor = sorted(mags)[len(mags) // 2] * mp.mpf(2) ** (-bits // 2)
    return any(m <= floor for m in mags)


def _shifted(fam, ratio, s):
    """The affine ratio (num, den) of u taken at fam.shift_arg, s its shift_step."""
    return tuple(fam.shift_factors(fs, s) for fs in ratio)


def _xi_cols(D: IndexSet):
    return [(t, d) for d, t in D.entries]


def _p_cols(D: IndexSet, n: int):
    return _xi_cols(D) + [("P", n)]


_BUILDERS = {}


def get_builder(lam: ParamSet, bits: int = 256) -> Builder:
    key = (lam.digest(), bits)
    if key not in _BUILDERS:
        _BUILDERS[key] = Builder(lam, bits)
    return _BUILDERS[key]


# -- delta-tilde shifts ---------------------------------------------------------------


def delta_tilde(family_tag: str, vtype: str):
    """The parameter shift delta-tilde^vtype entering lambda_D (Family.dtilde)."""
    return FAMILIES[family_tag].dtilde(vtype)


def shifted_params(lam: ParamSet, D: IndexSet) -> ParamSet:
    """lambda_D = lambda + M_I dtilde^I + M_II dtilde^II (counts only)."""
    vec = [Fraction(0)] * 4
    for vtype, count in zip(("I", "II"), D.counts):
        if count:
            vec = [v + count * t for v, t in zip(vec, delta_tilde(lam.family, vtype))]
    return lam.fam.apply_shift_vec(lam, tuple(vec))


# -- deformed operator -------------------------------------------------------------


# the shifts t of x + i t gamma whose etas an H~_D frame takes, x itself first
FRAME_SHIFTS = (0, -1, 1, -HALF, HALF)


def htilde_frame(bundle: "MiopBundle", u):
    """The frame of H~_D (bundle) at the sample argument u; PoleAtSample near a pole.

    The bundle's backend htilde_frames kernel, one per working precision, takes the etas
    at FRAME_SHIFTS and V, V* at lambda_D as affine ratios.  A frame keeps its values as
    the backend does and reads as scalars by name (eta, eta_m, ..., w_0)."""
    kernel = bundle.frame_kernels.get(mp.mp.prec)
    if kernel is None:
        lam, a_D = bundle.lam, bundle.lam_D.a
        fam = lam.fam
        ratios = [_shifted(fam, fam.eta_factors(lam), fam.shift_step(t, lam))
                  for t in FRAME_SHIFTS]
        kernel = bundle.frame_kernels[mp.mp.prec] = lam.scalars.htilde_frames(
            ratios + [fam.v_factors(a_D, lam), fam.v_star_factors(a_D, lam)],
            bundle.xi, bundle.xi_shift, bundle.pole_bounds)
    fr = kernel(u)
    if fr is None:
        raise PoleAtSample("Xi_D vanished near sample point")
    return fr


def apply_htilde(fr, p: Poly, pu=None):
    """(H~_D p-check)(x) at the frame's point; pu is p(fr.eta), if already evaluated."""
    return fr.apply(p, pu)


def eigen_residual(frames, pairs) -> mp.mpf:
    """The worst |H~_D p - E p| / (|H~_D p| + |E p| + 1) over the frames and the (p, E)
    pairs, at each frame's eta: each p by its Horner kernel at the frame's points, into
    the frame's stencil residual."""
    w = mp.mp.prec + GUARD_BITS
    evs = [(p.evaluator(), E) for p, E in pairs]
    return max([mp.mpf(0)] + [fr.residual([ev.fixed(x, w) for x in fr.xs], E)
                              for fr in frames for ev, E in evs])


# -- bundles and gates ----------------------------------------------------------------


@dataclass
class MiopBundle:
    """Xi_D, the P_{D,n} family and the deformed-system bookkeeping."""

    lam: ParamSet
    D: IndexSet
    n_max: int
    xi: Poly
    xi_shift: Poly
    P: dict
    lam_D: ParamSet
    pole_bounds: tuple      # |Xi_D|, |Xi_D(lambda+delta)| below these: a pole (htilde_frame)
    gates: dict = field(default_factory=dict)
    # mp.mp.prec -> the backend's htilde_frames kernel; a replace() starts afresh
    frame_kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_miop(lam: ParamSet, D: IndexSet, n_max: int = 8, bits: int = 256,
               check: bool = True) -> MiopBundle:
    """Construct Xi_D and P_{D,0..n_max} and run the structural gates.

    Runs at bits + 32 working bits, whatever the caller's precision.
    """
    with workbits(bits + 32):
        b = get_builder(lam, bits)
        fam = lam.fam
        xi = b.xi(D)
        xi_shift = b.shift_builder().xi(D)
        polys = {n: b.P(D, n) for n in range(n_max + 1)}
        lam_D = shifted_params(lam, D)
        tolerance = mp.mpf(2) ** (-bits // 2)
        bounds = (tolerance * xi.height, tolerance * xi_shift.height)
        bundle = MiopBundle(lam, D, n_max, xi, xi_shift, polys, lam_D, bounds)
        if not check:
            return bundle
        frames = []
        for u in lam.scalars.sample_args(fam, GATE_SAMPLES + 6, lam, f"gate|{D.key()}"):
            if len(frames) >= GATE_SAMPLES:
                break
            try:
                frames.append(htilde_frame(bundle, u))
            except PoleAtSample:
                continue
        if len(frames) < GATE_SAMPLES // 2:
            raise PoleAtSample("could not find enough pole-free gate samples")
        worst = eigen_residual(frames, [(p, fam.energy(n, lam)) for n, p in polys.items()])
        bundle.gates["eigen_residual"] = worst
        if worst > tolerance:
            raise PrefactorResidue(
                f"deformed eigenrelation residual {mp.nstr(worst, 5)} above tolerance for D={D}")
        bundle.gates["shape_invariance"] = _shape_invariance_defect(bundle)
        if bundle.gates["shape_invariance"] > tolerance:
            raise PrefactorResidue("shape invariance P_D,0 ~ Xi_D(lambda+delta) failed")
        return bundle


def _shape_invariance_defect(bundle: MiopBundle) -> mp.mpf:
    """Coefficient-wise defect of P_{D,0} proportional to Xi_D at lambda+delta."""
    mag = bundle.lam.scalars.magnitude
    p0, xs = bundle.P[0], bundle.xi_shift   # both of degree ell_D
    ratio = p0.lead() / xs.lead()
    height = p0.height
    worst = mp.mpf(0)
    for c_p, c_x in zip(p0.coeffs, xs.coeffs):
        worst = max(worst, mag(c_p - ratio * c_x) / height)
    return worst


# -- hermiticity and norm ratios -----------------------------------------------------


def hermiticity_check(bundle: MiopBundle, bits: int = 256):
    """True iff the bundle's Xi_D has no zero in the strip D_gamma; witness lists offenders."""
    from .zeros import find_zeros

    lam, fam = bundle.lam, bundle.lam.fam
    if bundle.xi.degree == 0:
        return True, []
    zs = find_zeros(bundle.xi, bits, fam)
    x1, x2 = fam.x_bounds(lam)
    half = abs(fam.gamma_value(lam)) / 2
    margin = mp.mpf(2) ** (-40)
    # the principal preimage covers the strip: the others have Re x outside
    # [x1, x2] except on the shared Re x = boundary line
    offenders = [(eta, x) for eta, x in zip(zs.eta, zs.x)
                 if x1 - margin <= mp.re(x) <= x2 + margin and abs(mp.im(x)) <= half + margin]
    return (len(offenders) == 0), offenders


def h_ratio(lam: ParamSet, D: IndexSet, n: int, m: int):
    """h_{D,n} / h_{D,m}: base ratio times the virtual-energy factors (same D)."""
    fam = lam.fam
    out = fam.h_ratio_base(n, m, lam)
    En = fam.energy(n, lam)
    Em = fam.energy(m, lam)
    for d, vtype in D.entries:   # type I first
        ev = fam.etilde(vtype, d, lam)
        out = out * (En - ev) / (Em - ev)
    return out
