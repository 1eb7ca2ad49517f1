"""The stacked sweep kernels against the per-angle code they replaced.

_reference_face is the per-row face code that boundary._faces replaces:
one eigh of the orthogonal direction per block of the row's maximal
eigenspace, returning the row's fields as a dict.  _reference_locate_crossing
is the scalar ternary crossing search that DirectionSweep.locate_crossings
replaces, extended by the gap index m of the search; _reference_sweep applies
the crossing rule of DirectionSweep.crossings one grid interval at a time.
The stacked kernels must reproduce them bit for bit, so every field of every
record row and every angle is compared with ==, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qexpfam import cone, defaults, sampling
from qexpfam.boundary import _resolution, mean_value_boundary_sweep
from qexpfam.closures import geodesic_closure_atlas
from qexpfam.family import make_family
from qexpfam.linalg import Algebra, DirectionSweep, SweepSpectra, diagonal
from qexpfam.sampling import random_traceless


def _reference_face(kernel: DirectionSweep, alpha: float, spectra: SweepSpectra, i: int,
                    refined: bool = False) -> dict:
    c, s = np.cos(alpha), np.sin(alpha)
    mu = max(float(w[i, -1]) for w in spectra.values)
    lows, highs, perps = [], [], {}
    for k, (w, V) in enumerate(zip(spectra.values, spectra.vectors)):
        keep = w[i] >= mu - defaults.MAX_EIG_GAP
        if keep.any():
            # extreme eigenvectors of the orthogonal direction on the maximal eigenspace
            Q, perp = V[i][:, keep], -s * kernel.a[k] + c * kernel.b[k]
            vals, Y = np.linalg.eigh(Q.conj().T @ perp @ Q)
            lows.append((float(vals[0]), k, Q @ Y[:, 0]))
            highs.append((float(vals[-1]), k, Q @ Y[:, -1]))
            perps[k] = perp
    ends = [min(lows, key=lambda e: e[0]), max(highs, key=lambda e: e[0])]
    e_lo, e_hi = [
        tuple(float((psi.conj() @ v[k] @ psi).real) for v in (kernel.a, kernel.b))
        for _, k, psi in ends
    ]
    dim = 1 if np.hypot(e_hi[0] - e_lo[0], e_hi[1] - e_lo[1]) > _resolution(mu) else 0

    def radius(k: int, psi: np.ndarray) -> float:
        w, V = spectra.values[k][i], spectra.vectors[k][i]
        out = w < mu - defaults.MAX_EIG_GAP
        coupling = V[:, out].conj().T @ (perps[k] @ psi)
        return float(np.sum(2.0 * np.abs(coupling) ** 2 / (mu - w[out])))

    radii = tuple(radius(k, psi) for _, k, psi in ends) if dim else (0.0, 0.0)
    return dict(alpha=float(alpha), support_value=mu, endpoints=(e_lo, e_hi),
                dim=dim, refined=refined, radii=radii)


def _reference_locate_crossing(self: DirectionSweep, lo: float, hi: float,
                               stop: float, m: int = 1) -> float | None:
    for _ in range(200):
        if hi - lo < stop:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1, g2 = self.spectra([m1, m2]).top_gap(m)
        if g1 <= g2:
            hi = m2
        else:
            lo = m1
    alpha = 0.5 * (lo + hi)
    if self.spectra([alpha]).top_gap(m)[0] <= defaults.MAX_EIG_GAP:
        return alpha
    return None


def _reference_sweep(family, n_angles: int) -> list[dict]:
    """The per-angle sweep: one _reference_face per grid angle and one scalar
    search per grid interval across which the maximal projector jumps."""
    kernel = DirectionSweep(family.basis[0].blocks, family.basis[1].blocks)
    alphas = np.linspace(0.0, 2.0 * np.pi, int(n_angles), endpoint=False)
    spectra = kernel.spectra(alphas)
    faces = [_reference_face(kernel, a, spectra, i) for i, a in enumerate(alphas)]
    n = len(alphas)

    def top(i: int) -> list[np.ndarray]:
        mu = max(w[i, -1] for w in spectra.values)
        return [V[i][:, w[i] >= mu - defaults.MAX_EIG_GAP]
                for w, V in zip(spectra.values, spectra.vectors)]

    for j in range(n):
        Q0, Q1 = top(j), top((j + 1) % n)
        r0, r1 = sum(q.shape[1] for q in Q0), sum(q.shape[1] for q in Q1)
        overlap = sum(np.linalg.norm(q0.conj().T @ q1) ** 2 for q0, q1 in zip(Q0, Q1))
        if overlap < 0.5 * min(r0, r1):
            hi = alphas[j + 1] if j + 1 < n else alphas[0] + 2.0 * np.pi
            found = _reference_locate_crossing(kernel, alphas[j], hi,
                                               defaults.SWEEP_CROSSING_TOL, max(r0, r1))
            if found is not None:
                faces.append(_reference_face(kernel, found, kernel.spectra([found]), 0,
                                             refined=True))
    faces.sort(key=lambda f: f["alpha"])
    return faces


def _assert_rows_equal(got, want):
    """Record rows against reference dicts, field by field, with ==."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name, value in w.items():
            assert np.all(g[name] == np.asarray(value)), name


def _random_family(dims: tuple[int, ...], seed: int, commutative: bool):
    """A 2D family on the block algebra dims: random Hermitian generators, or
    integer diagonal ones (a polygon with flat stretches and corners) when the
    diagonal has room for two traceless directions."""
    algebra = Algebra(dims)
    rng = np.random.default_rng(seed)
    commutative = commutative and sum(dims) >= 3
    while True:
        if commutative:
            gens = [diagonal(algebra, rng.integers(-2, 3, size=sum(dims)).astype(float))
                    for _ in range(2)]
        else:
            gens = [random_traceless(algebra, rng) for _ in range(2)]
        try:
            return make_family(algebra, gens)
        except ValueError:
            continue


_DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple).filter(
    lambda d: sum(d) <= 8 and sum(n * n for n in d) >= 3)


def _gap_minima_brackets(kernel: DirectionSweep, n: int):
    alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    gaps = kernel.spectra(alphas).top_gap()
    minima = alphas[(gaps <= np.roll(gaps, 1)) & (gaps <= np.roll(gaps, -1))]
    step = 2.0 * np.pi / n
    return minima - step, minima + step


class TestStackedSweep:
    @settings(derandomize=True, deadline=None, max_examples=16)
    @given(_DIMS, st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([97, 180]))
    @example((2, 1, 1), 15, True, 97)  # crossings with a double top eigenvalue
    @example((2, 4), 0, False, 97)  # radii of refined rows in a 4x4 block
    def test_random_families_match_per_angle_faces(self, dims, seed, commutative, n):
        fam = _random_family(dims, seed, commutative)
        _assert_rows_equal(mean_value_boundary_sweep(fam, n).faces, _reference_sweep(fam, n))

    @pytest.mark.parametrize("phi", [0.0, 0.03, 0.5, 0.8255269040265483,
                                     1.0471975511965976, 1.2, 1.5707963267948966])
    def test_cone_tilts_match_per_angle_faces(self, phi):
        fam = cone.plane_for_angle(phi)
        _assert_rows_equal(mean_value_boundary_sweep(fam, 180).faces, _reference_sweep(fam, 180))

    @pytest.mark.parametrize("name", ["staffelberg_family", "swallow_family"])
    def test_named_families_match_per_angle_faces(self, name):
        fam = getattr(cone, name)()
        _assert_rows_equal(mean_value_boundary_sweep(fam).faces, _reference_sweep(fam, 720))


class TestLockstepCrossings:
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(_DIMS, st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([1, 2]))
    def test_batch_matches_scalar_search(self, dims, seed, commutative, m):
        fam = _random_family(dims, seed, commutative)
        kernel = DirectionSweep(fam.basis[0].blocks, fam.basis[1].blocks)
        lo, hi = _gap_minima_brackets(kernel, 60)
        # brackets of every width, so the searches stop at different steps
        rng = np.random.default_rng(seed)
        extra = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=(3, 2)), axis=1)
        lo, hi = np.concatenate([lo, extra[:, 0]]), np.concatenate([hi, extra[:, 1]])
        # gap below the top m eigenvalues, m varying by bracket
        m = np.where(np.arange(len(lo)) % 2, min(m, sum(dims) - 1), 1)
        got = kernel.locate_crossings(lo, hi, m)
        for g, a, b, k in zip(got, lo, hi, m):
            want = _reference_locate_crossing(kernel, a, b, defaults.SWEEP_CROSSING_TOL, k)
            assert np.isnan(g) if want is None else g == want

    def test_empty_batch(self):
        kernel = DirectionSweep(cone.swallow_family().basis[0].blocks,
                                cone.swallow_family().basis[1].blocks)
        assert kernel.locate_crossings([], [], []).shape == (0,)


class TestCrossingRule:
    """Sweep segments and atlas spikes come from the one crossing rule."""

    @staticmethod
    def _counts(fam, n):
        return (len(mean_value_boundary_sweep(fam, n).segments()),
                len(geodesic_closure_atlas(fam, n).spike_groups()))

    # random families, and integer diagonal ones whose polygons repeat vertices;
    # the explicit examples are where a gap-minimum bracket rule disagreed at 90 angles
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(_DIMS, st.integers(0, 2**32 - 1), st.booleans())
    @example((3, 1), 132, False)
    @example((1, 1, 1, 1), 139, False)
    @example((1, 1, 1, 1), 259, False)
    def test_segments_are_atlas_spikes(self, dims, seed, commutative):
        if commutative:
            fam = _random_family(dims, seed, True)
        else:
            fam = sampling.random_family(Algebra(dims), 2, np.random.default_rng(seed))
        for n in (90, 180, 720):
            segments, spikes = self._counts(fam, n)
            assert segments == spikes

    def test_repeated_vertex_triangle(self):
        # points P, P, Q, R: on P's arc the top eigenvalue stays double, and
        # each edge at P is a crossing of a simple branch with that pair
        algebra = Algebra((1, 1, 1, 1))
        fam = make_family(algebra, [diagonal(algebra, np.array([0.0, 0.0, 1.0, -1.0])),
                                    diagonal(algebra, np.array([1.0, 1.0, -1.0, -1.0]))])
        for n in (90, 180, 720):
            assert self._counts(fam, n) == (3, 3)

    # two crossings 0.057 rad (sweep) and 0.085 rad (atlas) apart: they share
    # one interval of the 64-angle grid but not of the 90- or 720-angle one
    _PAIRED = [((1, 1, 1, 1), 139, "sweep"), ((2, 2), 47, "atlas")]

    @staticmethod
    def _four_crossings(dims, seed, kind, n):
        fam = sampling.random_family(Algebra(dims), 2, np.random.default_rng(seed))
        if kind == "sweep":
            return len(mean_value_boundary_sweep(fam, n).segments()) == 4
        return len(geodesic_closure_atlas(fam, n).spike_groups()) == 4

    @pytest.mark.parametrize("dims, seed, kind", _PAIRED)
    def test_paired_crossings_apart_on_fine_grids(self, dims, seed, kind):
        assert self._four_crossings(dims, seed, kind, 90)
        assert self._four_crossings(dims, seed, kind, 720)

    @pytest.mark.xfail(strict=True, reason="a grid interval yields at most one crossing")
    @pytest.mark.parametrize("dims, seed, kind", _PAIRED)
    def test_paired_crossings_in_one_interval(self, dims, seed, kind):
        assert self._four_crossings(dims, seed, kind, 64)

    def test_staffelberg_sweep_has_only_grid_faces(self):
        faces = mean_value_boundary_sweep(cone.staffelberg_family()).faces
        assert len(faces) == defaults.SWEEP_ANGLES
        assert not any(f.refined for f in faces)

    def test_flat_gap_plane_searches_nothing(self, monkeypatch):
        # at pi/2 the top gap is flat and never closes: there is nothing to search
        searched = []
        locate = DirectionSweep.locate_crossings

        def spy(self, lo, hi, m):
            searched.append(len(lo))
            return locate(self, lo, hi, m)

        monkeypatch.setattr(DirectionSweep, "locate_crossings", spy)
        mean_value_boundary_sweep(cone.plane_for_angle(np.pi / 2))
        assert searched == [0]
