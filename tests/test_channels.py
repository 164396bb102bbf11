"""Channel designs, kernels, the observation model, and design functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testkit import boxcar_linear_design
from lrdeconv.channels import (
    BlurKernel,
    ChannelDesign,
    boxcar_S_closed_form,
    characterize_kernel,
    delta_1,
    epsilon_n,
    kernel_fourier,
    load_kernel_table,
    save_kernel_table,
    simulate_observations,
    tau_1,
)
from lrdeconv.errors import ConfigError, NumericError
from lrdeconv.fourier import FourierSeries
from lrdeconv.meyer import MeyerSpec, frequency_set
from lrdeconv.noise import NoiseModel, autocovariance
from lrdeconv.riskbench import make_test_function


def flat_kernel():
    # heat kernel at u = 0 has g_m = 1 for every m
    return BlurKernel("heat")


def single_channel(u=0.0, d=0.0, N=256, scale=1.0):
    model = NoiseModel.farima(d, scale) if d > 0 else NoiseModel.white(scale)
    return ChannelDesign((u,), (d,), N, (model,))


class TestDesignValidation:
    def test_d_bound(self):
        with pytest.raises(ConfigError):
            ChannelDesign((0.5,), (0.6,), 64, (NoiseModel.white(),))

    def test_power_of_two(self):
        with pytest.raises(ConfigError):
            ChannelDesign((0.5,), (0.0,), 100, (NoiseModel.white(),))

    def test_noise_d_must_match(self):
        with pytest.raises(ConfigError):
            ChannelDesign((0.5,), (0.2,), 64, (NoiseModel.farima(0.3),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_channel_points_must_be_finite(self, bad):
        white = (NoiseModel.white(),) * 2
        with pytest.raises(ConfigError, match=f"^channel points must be finite, got u_l = {bad}$"):
            ChannelDesign((0.5, bad), (0.0, 0.0), 64, white)

    def test_derived_quantities(self):
        design = boxcar_linear_design(2 ** 14)
        assert design.n == design.M * design.N == 2 ** 14


class TestKernelFourier:
    def test_boxcar_dc(self):
        assert kernel_fourier(BlurKernel("boxcar"), 0.123, 0)[0, 0] == 1.0

    def test_boxcar_sine_zero(self):
        assert kernel_fourier(BlurKernel("boxcar"), 0.5, 2)[0, 0] == 0.0

    def test_boxcar_value(self):
        got = kernel_fourier(BlurKernel("boxcar", q=(2.0, 0.0)), 0.2, 3)[0, 0]
        assert got.real == pytest.approx(2.0 * math.sin(2 * math.pi * 3 * 0.2)
                                         / (2 * math.pi * 3), rel=1e-12)

    def test_heat_value(self):
        assert kernel_fourier(BlurKernel("heat"), 1.0, 1)[0, 0].real == pytest.approx(
            math.exp(-4 * math.pi ** 2), rel=1e-12
        )

    def test_dirichlet_value(self):
        got = kernel_fourier(BlurKernel("dirichlet", c=0.8), 0.5, -3)[0, 0]
        assert got.real == pytest.approx(0.8 * 0.5 ** 3, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            kernel_fourier(BlurKernel("heat"), -0.1, 1)
        with pytest.raises(ConfigError):
            kernel_fourier(BlurKernel("dirichlet"), 1.5, 1)

    @pytest.mark.parametrize("kwargs", [dict(c=math.nan), dict(c=-math.inf),
                                        dict(q=(math.nan, 0.0)), dict(q=(1.0, math.inf))])
    @pytest.mark.parametrize("kind", ["heat", "dirichlet", "boxcar"])
    def test_nonfinite_numbers_rejected(self, kind, kwargs):
        with pytest.raises(ConfigError, match="c, q0 and q1 must be finite"):
            BlurKernel(kind, **kwargs)

    def test_zero_dirichlet_rejected(self):
        with pytest.raises(ConfigError, match="c != 0"):
            BlurKernel("dirichlet", c=0.0)
        assert kernel_fourier(BlurKernel("dirichlet", c=-2.0), 0.5, 1)[0, 0] == -1.0

    def test_table_round_trip(self, tmp_path):
        u = [0.2, 0.4]
        m = [-1, 0, 1]
        g = np.array([[1j, 0.5], [1.0, 1.0], [-1j, 0.5]])
        path = tmp_path / "kernel.tbl"
        save_kernel_table(path, m, u, g)
        kernel = load_kernel_table(path)
        got = kernel_fourier(kernel, np.array(u), np.array(m))
        assert got.T == pytest.approx(g, abs=1e-15)
        with pytest.raises(ConfigError):
            kernel_fourier(kernel, 0.3, 0)
        with pytest.raises(ConfigError):
            kernel_fourier(kernel, 0.2, 5)


def table_lookup_loop(kernel, u, m):
    """Element-by-element table lookup: the reference for the array version."""
    tab_u = np.asarray(kernel.table_u, dtype=float)
    tab_m = np.asarray(kernel.table_m, dtype=int)
    g = np.asarray(kernel.table_g, dtype=complex).reshape(len(tab_m), len(tab_u))
    cols = np.empty(len(u), dtype=int)
    for i, ui in enumerate(u):
        j = int(np.argmin(np.abs(tab_u - ui)))
        if abs(tab_u[j] - ui) > 1e-9 * max(1.0, abs(ui)):
            raise ConfigError(f"kernel table has no column for u = {ui}")
        cols[i] = j
    rows = np.empty(len(m), dtype=int)
    index = {int(mm): i for i, mm in enumerate(tab_m)}
    for i, mi in enumerate(m):
        try:
            rows[i] = index[int(mi)]
        except KeyError:
            raise ConfigError(f"kernel table has no row for m = {int(mi)}") from None
    return g[np.ix_(rows, cols)].T


def table_kernel(m_rows, u_cols, seed):
    rng = np.random.default_rng(seed)
    shape = (len(m_rows), len(u_cols))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return BlurKernel("table", table_m=tuple(m_rows), table_u=tuple(u_cols),
                      table_g=tuple(g.ravel().tolist()))


def lookup_outcome(fn, kernel, u, m):
    try:
        out = fn(kernel, np.asarray(u, dtype=float), np.asarray(m, dtype=int))
    except ConfigError as exc:
        return "error", str(exc)
    return out.shape, out.tobytes()


class TestTableLookup:
    """kernel_fourier on a table kernel gives, bit for bit, what the loop gives."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_loop(self, data):
        m_rows = data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=40))
        u_cols = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
        kernel = table_kernel(m_rows, u_cols, data.draw(st.integers(0, 2 ** 32 - 1)))
        u = data.draw(st.lists(st.sampled_from(u_cols), min_size=1, max_size=6))
        m = data.draw(st.lists(st.sampled_from(m_rows) | st.integers(-35, 35), max_size=50))
        assert (lookup_outcome(kernel_fourier, kernel, u, m)
                == lookup_outcome(table_lookup_loop, kernel, u, m))

    def test_unsorted_rows_and_missing_entries(self):
        kernel = table_kernel([5, -3, 0, 7, -3, 2], [0.75, 0.25, 0.5], seed=3)
        u = [0.25, 0.75, 0.5, 0.25]
        m = [7, -3, 0, 2, 5, -3, 7]
        got = lookup_outcome(kernel_fourier, kernel, u, m)
        assert got == lookup_outcome(table_lookup_loop, kernel, u, m)
        # a repeated m resolves to its last row
        g = np.asarray(kernel.table_g).reshape(6, 3)
        assert kernel_fourier(kernel, np.array([0.75]), np.array([-3]))[0, 0] == g[4, 0]
        for bad_u, bad_m in (([0.25, 0.3], m), (u, [0, 4, 6]), (u, [-4])):
            want = lookup_outcome(table_lookup_loop, kernel, bad_u, bad_m)
            assert want[0] == "error"
            assert lookup_outcome(kernel_fourier, kernel, bad_u, bad_m) == want


# The kernel-table writer and reader as they were before numpy wrote and
# parsed the file: the reference for its bytes and for the kernel's bits.

def reference_save_kernel_table(path, m_values, u_values, g_matrix):
    g = np.asarray(g_matrix, dtype=complex)
    with open(path, "w") as fh:
        fh.write("# kernel table: rows m, columns l; entries re,im\n")
        fh.write("# u " + " ".join(f"{u:.17g}" for u in u_values) + "\n")
        for mi, row in zip(m_values, g):
            cells = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row)
            fh.write(f"{int(mi)} {cells}\n")


def reference_load_kernel_table(path):
    u_values, m_values, rows = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] == "u":
                    u_values = [float(x) for x in parts[1:]]
                continue
            cells = line.split()
            m_values.append(int(cells[0]))
            row = []
            for cell in cells[1:]:
                re, im = cell.split(",")
                row.append(complex(float(re), float(im)))
            rows.append(row)
    g = np.asarray(rows, dtype=complex)
    return BlurKernel(kind="table", table_m=tuple(m_values), table_u=tuple(u_values),
                      table_g=tuple(g.ravel().tolist()))


def kernel_bits(kernel):
    return (kernel.kind, kernel.table_m, np.array(kernel.table_u).tobytes(),
            np.array(kernel.table_g, dtype=complex).tobytes())


finite_st = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300])


class TestKernelTableFile:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bytes_and_bits_match_the_reference(self, data, tmp_path_factory):
        L = data.draw(st.integers(1, 6))
        m = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40) | st.integers(-5, 5),
                               min_size=1, max_size=12))  # repeats included
        u = data.draw(st.lists(finite_st, min_size=L, max_size=L))
        parts = data.draw(st.lists(finite_st, min_size=2 * L * len(m),
                                   max_size=2 * L * len(m)))
        g = np.array(parts).view(complex).reshape(len(m), L)
        g_arg = g.T.copy().T if data.draw(st.booleans()) else g  # Fortran order too
        folder = tmp_path_factory.mktemp("table")
        got, want = folder / "got.tbl", folder / "want.tbl"
        save_kernel_table(got, m, u, g_arg)
        reference_save_kernel_table(want, m, u, g)
        assert got.read_bytes() == want.read_bytes()
        kernel = load_kernel_table(got)
        assert kernel_bits(kernel) == kernel_bits(reference_load_kernel_table(want))
        assert all(type(x) is int for x in kernel.table_m)

    def test_comments_blank_lines_and_tabs(self, tmp_path):
        path = tmp_path / "kernel.tbl"
        path.write_text("# u 9\n\n2 1,-0\n# a note\n  -1\t-0.5,2e-310  \n"
                        "# u 0.25\n2 3,4\n")
        kernel = load_kernel_table(path)
        assert kernel_bits(kernel) == kernel_bits(reference_load_kernel_table(path))
        # the last '# u' header wins, and so does the last row of a repeated m
        assert kernel.table_u == (0.25,)
        assert kernel_fourier(kernel, 0.25, 2)[0, 0] == 3 + 4j

    @pytest.mark.parametrize("text, reason", [
        ("# u 0.1 0.2\n0 1,0 1,0\n1 abc 1,0\n", "not an integer m"),
        ("# u 0.1 0.2\n0 1,0 1,x\n", "could not convert"),
        ("# u 0.1 0.2\n0 1 0 1 0\n", "not an integer m"),
        ("# u 0.1 0.2\n0 1,0,2 1,0\n", "not an integer m"),
        ("# u 0.1 0.2\n0 1,0 1,0\n1 1,0\n", "number of columns"),
        ("# u 0.1 0.2\n0 1,0 1,0 1,0\n", "u header names 2"),
        ("# u 0.1 0.2\n0 1,0\n", "u header names 2"),
        ("# u 0.1 0.2\n1.5 1,0 1,0\n", "not an integer m"),
        ("0 1,0 1,0\n", "lacks a '# u ...' header"),
        ("# u\n0 1,0 1,0\n", "lacks a '# u ...' header"),
        ("# u 0.1 zz\n0 1,0 1,0\n", "could not convert"),
        ("# u 0.1 0.2\n", "is empty"),
        ("# u 0.1 0.2\n0 nan,0 1,0\n", "must be finite"),
        ("# u 0.1 0.2\n0 1,0 1,-inf\n", "must be finite"),
        ("# u 0.1 inf\n0 1,0 1,0\n", "must be finite"),
    ])
    def test_malformed_table_is_config_error_naming_the_file(self, tmp_path, text, reason):
        path = tmp_path / "kernel.tbl"
        path.write_text(text)
        with pytest.raises(ConfigError, match=reason) as info:
            load_kernel_table(path)
        assert str(info.value).startswith(f"kernel table {path}: ")

    def test_non_utf8_table_is_config_error(self, tmp_path):
        path = tmp_path / "kernel.tbl"
        path.write_bytes(b"\xff\xfe# u 0.1\n0 1,0\n")
        with pytest.raises(ConfigError, match="codec"):
            load_kernel_table(path)


class TestSimulateObservations:
    def test_noiseless_rows_match_blurred_truth(self):
        design = single_channel(u=0.37, scale=1e-300)
        f = make_test_function("sawtooth_smoothed", 30, {"m0": 3.0, "decay": 1.5})
        y = simulate_observations(f, design, BlurKernel("boxcar"), seed=3)
        row = np.fft.fft(y[0]) / design.N
        g = kernel_fourier(BlurKernel("boxcar"), np.array([0.37]), f.m)[0]
        assert row[np.mod(f.m, design.N)] == pytest.approx(g * f.values, abs=1e-10)

    def test_zero_truth_rows_are_noise(self):
        design = boxcar_linear_design(2 ** 12)
        f = FourierSeries(4, np.zeros(9))
        reps = 60
        acc = np.zeros(design.M)
        for rep in range(reps):
            y = simulate_observations(f, design, BlurKernel("boxcar"),
                                      np.random.SeedSequence(5, spawn_key=(rep,)))
            acc += y.var(axis=1, ddof=0) / reps
        gamma0 = np.array([autocovariance(mod, 0) for mod in design.noise])
        # row sample variance underestimates gamma(0) by the squared sample
        # mean's expectation; 4 SE band on the replicate average
        se = gamma0 * math.sqrt(2.0 / (reps * design.N / 4))
        assert np.all(np.abs(acc - gamma0) < 4 * se + 0.05 * gamma0)

    def test_channels_independent(self):
        u = (0.3, 0.3)
        design = ChannelDesign(u, (0.2, 0.2), 128,
                               (NoiseModel.farima(0.2), NoiseModel.farima(0.2)))
        y = simulate_observations(FourierSeries(1, np.zeros(3)), design,
                                  BlurKernel("boxcar"), seed=1)
        assert not np.allclose(y[0], y[1])

    def test_deterministic(self):
        design = boxcar_linear_design(2 ** 10)
        f = make_test_function("smooth_sine", 3, {"freq": 3})
        a = simulate_observations(f, design, BlurKernel("boxcar"), seed=9)
        b = simulate_observations(f, design, BlurKernel("boxcar"), seed=9)
        assert np.array_equal(a, b)

    def test_band_limit_enforced(self):
        design = single_channel(N=64)
        with pytest.raises(ConfigError):
            simulate_observations(FourierSeries(40, np.zeros(81)), design,
                                  BlurKernel("boxcar"), seed=0)


class TestTauKappa:
    def test_unit_channel(self):
        assert tau_1(single_channel(), flat_kernel(), [7]) == pytest.approx([1.0])

    def test_boxcar_sandwich(self):
        # tau_1 = (4 pi^2 m^2)^-1 N^(-2 a2) * (q^2-weighted S), bracketed by
        # q_min^2 and q_max^2 for an affine weight
        a1, a2 = 0.2, 0.1
        design = boxcar_linear_design(2 ** 12, a1=a1, a2=a2)
        kernel = BlurKernel("boxcar", q=(0.8, 0.4))
        q = kernel.weight(design.u_array())
        q1, q2 = q.min(), q.max()
        for m in (3, 7, 13, 29):
            t1, = tau_1(design, kernel, [m])
            S = boxcar_S_closed_form(m, design.M, design.N, a1)
            base = S * design.N ** (-2.0 * a2) / (4 * math.pi ** 2 * m ** 2)
            assert q1 ** 2 * base <= t1 <= q2 ** 2 * base


class TestDeltaKappa:
    def test_unit_channel(self):
        assert delta_1(single_channel(), flat_kernel(), 3) == pytest.approx(1.0)

    def test_deterministic(self):
        design = boxcar_linear_design(2 ** 12)
        a = delta_1(design, BlurKernel("boxcar"), 3)
        b = delta_1(design, BlurKernel("boxcar"), 3)
        assert a == b

    def test_ill_posed_level(self):
        # M = 16 puts the resonance m = 8 inside C_3
        design = ChannelDesign(
            tuple(l / 16 for l in range(1, 17)),
            tuple(0.2 * l / 16 + 0.1 for l in range(1, 17)),
            256,
            tuple(NoiseModel.farima(0.2 * l / 16 + 0.1) for l in range(1, 17)),
        )
        with pytest.raises(NumericError,
                           match=r"^tau_1 vanishes on C_3 at m in \[-8, 8\]; level is ill-posed$"):
            delta_1(design, BlurKernel("boxcar"), 3)

    def test_heat_growth_envelope(self):
        # log Delta_1(j) against 2^(j beta) grows with a slope inside the
        # band set by the level extremes of (|m| / 2^j)^beta
        u0, beta = 1e-3, 2.0
        design = ChannelDesign(
            tuple(u0 + 1e-4 * l for l in range(1, 9)),
            (0.0,) * 8, 256, (NoiseModel.white(),) * 8,
        )
        kernel = BlurKernel("heat")
        alpha1 = 2 * 4 * math.pi ** 2 * u0
        js = [1, 2, 3]
        logd = [math.log(delta_1(design, kernel, j)) for j in js]
        x = [2.0 ** (beta * j) for j in js]
        slope = np.polyfit(x, logd, 1)[0]
        assert (1.0 / 3.0) ** beta < slope / alpha1 < (8 * math.pi / 3) ** beta


class TestEpsilonN:
    def test_iid_limit(self):
        design = boxcar_linear_design(2 ** 12, a1=0.0, a2=0.0)
        eps, n_star = epsilon_n(design)
        assert eps == 1.0 and n_star == design.n

    def test_constant_d(self):
        theta = 0.5
        design = boxcar_linear_design(2 ** 14, a1=0.0, a2=0.25, theta=theta)
        eps, n_star = epsilon_n(design)
        assert eps == pytest.approx(design.N ** (-0.5), rel=1e-12)
        assert n_star == pytest.approx(design.n ** (1 - 2 * 0.25 * (1 - theta)), rel=1e-12)

    def test_linear_a1_zero(self):
        design = boxcar_linear_design(2 ** 12, a1=0.0, a2=0.1)
        eps, _ = epsilon_n(design)
        assert eps == pytest.approx(design.N ** (-0.2), rel=1e-12)


class TestBoxcarS:
    def test_resonant_zero(self):
        assert boxcar_S_closed_form(6, 12, 1024, 0.3) == 0.0
        assert boxcar_S_closed_form(12, 12, 1024, 0.3) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            M = int(rng.integers(4, 600))
            N = 2 ** int(rng.integers(4, 15))
            m = int(rng.integers(1, 3 * M))
            a1 = float(rng.uniform(0.0, 0.45)) if rng.random() > 0.15 else 0.0
            l = np.arange(1, M + 1)
            brute = float(np.mean(np.sin(2 * np.pi * ((m * l) % M) / M) ** 2
                                  * N ** (-2.0 * a1 * l / M)))
            assert boxcar_S_closed_form(m, M, N, a1) == pytest.approx(brute, abs=1e-10)

    def test_log_envelope(self):
        for N in (2 ** 10, 2 ** 12, 2 ** 14):
            for M in (8, 64, 512):
                for a1 in (0.05, 0.2, 0.4):
                    for m in (1, 3, 7, 29):
                        S = boxcar_S_closed_form(m, M, N, a1)
                        assert S * 2 * a1 * math.log(N) <= 1.1

    def test_decay_in_N(self):
        vals = [boxcar_S_closed_form(5, 64, N, 0.3) * math.log(N)
                for N in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14)]
        assert max(vals) / min(vals) < 2.0


class TestLemmaBoxcarBand:
    def test_tau1_band_across_n(self):
        # linear-d design: tau_1(m,n) m^2 N^(2 a2) ln n stays in a fixed band
        # for m in C_j with 2^j >= ln n
        a1, a2 = 0.2, 0.1
        vals = []
        for k in (14, 16, 18, 20):
            n = 2 ** k
            design = boxcar_linear_design(n, a1=a1, a2=a2)
            j = max(4, math.ceil(math.log2(math.log(n))) + 1)
            members = frequency_set(MeyerSpec(0, 0), j).members
            members = members[(members > 0) & ((2 * members) % design.M != 0)]
            t1 = tau_1(design, BlurKernel("boxcar"), members)
            vals.extend(t1 * members.astype(float) ** 2
                        * design.N ** (2 * a2) * math.log(n))
        vals = np.asarray(vals)
        assert np.all(vals > 0)
        assert vals.max() / vals.min() < 10.0


class TestCharacterize:
    def test_boxcar_regular_nu_two(self):
        design = boxcar_linear_design(2 ** 16)
        fit = characterize_kernel(design, BlurKernel("boxcar"), range(8, 65))
        assert fit.regime == "regular"
        assert fit.nu == pytest.approx(2.0, abs=0.1)

    def test_heat_supersmooth_beta_two(self):
        design = ChannelDesign(
            tuple(0.0005 + 0.0001 * l for l in range(1, 17)),
            (0.0,) * 16, 256, (NoiseModel.white(),) * 16,
        )
        fit = characterize_kernel(design, BlurKernel("heat"), range(4, 26))
        assert fit.regime == "supersmooth"
        assert fit.beta == pytest.approx(2.0, abs=0.1)
        assert fit.alpha > 0

    def test_flat_kernel(self):
        design = single_channel()
        fit = characterize_kernel(design, flat_kernel(), range(4, 33))
        assert fit.regime == "regular"
        assert fit.nu == pytest.approx(0.0, abs=1e-6)
        assert fit.alpha == pytest.approx(0.0, abs=1e-9)
        assert fit.lam == pytest.approx(0.0, abs=1e-6)

    def test_octave_required(self):
        with pytest.raises(ConfigError):
            characterize_kernel(single_channel(), flat_kernel(), range(8, 12))

    @pytest.mark.parametrize("u, regime", [
        (np.arange(1, 256) / 256, "regular"),  # u_max = 0.996: alpha = 3e-5, 0.11 e-folds
        (0.99 * np.arange(1, 257) / 256, "regular"),  # 0.78 e-folds
        (0.985 * np.arange(1, 257) / 256, "supersmooth"),  # 1.4 e-folds
        (np.linspace(0.5, 0.9, 256), "supersmooth"),  # 12 e-folds
        (np.linspace(0.2, 0.8, 256), "supersmooth"),  # 27 e-folds
    ], ids=["probe", "below-floor", "above-floor", "u-0.5-0.9", "u-0.2-0.8"])
    def test_dirichlet_supersmooth_needs_one_e_fold(self, u, regime):
        # every design here fits the super-smooth template decisively better; the
        # verdict is super-smooth only when alpha m^beta moves log tau_1 by an
        # e-fold or more between the fitted frequencies 4 and 64
        d = tuple(0.2 * float(x) + 0.1 for x in u)
        design = ChannelDesign(tuple(float(x) for x in u), d, 256,
                               tuple(NoiseModel.farima(dl) for dl in d))
        fit = characterize_kernel(design, BlurKernel("dirichlet"), range(4, 65))
        assert fit.residual_supersmooth < 0.25 * fit.residual_regular
        assert fit.regime == regime
        if regime == "supersmooth":
            assert fit.alpha * (64 ** fit.beta - 4 ** fit.beta) >= 1
        else:
            assert fit.alpha == 0.0 and fit.residual == fit.residual_regular
