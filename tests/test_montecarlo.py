"""Codebooks, finite-size estimators, and the tilted-CDF machinery.

The two-point spectrum lam = (0, 2) is the workhorse: the conditional CDF
of the exponential ratio is exactly mu(x) = x/2 there, so selected-extreme
integrals, quantiles, and codebook bounds all have hand-derived values.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fblimits import (
    BudgetError,
    Codebook,
    Estimate,
    QuadratureConfig,
    ReliabilityError,
    SimConfig,
    c_rand_via_cdf,
    conditional_cdf_mc,
    conditional_cdf_tilted,
    design_codebook,
    ldp_rate_estimate,
    min_chordal_distance,
    quantile_x_n,
    random_codebook,
    sample_spectrum,
    simulate_c_cdf,
    simulate_c_direct,
    simulate_c_spectral,
    uniform_codebook_bound,
)

from fblimits import montecarlo
from fblimits.montecarlo import (
    _LEVEL_BLOCK,
    _chernoff_fixed,
    _exponentials,
    _grid_integral,
    _log_cdf,
    _log_complement,
    _lower_is_rare,
    _panel,
    _rng,
    _survival_power,
)

TWO_POINT = np.array([0.0, 2.0])


# ---------------------------------------------------------------------------
# codebooks


def test_random_codebook_unit_norms():
    cb = random_codebook(8, 32, seed=1)
    norms = np.linalg.norm(cb.vectors, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert cb.kind == "random_isotropic"
    assert cb.size == 32


def test_random_codebook_scalar_dimension():
    cb = random_codebook(1, 5, seed=2)
    assert np.abs(np.abs(cb.vectors[:, 0]) - 1.0).max() <= 1e-12


def test_random_codebook_isotropy_moment():
    # E |<v1, v2>|^2 = 1/n for independent isotropic unit vectors; |g|^2
    # follows Beta(1, n-1) with variance (n-1)/(n^2 (n+1)).
    n, reps = 8, 2000
    gains = np.empty(reps)
    for s in range(reps):
        v = random_codebook(n, 2, seed=s).vectors
        gains[s] = abs(np.vdot(v[0], v[1])) ** 2
    sd = math.sqrt((n - 1) / (n**2 * (n + 1)) / reps)
    assert abs(gains.mean() - 1.0 / n) <= 3.0 * sd


def test_random_codebook_determinism():
    a = random_codebook(4, 8, seed=9).vectors
    b = random_codebook(4, 8, seed=9).vectors
    assert np.array_equal(a, b)


def test_min_chordal_distance_trivials():
    ortho = Codebook(
        n=2,
        vectors=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
        kind="random_isotropic",
        seed=0,
    )
    assert min_chordal_distance(ortho) == pytest.approx(1.0, abs=1e-12)
    dup = Codebook(
        n=2,
        vectors=np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex),
        kind="random_isotropic",
        seed=0,
    )
    assert min_chordal_distance(dup) == pytest.approx(0.0, abs=1e-12)
    single = random_codebook(2, 1, seed=0)
    with pytest.raises(ValueError):
        min_chordal_distance(single)


def test_random_codebook_defers_geometry():
    # The O(K^2 n) Gram behind min_chordal is formed on first read only.
    cb = random_codebook(4, 64, seed=5)
    assert "min_chordal" not in vars(cb)
    first = cb.min_chordal
    assert "min_chordal" in vars(cb)
    assert first == min_chordal_distance(cb)
    assert random_codebook(4, 1, seed=5).min_chordal is None


def test_codebook_inputs_are_checked():
    for make in (lambda: random_codebook(0, 4, seed=0),
                 lambda: design_codebook(0, 4, seed=0),
                 lambda: design_codebook(0, 1, seed=0),
                 lambda: design_codebook(4, 0, seed=0),
                 lambda: design_codebook(4, 8, seed=0, iterations=0)):
        with pytest.raises(ValueError):
            make()
    cfg = SimConfig(n=4, m=4, r_fb=2, trials=2, seed=0)
    with pytest.raises(ValueError, match="codebook dimension 3"):
        simulate_c_direct(cfg, codebook=random_codebook(3, 4, seed=0))


def test_design_orthonormal_when_small():
    cb = design_codebook(2, 2, seed=0)
    assert cb.min_chordal == pytest.approx(1.0, abs=1e-6)
    assert cb.kind == "designed"


def test_design_reaches_simplex_optimum():
    # Three lines in C^2: best possible min chordal distance is sqrt(3)/2.
    cb = design_codebook(2, 3, seed=1)
    assert cb.min_chordal >= 0.86
    assert cb.min_chordal <= math.sqrt(3.0) / 2.0 + 1e-9


def test_design_beats_random_pool():
    designed = design_codebook(4, 16, seed=2)
    pool_best = max(
        min_chordal_distance(random_codebook(4, 16, seed=s)) for s in range(100)
    )
    assert designed.min_chordal > pool_best


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
def test_design_never_worse_than_its_random_start(seed):
    designed = design_codebook(3, 6, seed=seed, iterations=120)
    baseline = min_chordal_distance(random_codebook(3, 6, seed=seed))
    assert designed.min_chordal >= baseline - 1e-12


def test_design_single_codeword_is_the_random_one():
    cb = design_codebook(3, 1, seed=4)
    assert cb.kind == "designed"
    assert np.array_equal(cb.vectors, random_codebook(3, 1, seed=4).vectors)
    assert cb.min_chordal is None


def test_design_deterministic():
    a = design_codebook(3, 5, seed=7, iterations=100)
    b = design_codebook(3, 5, seed=7, iterations=100)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.min_chordal == b.min_chordal


# ---------------------------------------------------------------------------
# configuration and budget


def test_sim_config_validation():
    good = dict(n=4, m=4, r_fb=2, trials=10, seed=0, mode="min")
    SimConfig(**good)
    for field, bad in (
        ("n", 0),
        ("m", -1),
        ("r_fb", -1),
        ("trials", 0),
        ("mode", "avg"),
    ):
        kwargs = dict(good)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


LEVELS = [0.1, 0.5, 1.0]
CFG = dict(n=4, m=2, r_fb=2, trials=2, seed=0)

# Every count and seed in the package, one argument at a time.
INTEGER_SITES = [
    ("node_count", lambda v: QuadratureConfig(node_count=v)),
    ("n", lambda v: sample_spectrum(v, 4, 0)),
    ("m", lambda v: sample_spectrum(6, v, 0)),
    ("seed", lambda v: sample_spectrum(6, 4, v)),
    ("n", lambda v: random_codebook(v, 8, seed=0)),
    ("size", lambda v: random_codebook(4, v, seed=0)),
    ("seed", lambda v: random_codebook(4, 8, seed=v)),
    ("n", lambda v: design_codebook(v, 4, seed=0, iterations=5)),
    ("size", lambda v: design_codebook(4, v, seed=0, iterations=5)),
    ("seed", lambda v: design_codebook(4, 4, seed=v, iterations=5)),
    ("iterations", lambda v: design_codebook(4, 4, seed=0, iterations=v)),
    *[(name, lambda v, name=name: SimConfig(**{**CFG, name: v})) for name in CFG],
    ("r_fb", lambda v: c_rand_via_cdf(LEVELS, v, "min", 100, 0)),
    ("r_fb", lambda v: uniform_codebook_bound(LEVELS, v, "max", 0, samples=100)),
    ("samples", lambda v: simulate_c_cdf(SimConfig(**CFG), samples=v)),
    ("samples", lambda v: conditional_cdf_mc(LEVELS, 0.3, v, 0)),
    ("seed", lambda v: conditional_cdf_mc(LEVELS, 0.3, 100, v)),
    ("samples", lambda v: conditional_cdf_tilted(LEVELS, 0.3, v, 0)),
    ("samples", lambda v: quantile_x_n(LEVELS, 0.5, 0, samples=v)),
    ("seed", lambda v: quantile_x_n(LEVELS, 0.5, v, samples=100)),
    ("sizes", lambda v: ldp_rate_estimate(1.0, 0.5, [20, v], 100, 0)),
    ("samples", lambda v: ldp_rate_estimate(1.0, 0.5, [20], v, 0)),
    ("seed", lambda v: ldp_rate_estimate(1.0, 0.5, [20], 100, v)),
]


@pytest.mark.parametrize("value", [2.5, float("nan")], ids=["float", "nan"])
@pytest.mark.parametrize("name, call", INTEGER_SITES,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(INTEGER_SITES)])
def test_every_count_and_seed_refuses_a_non_integer(name, call, value):
    # A float is refused, never truncated (100.5 samples drawing 100) or left to fail later unnamed.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


def test_numpy_integers_give_the_outputs_of_python_integers():
    i = np.int64
    for got, want in (
        (random_codebook(i(4), i(8), seed=i(3)), random_codebook(4, 8, seed=3)),
        (design_codebook(i(3), i(4), seed=i(2), iterations=i(20)),
         design_codebook(3, 4, seed=2, iterations=20)),
    ):
        assert np.array_equal(got.vectors, want.vectors)
        assert (got.n, got.seed) == (want.n, want.seed) and type(got.n) is type(got.seed) is int
    spec = sample_spectrum(i(6), i(4), i(5))
    assert np.array_equal(spec.eigenvalues, sample_spectrum(6, 4, 5).eigenvalues)
    assert type(spec.n) is type(spec.m) is type(spec.seed) is int
    cfg = SimConfig(**{k: i(v) for k, v in CFG.items()})
    assert all(type(getattr(cfg, k)) is int for k in CFG)
    assert simulate_c_direct(cfg) == simulate_c_direct(SimConfig(**CFG))
    assert simulate_c_cdf(cfg, samples=i(500)) == simulate_c_cdf(SimConfig(**CFG), samples=500)
    got = conditional_cdf_mc(LEVELS, 0.3, i(100), i(0))
    assert got == conditional_cdf_mc(LEVELS, 0.3, 100, 0) and type(got) is float
    assert (ldp_rate_estimate(1.0, 0.5, [i(20)], i(2000), i(1))
            == ldp_rate_estimate(1.0, 0.5, [20], 2000, 1))
    assert type(QuadratureConfig(node_count=i(64)).node_count) is int


def test_direct_budget_refusal_points_at_cdf_route():
    cfg = SimConfig(n=8, m=8, r_fb=50, trials=1000, seed=0, mode="min")
    with pytest.raises(BudgetError) as exc:
        simulate_c_direct(cfg)
    assert "CDF" in str(exc.value) or "cdf" in str(exc.value).lower()


def test_enumeration_refuses_deep_feedback_but_cdf_route_runs():
    # 2^63 codewords never fit; only the enumeration routes enforce that.
    cfg = SimConfig(n=4, m=4, r_fb=63, trials=1, seed=0, mode="min")
    for simulate in (simulate_c_direct, simulate_c_spectral):
        with pytest.raises(BudgetError, match="conditional-CDF route"):
            simulate(cfg)
    deep = SimConfig(n=100, m=50, r_fb=100, trials=1, seed=0, mode="min")
    est = simulate_c_cdf(deep, samples=2000)
    assert 0.0 < est.mean < 1.0


def test_fixed_codebook_counts_its_own_size_against_the_budget():
    # r_fb = 0 names one codeword, but the fixed codebook enumerates 10^6 of
    # them: 10^6 x n=1 x 5001 trials is over the 5e9 budget.
    big = random_codebook(1, 10**6, seed=0)
    cfg = SimConfig(n=1, m=1, r_fb=0, trials=5001, seed=0)
    with pytest.raises(BudgetError, match="1000000 codewords"):
        simulate_c_direct(cfg, codebook=big)
    # A small codebook at a deep r_fb runs its own size...
    small = random_codebook(2, 4, seed=0)
    est = simulate_c_direct(SimConfig(n=2, m=2, r_fb=40, trials=3, seed=0), codebook=small)
    assert est.samples == 3
    # ...but r_fb > 62 is refused whatever the codebook.
    with pytest.raises(BudgetError, match="2\\^63 codewords"):
        simulate_c_direct(SimConfig(n=2, m=2, r_fb=63, trials=3, seed=0), codebook=small)


# ---------------------------------------------------------------------------
# enumeration and spectral estimators


def test_direct_single_codeword_mean():
    # K = 1: E v*(1/n)HH*v = m/n for any unit v.
    cfg = SimConfig(n=3, m=5, r_fb=0, trials=400, seed=1, mode="min")
    est = simulate_c_direct(cfg)
    assert abs(est.mean - 5.0 / 3.0) <= 3.0 * est.stderr


def test_direct_scalar_dimension_mean():
    # n = 1: the quadratic form is independent of the codeword.
    cfg = SimConfig(n=1, m=4, r_fb=3, trials=400, seed=2, mode="max")
    est = simulate_c_direct(cfg)
    assert abs(est.mean - 4.0) <= 3.0 * est.stderr


def test_direct_fixed_single_codeword():
    cfg = SimConfig(n=4, m=4, r_fb=0, trials=400, seed=3, mode="min")
    est = simulate_c_direct(cfg, codebook=random_codebook(4, 1, seed=9))
    assert abs(est.mean - 1.0) <= 3.0 * est.stderr


def test_direct_agrees_with_spectral():
    cfg = SimConfig(n=4, m=4, r_fb=2, trials=2000, seed=0, mode="min")
    a = simulate_c_direct(cfg, threads=2)
    b = simulate_c_spectral(cfg, threads=2)
    assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr)


def test_spectral_scalar_dimension_mean():
    cfg = SimConfig(n=1, m=4, r_fb=2, trials=400, seed=5, mode="min")
    est = simulate_c_spectral(cfg)
    assert abs(est.mean - 4.0) <= 3.0 * est.stderr


def test_spectral_max_mode_stays_in_range():
    # Ratio of weighted to plain exponential sums lies inside the sampled
    # spectrum range, so the scaled estimate sits between m/n and
    # (m/n) * lambda_max with room for edge fluctuations.
    cfg = SimConfig(n=16, m=8, r_fb=8, trials=500, seed=4, mode="max")
    est = simulate_c_spectral(cfg, threads=2)
    assert 0.5 < est.mean < 3.5


def test_spectral_monotone_in_feedback_depth():
    # With one seed the first 2^r codewords of a deeper run replicate the
    # shallower run, so per-trial minima are non-increasing in r_fb.
    means = []
    for r_fb in (0, 1, 2, 3):
        cfg = SimConfig(n=4, m=4, r_fb=r_fb, trials=200, seed=6, mode="min")
        means.append(simulate_c_spectral(cfg).mean)
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_estimators_deterministic_and_thread_invariant():
    cfg = SimConfig(n=4, m=4, r_fb=2, trials=64, seed=11, mode="min")
    for fn in (simulate_c_direct, simulate_c_spectral):
        one = fn(cfg, threads=1)
        four = fn(cfg, threads=4)
        again = fn(cfg, threads=1)
        assert one == four == again
    a = simulate_c_cdf(cfg, samples=2000, threads=1)
    b = simulate_c_cdf(cfg, samples=2000, threads=4)
    assert a == b


def _floats(vectors):
    return vectors.view(float).ravel().tolist()  # re, im interleaved


def test_enumeration_outputs_are_pinned():
    # Seeded outputs of every random draw on the enumeration side, pinned
    # exactly so that restructuring the draws cannot move a single bit.
    assert sample_spectrum(5, 3, seed=11).eigenvalues.tolist() == [
        0.0, 0.0, 0.4324238230313838, 1.248427095286271, 2.4310007994020273,
    ]
    cb = random_codebook(2, 3, seed=7)
    assert _floats(cb.vectors) == [
        -0.6883848452731413, 0.45314976799000717, 0.4161114111700914, 0.3842302513635686,
        0.5836870640803524, -0.5989834799212771, -0.5455903110998658, 0.05347349287831312,
        0.20581552358631172, -0.9028488139043076, 0.08772314741368427, -0.36716295958377176,
    ]
    assert cb.min_chordal == 0.2862239698629279
    wide = design_codebook(2, 3, seed=5, iterations=30)
    assert _floats(wide.vectors) == [
        -0.26360515924007655, 0.8190294784143993, -0.3142858612417521, -0.40115761358072394,
        -0.0581575938748935, 0.220206657539564, 0.8357724223819891, -0.4996110289371905,
        0.8411162246627539, 0.028477431475383952, 0.48786241392116336, -0.23173864068958433,
    ]
    assert wide.min_chordal == 0.8660104360001255
    # size <= n: the orthonormal-frame restart wins.
    frame = design_codebook(3, 2, seed=5, iterations=30)
    assert _floats(frame.vectors) == [
        -0.5174949972921243, 0.256386240593201, -0.2887453107135053, -0.5791957503201596,
        0.2625075093622065, -0.42274491042777723, 0.15597984536403398, 0.33621234606251554,
        -0.2790481395170661, 0.18867822098104106, 0.7588634295721349, 0.41628176300777553,
    ]
    assert frame.min_chordal == 1.0
    cfg = SimConfig(n=2, m=3, r_fb=2, trials=6, seed=9)
    assert simulate_c_direct(cfg) == Estimate(1.1252387405958502, 0.2153840733029367, 6)
    assert simulate_c_direct(cfg, codebook=cb) == Estimate(1.5622470026376083, 0.28760841095654655, 6)
    spectral = {
        "min": Estimate(0.9045759180128395, 0.1394806281314438, 6),
        "max": Estimate(2.4175320282393185, 0.41986784811380895, 6),
    }
    for mode, want in spectral.items():
        for threads in (1, 2):
            cfg = SimConfig(n=2, m=3, r_fb=2, trials=6, seed=9, mode=mode)
            assert simulate_c_spectral(cfg, threads=threads) == want


def _sha(vectors):
    return hashlib.sha256(vectors.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("n, size, want", [
    (2, 511, 0.0022511621054673906),
    (2, 512, 0.005499454808601329),
    (2, 513, 0.001537198655352167),
    (2, 1100, 0.0010581965155392367),
    (2, 4096, 0.0002116748658256441),
    (12, 511, 0.6055931080640508),
    (12, 512, 0.5872192259544865),
    (12, 513, 0.6092939355045415),
    (12, 1100, 0.5262902781721801),
    (12, 4096, 0.4580332438801486),
    # Recorded with 512-row blocks: 65 and 129 leave a one-row last block.
    (2, 63, 0.02653174310377917),
    (2, 64, 0.006021860226457827),
    (2, 65, 0.025767175423480455),
    (2, 129, 0.01306365101614002),
    (12, 63, 0.6624498367707349),
    (12, 64, 0.6249329428847488),
    (12, 65, 0.7401412102121714),
    (12, 129, 0.6454166865221421),
])
def test_min_chordal_is_pinned_across_gram_blocks(n, size, want):
    # Sizes on both sides of 64-row Gram block edges (512 is one of them)
    # and many blocks deep; the blocked search must find the same pair to
    # the last bit.
    assert random_codebook(n, size, seed=3).min_chordal == want


def test_min_chordal_memory_stays_within_one_gram_block():
    # One block of _GRAM_BLOCK rows by K words is a complex product and its
    # modulus (24 bytes an entry); add two copies of the codewords and 4 MiB
    # of slack.  The whole 512-row Gram block once traced 58.8 MB here.
    size, n = 4096, 12
    bound = montecarlo._GRAM_BLOCK * size * 24 + 2 * size * n * 16 + (4 << 20)
    assert bound < 16e6
    cb = random_codebook(n, size, seed=1)
    tracemalloc.start()
    try:
        cb.min_chordal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# (trials, mode, fresh, fixed): (mean, stderr) recorded one trial at a time.
PINNED_DIRECT_BLOCKS = (
    (1, "min", (0.6994954206146731, 0.0), (0.5673626491335074, 0.0)),
    (1, "max", (2.4035115616853004, 0.0), (2.47883595797394, 0.0)),
    (63, "min", (0.49707262056906953, 0.02339178581941221), (0.4649295173879643, 0.02304229027276293)),
    (63, "max", (2.4409820657577828, 0.07832104411072145), (2.4639110202498413, 0.07788926053033669)),
    (64, "min", (0.4933225408029222, 0.023326797962950403), (0.4648598029200902, 0.022679504028188104)),
    (64, "max", (2.4344082799485753, 0.07736735293069602), (2.4607789941863607, 0.07672653364328179)),
    (65, "min", (0.49047143696209583, 0.02314142481289201), (0.46400971266929086, 0.022344039425456347)),
    (65, "max", (2.4279719538130227, 0.07643924374567426), (2.4492551980857455, 0.07641087344758808)),
    (129, "min", (0.4787275727644222, 0.016281137063621522), (0.4609953995880907, 0.01470840200391204)),
    (129, "max", (2.2967959517991305, 0.05302033579412651), (2.2950713485110263, 0.05535991540753175)),
)


@pytest.mark.parametrize("trials, mode, fresh, fixed", PINNED_DIRECT_BLOCKS)
def test_direct_estimates_are_pinned_across_trial_blocks(trials, mode, fresh, fixed):
    # Trial counts on both sides of the 64-trial block and a partial third
    # block: blocking the products must not move a bit of any trial.
    cfg = SimConfig(n=4, m=5, r_fb=5, trials=trials, seed=17, mode=mode)
    cb = random_codebook(4, 32, seed=23)
    assert simulate_c_direct(cfg) == Estimate(*fresh, trials)
    assert simulate_c_direct(cfg, codebook=cb) == Estimate(*fixed, trials)


def test_direct_trial_blocks_respect_the_entry_cap(monkeypatch):
    # A trial's largest arrays are its 2 k n fresh real rows and their
    # products with A.  With the cap at one trial's entries, or below two
    # trials', every block holds one trial, and the estimates stay those of
    # the default 64-trial blocks.
    cfg = SimConfig(n=4, m=5, r_fb=6, trials=70, seed=3)
    cb = random_codebook(4, 64, seed=8)
    want = [simulate_c_direct(cfg), simulate_c_direct(cfg, codebook=cb)]
    blocks = []

    def spy(trials, entries):
        out = trial_blocks(trials, entries)
        blocks.extend((len(block), entries) for block in out)
        return out

    trial_blocks = montecarlo._trial_blocks
    monkeypatch.setattr(montecarlo, "_trial_blocks", spy)
    for cap in (2 * 64 * 4, 1000):
        blocks.clear()
        monkeypatch.setattr(montecarlo, "_MAX_ENTRIES", cap)
        got = [simulate_c_direct(cfg), simulate_c_direct(cfg, codebook=cb)]
        assert got == want
        assert blocks == [(1, 2 * 64 * 4)] * (2 * 70)


def test_a_trial_over_the_entry_cap_is_refused(monkeypatch):
    # Each route counts its own largest per-trial array: a direct trial's
    # 2 k n codeword rows (512 here, fresh or fixed) are over a 256 cap, while
    # the spectral k x n panel fits.  A 300-entry channel, or a 20 x 20 Gram
    # (a direct trial's real A is 4 n^2), is over the cap on both routes.
    monkeypatch.setattr(montecarlo, "_MAX_ENTRIES", 256)
    cfg = SimConfig(n=4, m=5, r_fb=6, trials=1, seed=0)
    for run in (lambda: simulate_c_direct(cfg),
                lambda: simulate_c_direct(cfg, codebook=random_codebook(4, 64, seed=0))):
        with pytest.raises(BudgetError, match="cap of 256"):
            run()
    assert simulate_c_spectral(cfg).samples == 1
    for wide in (SimConfig(n=1, m=300, r_fb=1, trials=1, seed=0),
                 SimConfig(n=20, m=1, r_fb=1, trials=1, seed=0)):
        for simulate in (simulate_c_direct, simulate_c_spectral):
            with pytest.raises(BudgetError, match="cap of 256"):
                simulate(wide)


@pytest.mark.parametrize("n, size, want_chordal, want_sha", [
    (4, 8, 0.9257662506982317, "4cb7ba66cd3af093"),  # criterion 9, n=4
    (8, 64, 0.9266286014985624, "27767835e06e7974"),  # criterion 9, n=8
    (3, 2, 1.0, "be084708c99eee18"),  # size <= n: the frame restart
    (1, 3, 2.5809568279517847e-08, "c478ba9ec126df94"),  # every gain is 1
])
def test_designed_codebooks_are_pinned(n, size, want_chordal, want_sha):
    # 800 iterations, 8 restarts: the descent path and the restart chosen
    # must stay bit-identical; the vectors are pinned by their digest.
    cb = design_codebook(n, size, seed=7)
    assert cb.min_chordal == want_chordal
    assert _sha(cb.vectors) == want_sha


@pytest.mark.parametrize("n, m, r_fb, mode, fresh, fixed", [
    (12, 12, 12, "min", (0.30469854736979857, 0.011303992368447749),
     (0.3166041943482969, 0.019950226707324985)),
    (12, 12, 12, "max", (2.25930603317097, 0.07338369747675005),
     (2.2186685453448796, 0.08241156261761545)),
    (8, 8, 8, "min", (0.33043153453509594, 0.04658446407235505),
     (0.32062530055021415, 0.03583383711092569)),
    (8, 8, 8, "max", (2.18044825525203, 0.10793840061780574),
     (2.178518681906717, 0.1668023129251309)),
    (1, 4, 3, "min", (5.650902765206958, 1.2002459214812335),
     (5.6509027652069586, 1.200245921481234)),
    (1, 4, 3, "max", (5.65090276520696, 1.2002459214812342),
     (5.65090276520696, 1.2002459214812344)),
])
def test_direct_estimates_are_pinned(n, m, r_fb, mode, fresh, fixed):
    # The draws are pinned exactly elsewhere; here only the quadratic form's
    # summation order may move, by a few ulps per codeword, so the estimates
    # are compared at 1e-13 relative.  The selected codeword must not change,
    # or the estimate would move by far more than that.
    cb = random_codebook(n, 1 << r_fb, seed=21)
    cfg = SimConfig(n=n, m=m, r_fb=r_fb, trials=6, seed=9, mode=mode)
    for threads in (1, 2):
        for codebook, want in ((None, fresh), (cb, fixed)):
            est = simulate_c_direct(cfg, codebook=codebook, threads=threads)
            assert est.samples == 6
            assert (est.mean, est.stderr) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cdf_route_matches_direct_at_small_size():
    cfg = SimConfig(n=6, m=6, r_fb=3, trials=40, seed=3, mode="min")
    a = simulate_c_direct(cfg, threads=2)
    b = simulate_c_cdf(cfg, samples=8000, threads=2)
    assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr) + 0.01


def test_cdf_route_matches_spectral_at_acceptance_shape():
    # Criterion 5's shape (beta=2, r_fb=n) at a size where all 2^n codewords
    # can be enumerated: the CDF route carries no integration bias there, so
    # its large finite-size distance from the limit is the true E[c].
    for mode in ("min", "max"):
        a = simulate_c_cdf(SimConfig(n=12, m=6, r_fb=12, trials=60, seed=11, mode=mode),
                           samples=20000, threads=2)
        b = simulate_c_spectral(SimConfig(n=12, m=6, r_fb=12, trials=400, seed=11, mode=mode),
                                threads=2)
        assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr)


def test_exponentials_are_the_inverse_cdf_on_one_uniform_each():
    # numpy's inverse-CDF draw is -log1p(-u) on the same uniforms, through
    # libm's log1p; a SIMD log1p may differ from it in the last bit only.
    ours, theirs = _rng(3, 12), _rng(3, 12)
    got = _exponentials(ours, (2000, 48))
    want = theirs.standard_exponential((2000, 48), method="inv")
    assert got.shape == want.shape
    assert (np.abs(got - want) <= np.spacing(want)).all()
    assert (np.abs(got - want) <= 2.3e-16 * want).all()
    # One uniform per draw: both streams end in the same state, which
    # simulate_c_spectral relies on to draw its channel and weights from one.
    assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# conditional CDF estimators


def test_plain_cdf_degenerate_cases():
    assert conditional_cdf_mc([2.0], 1.0, 1000, seed=0) == 0.0
    assert conditional_cdf_mc([2.0], 3.0, 1000, seed=0) == 1.0
    with pytest.raises(ValueError):
        conditional_cdf_mc(TWO_POINT, 1.0, 0, seed=0)


def test_plain_cdf_refuses_a_nan_level():
    # A NaN level makes no coefficient <= 0 and would read as probability 0.
    with pytest.raises(ValueError, match="level x must not be NaN"):
        conditional_cdf_mc(TWO_POINT, math.nan, 1000, seed=0)
    assert conditional_cdf_mc(TWO_POINT, math.inf, 1000, seed=0) == 1.0
    assert conditional_cdf_mc(TWO_POINT, -math.inf, 1000, seed=0) == 0.0


def test_plain_cdf_symmetric_point():
    n = 100_000
    got = conditional_cdf_mc(TWO_POINT, 1.0, n, seed=5)
    assert abs(got - 0.5) <= 3.0 * 0.5 / math.sqrt(n)


def test_tilted_matches_exact_two_point_cdf():
    # mu(x) = x/2 on the two-point spectrum.
    for x, seed in ((1.0, 7), (0.25, 8), (1.5, 9)):
        res = conditional_cdf_tilted(TWO_POINT, x, 40000, seed)
        assert math.exp(res.log_prob) == pytest.approx(x / 2.0, rel=0.02)
        assert res.log_prob <= 0.0
        assert 0.0 < res.ess <= 40000


def test_tilted_deep_tail_stays_accurate():
    res = conditional_cdf_tilted(TWO_POINT, 1e-6, 40000, seed=7)
    assert res.log_prob == pytest.approx(math.log(5e-7), abs=0.05)


def test_tilted_matches_plain_mc_when_feasible():
    # Unbiasedness spot check on random spectra in the regime plain MC can
    # still resolve.
    rng = np.random.default_rng(3)
    checked = 0
    for k in range(40):
        if checked >= 20:
            break
        n = int(rng.integers(3, 9))
        lam = np.sort(rng.uniform(0.0, 3.0, size=n))
        if lam[-1] - lam[0] < 0.5:
            continue
        x = float(rng.uniform(lam[0] + 0.1 * (lam[-1] - lam[0]), lam.mean()))
        plain_n = 200_000
        p_hat = conditional_cdf_mc(lam, x, plain_n, seed=100 + k)
        if not 1e-3 <= p_hat <= 0.9:
            continue
        res = conditional_cdf_tilted(lam, x, 20000, seed=200 + k)
        p_tilt = math.exp(res.log_prob)
        sd = math.sqrt(p_hat * (1.0 - p_hat) / plain_n) + p_tilt / math.sqrt(res.ess)
        assert abs(p_tilt - p_hat) <= 3.0 * sd, (lam, x)
        checked += 1
    assert checked >= 10


def test_tilted_reaches_where_plain_mc_cannot():
    lam = sample_spectrum(400, 400, seed=1).eigenvalues
    plain = conditional_cdf_mc(lam, 0.5, 100_000, seed=2)
    res = conditional_cdf_tilted(lam, 0.5, 20000, seed=3)
    assert plain == 0.0
    assert math.isfinite(res.log_prob)
    assert res.log_prob < -40.0


def test_tilted_at_the_spectrum_edges():
    # 16 tied zero eigenvalues at the lower edge; the tilt root must still
    # land strictly between its poles 1/(lmin - x) and 1/(lmax - x).
    lam = sample_spectrum(32, 16, seed=0).eigenvalues
    lmin, lmax = float(lam.min()), float(lam.max())
    span = lmax - lmin
    for x in (lmin + 1e-9 * span, lmax - 1e-9 * span):
        res = conditional_cdf_tilted(lam, x, 20000, seed=0)
        assert math.isfinite(res.log_prob)
        assert 1.0 / (lmin - x) < res.gamma < 1.0 / (lmax - x)
        assert res.ess >= 10.0


def test_tilted_cdf_outputs_are_pinned():
    # Seeded outputs of every tilted-CDF entry point on one spectrum, pinned
    # so that restructuring the shared evaluator cannot move them.
    lam = sample_spectrum(48, 24, seed=0).eigenvalues
    res = conditional_cdf_tilted(lam, 0.25, 4000, seed=1)
    assert res.log_prob == pytest.approx(-17.713217262639102, rel=1e-12)
    assert res.ess == pytest.approx(687.5802796088747, rel=1e-12)
    assert res.gamma == pytest.approx(-1.4983201937868915, rel=1e-12)
    assert c_rand_via_cdf(lam, 24, "min", 4000, seed=2) == pytest.approx(0.25807934382059544, rel=1e-12)
    assert c_rand_via_cdf(lam, 24, "max", 4000, seed=2) == pytest.approx(2.473917803745041, rel=1e-12)
    assert quantile_x_n(lam, 2.0**-24, seed=3, samples=4000) == pytest.approx(0.2647461499432686, rel=1e-12)
    assert uniform_codebook_bound(lam, 24, "min", seed=4, samples=4000) == pytest.approx(
        0.25049258716817396, rel=1e-12
    )
    assert uniform_codebook_bound(lam, 24, "max", seed=4, samples=4000) == pytest.approx(
        2.4990897610777867, rel=1e-12
    )


def test_tilted_route_outputs_are_pinned_at_full_panels():
    # The extreme integrals, the quantile and the codebook bound on
    # 20000-sample panels, at criterion 5's shape (m = n/2, r_fb = n) and at
    # n = m = 48.  A panel draw that moves them past 1e-12 fails here.
    for n, want in ((16, (0.13115103561481092, 3.100986712168821)),
                    (48, (0.11216856880685473, 3.295202608625663))):
        lam = sample_spectrum(n, n // 2, seed=0).eigenvalues
        for mode, value in zip(("min", "max"), want):
            assert c_rand_via_cdf(lam, n, mode, 20000, seed=1) == pytest.approx(value, rel=1e-12)
    lam = sample_spectrum(48, 48, seed=0).eigenvalues
    assert quantile_x_n(lam, 2.0**-48, seed=2) == pytest.approx(0.25981836704365024, rel=1e-12)
    assert uniform_codebook_bound(lam, 48, "min", seed=3) == pytest.approx(0.25306972860265026, rel=1e-12)
    assert uniform_codebook_bound(lam, 48, "max", seed=3) == pytest.approx(2.532928048828711, rel=1e-12)


@pytest.mark.parametrize("n, m, r_fb, want", [
    (16, 8, 1, (0.8280582308053953, 1.2240818321499631)),
    (16, 8, 64, (0.0018255477330543835, 4.720184190732975)),
    (16, 8, 1100, (2.839859748911721e-13, 4.91787263391053)),
    (48, 24, 1, (0.8939651030100967, 1.1219155690753322)),
    (48, 24, 64, (0.06762171425266207, 3.7016311291887005)),
    (48, 24, 1100, (3.0178045406551265e-13, 5.226024761242999)),
    (48, 48, 1, (0.9212645972423071, 1.0790730691082913)),
    (48, 48, 64, (0.19258948947562296, 2.7958997366072404)),
    (48, 48, 1100, (0.0009640952275962114, 3.8355651039713474)),
])
def test_extreme_integrals_are_pinned_exactly(n, m, r_fb, want):
    # Exact equality: skipping levels whose integrand value is already known
    # must not move a single bit.  m = n/2 puts an atom of exact zeros in the
    # spectrum.  At r_fb = 1 evaluated levels take _survival_power's
    # log_p <= -37 branch to 1.0; r_fb = 64 is the least depth at which the
    # 1 - 1e-16 clamp alone fixes every upper-side level at 0.0; r_fb = 1100
    # is deep feedback.
    lam = sample_spectrum(n, m, seed=0).eigenvalues
    got = tuple(c_rand_via_cdf(lam, r_fb, mode, 4000, seed=1) for mode in ("min", "max"))
    assert got == want


def test_extreme_integrals_evaluate_only_the_levels_no_bound_fixes(monkeypatch):
    # The full-panel pinned inputs above: the Chernoff certificate keeps
    # 48 + 12 + 50 + 12 of their 67 + 64 + 69 + 66 levels from _log_cdf.
    counts = []
    log_cdf = montecarlo._log_cdf

    def counted(arr, expo, xs):
        counts[-1] += len(xs)
        return log_cdf(arr, expo, xs)

    monkeypatch.setattr(montecarlo, "_log_cdf", counted)
    for n in (16, 48):
        lam = sample_spectrum(n, n // 2, seed=0).eigenvalues
        for mode in ("min", "max"):
            counts.append(0)
            c_rand_via_cdf(lam, n, mode, 20000, seed=1)
    assert counts == [19, 52, 19, 54]


def test_extreme_integrals_send_each_open_level_once(monkeypatch):
    # The first seed-0 cdf_extremes input.  Each grid round makes one
    # _log_cdf call, on exactly the levels the Chernoff certificate left
    # open, so no level is evaluated twice.
    rounds, sent = [], []
    log_cdf = montecarlo._log_cdf
    grid_integral = montecarlo._grid_integral

    def spy(arr, expo, xs):
        sent.append((arr, xs))
        return log_cdf(arr, expo, xs)

    def recorded_grid(f, *args):
        def g(xs):
            rounds.append(xs)
            return f(xs)
        return grid_integral(g, *args)

    monkeypatch.setattr(montecarlo, "_log_cdf", spy)
    monkeypatch.setattr(montecarlo, "_grid_integral", recorded_grid)
    cfg = SimConfig(n=16, m=8, r_fb=16, trials=1, seed=3626764237, mode="min")
    assert simulate_c_cdf(cfg, samples=20000).mean == float.fromhex("0x1.f55e67c8bd419p-5")
    assert len(sent) == len(rounds)
    for xs, (arr, got) in zip(rounds, sent):
        assert got.tolist() == xs[np.isnan(_chernoff_fixed(arr, xs, cfg.r_fb))].tolist()
    levels = [x for _, xs in sent for x in xs.tolist()]
    assert len(levels) == len(set(levels))


def test_chernoff_certificate_fixes_only_what_the_estimate_gives():
    # Spectra: beta = 2 with its atom of exact zeros, beta = 1 at n = 200,
    # where the lower side's 1.0 gets certified, and repeated eigenvalues.
    fixed = {0.0: 0, 1.0: 0}
    for lam in (sample_spectrum(16, 8, seed=0).eigenvalues,
                sample_spectrum(200, 200, seed=0).eigenvalues,
                np.repeat([0.2, 0.9, 1.0, 2.5], [3, 1, 4, 2])):
        expo = _panel(lam, 4000, seed=6, role=12)
        lmin, lmax = float(lam.min()), float(lam.max())
        edge = (lmax - lmin) * np.logspace(-6, -2, 5)
        xs = np.concatenate((lmin + edge, np.linspace(lmin, lmax, 66)[1:-1], lmax - edge, [0.9, 1.0]))
        xs = np.sort(xs[(xs > lmin) & (xs < lmax)])
        # The row-sum side test matches the per-level sum it replaced.
        assert _lower_is_rare(lam - xs[:, None]).tolist() == [float((lam - x).sum()) >= 0.0 for x in xs]
        log_ps = [_log_cdf(lam, expo, [x])[0][0] for x in xs]
        for r_fb in (1, 16, 48, 64, 200, 1100):
            for log_p, want in zip(log_ps, _chernoff_fixed(lam, xs, r_fb)):
                if not math.isnan(want):
                    assert _survival_power(log_p, r_fb) == want
                    fixed[want] += 1
        # The cap at the clamped Newton step, and at 9 tilts reaching 0.999 of
        # the way to each pole, bounds the rare-side estimate.
        for x, log_p in zip(xs, log_ps):
            c = lam - x
            half = np.array([0.5 / c.min(), 0.5 / c.max()])
            for gamma in (np.clip(-c.sum() / (c @ c), *half), *np.linspace(*(1.998 * half), 9)):
                cap = -np.log1p(-gamma * c).sum()
                cap += 1e-9 * (1.0 + abs(cap))
                if c.sum() >= 0.0:
                    assert log_p <= cap
                else:
                    assert log_p >= _log_complement(cap)
    assert fixed[0.0] > 0 and fixed[1.0] > 0


def _rel_gap(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


@pytest.mark.parametrize("count", [1, _LEVEL_BLOCK - 1, _LEVEL_BLOCK, _LEVEL_BLOCK + 1, 62])
def test_level_blocks_match_one_level_calls(count):
    # A block's tilted sums come from one GEMM instead of one GEMV per level,
    # which may move the last bits of each sum: 1e-13 relative allows that
    # and nothing more.  The tilt root never sees the panel, so gamma is exact.
    lam = sample_spectrum(48, 24, seed=0).eigenvalues
    expo = _panel(lam, 4000, seed=5, role=12)
    span = lam.max() - lam.min()
    xs = np.linspace(lam.min() + 0.02 * span, lam.max() - 0.02 * span, count)
    lower = [float((lam - x).sum()) >= 0.0 for x in xs]
    if count >= _LEVEL_BLOCK - 1:
        # The levels straddle the mean, so the rare side flips inside a block.
        assert any(len(set(lower[i:i + _LEVEL_BLOCK])) == 2 for i in range(0, count, _LEVEL_BLOCK))
    singles = [_log_cdf(lam, expo, [x])[0] for x in xs]
    block = _log_cdf(lam, expo, xs)
    assert len(block) == count
    for got, want in zip(block, singles):
        assert got[3] == want[3]
        assert max(_rel_gap(g, w) for g, w in zip(got[:3], want[:3])) <= 1e-13
    order = np.random.default_rng(0).permutation(count)
    shuffled = _log_cdf(lam, expo, xs[order])
    for got, i in zip(shuffled, order):
        assert got[3] == block[i][3]
        assert max(_rel_gap(g, w) for g, w in zip(got[:3], block[i][:3])) <= 1e-13


def test_tilted_domain_and_reliability_errors():
    with pytest.raises(ValueError):
        conditional_cdf_tilted(TWO_POINT, 2.5, 1000, seed=0)
    with pytest.raises(ValueError):
        conditional_cdf_tilted(TWO_POINT, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        conditional_cdf_tilted([], 1.0, 100, seed=0)
    with pytest.raises(ReliabilityError):
        conditional_cdf_tilted(TWO_POINT, 1e-9, 2, seed=3)


# ---------------------------------------------------------------------------
# decay-rate estimates


def test_ldp_rate_near_mean_is_small():
    pairs = ldp_rate_estimate(1.0, 1.0 - 1e-6, [100], 20000, seed=0)
    assert abs(pairs[0][1]) < 0.05


def test_ldp_rate_decreases_toward_the_mean():
    lo = ldp_rate_estimate(1.0, 0.3, [200], 20000, seed=1)[0][1]
    hi = ldp_rate_estimate(1.0, 0.7, [200], 20000, seed=1)[0][1]
    assert lo > hi > 0.0


def test_ldp_handles_upper_tail_by_mirroring():
    pairs = ldp_rate_estimate(1.0, 1.7, [100, 200], 20000, seed=2)
    assert all(rate > 0.0 for _, rate in pairs)


def test_ldp_domain_errors():
    with pytest.raises(ValueError):
        ldp_rate_estimate(1.0, 1.0, [100], 1000, seed=0)
    with pytest.raises(ValueError):
        ldp_rate_estimate(1.0, 4.5, [100], 1000, seed=0)
    with pytest.raises(ValueError):
        ldp_rate_estimate(0.5, 0.05, [100], 1000, seed=0)  # below lambda_minus
    with pytest.raises(ValueError):
        ldp_rate_estimate(1.0, 0.5, [0], 1000, seed=0)


def test_ldp_checks_every_size_before_its_first_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_spectrum", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="sizes must be >= 1, got 0"):
        ldp_rate_estimate(1.0, 0.5, [50, 0], 2000, seed=0)
    assert drawn == []


def test_a_bad_sample_count_is_refused_before_the_first_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(montecarlo, "sample_spectrum", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="samples must be >= 2, got 1"):
        ldp_rate_estimate(1.0, 0.5, [50], 1, seed=0)
    with pytest.raises(ValueError, match="samples must be >= 2, got 1"):
        simulate_c_cdf(SimConfig(50, 25, 50, 3, 0), samples=1)
    assert drawn == []


# ---------------------------------------------------------------------------
# selected extremes through the CDF


def test_c_rand_exact_two_point_values():
    # min over 2^r codewords: lam_min + int_0^2 (1 - x/2)^(2^r) dx
    #   r = 0 -> 1 (the conditional mean), r = 1 -> 2/3, r = 2 -> 2/5.
    assert c_rand_via_cdf(TWO_POINT, 0, "min", 1000, seed=3) == 1.0
    got1 = c_rand_via_cdf(TWO_POINT, 1, "min", 20000, seed=3)
    got2 = c_rand_via_cdf(TWO_POINT, 2, "min", 20000, seed=3)
    gmax = c_rand_via_cdf(TWO_POINT, 1, "max", 20000, seed=3)
    assert got1 == pytest.approx(2.0 / 3.0, abs=0.01)
    assert got2 == pytest.approx(2.0 / 5.0, abs=0.01)
    assert gmax == pytest.approx(4.0 / 3.0, abs=0.01)


def test_c_rand_degenerate_spectrum_collapses():
    lam = np.full(5, 0.7)
    assert c_rand_via_cdf(lam, 4, "min", 1000, seed=0) == pytest.approx(0.7, abs=1e-12)


def test_c_rand_validation():
    with pytest.raises(ValueError):
        c_rand_via_cdf(TWO_POINT, -1, "min", 1000, seed=0)
    with pytest.raises(ValueError):
        c_rand_via_cdf(TWO_POINT, 1, "middling", 1000, seed=0)
    with pytest.raises(ValueError):
        c_rand_via_cdf(TWO_POINT, 1, "min", 1, seed=0)


def test_c_rand_deterministic():
    a = c_rand_via_cdf(TWO_POINT, 3, "min", 5000, seed=4)
    b = c_rand_via_cdf(TWO_POINT, 3, "min", 5000, seed=4)
    assert a == b


def test_quantile_two_point_median():
    got = quantile_x_n(TWO_POINT, 0.5, seed=9)
    assert got == pytest.approx(1.0, abs=0.02)


def test_quantile_small_p():
    # mu(x) = x/2, so the p-quantile is 2p even for p near 2^-20.
    p = 2.0**-20
    got = quantile_x_n(TWO_POINT, p, seed=12)
    assert got == pytest.approx(2.0 * p, rel=0.05)


@pytest.mark.parametrize("width", [1e-8, 1e-13])
def test_level_search_on_narrow_spectra(width):
    # lmin + 1e-9 * span rounds back to lmin here; the search must still
    # stay strictly inside the spectrum.
    lam = np.array([1.0, 1.0 + width, 1.0 + 0.5 * width])
    lmin, lmax = float(lam.min()), float(lam.max())
    q = quantile_x_n(lam, 0.01, seed=0, samples=100)
    assert lmin < q < lmax
    for mode in ("min", "max"):
        bound = uniform_codebook_bound(lam, 4, mode, seed=0, samples=100)
        assert lmin <= bound <= lmax


def test_uniform_bound_on_a_flat_spectrum():
    lam = np.full(5, 0.7)
    assert uniform_codebook_bound(lam, 4, "min", seed=0) == 0.7
    assert uniform_codebook_bound(lam, 4, "max", seed=0) == 0.7


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantile_x_n(np.full(3, 1.0), 0.5, seed=0)
    with pytest.raises(ValueError):
        quantile_x_n(TWO_POINT, 1.0, seed=0)
    with pytest.raises(ValueError):
        quantile_x_n(TWO_POINT, 0.5, seed=0, samples=1)


@pytest.mark.parametrize("width", [2.0**-52, 1e-15], ids=["one-ulp", "1e-15"])
def test_quantile_refuses_what_the_width_rule_calls_degenerate(width):
    # quantile_x_n shares the CDF routes' width rule: a spectrum no wider
    # than 1e-14 is one point.  One ulp of width would otherwise reach the
    # tilt root and divide by zero there.
    with pytest.raises(ValueError, match="degenerate"):
        quantile_x_n([1.0, 1.0 + width], 0.5, seed=0)


def test_quantile_near_one_stops_at_the_upper_bracket_end():
    # On TWO_POINT, mu(x) = x/2: the tail beyond the upper bracket end is
    # 1e-9, already more than 1 - p.
    lmin, lmax = 0.0, 2.0
    top = min(lmax - 1e-9 * (lmax - lmin), float(np.nextafter(lmax, lmin)))
    assert quantile_x_n(TWO_POINT, 1.0 - 1e-12, seed=0) == top


def test_feedback_deeper_than_a_double_stays_finite():
    # 2^1100 overflows a double.  The quantile stops at the lower bracket
    # end, and the survival power's overflow guard zeroes the integrand
    # everywhere but next to the lower edge.
    lam = sample_spectrum(8, 8, seed=0).eigenvalues
    lmin, lmax = float(lam.min()), float(lam.max())
    end = max(lmin + 1e-9 * (lmax - lmin), float(np.nextafter(lmin, lmax)))
    assert quantile_x_n(lam, 1e-300, seed=0) == end
    for got in (c_rand_via_cdf(lam, 1100, "min", 20000, seed=0),
                uniform_codebook_bound(lam, 1100, "min", seed=0)):
        assert math.isfinite(got)
        assert lmin <= got <= end


def test_uniform_bound_exact_two_point_values():
    # Integration by parts: bound = x_q - 2^r int_0^{x_q} mu dx; with
    # mu = x/2 and x_q = 2^(1-r) this is 2^(1-r) - 2^(1-r)/2, i.e. 0.5 at
    # r = 1; the max-mode mirror gives 1.5.
    assert uniform_codebook_bound(TWO_POINT, 1, "min", seed=11) == pytest.approx(0.5, abs=0.01)
    assert uniform_codebook_bound(TWO_POINT, 1, "max", seed=11) == pytest.approx(1.5, abs=0.01)
    assert uniform_codebook_bound(TWO_POINT, 0, "min", seed=11) == 1.0


def test_uniform_bound_sandwiches_the_random_ensemble():
    for r_fb in (1, 2):
        lo = uniform_codebook_bound(TWO_POINT, r_fb, "min", seed=13)
        mid = c_rand_via_cdf(TWO_POINT, r_fb, "min", 20000, seed=14)
        hi = uniform_codebook_bound(TWO_POINT, r_fb, "max", seed=13)
        assert lo <= mid + 0.01
        assert c_rand_via_cdf(TWO_POINT, r_fb, "max", 20000, seed=14) <= hi + 0.01


@pytest.mark.parametrize(
    "lam, r_fb",
    [(np.array([1.0, 1.0 + 2e-16, 1.0 + 4e-16, 1.0 + 8e-16]), r) for r in (0, 1, 4)]
    + [(np.full(3, 0.1), 0)],
    ids=["narrow-r0", "narrow-r1", "narrow-r4", "flat-r0"],
)
def test_degenerate_spectra_follow_one_rule(lam, r_fb):
    # Both CDF routes take degenerate input through the same rule: a spectrum
    # narrower than 1e-14 returns its edge, even when r_fb = 0.
    for mode in ("min", "max"):
        want = c_rand_via_cdf(lam, r_fb, mode, 100, seed=0)
        assert want == (lam.min() if mode == "min" else lam.max())
        assert uniform_codebook_bound(lam, r_fb, mode, seed=0, samples=100) == want


def test_grid_evaluates_a_round_at_a_time():
    # Two unit steps: each round splits exactly the two intervals that
    # straddle them, until the intervals reach the 1e-12 width floor.
    calls = []

    def steps(xs):
        calls.append(xs.size)
        return ((xs > 0.3) & (xs <= 0.7)).astype(float)

    assert _grid_integral(steps, 0.0, 1.0, 0.0, 0.0) == pytest.approx(0.4, abs=1e-12)
    assert calls == [62] + [2] * 34


def test_grid_refuses_an_integrand_too_sharp_to_resolve():
    calls = []

    def wiggle(xs):
        calls.append(xs.size)
        return np.sin(1e6 * xs)

    with pytest.raises(BudgetError, match="4096 nodes"):
        _grid_integral(wiggle, 0.0, 1.0, 0.0, math.sin(1e6))
    assert calls[0] == 62
    assert 62 + sum(calls[1:]) <= 4096 - 2


def test_uniform_bound_validation():
    with pytest.raises(ValueError):
        uniform_codebook_bound(TWO_POINT, -1, "min", seed=0)
    with pytest.raises(ValueError):
        uniform_codebook_bound(TWO_POINT, 1, "sideways", seed=0)
