from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special, stats

from tdlab.causal import (
    EnvDataset,
    Environment,
    _accepted_parents,
    _f_upper_tail,
    _scan_subsets,
    _simulate_three_var,
    _subset_fits,
    build_synthetic_family,
    fit_reward_weights,
    intervention_robustness,
    linear_misa,
)


def reward_targets(data):
    return [env.rewards for env in data.environments]


def scan_parents(target, candidates, data, alpha=0.05):
    """The ICP parent set: the intersection of the subsets the scan accepts."""
    return _accepted_parents(_scan_subsets(target, _subset_fits(candidates, data)), alpha)[0]


def test_intervened_family_recovers_reward_parents():
    """x3 shadows x2 but never drives the reward; intervention diversity lets
    the invariance test drop it in almost every replication."""
    hits = 0
    for seed in range(100):
        data = build_synthetic_family(n_envs=3, n_steps=1000, seed=seed)
        hits += scan_parents(reward_targets(data), (0, 1, 2), data) == frozenset({0, 1})
    assert hits >= 90


def test_iid_environments_are_flagged_non_identified():
    """Without interventions the shadow variable substitutes for x2, so the
    accepted subsets disagree and their intersection is not itself accepted."""
    count = 0
    for seed in range(20):
        data = build_synthetic_family(
            n_envs=3, n_steps=1000, seed=seed, intervention_scales=(1.0, 1.0, 1.0)
        )
        report = linear_misa(data, alpha=0.05)
        count += report.non_identified
    assert count >= 18


def test_ancestor_closure_walks_the_chain():
    """In the three-variable family both reward parents are self-ancestors, so
    the closure should settle on {x1, x2} and exclude the shadow x3."""
    hits = 0
    for seed in range(40):
        report = linear_misa(build_synthetic_family(n_envs=3, n_steps=1000, seed=seed))
        hits += report.selected == frozenset({0, 1})
    assert hits >= 36


def test_report_carries_scan_details():
    report = linear_misa(build_synthetic_family(seed=5), alpha=0.05)
    assert ("reward", ()) in report.per_subset_pvalues


def test_icp_validates_arguments():
    data = build_synthetic_family(seed=0, n_steps=100)
    for alpha in (0.0, 1.5, 5.0):
        with pytest.raises(ValueError, match="alpha"):
            linear_misa(data, alpha=alpha)
    rng = np.random.default_rng(0)
    wide = EnvDataset(environments=tuple(
        Environment(rng.standard_normal((20, 13)), rng.standard_normal((20, 13)), rng.standard_normal(20))
        for _ in range(2)
    ))
    with pytest.raises(ValueError, match="capped"):
        linear_misa(wide)


def test_single_environment_is_rejected():
    env = build_synthetic_family(seed=0, n_steps=100).environments[0]
    solo = EnvDataset(environments=(env,))
    with pytest.raises(ValueError, match="two environments"):
        linear_misa(solo)


def test_dataset_validation():
    rng = np.random.default_rng(0)
    good = Environment(
        inputs=rng.standard_normal((10, 2)),
        next_inputs=rng.standard_normal((10, 2)),
        rewards=rng.standard_normal(10),
    )
    bad_rows = Environment(
        inputs=rng.standard_normal((3, 2)),  # fewer than p + 2 rows
        next_inputs=rng.standard_normal((3, 2)),
        rewards=rng.standard_normal(3),
    )
    with pytest.raises(ValueError):
        EnvDataset(environments=(good, bad_rows))
    mismatched = Environment(
        inputs=rng.standard_normal((10, 3)),
        next_inputs=rng.standard_normal((10, 3)),
        rewards=rng.standard_normal(10),
    )
    with pytest.raises(ValueError):
        EnvDataset(environments=(good, mismatched))
    with pytest.raises(ValueError):
        EnvDataset(environments=())


def test_fit_reward_weights_zeroes_excluded_variables():
    data = build_synthetic_family(seed=1, n_steps=2000)
    w_full = fit_reward_weights(data)
    w_sub = fit_reward_weights(data, subset={0, 1})
    assert w_full.shape == w_sub.shape == (4,)
    assert w_sub[3] == 0.0
    # the reward is x1 + x2 + noise, so the causal fit finds those slopes
    assert_allclose(w_sub[1:3], [1.0, 1.0], atol=0.05)


@pytest.mark.parametrize("subset", [[0, -2], [3], [0, 1, 5]])
def test_fit_reward_weights_refuses_out_of_range_variables(subset):
    """A negative index would fit one variable and write its slope into another's slot."""
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        fit_reward_weights(build_synthetic_family(seed=1, n_steps=50), subset=subset)


def test_fit_reward_weights_refuses_a_repeated_variable():
    """A duplicated design column would split its slope in two, and only one half was written."""
    with pytest.raises(ValueError, match="distinct"):
        fit_reward_weights(build_synthetic_family(seed=0, n_steps=50), subset=[0, 0, 1])


def test_fit_reward_weights_matches_lstsq_oracle():
    data = build_synthetic_family(seed=2, n_steps=500)
    X = np.vstack([env.inputs for env in data.environments])
    y = np.concatenate([env.rewards for env in data.environments])
    design = np.column_stack([np.ones(len(y)), X])
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert_allclose(fit_reward_weights(data), expected, atol=1e-10)


def test_invariant_predictor_is_flat_under_interventions():
    data = build_synthetic_family(seed=3, n_steps=2000)
    w_full = fit_reward_weights(data)
    w_misa = fit_reward_weights(data, subset={0, 1})
    curve = intervention_robustness(w_full, w_misa, range(11), seed=3)
    assert curve.values.shape == (11,)
    # common random numbers: ignoring the clamped variable gives a perfectly
    # flat error curve, while any weight on it shows up as growth in the clamp
    slopes = np.diff(curve.misa_mse)
    assert np.max(np.abs(slopes)) < 1e-6
    assert curve.full_mse[-1] > curve.full_mse[0]
    assert np.all(np.diff(curve.full_mse) >= 0)


def test_synthetic_family_is_deterministic():
    a = build_synthetic_family(seed=7, n_steps=50)
    b = build_synthetic_family(seed=7, n_steps=50)
    for ea, eb in zip(a.environments, b.environments):
        assert_allclose(ea.inputs, eb.inputs)
        assert_allclose(ea.rewards, eb.rewards)
    c = build_synthetic_family(seed=8, n_steps=50)
    assert not np.allclose(a.environments[0].inputs, c.environments[0].inputs)


def test_synthetic_family_intervention_inflates_one_variable():
    data = build_synthetic_family(n_envs=3, n_steps=4000, seed=9, intervention_scales=(5.0, 5.0, 5.0))
    for e, env in enumerate(data.environments):
        # per-variable innovations; x3 copies x2, so its noise is next3 - x2
        innovations = np.column_stack(
            [
                env.next_inputs[:, 0] - env.inputs[:, 0],
                env.next_inputs[:, 1] - env.inputs[:, 1],
                env.next_inputs[:, 2] - env.inputs[:, 1],
            ]
        )
        variances = np.var(innovations, axis=0)
        assert np.argmax(variances) == e
        assert variances[e] > 15.0  # scale 5 squared, versus 1 elsewhere
        assert np.all(np.delete(variances, e) < 2.0)


def all_subsets(p):
    return [s for r in range(p + 1) for s in combinations(range(p), r)]


def reference_scan(target_by_env, data, subsets=None):
    """Per-subset invariance scan: rank check, fit, then the two scipy tests
    (of every subset of the variables, or of ``subsets``)."""
    X = np.vstack([env.inputs for env in data.environments])
    y = np.concatenate(target_by_env)
    edges = np.cumsum([0] + [env.inputs.shape[0] for env in data.environments])
    table = {}
    for subset in all_subsets(data.n_vars) if subsets is None else subsets:
        design = np.column_stack([np.ones(len(y))] + [X[:, v] for v in subset])
        if np.linalg.matrix_rank(design) < design.shape[1]:
            table[subset] = None
            continue
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        pieces = [resid[a:b] for a, b in zip(edges[:-1], edges[1:])]
        ps = [
            q
            for q in (stats.f_oneway(*pieces).pvalue, stats.levene(*pieces, center="mean").pvalue)
            if np.isfinite(q)
        ]
        table[subset] = min(1.0, 2.0 * min(ps)) if ps else 1.0
    return table


def reference_misa_table(data, report):
    """The reference scan of every node that ``report`` expanded."""
    table = {}
    for node in {node for node, _ in report.per_subset_pvalues}:
        if node == "reward":
            target = reward_targets(data)
        else:
            target = [env.next_inputs[:, node] for env in data.environments]
        table.update({(node, s): pv for s, pv in reference_scan(target, data).items()})
    return table


def assert_same_table(actual, expected):
    assert actual.keys() == expected.keys()
    for key, want in expected.items():
        got = actual[key]
        if want is None:
            assert got is None, key
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), key


def test_f_upper_tail_matches_scipy_fdtrc():
    """Every numerator and denominator degree of freedom the scan can meet at
    small sizes, and large ones, against ``fdtrc``: relative 1e-9 wherever the
    tail exceeds 1e-300, which includes the far tail of odd ``d1``, where a
    tail taken as ``1 - P`` would cancel."""
    f = np.concatenate([[0.0, np.inf, np.nan], np.logspace(-6, 4, 201)])
    for d1 in range(1, 10):
        for d2 in [*range(1, 31), 100, 997, 2997, 3000]:
            got, want = _f_upper_tail(d1, d2, f), special.fdtrc(d1, d2, f)
            assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2]), (d1, d2)
            resolved = want > 1e-300
            assert got[resolved] == pytest.approx(want[resolved], rel=1e-9, abs=0.0), (d1, d2)
            assert np.all(got[3:][~resolved[3:]] < 1e-290), (d1, d2)


@pytest.mark.parametrize("scale", [3.0, 1.0])
def test_scan_matches_per_subset_scipy_tests(scale):
    """The one-matrix scan gives every subset the p-value of the per-subset
    f_oneway + levene(center="mean") loop, for intervened and i.i.d. families."""
    for seed in range(4):
        data = build_synthetic_family(seed=seed, n_steps=400, intervention_scales=(scale,) * 3)
        report = linear_misa(data)
        assert_same_table(report.per_subset_pvalues, reference_misa_table(data, report))


def test_scan_maps_rank_deficient_subsets_to_none():
    """A duplicated input column makes every subset holding both copies rank
    deficient; those map to None and the rest keep the reference p-values.
    Three extra noise columns make 128 subsets, more than one scan block."""
    base = build_synthetic_family(seed=4, n_steps=300)
    rng = np.random.default_rng(4)

    def widen(a):
        return np.column_stack([a, a[:, 0], rng.standard_normal((len(a), 3))])

    envs = tuple(
        Environment(widen(env.inputs), widen(env.next_inputs), env.rewards)
        for env in base.environments
    )
    data = EnvDataset(environments=envs)
    report = linear_misa(data)
    expected = reference_misa_table(data, report)
    assert len(expected) >= 128
    assert_same_table(report.per_subset_pvalues, expected)
    assert expected[("reward", (0, 3))] is None
    assert expected[("reward", (0, 1))] is not None


def random_dataset(sizes, seed, p=2):
    rng = np.random.default_rng(seed)
    return EnvDataset(environments=tuple(
        Environment(rng.standard_normal((n, p)), rng.standard_normal((n, p)), rng.standard_normal(n))
        for n in sizes
    ))


@pytest.mark.parametrize("sizes", [(40, 75), (30, 55, 41, 90, 62)])
def test_scan_matches_scipy_for_unequal_environments(sizes):
    """Two and five environments of unequal sizes; the target's mean and
    scale drift by environment, so the scan rejects invariance."""
    data = random_dataset(sizes, seed=len(sizes))
    target = [(1.0 + e) * env.rewards + e + env.inputs[:, 0] for e, env in enumerate(data.environments)]
    table = _scan_subsets(target, _subset_fits((0, 1), data))
    assert_same_table(table, reference_scan(target, data))
    assert max(table.values()) < 0.05


@pytest.mark.parametrize("sizes", [(7, 12), (5, 9, 6, 11, 8), (5, 7), (100, 200)])
def test_scan_of_constant_residuals_matches_scipy(sizes):
    """Intercept-only residuals of a target that is constant in each
    environment: F = inf (p = 0) when the constants differ across
    environments, NaN (mapped to 1.0) when every value is the same.  The
    intercept-only fit read off the factor of a wider design is just as
    exact."""
    data = random_dataset(sizes, seed=7)
    steps = [np.full(n, float(e)) for e, n in enumerate(sizes)]
    flat = [np.full(n, 2.5) for n in sizes]
    for target, want in ((steps, 0.0), (flat, 1.0)):
        with np.errstate(divide="ignore", invalid="ignore"):  # scipy's levene divides by zero
            assert reference_scan(target, data)[()] == want
        assert _scan_subsets(target, _subset_fits((), data)) == {(): want}
        assert _scan_subsets(target, _subset_fits((0, 1), data))[()] == want
    assert scan_parents(steps, (0, 1), data) == frozenset()


def test_twelve_variable_scan_matches_per_subset_oracle():
    """At the 12-variable cap: 4,096 subsets across 64 scan blocks, from one
    factor.  The reward is x0 + x1 + noise and the environments rescale x0, x1
    and four other inputs, so only supersets of {x0, x1} are invariant.  The
    oracle takes ~2 ms a subset, so it checks every 7th subset, which lands
    on every position of a block."""
    rng = np.random.default_rng(12)
    envs = []
    for e in range(3):
        scales = np.ones(12)
        scales[[e, 2 + e, 5 + e]] = 3.0
        inputs = scales * rng.standard_normal((40, 12))
        rewards = inputs[:, 0] + inputs[:, 1] + 0.5 * rng.standard_normal(40)
        envs.append(Environment(inputs, rng.standard_normal((40, 12)), rewards))
    data = EnvDataset(environments=tuple(envs))
    target = reward_targets(data)
    table = _scan_subsets(target, _subset_fits(tuple(range(12)), data))
    assert list(table) == all_subsets(12)
    sampled = all_subsets(12)[::7]
    assert_same_table({s: table[s] for s in sampled}, reference_scan(target, data, sampled))
    assert _accepted_parents(table, 0.05)[0] == frozenset({0, 1})


def test_linear_misa_factors_each_dataset_once(monkeypatch):
    """One QR of the pooled design serves the reward scan and the scan of every
    expanded variable; no subset design is refitted by lstsq."""
    calls = {"qr": 0, "lstsq": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    report = linear_misa(build_synthetic_family(seed=0, n_steps=300))
    assert {node for node, _ in report.per_subset_pvalues} == {"reward", 0, 1}
    assert calls == {"qr": 1, "lstsq": 0}


def reference_simulation(rng, n_steps, noise_scales, clamp=None):
    """The three-variable system stepped one transition at a time."""
    scales = np.asarray(noise_scales, dtype=float)
    x = rng.standard_normal(3)
    if clamp is not None:
        x[clamp[0]] = clamp[1]
    inputs, nexts, rewards = [], [], []
    for _ in range(n_steps):
        eps = scales * rng.standard_normal(3)
        x_next = np.array([x[0] + eps[0], x[1] + eps[1], x[1] + eps[2]])
        if clamp is not None:
            x_next[clamp[0]] = clamp[1]
        inputs.append(x)
        nexts.append(x_next)
        rewards.append(x[0] + x[1] + 0.1 * rng.standard_normal())
        x = x_next
    return Environment(np.array(inputs), np.array(nexts), np.array(rewards))


def test_simulator_matches_the_step_loop():
    """Cumulative sums over one block of draws reproduce the per-step loop bit
    for bit, with and without a clamp on each variable."""
    family = build_synthetic_family(n_envs=4, n_steps=200, seed=11, intervention_scales=(3.0, 0.5, 2.0))
    for e, env in enumerate(family.environments):
        scales = np.ones(3)
        scales[e % 3] = (3.0, 0.5, 2.0)[e % 3]
        expected = reference_simulation(np.random.default_rng([11, e]), 200, scales)
        for got, want in zip(env, expected):
            assert np.array_equal(got, want)
    for clamp in ((0, 2.5), (1, -1.0), (2, 7.0)):
        got = _simulate_three_var(np.random.default_rng(5), 200, (1.0, 2.0, 0.5), clamp=clamp)
        want = reference_simulation(np.random.default_rng(5), 200, (1.0, 2.0, 0.5), clamp=clamp)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), clamp
        assert np.all(got.inputs[:, clamp[0]] == clamp[1])
