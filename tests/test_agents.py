"""Behavioural checks for the agent roster."""
import numpy as np
import pytest

from adhocpo.agents import (
    AGENT_NAMES,
    AtpoAgent,
    BopaAgent,
    CapabilityError,
    InformedPerseusAgent,
    OracleViAgent,
    RandomAgent,
    RandomPickerAgent,
    make_agent,
)
from adhocpo.atpo import AllModelsPruned, ModelLibrary
from adhocpo.pomdp import TabularPomdp, belief_update, induced_mdp
from adhocpo.solvers import SolverSettings, perseus_solve, policy_action, value_iteration

from conftest import dense, random_pomdp

TINY = SolverSettings(belief_set_size=30, horizon=8, tolerance=0.01, seed=0, stage_cap=60)


def tiny_library(models):
    return ModelLibrary(models, [perseus_solve(m, TINY) for m in models])


def observable_pomdp(rng, num_states=4, num_actions=3, label="obs"):
    """Identity observations so privileged and belief agents coincide."""
    base = random_pomdp(rng, num_states, num_actions, num_observations=num_states, label=label)
    eye = [np.eye(num_states) for _ in range(num_actions)]
    return TabularPomdp(
        [dense(t) for t in base.transition],
        eye,
        base.reward,
        base.discount,
        base.initial_belief,
        label=label,
    )


def signal_pomdp(rng, emit, num_states=3, num_actions=2, label="signal"):
    """Every state deterministically emits observation `emit` (of 2)."""
    base = random_pomdp(rng, num_states, num_actions, num_observations=2, label=label)
    obs = np.zeros((num_states, 2))
    obs[:, emit] = 1.0
    return TabularPomdp(
        [dense(t) for t in base.transition],
        [obs] * num_actions,
        base.reward,
        base.discount,
        base.initial_belief,
        label=label,
    )


def test_make_agent_roster(rng):
    lib = tiny_library([random_pomdp(rng)])
    classes = {
        "atpo": AtpoAgent,
        "vi": OracleViAgent,
        "perseus": InformedPerseusAgent,
        "random-picker": RandomPickerAgent,
        "bopa": BopaAgent,
        "random": RandomAgent,
    }
    assert set(classes) == set(AGENT_NAMES)
    for name, cls in classes.items():
        assert isinstance(make_agent(name, lib), cls)
    with pytest.raises(ValueError, match="unknown agent"):
        make_agent("psychic", lib)


def test_privileged_agents_require_disclosure(rng):
    lib = tiny_library([random_pomdp(rng)])
    for name in ("vi", "perseus"):
        with pytest.raises(CapabilityError, match="true model"):
            make_agent(name, lib).reset(rng)
    agent = make_agent("vi", lib)
    with pytest.raises(CapabilityError, match="state"):
        agent.reset(rng, true_model=0)
    agent.reset(rng, true_model=0, initial_state=0)
    with pytest.raises(CapabilityError, match="state"):
        agent.observe(0, observation=1)


def test_bopa_rejects_mismatched_state_spaces(rng):
    a = random_pomdp(rng, num_states=3, num_actions=2, num_observations=2)
    b = random_pomdp(rng, num_states=4, num_actions=2, num_observations=2)
    with pytest.raises(CapabilityError, match="shared state space"):
        BopaAgent(tiny_library([a, b]))


def test_random_agent_frequencies(rng):
    lib = tiny_library([random_pomdp(rng, num_actions=3)])
    agent = RandomAgent(lib)
    agent.reset(rng)
    n = 3000
    counts = np.bincount([agent.act(rng) for _ in range(n)], minlength=3)
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)


def test_vi_agent_follows_state_policy(rng):
    model = observable_pomdp(rng)
    lib = tiny_library([model])
    vf = value_iteration(induced_mdp(model))
    agent = OracleViAgent(lib)
    agent.reset(rng, true_model=0, initial_state=2)
    x = 2
    for _ in range(6):
        a = agent.act(rng)
        assert a == vf.greedy[x]
        x = int(rng.integers(model.num_states))
        agent.observe(a, observation=x, state=x)


def test_perseus_agent_follows_alpha_policy(rng):
    model = random_pomdp(rng, num_states=4, num_actions=3, num_observations=3)
    lib = tiny_library([model])
    agent = InformedPerseusAgent(lib)
    agent.reset(rng, true_model=0, initial_state=0)
    belief = model.initial_belief.copy()
    for _ in range(6):
        a = agent.act(rng)
        assert a == policy_action(lib.policies[0], belief)
        z = int(np.argmax(np.cumsum(
            np.asarray(belief @ dense(model.transition[a]) @ dense(model.observation[a]))
        ) > 0.3))
        belief, _ = belief_update(model, belief, a, z)
        agent.observe(a, observation=z)
        assert np.allclose(agent._belief, belief)


def test_perseus_agent_holds_its_belief_on_an_impossible_observation(rng):
    # The true model always emits 0.  Handed a 1, the agent keeps the very
    # belief it had and plays on from it, as every filter does; a library
    # of this one model under atpo rules it out instead.
    model = signal_pomdp(rng, emit=0)
    lib = tiny_library([model])
    agent = InformedPerseusAgent(lib)
    agent.reset(rng, true_model=0, initial_state=0)
    a = agent.act(rng)
    agent.observe(a, observation=0)
    belief = agent._belief
    agent.observe(a, observation=1)
    assert agent._belief is belief
    assert agent.act(rng) == policy_action(lib.policies[0], belief)
    solo = AtpoAgent(lib)
    solo.reset(rng, true_model=0, initial_state=0)
    with pytest.raises(AllModelsPruned):
        solo.observe(a, observation=1)


def test_atpo_single_model_matches_informed(rng):
    model = random_pomdp(rng, num_states=5, num_actions=3, num_observations=4)
    lib = tiny_library([model])
    informed = InformedPerseusAgent(lib)
    solo = AtpoAgent(lib)
    informed.reset(rng, true_model=0, initial_state=0)
    solo.reset(rng, true_model=0, initial_state=0)
    sim = np.random.default_rng(7)
    for _ in range(10):
        a1 = informed.act(rng)
        a2 = solo.act(rng)
        assert a1 == a2
        z = int(sim.integers(model.num_observations))
        try:
            informed.observe(a1, observation=z)
            solo.observe(a2, observation=z)
        except Exception:
            break  # an impossible observation for this belief; done
        assert np.allclose(solo.state.beliefs[0], informed._belief)


def test_random_picker_prunes_and_survives(rng):
    true = signal_pomdp(rng, emit=0, label="emits zero")
    decoy = signal_pomdp(rng, emit=1, label="emits one")
    lib = tiny_library([true, decoy])
    agent = RandomPickerAgent(lib)
    agent.reset(rng)
    for _ in range(5):
        a = agent.act(rng)
        agent.observe(a, observation=0)  # what the true model emits
    assert list(agent.state.greedy >= 0) == [True, False]
    assert agent.state.posterior[0] == 1.0


def test_bopa_posterior_tracks_transitions(rng):
    stay = np.eye(3)
    drift = np.full((3, 3), 1.0 / 3.0)
    obs = [np.full((3, 2), 0.5)] * 2
    reward = np.zeros((3, 2))
    b0 = np.full(3, 1.0 / 3.0)
    stayer = TabularPomdp([stay, stay], obs, reward, 0.9, b0, label="stayer")
    drifter = TabularPomdp([drift, drift], obs, reward, 0.9, b0, label="drifter")
    lib = tiny_library([stayer, drifter])
    agent = BopaAgent(lib)
    agent.reset(rng, initial_state=1)
    # Staying at state 1 has likelihood 1 vs 1/3: posterior odds triple
    # per step in the stayer's favour.
    agent.observe(0, state=1)
    assert agent.posterior == pytest.approx([0.75, 0.25])
    agent.observe(0, state=1)
    assert agent.posterior == pytest.approx([0.9, 0.1])
    # A jump is impossible for the stayer: it is pruned outright.
    agent.observe(0, state=2)
    assert agent.posterior == pytest.approx([0.0, 1.0])


def test_bopa_raises_when_every_candidate_is_ruled_out(rng):
    # Both candidates stay put, so a jump has transition probability 0 under each.
    stay = np.eye(3)
    obs = [np.full((3, 2), 0.5)] * 2
    b0 = np.full(3, 1.0 / 3.0)
    models = [TabularPomdp([stay, stay], obs, np.zeros((3, 2)), 0.9, b0, label=f"stay{k}") for k in range(2)]
    agent = BopaAgent(tiny_library(models))
    agent.reset(rng, initial_state=1)
    agent.observe(1, state=1)
    with pytest.raises(AllModelsPruned) as err:
        agent.observe(0, state=2)
    assert (err.value.step, err.value.action, err.value.observation) == (1, 0, 2)


def test_atpo_diagnostics_shapes(rng):
    models = [signal_pomdp(rng, emit=0), signal_pomdp(rng, emit=1)]
    lib = tiny_library(models)
    agent = AtpoAgent(lib)
    agent.reset(rng, true_model=0, initial_state=0)
    for _ in range(4):
        a = agent.act(rng)
        agent.observe(a, observation=0)
    assert np.array(agent.posteriors).shape == (5, 2)
    assert np.array(agent.greedy_actions).shape == (5, 2)
    assert np.array(agent.evidence).shape == (4, 2)
    assert agent.state.step == 4


def test_atpo_ignores_the_true_model():
    rng = np.random.default_rng(3)
    lib = tiny_library([random_pomdp(rng, label="a"), random_pomdp(rng, label="b")])
    runs = []
    for disclosed in (0, 1, None):
        agent = AtpoAgent(lib)
        agent_rng = np.random.default_rng(99)
        agent.reset(agent_rng, true_model=disclosed, initial_state=0)
        actions = []
        for z in (0, 2, 1, 0, 1, 2):
            actions.append(agent.act(agent_rng))
            agent.observe(actions[-1], observation=z)
        runs.append((actions, np.array(agent.posteriors), np.array(agent.evidence)))
    for actions, posteriors, evidence in runs[1:]:
        assert actions == runs[0][0]
        assert np.array_equal(posteriors, runs[0][1])
        assert np.array_equal(evidence, runs[0][2])
