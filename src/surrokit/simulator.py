"""Seeded synthetic experiment generator with known ground-truth effects.

Generative model for user i in arm a on day t (relative to allocation):

    Y_it = b_i + tau_a * g(t) * 1[t >= 1] + e_it

where

* b_i ~ Normal(baseline_mean, baseline_sd^2) is a persistent user level;
* tau_a = effect_scale * draw, with draw ~ Student-t(effect_tail_df)
  (standard normal when the df is infinite); control arms have tau = 0;
* g(t) = novelty_floor + (1 - novelty_floor) * 2^(-(t-1)/novelty_halflife)
  is a novelty-decay profile starting at 1 and settling at the floor;
* e_it is a stationary AR(1) chain with marginal standard deviation
  noise_sd, run across the pre- and post-allocation days in day order.

The ground-truth long-term effect of arm a is tau_a times the average of
g(t) over days 1..horizon.

Randomness is counter-based. Experiment ``index`` owns one Philox keyed by
the uint64 pair (seed, index); each stream restarts it at counter
[0, 0, word, tag] with an empty buffer: word 0 with tag 1 for the effect
draws, word u with tag 2 for user u's block of normals. Every
(experiment, user) pair thus owns a substream, so corpora are reproducible
across runs and independent of how generation is scheduled across workers.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .panel import DEFAULT_HORIZON, ArmLabel, OutcomePanel, days_in_range

_MASK64 = 2**64 - 1

# Experiment ``index`` is named EXPERIMENT_ID.format(index).
EXPERIMENT_ID = "sim-{:05d}"

# Counter high-word tags keeping effect draws and user chains disjoint.
_EFFECT_STREAM = 1
_USER_STREAM = 2


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the generative model; see the module docstring.

    ``arms_per_experiment`` counts treatment arms (the control arm is
    always added on top) and may be fractional: experiment k receives
    floor((k+1)*x) - floor(k*x) arms, so a corpus of n experiments totals
    floor(n*x) treatment arms.
    """

    n_experiments: int = 1
    arms_per_experiment: float = 2.0
    users_per_arm: int = 100
    horizon: int = DEFAULT_HORIZON
    pre_period: int = 63
    baseline_mean: float = 1.0
    baseline_sd: float = 0.5
    noise_sd: float = 1.0
    ar1_rho: float = 0.2
    effect_scale: float = 0.05
    effect_tail_df: float = 3.0
    novelty_floor: float = 0.7
    novelty_halflife: float = 14.0
    seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            integral = field.type == "int"
            if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
                kind = "an integer" if integral else "a number"
                raise InvalidConfig(f"{field.name} must be {kind}, got {value!r}")
            # An infinite tail df is legal: it requests Gaussian effects. The
            # float_info bound also rejects NaN and an int too large for a float.
            gaussian = field.name == "effect_tail_df" and value == math.inf
            if not (integral or gaussian or abs(value) <= sys.float_info.max):
                raise InvalidConfig(f"{field.name} must be finite, got {value!r}")
        if self.n_experiments < 1:
            raise InvalidConfig(f"n_experiments must be positive, got {self.n_experiments}")
        if self.arms_per_experiment < 1:
            raise InvalidConfig(
                f"arms_per_experiment must be at least 1, got {self.arms_per_experiment}"
            )
        if self.users_per_arm < 1:
            raise InvalidConfig(f"users_per_arm must be positive, got {self.users_per_arm}")
        if self.horizon < 1:
            raise InvalidConfig(f"horizon must be positive, got {self.horizon}")
        if self.pre_period < 0:
            raise InvalidConfig(f"pre_period must be nonnegative, got {self.pre_period}")
        if self.baseline_sd < 0 or self.noise_sd < 0:
            raise InvalidConfig("standard deviations must be nonnegative")
        if not 0.0 <= self.ar1_rho < 1.0:
            raise InvalidConfig(f"ar1_rho must be in [0, 1), got {self.ar1_rho}")
        if not self.effect_tail_df > 0:
            raise InvalidConfig(f"effect_tail_df must be positive, got {self.effect_tail_df}")
        if not 0.0 <= self.novelty_floor <= 1.0:
            raise InvalidConfig(
                f"novelty_floor must be in [0, 1], got {self.novelty_floor}"
            )
        if not self.novelty_halflife > 0:
            raise InvalidConfig(
                f"novelty_halflife must be positive, got {self.novelty_halflife}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise InvalidConfig("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SimulatedExperiment:
    """An outcome panel plus its ground-truth long-term effects per arm."""

    panel: OutcomePanel
    true_effects: dict[str, float]

    def __post_init__(self) -> None:
        treatment_names = {arm.name for arm in self.panel.treatment_arms}
        if set(self.true_effects) != treatment_names:
            raise InvalidConfig(
                "true_effects must cover exactly the non-control arms; "
                f"got {sorted(self.true_effects)} vs {sorted(treatment_names)}"
            )


def novelty_profile(days: np.ndarray, floor: float, halflife: float) -> np.ndarray:
    """Decay profile g(t): 1 at day 1, halving towards ``floor``."""
    t = np.asarray(days, dtype=float)
    return floor + (1.0 - floor) * np.exp2(-(t - 1.0) / halflife)


def _arms_before(arms_per_experiment: float, index: int) -> int:
    # Bresenham-style spreading: fractional configs alternate floor/ceil so
    # that experiments 0..index-1 total floor(index * x) treatment arms.
    return math.floor(index * float(arms_per_experiment) + 1e-9)


def _treatment_arm_count(arms_per_experiment: float, index: int) -> int:
    return _arms_before(arms_per_experiment, index + 1) - _arms_before(arms_per_experiment, index)


def corpus_treatment_arms(config: SimConfig) -> int:
    """Total treatment arms over the experiments 0..n_experiments-1 of ``config``."""
    return _arms_before(config.arms_per_experiment, config.n_experiments)


@functools.lru_cache
def _user_ids(n_users: int) -> tuple[str, ...]:
    """The ids of an experiment's users; shared by every experiment of that size."""
    return tuple(f"u{u:05d}" for u in range(n_users))


def simulate_experiment(config: SimConfig, index: int) -> SimulatedExperiment:
    """Generate one experiment; deterministic in (config, index)."""
    if index < 0 or index >= config.n_experiments:
        raise InvalidConfig(
            f"experiment index {index} outside [0, {config.n_experiments})"
        )
    n_treat = _treatment_arm_count(config.arms_per_experiment, index)
    n_users = config.users_per_arm * (n_treat + 1)
    n_days = config.pre_period + config.horizon
    # The block of normals below, a baseline draw and n_days shocks per
    # user, is allocated before any per-user or per-day list is built, so a
    # config too large for memory raises MemoryError at once.
    if n_users * (n_days + 1) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"experiment {index}'s users x days array is past numpy's size limit")
    raw = np.empty((n_users, n_days + 1), dtype=float)
    arms = [ArmLabel("control", True)]
    arms += [ArmLabel(f"t{j}", False) for j in range(1, n_treat + 1)]

    # One Philox per experiment, keyed by (seed, index) as uint64 (a plain
    # list of ints would become float64 for seeds from 2^63). Its fresh state
    # has an empty buffer (buffer_pos 4, no spare uint32); assigning it back
    # with the counter at [0, 0, u, tag] restarts exactly the stream a Philox
    # built with that counter would give, without one generator per user.
    # The restart state holds plain ints, which the setter converts faster
    # than numpy scalars; each user then only rewrites its counter word.
    key = [config.seed, index & _MASK64]
    bitgen = np.random.Philox(key=np.array(key, np.uint64), counter=[0, 0, 0, _EFFECT_STREAM])
    rng = np.random.Generator(bitgen)
    counter = [0, 0, 0, _USER_STREAM]
    restart = {**bitgen.state, "state": {"counter": counter, "key": key}, "buffer": [0] * 4}
    if math.isinf(config.effect_tail_df):
        draws = rng.standard_normal(n_treat)
    else:
        draws = rng.standard_t(config.effect_tail_df, size=n_treat)
    tau = config.effect_scale * draws

    # One normal block per user from its own stream: first value feeds the
    # baseline level, the rest are the shocks of the AR(1) chain. The chain
    # runs day-major over a (days, users) copy of the block, which then
    # holds the outcomes in place of the shocks.
    for u in range(n_users):
        counter[2] = u
        bitgen.state = restart
        rng.standard_normal(out=raw[u])
    # The copy takes the whole block, baseline draws included: being the
    # size of raw, it can reuse the heap block the last experiment's raw
    # freed, where a copy one column short keeps about 0.7 MB more resident
    # over 2200 replicate operations. Dropping raw before the panel takes
    # its copy holds the peak at two matrices.
    normals = raw.T.copy()
    del raw
    baseline = config.baseline_mean + config.baseline_sd * normals[0]
    outcomes = normals[1:]

    outcomes[0] *= config.noise_sd
    innovation_sd = config.noise_sd * math.sqrt(1.0 - config.ar1_rho**2)
    for t in range(1, n_days):
        outcomes[t] *= innovation_sd
        outcomes[t] += config.ar1_rho * outcomes[t - 1]
    outcomes += baseline

    profile = novelty_profile(np.arange(1, config.horizon + 1),
                              config.novelty_floor, config.novelty_halflife)
    for arm_index in range(n_treat):
        start = (arm_index + 1) * config.users_per_arm
        end = start + config.users_per_arm
        outcomes[config.pre_period:, start:end] += tau[arm_index] * profile[:, None]

    mean_profile = float(profile.mean())
    true_effects = {
        f"t{j + 1}": float(tau[j] * mean_profile) for j in range(n_treat)
    }

    panel = OutcomePanel.from_matrix(
        experiment_id=EXPERIMENT_ID.format(index),
        user_ids=_user_ids(n_users),
        arms=[arm for arm in arms for _ in range(config.users_per_arm)],
        days=days_in_range(-config.pre_period, config.horizon),
        matrix=outcomes.T,
    )
    return SimulatedExperiment(panel=panel, true_effects=true_effects)


def config_from_dict(payload: dict) -> SimConfig:
    """Build a config from a JSON object; unknown keys are an error."""
    known = {f.name for f in fields(SimConfig)}
    unknown = set(payload) - known
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    values = dict(payload)
    # Accept "inf" / null for the tail df so plain JSON can request
    # Gaussian effects.
    df = values.get("effect_tail_df")
    if df is None and "effect_tail_df" in values:
        values["effect_tail_df"] = math.inf
    elif isinstance(df, str):
        if df.lower() in ("inf", "infinity"):
            values["effect_tail_df"] = math.inf
        else:
            raise InvalidConfig(f"unparseable effect_tail_df {df!r}")
    return SimConfig(**values)


def load_config(path: str | Path) -> SimConfig:
    """Read a SimConfig from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"config is not valid UTF-8: {exc}") from None
        # ValueError: bad JSON, or an integer past Python's digit limit;
        # RecursionError: arrays or objects nested past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidConfig("config JSON must be an object")
    return config_from_dict(payload)
