"""Neural max-min training: value and action networks per stage.

One backward loop (stage T-1 down to 0) solves the one-step max-min
problems of the dynamic programming principle.  At each stage it ascends
an inner objective in the action network's parameters, then regresses the
stage value network on that same objective at the trained parameters.
Two inner problems plug into it:

* Algorithm 1 (sampled measure set): the minimum over a fixed per-stage
  candidate set of Monte Carlo means of the next value.  Candidates are
  drawn once per stage and held fixed across iterations, so the trained
  value matches the exact solver run on the same sets, which is what the
  oracle comparisons require.
* Algorithm 2 (Wasserstein dual): the minimum over the ball replaced by

      (1/N_MC) sum_i min_j { psi(z_j) + lambda ||x_i - z_j||^q } - lambda eps^q

  with lambda > 0 trained through an exponential reparameterization (one
  lambda per stage, updated jointly with the action network).

Everything runs on the numpy tape in autodiff.py, so gradients are exact
including through the min selections, and runs are bit-reproducible from
the seed.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .ambiguity import (
    AdaptiveEmpirical,
    ConstantKernel,
    KernelWeighted,
    Singleton,
    WassersteinBall,
    dual_inner_min,
    sample_measures,
)
from .controls import ConstantSet
from .dp import rollout

__all__ = [
    "Mlp",
    "AdamState",
    "TrainConfig",
    "grad",
    "adam_step",
    "train_algorithm1",
    "train_algorithm2",
    "NeuralPolicy",
    "TrainResult",
    "mc_policy_values",
    "net_to_text",
    "net_from_text",
    "log_to_csv",
]


class Mlp:
    """Fully connected rectifier network, identity output.

    With out_box=(low, high) the output is squashed onto the box through a
    scaled tanh, so action networks always emit admissible actions.  An
    input dimension of zero makes the network a trainable constant.  Both
    forward (arrays) and forward_var (one fused tape node) run the one
    kernel ad.mlp_forward.  On frozen parameters the two are bit-identical
    and each output row depends on that row alone; forward_var on trainable
    parameters runs every row in one call, whose rows may differ from the
    frozen ones in the last bits.
    """

    def __init__(self, in_dim, out_dim, hidden_layers=5, hidden_units=32,
                 rng=None, out_box=None, in_scale=None):
        rng = rng or np.random.default_rng(0)
        sizes = [in_dim] + [hidden_units] * hidden_layers + [out_dim]
        self.sizes = sizes
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(2.0 / max(fan_in, 1))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        if out_box is not None:
            low, high = out_box
            self.out_low = np.atleast_1d(np.asarray(low, dtype=float))
            self.out_high = np.atleast_1d(np.asarray(high, dtype=float))
        else:
            self.out_low = self.out_high = None
        # fixed per-input standardization (e.g. returns divided by their
        # bound); untrained, so serialization stores it verbatim
        self.in_scale = (
            None if in_scale is None
            else np.broadcast_to(np.asarray(in_scale, dtype=float), (in_dim,)).copy()
        )

    @property
    def in_dim(self):
        return self.sizes[0]

    @property
    def out_dim(self):
        return self.sizes[-1]

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def set_parameters(self, arrays):
        arrays = list(arrays)
        for i in range(len(self.weights)):
            self.weights[i] = np.asarray(arrays[2 * i], dtype=float)
            self.biases[i] = np.asarray(arrays[2 * i + 1], dtype=float)

    def _box(self):
        return None if self.out_low is None else (self.out_low, self.out_high)

    def forward(self, x):
        """Outputs on an array of inputs (N, in_dim), or one input (in_dim,)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        h = x[None, :] if single else x
        if h.shape[1] != self.in_dim:
            raise ValueError(f"expected input width {self.in_dim}, got {h.shape[1]}")
        h = ad.mlp_forward(h, self.weights, self.biases, self.in_scale, self._box())[0]
        return h[0] if single else h

    def forward_var(self, x, params=None):
        """Tape-mode forward, one fused node (ad.mlp) with the same arithmetic
        as forward; x may be a Var or an ndarray, and params the parameter
        Vars in parameters() order (constants of the net's own by default)."""
        if params is None:
            params = [ad.const(p) for p in self.parameters()]
        return ad.mlp(x, params[0::2], params[1::2], self.in_scale, self._box())


def grad(net, loss_closure):
    """Exact reverse-mode gradient of a scalar loss in the net parameters.

    loss_closure receives an apply function mapping inputs (ndarray or
    Var) to the network output as a Var, and must return a scalar Var.
    Subgradient 0 is used at rectifier kinks and min/max ties.
    """
    pvars = [ad.Var(p) for p in net.parameters()]
    return _backprop(loss_closure(lambda x: net.forward_var(x, pvars)), pvars)


def _backprop(loss, pvars):
    """Gradients of a scalar loss Var in each of pvars (zero where unused)."""
    if np.isnan(loss.value).any():
        raise FloatingPointError("loss is NaN")
    ad.backward(loss)
    return [
        pv.grad if pv.grad is not None else np.zeros_like(pv.value)
        for pv in pvars
    ]


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params, lr=1e-3):
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(state, params, grads):
    """Standard bias-corrected Adam update (in place on params), with
    beta1, beta2 and eps the module's ADAM_BETA1, ADAM_BETA2, ADAM_EPS."""
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        mhat = state.m[i] / c1
        vhat = state.v[i] / c2
        p -= state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return params, state


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the hedging experiments' footnote
    (5 x 32 rectifier layers, lr 1e-3, batch 128, N_MC = 2^7, Iter_a = 500,
    Iter_psi = 2000, 64 dual grid points)."""

    iter_psi: int = 2000
    iter_a: int = 500
    n_measures: int = 5
    n_mc: int = 128
    batch_size: int = 128
    dual_grid: int = 64
    seed: int = 0
    hidden_layers: int = 5
    hidden_units: int = 32
    lr: float = 1e-3
    eval_mc: int = 4000
    path_sampling: str = "uniform"  # or "reference": draw paths from the
    # reference kernels instead of uniformly over the local space
    lr_decay: float = 1.0  # multiplicative lr floor reached at the last
    # iteration (1.0 = constant learning rate)
    warm_start: bool = False  # initialize each stage net from its successor

    def __post_init__(self):
        for name in ("iter_psi", "iter_a", "n_measures", "n_mc",
                     "batch_size", "dual_grid", "eval_mc", "hidden_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.hidden_layers < 0:
            raise ValueError("hidden_layers must be >= 0")
        for name in ("lr", "lr_decay"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.lr_decay > 1.0:
            raise ValueError("lr_decay is a floor on the lr and must be <= 1")
        if self.path_sampling not in ("uniform", "reference"):
            raise ValueError(
                "path_sampling must be 'uniform' or 'reference', "
                f"got {self.path_sampling!r}"
            )


def _lr_at(config, it, total):
    if config.lr_decay >= 1.0 or total <= 1:
        return config.lr
    return config.lr * config.lr_decay ** (it / (total - 1))


# ---------------------------------------------------------------------------
# shared training plumbing
# ---------------------------------------------------------------------------


def _action_box(spec):
    if isinstance(spec, ConstantSet) and spec.points is None:
        return spec.low, spec.high
    raise ValueError(
        "neural training needs box-shaped ConstantSet actions "
        f"(got {type(spec).__name__})"
    )


def _sample_paths(space, t, batch, rng):
    if space.bound is None:
        raise ValueError("uniform path sampling needs a bounded local space")
    return rng.uniform(-space.bound, space.bound, size=(batch, t, space.dimension))


def _sample_paths_reference(kernels, t, batch, rng, d):
    """Paths (batch, t, d) drawn from the product of the stage reference
    kernels: stage s draws through _reference_states along the first s
    columns, so each omega[i, s] is an atom of the stage-s reference at
    omega[i, :s].  Concentrates training where in-model evaluation happens.
    """
    omega = np.zeros((batch, t, d))
    for s in range(t):
        omega[:, s] = _reference_states(kernels[s], omega[:, :s], 1, rng)[:, 0]
    return omega


def _sample_past_actions(specs, batch, rng):
    """Past actions drawn uniformly from their boxes, a list of (batch, m_s)."""
    boxes = [_action_box(spec) for spec in specs]
    return [rng.uniform(low, high, size=(batch, len(low))) for low, high in boxes]


def _choice_indices(weights, u):
    """The atoms Generator.choice(len(weights), p=weights) picks with its
    uniform draws u: per draw, the first index whose normalized cumulative
    weight exceeds it (cdf.searchsorted(u, "right")).  A draw in bucket
    k = floor(u n) starts at the first index whose cdf exceeds the bucket's
    midpoint (k + 1/2) / n, which is k itself for uniform weights, and steps
    down, then up, onto its index against the same cdf; that is exact for
    any nondecreasing cdf.  The search spends its time in data-dependent
    branches: on 9,216 draws over 250 uniform atoms (a Xeon host) it takes
    about 0.77 ms and the steps about 0.09 ms, and on 2,304 draws from the
    200-atom candidates of a robust hedging run about 0.2 and 0.1 ms."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    n = len(cdf)
    below = np.concatenate([[-1.0], cdf[:-1]])  # the cdf of the atom before
    mid = np.minimum(cdf.searchsorted((np.arange(n + 1) + 0.5) / n, "right"), n - 1)
    idx = mid.take((u * n).astype(np.intp))
    while True:
        down = below.take(idx) > u
        if not down.any():
            break
        idx -= down
    while True:
        up = cdf.take(idx) <= u
        if not up.any():
            return idx
        idx += up


def _draw_states(measure, batch, n_mc, rng):
    """(batch, n_mc, d) i.i.d. draws from one discrete measure.  The draws
    and the RNG state after them are those of rng.choice(n_atoms,
    (batch, n_mc), p=weights): one rng.random block, then _choice_indices."""
    return measure.support[_choice_indices(measure.weights, rng.random((batch, n_mc)))]


def _reference_states(kernel, omega_b, n_mc, rng):
    """(b, n_mc, d) draws from the kernel's center along each path of
    omega_b (b, t, d), vectorized for the built-in references.

    A KernelWeighted reference draws one rng.random((b, n_mc)) block, the
    stream of b per-path choice calls, and inverts each path's cdf.  An
    AdaptiveEmpirical reference keeps one integers call per path: integers
    buffers 32-bit draws within a call, so one call over all paths would
    not give the same stream."""
    ref = getattr(kernel, "reference", None)
    b, t, d = omega_b.shape
    if isinstance(ref, ConstantKernel):
        return _draw_states(ref.measure, b, n_mc, rng)
    if isinstance(ref, KernelWeighted):
        w = ref.weights(omega_b)
        u = rng.random((b, n_mc))
        return ref.history[t:][np.stack([_choice_indices(wi, ui) for wi, ui in zip(w, u)])]
    if isinstance(ref, AdaptiveEmpirical):
        hist = ref.history
        n = hist.shape[0]
        out = np.empty((b, n_mc, d))
        for i in range(b):
            atoms = hist if t == 0 else np.vstack([hist, omega_b[i]])
            out[i] = atoms[rng.integers(0, n + t, size=n_mc)]
        return out
    out = np.empty((b, n_mc, d))
    for i in range(b):
        out[i] = _draw_states(kernel.center(omega_b[i]), 1, n_mc, rng)[0]
    return out


def _stage_candidates(kernel, t, d, config, rng):
    """Fixed candidate measures for one stage (element 0 = reference)."""
    if isinstance(kernel, Singleton):
        return None  # per-path reference draws instead
    return sample_measures(kernel, np.zeros((t, d)), config.n_measures, rng)


def _input_scale(problem, t):
    """Per-input standardization: returns scaled by 1/C, actions by their
    half-width, so first-layer activations are O(1) regardless of units.
    Feature-map outputs are expected pre-normalized and get scale 1."""
    d = problem.local_space.dimension
    zeros = [np.zeros((1, spec.dim)) for spec in problem.action_specs[:t]]
    width = _stage_input_tape(problem, t, np.zeros((1, t, d)), zeros).shape[1]
    if problem.net_inputs == "features" or t == 0:
        return np.ones(width)
    parts = [np.full(t * d, 1.0 / problem.local_space.bound)]
    for spec in problem.action_specs[:t]:
        low, high = _action_box(spec)
        parts.append(2.0 / np.maximum(high - low, 1e-12))
    parts.append(np.ones(width - sum(map(len, parts))))
    return np.concatenate(parts)


def _check_net_inputs(problem):
    """problem.net_inputs is "both" or "features", and "features" needs
    problem.feature_tape, the step feature_tape(t, omega_b, past, a, nxt)
    of _continuation."""
    mode = problem.net_inputs
    if mode not in ("both", "features"):
        raise ValueError(f"net_inputs must be 'both' or 'features', got {mode!r}")
    if mode == "features" and problem.feature_tape is None:
        raise ValueError("net_inputs='features' needs problem.feature_tape")


def _stage_input_tape(problem, t, omega, actions):
    """Net input at stage t along paths omega (N, t, d) after the past
    actions, a list of t arrays (N, m_s) whose last may be a Var: the
    _continuation from stage t-1 with one next state per path, its last
    return.  Stage 0 has an empty (N, 0) input."""
    if t == 0:
        return ad.const(np.zeros((len(omega), 0)))
    return _continuation(problem, t - 1, omega[:, :-1], actions[:-1],
                         ad.as_var(actions[-1]), omega[:, -1:])


def _maybe_warm_start(net, prev, config):
    """Initialize a stage net from its successor when shapes line up;
    with feature-only inputs the per-stage functions vary slowly in t, so
    each stage becomes a fine-tune rather than a fresh fit."""
    if not getattr(config, "warm_start", False) or prev is None:
        return
    if [p.shape for p in prev.parameters()] != [p.shape for p in net.parameters()]:
        return
    net.set_parameters([p.copy() for p in prev.parameters()])


def _next_value(problem, t_next, net):
    """The stage-(t+1) value psi(omega_b, past, a_rep, nxt) -> Var (b, n)
    along every path of omega_b (b, t, d) continued by each of its next
    states nxt (b, n, d), after the past actions (a list of (b, m_s)
    arrays) and the stage action a_rep (its Var repeated n times per row):
    the value net on the _continuation input, or the terminal objective on
    the continued paths at the horizon."""

    def psi(omega_b, past, a_rep, nxt):
        b, n = nxt.shape[:2]
        if t_next == problem.horizon:
            omega, past_rep = _continued_paths(omega_b, past, nxt)
            return ad.reshape(problem.terminal_tape(omega, past_rep + [a_rep]), (b, n))
        x = _continuation(problem, t_next - 1, omega_b, past, a_rep, nxt)
        return ad.reshape(net.forward_var(x), (b, n))

    return psi


def _continued_paths(omega_b, past, nxt):
    """The paths (b n, t+1, d) of omega_b (b, t, d) each extended by its
    next states nxt (b, n, d), and the past actions repeated n times."""
    b, n, d = nxt.shape
    omega = np.concatenate([np.repeat(omega_b, n, axis=0), nxt.reshape(b * n, 1, d)], axis=1)
    return omega, [np.repeat(p, n, axis=0) for p in past]


def _continuation(problem, t, omega_b, past, a_rep, nxt):
    """The stage-(t+1) net input (a Var, b n rows) along every path of
    omega_b (b, t, d) continued by each of its next states nxt (b, n, d),
    after the past actions (arrays (b, m_s)) and the stage action a_rep
    (a Var, b n rows); the one builder of every network input.

    Side by side: the continued path flattened to (b n, (t+1) d), the past
    actions and the stage action, and the problem's feature_tape(t, omega_b,
    past, a_rep, nxt) step, which runs the prefix once per path and one step
    per row.  With net_inputs="features" the feature step alone is the input
    (its outputs are functions of the same arguments, so the networks stay
    maps of (path, past actions) with a restricted parameterization)."""
    features = problem.feature_tape
    if problem.net_inputs == "features":
        return features(t, omega_b, past, a_rep, nxt)
    omega, past_rep = _continued_paths(omega_b, past, nxt)
    parts = [omega.reshape(len(omega), -1)] + past_rep + [a_rep]
    if features is not None:
        parts.append(features(t, omega_b, past, a_rep, nxt))
    return ad.concat(parts, axis=1)


class NeuralPolicy:
    """Trained stage networks as a policy in the sense of dp.rollout.

    act feeds stage net t the input training gave it (_stage_input_tape of
    the problem: the path, past actions and the problem's features, or the
    features alone) and clips its output, squashed into the action box, to
    the box.  Nets read back with net_from_text, paired with a problem of
    the same hedging instance, act as trained."""

    def __init__(self, problem, action_nets):
        _check_net_inputs(problem)
        self.problem = problem
        self.action_nets = action_nets

    def act(self, t, omega, past):
        """Stage-t actions (N, m_t) along paths omega (N, >= t, d) after the
        past actions, a list of t arrays (N, m_s)."""
        x = _stage_input_tape(self.problem, t, omega[:, :t], past)
        low, high = _action_box(self.problem.action_specs[t])
        return np.clip(self.action_nets[t].forward(x.value), low, high)


@dataclass
class TrainResult:
    action_nets: list
    value_nets: list
    policy: NeuralPolicy
    value_estimate: float
    candidate_sets: dict = None
    log: list = field(default_factory=list)
    lambdas: list = None


def _prepare(problem, kernels, config):
    if problem.terminal_tape is None:
        raise ValueError(
            "neural training needs problem.terminal_tape "
            "(a batched, tape-differentiable terminal objective)"
        )
    _check_net_inputs(problem)
    return config or TrainConfig(), kernels if kernels is not None else problem.kernels


class _SampledSetMin:
    """Algorithm 1's inner problem: the minimum over a stage's fixed
    candidate measures of the Monte Carlo mean of the next value.  A
    singleton kernel has no candidates; its draws come per path from the
    reference (the non-robust special case).

    The objective runs psi once over all K candidate blocks, block-major:
    the paths and past actions repeated K times and the repeated action
    concatenated K times, so the feature step, the value net and its tape
    node run once per objective rather than once per candidate.  The result
    is that of one psi call per block, bit for bit: the value net is
    frozen, so each of its rows is computed as in any other call."""

    def __init__(self, problem, kernels, config, rng):
        d = problem.local_space.dimension
        self.kernels = kernels
        self.candidate_sets = {
            t: _stage_candidates(kernels[t], t, d, config, rng)
            for t in range(problem.horizon)
        }

    def parameters(self, t):
        return []

    def log_lambda(self, t):
        return ""

    def draw(self, t, omega_b, n_mc, rng, final=False):
        """One (b, n_mc, d) block of next states per candidate."""
        cands = self.candidate_sets[t]
        if cands is None:
            return [_reference_states(self.kernels[t], omega_b, n_mc, rng)]
        return [_draw_states(m, omega_b.shape[0], n_mc, rng) for m in cands]

    def objective(self, t, psi, a, omega_b, past, blocks, own):
        """Var (b,): per path, the least candidate mean of psi."""
        k, (b, n_mc) = len(blocks), blocks[0].shape[:2]
        a_rep = ad.concat([ad.repeat_rows(a, n_mc)] * k, axis=0)
        values = psi(np.concatenate([omega_b] * k), [np.concatenate([p] * k) for p in past],
                     a_rep, np.concatenate(blocks))
        return ad.vmin(ad.reshape(ad.vmean(values, axis=1), (k, b)), axis=0)


class _WassersteinDual:
    """Algorithm 2's inner problem: the dual of the minimum over a
    Wasserstein ball (Gao & Kleywegt, arXiv:1604.02199),

        mean_i min_j { psi(z_j) + lambda ||x_i - z_j||^q } - lambda eps^q,

    on reference draws x_i and a z grid, with one lambda = exp(raw) per
    stage trained jointly with the action net.  The inner minimum is
    ambiguity.dual_inner_min, which dual_inner_value also calls."""

    def __init__(self, problem, kernels, config):
        for k in kernels:
            if not isinstance(k, WassersteinBall):
                raise ValueError("dual training needs Wasserstein-ball kernels")
        self.kernels = kernels
        self.space = problem.local_space
        self.n_z = config.dual_grid
        self.raw = [np.array([0.0]) for _ in kernels]

    def parameters(self, t):
        return [self.raw[t]]

    def log_lambda(self, t):
        return float(np.exp(self.raw[t][0]))

    def draw(self, t, omega_b, n_mc, rng, final=False):
        """Reference draws (b, n_mc, d), then a z grid drawn uniformly from
        the local space; the final estimate uses four times as many points,
        on the regular grid (at most 256) when d = 1."""
        states = _reference_states(self.kernels[t], omega_b, n_mc, rng)
        n_z = self.n_z * (4 if final else 1)
        if final and self.space.dimension == 1:
            return states, self.space.grid(min(256, n_z))
        bound = self.space.bound
        return states, rng.uniform(-bound, bound, size=(n_z, self.space.dimension))

    def objective(self, t, psi, a, omega_b, past, draws, own):
        """Var (b,): the dual per path, at lambda = exp(own[0])."""
        states, z = draws
        b, n_z = omega_b.shape[0], z.shape[0]
        nxt = np.broadcast_to(z, (b,) + z.shape)
        psi_z = ad.reshape(psi(omega_b, past, ad.repeat_rows(a, n_z), nxt), (b, 1, n_z))
        kernel = self.kernels[t]
        lam = ad.exp(own[0])
        inner = dual_inner_min(psi_z, lam, states, z, kernel.order)  # (b, n_mc)
        eps = np.array([kernel.eps(w) for w in omega_b])
        return ad.vmean(inner, axis=1) - lam * ad.const(eps**kernel.order)


@contextmanager
def _diverged(t, phase):
    """Re-raises a NaN loss inside as training diverged at stage t's phase."""
    try:
        yield
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"training diverged at stage {t}, {phase} phase ({exc})") from None


def _train_backward(problem, kernels, config, rng, inner):
    """The backward recursion of both trainers, stage T-1 down to 0.

    Each stage ascends the batch mean of inner.objective in the action
    net's parameters and the inner problem's own, then regresses the value
    net on the same objective at the trained parameters.  The stage-0
    objective on eval_mc draws is the value estimate.  inner supplies its
    parameters(t), draw(t, omega_b, n_mc, rng, final), the per-path
    objective(t, psi, action, omega_b, past, draws, own parameter Vars)
    and log_lambda(t) for the log's lambda column.  Paths omega_b are
    (b, t, d) arrays and the past actions a list of (b, m_s) arrays from
    the draw to the net input, which _continuation assembles.
    """
    T, d = problem.horizon, problem.local_space.dimension
    action_nets = [None] * T
    value_nets = [None] * (T + 1)
    log = []

    def draw_batch(t):
        if config.path_sampling == "reference":
            omega_b = _sample_paths_reference(kernels, t, config.batch_size, rng, d)
        else:
            omega_b = _sample_paths(problem.local_space, t, config.batch_size, rng)
        past = _sample_past_actions(problem.action_specs[:t], config.batch_size, rng)
        draws = inner.draw(t, omega_b, config.n_mc, rng)
        return omega_b, past, _stage_input_tape(problem, t, omega_b, past).value, draws

    for t in range(T - 1, -1, -1):
        box = _action_box(problem.action_specs[t])
        scale = _input_scale(problem, t)
        in_dim = len(scale)
        net_a = Mlp(in_dim, len(box[0]), config.hidden_layers,
                    config.hidden_units, rng, out_box=box, in_scale=scale)
        _maybe_warm_start(net_a, action_nets[t + 1] if t + 1 < T else None, config)
        psi = _next_value(problem, t + 1, value_nets[t + 1])
        k = len(net_a.parameters())
        params = net_a.parameters() + inner.parameters(t)  # then the inner's own

        def objective(pvars, omega_b, past, x_t, draws):
            a = net_a.forward_var(x_t, pvars[:k])
            return inner.objective(t, psi, a, omega_b, past, draws, pvars[k:])

        adam = AdamState.init(params, lr=config.lr)
        with _diverged(t, "action"):
            for it in range(config.iter_a):
                adam.lr = _lr_at(config, it, config.iter_a)
                pvars = [ad.Var(p) for p in params]
                obj = ad.vmean(objective(pvars, *draw_batch(t)))
                adam_step(adam, params, _backprop(-obj, pvars))
                log.append((t, "action", it, float(obj.value), inner.log_lambda(t)))

        frozen = [ad.const(p) for p in params]
        net_psi = Mlp(in_dim, 1, config.hidden_layers, config.hidden_units, rng,
                      in_scale=scale)
        _maybe_warm_start(net_psi, value_nets[t + 1] if t + 1 < T else None, config)
        adam_psi = AdamState.init(net_psi.parameters(), lr=config.lr)
        with _diverged(t, "value"):
            for it in range(config.iter_psi if t > 0 else 0):
                adam_psi.lr = _lr_at(config, it, config.iter_psi)
                batch = draw_batch(t)
                target = ad.const(objective(frozen, *batch).value)
                held = []

                def mse(apply_fn):
                    pred = ad.reshape(apply_fn(batch[2]), (-1,))
                    held.append(ad.vmean((pred - target) ** 2))
                    return held[0]

                adam_step(adam_psi, net_psi.parameters(), grad(net_psi, mse))
                if it % 50 == 0:
                    log.append((t, "value", it, float(held[0].value), inner.log_lambda(t)))

        action_nets[t] = net_a
        value_nets[t] = net_psi

    # the loop ends at stage 0, whose objective at the empty path is the value
    omega0 = np.zeros((1, 0, d))
    draws0 = inner.draw(0, omega0, config.eval_mc, rng, final=True)
    x0 = _stage_input_tape(problem, 0, omega0, []).value
    value_estimate = float(objective(frozen, omega0, [], x0, draws0).value[0])
    with _diverged(0, "action"):  # no value phase follows to catch its escape
        if not math.isfinite(value_estimate):
            raise FloatingPointError(f"value estimate is {value_estimate}")
    return TrainResult(
        action_nets=action_nets,
        value_nets=value_nets,
        policy=NeuralPolicy(problem, action_nets),
        value_estimate=value_estimate,
        log=log,
    )


def train_algorithm1(problem, kernels=None, config=None, rng=None):
    """Backward minimax training over a fixed sampled measure set.

    Stage t = T-1..0: ascend min_k of the Monte Carlo mean of the next
    value network in the action network's parameters, then regress the
    stage value network on the achieved minimum.  Singleton kernels fall
    back to per-path reference sampling (the non-robust special case).
    """
    config, kernels = _prepare(problem, kernels, config)
    rng = rng or np.random.default_rng(config.seed)
    inner = _SampledSetMin(problem, kernels, config, rng)
    result = _train_backward(problem, kernels, config, rng, inner)
    result.candidate_sets = inner.candidate_sets
    return result


def train_algorithm2(problem, kernels=None, config=None, rng=None):
    """Wasserstein-dual minimax training.

    Same backward loop as the sampled-measure variant, but the inner
    minimum over the ball is the dual objective evaluated on reference
    draws and a z grid resampled every iteration from the local space,
    with one positive lambda per stage trained through exp().
    """
    config, kernels = _prepare(problem, kernels, config)
    inner = _WassersteinDual(problem, kernels, config)
    rng = rng or np.random.default_rng(config.seed)
    result = _train_backward(problem, kernels, config, rng, inner)
    result.lambdas = [inner.log_lambda(t) for t in range(problem.horizon)]
    return result


def mc_policy_values(problem, policy, candidate_sets, n_paths, rng):
    """Monte Carlo values of a policy under each stagewise-constant
    candidate assignment, with common random numbers.

    candidate_sets[t] is the fixed measure list of stage t (element 0 the
    reference).  Returns the per-candidate values; their minimum is the
    in-model robust value on the shared sets, and entry 0 the reference
    value.  Using one uniform draw per (path, stage) for every candidate
    makes the set-inclusion inequality exact at sample level.
    """
    T, d = problem.horizon, problem.local_space.dimension
    n_cands = min(len(candidate_sets[t]) for t in range(T))
    u = rng.uniform(size=(n_paths, T))
    values = []
    for k in range(n_cands):
        omega = np.empty((n_paths, T, d))
        for t in range(T):
            m = candidate_sets[t][k]
            omega[:, t] = m.support[_choice_indices(m.weights, u[:, t])]
        vals = problem.terminal(omega, rollout(policy, omega))
        values.append(float(vals.mean()))
    return values


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def net_to_text(net):
    """Plain-text dump: sizes header, optional box, row-major parameters."""
    buf = io.StringIO()
    buf.write("robustdp-mlp v1\n")
    buf.write("sizes " + " ".join(map(str, net.sizes)) + "\n")
    if net.out_low is not None:
        buf.write("box_low " + " ".join(f"{v:.17g}" for v in net.out_low) + "\n")
        buf.write("box_high " + " ".join(f"{v:.17g}" for v in net.out_high) + "\n")
    else:
        buf.write("box none\n")
    if net.in_scale is not None:
        buf.write("in_scale " + " ".join(f"{v:.17g}" for v in net.in_scale) + "\n")
    else:
        buf.write("in_scale none\n")
    for arr in net.parameters():
        buf.write(" ".join(f"{v:.17g}" for v in np.ravel(arr)) + "\n")
    return buf.getvalue()


def _dump_floats(fields, n, what):
    try:
        vals = np.array([float(v) for v in fields])
    except ValueError:
        raise ValueError(f"network dump: {what} is not numeric") from None
    if vals.size != n:
        raise ValueError(f"network dump: {what} has {vals.size} values, expected {n}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"network dump: {what} has a non-finite value")
    return vals


def net_from_text(text):
    """Inverse of net_to_text; a malformed dump raises ValueError.

    A zero-input net writes an empty in_scale line (and an empty first
    weight row), which reads back as a zero-length scale."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "robustdp-mlp v1":
        raise ValueError("unrecognized network dump header")

    def fields(i, what):
        if i >= len(lines):
            raise ValueError(f"network dump truncated: missing {what}")
        return lines[i].split()

    head = fields(1, "sizes")
    try:
        sizes = [int(v) for v in head[1:]]
    except ValueError:
        sizes = []
    if head[:1] != ["sizes"] or len(sizes) < 2 or min(sizes) < 0 or sizes[-1] < 1:
        raise ValueError(f"network dump: bad sizes line {lines[1]!r}")
    i = 2
    out_box = None
    line = fields(i, "box")
    if line[:1] == ["box_low"]:
        low = _dump_floats(line[1:], sizes[-1], "box_low")
        line = fields(i + 1, "box_high")
        if line[:1] != ["box_high"]:
            raise ValueError("network dump: box_low without box_high")
        out_box = (low, _dump_floats(line[1:], sizes[-1], "box_high"))
        i += 2
    elif line == ["box", "none"]:
        i += 1
    else:
        raise ValueError(f"network dump: bad box line {lines[i]!r}")
    in_scale = None
    line = fields(i, "in_scale")
    if line[:1] == ["in_scale"]:
        if line[1:] != ["none"]:
            in_scale = _dump_floats(line[1:], sizes[0], "in_scale")
        i += 1
    params = []
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = _dump_floats(fields(i, f"layer {k} weights"), fan_in * fan_out,
                         f"layer {k} weights")
        b = _dump_floats(fields(i + 1, f"layer {k} biases"), fan_out,
                         f"layer {k} biases")
        params.extend([w.reshape(fan_in, fan_out), b])
        i += 2
    if i != len(lines):
        raise ValueError(f"network dump: {len(lines) - i} unexpected trailing lines")
    # built only once the rows have matched sizes, so a corrupt sizes line
    # cannot make the constructor allocate a huge random init
    net = Mlp(sizes[0], sizes[-1], hidden_layers=len(sizes) - 2,
              hidden_units=sizes[1] if len(sizes) > 2 else 1, out_box=out_box,
              in_scale=in_scale)
    net.sizes = sizes
    net.weights = params[0::2]
    net.biases = params[1::2]
    return net


def log_to_csv(log):
    """Training log rows as CSV text (stage, phase, iteration, objective, lambda)."""
    lines = ["stage,phase,iteration,objective,lambda"]
    for stage, phase, it, obj, lam in log:
        lines.append(f"{stage},{phase},{it},{obj:.17g},{lam}")
    return "\n".join(lines) + "\n"
