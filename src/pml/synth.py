"""Synthetic crowd scenes and a small differentiable density regressor.

``SceneConfig`` (the scene distribution) and ``BenchmarkConfig`` (the training
set-up) own the benchmark's defaults; ``metrics`` imports them from here.

Scenes are clustered point processes: cluster centers uniform in the scene,
per-cluster point counts uniform in a range, points Gaussian around their
center (resampled until inside the scene). The observation is the sum of an
isotropic Gaussian blob per point, evaluated on the observation grid with
peak value 1, plus i.i.d. Gaussian pixel noise. All draws come from one
splitmix64 stream keyed by the scene seed, so identical configs produce
bit-identical scenes.

The regressor is two 3x3 convolution stages (zero padding, same size) with a
tanh in between and a softplus output, so predictions are positive
everywhere. It has no level of its own: it runs on any square grid, and a
map's level is read from its side. Parameters live in one flat float64
vector; both kernels are (C, 9) views of it, column k the 3x3 offset
(k // 3, k % 3). Forward/backward are written directly against numpy: the
first stage, the hidden gradient and both weight gradients are plain matmuls
with the 9-row patch matrix of a single-channel (B, H, W) stack, and the C->1
second stage is one (9, C) matmul plus nine contiguous slice adds, with no
C*9-row patch matrix. ``train`` runs Adam with global gradient-norm clipping
on the arrays it is handed: one step per stacked (observations, ground truths)
batch, validated on an (observations, true counts) pair; ``metrics`` builds
the benchmark's.

Every large array of a step (padded stacks, patch matrices, the hidden
activations and their gradient) lives in a ``Workspace`` and is written with
``out=``; the backward's patch matrix and scratch reuse the memory of the
forward's offset responses. Every forward runs in its caller's workspace. A
forward's cache holds views of its workspace and stays valid only until the
next forward through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import loss as loss_mod
from .pyramid import DensityMap, PointAnnotations, rasterize
from .rng import SplitMix64

# Scenes per scoring forward. It is the default training batch, so a validation pass
# reuses the training step's buffer set, and at 2 each buffer fits a 2 MB L2 cache.
SCORING_BATCH = 2

LOSS_KINDS = ("pml", "pml_noreg", "l2")


@dataclass(frozen=True)
class SceneConfig:
    """One scene's generating parameters; the defaults are the benchmark's scenes."""

    seed: int
    scene_size: float = 1.0
    num_clusters: int = 5
    points_per_cluster: tuple[int, int] = (4, 24)
    cluster_spread: float = 0.07
    blob_sigma: float = 0.035
    noise_std: float = 0.05
    obs_level: int = 6

    def __post_init__(self):
        for name in ("scene_size", "cluster_spread", "blob_sigma"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.num_clusters < 0:
            raise ValueError(f"num_clusters must be >= 0, got {self.num_clusters}")
        lo, hi = self.points_per_cluster
        if not 0 <= lo <= hi:
            raise ValueError(f"invalid points_per_cluster range {self.points_per_cluster}")
        if self.obs_level < 0:
            raise ValueError(f"obs_level must be >= 0, got {self.obs_level}")


@dataclass(frozen=True)
class BenchmarkConfig:
    """The benchmark's training set-up, each default and range rule stated only here.

    It sits beside ``SceneConfig``, whose defaults the scenes follow at the prediction level
    on its 64x64 grid. The model follows ``TinyModel.initialize``'s, and the loss guard is
    ``loss.DEFAULT_EPSILON``. Construction and ``dataclasses.replace`` reject a set-up that
    cannot train.
    """

    level: int = SceneConfig.obs_level
    channels: int = 6
    n: int = 4
    steps: int = 2000
    lr: float = 1e-3
    clip_norm: float = 10.0
    batch: int = 2
    scenes_per_epoch: int = 32
    val_count: int = 32
    test_count: int = 200
    val_every: int = 200

    def __post_init__(self):
        for name in ("level", "channels", "n", "steps", "batch", "scenes_per_epoch",
                     "val_count", "test_count", "val_every"):
            value = getattr(self, name)
            try:  # Python and numpy integers pass, as ints, so the manifest's JSON takes them
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        for name, low in (("steps", 1), ("channels", 1), ("batch", 1), ("scenes_per_epoch", 1),
                          ("test_count", 1), ("val_count", 0), ("val_every", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("lr", "clip_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        loss_mod._check_n(self.n, self.level)

    def scene_config(self, seed: int) -> SceneConfig:
        return SceneConfig(seed=seed, obs_level=self.level)

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.scenes_per_epoch // self.batch)

    @property
    def epochs(self) -> int:
        return -(-self.steps // self.steps_per_epoch)


@dataclass(frozen=True, eq=False)
class Scene:
    config: SceneConfig
    annotations: PointAnnotations
    observation: np.ndarray  # (2^obs_level, 2^obs_level), blurred points + noise; read-only
    gt_map: DensityMap


def generate_scene(cfg: SceneConfig) -> Scene:
    """Deterministically generate one scene from its config."""
    rng = SplitMix64(cfg.seed)
    size = cfg.scene_size
    centers = [(rng.uniform(0.0, size), rng.uniform(0.0, size)) for _ in range(cfg.num_clusters)]
    counts = [rng.randint(*cfg.points_per_cluster) for _ in range(cfg.num_clusters)]
    draw, spread = rng.gaussian_pair, cfg.cluster_spread
    flat: list[float] = []  # x0, y0, x1, y1, ...
    for (cx, cy), count in zip(centers, counts):
        for _ in range(count):
            while True:
                dx, dy = draw(spread)
                x, y = cx + dx, cy + dy
                if 0.0 <= x < size and 0.0 <= y < size:
                    flat += (x, y)
                    break
    ann = PointAnnotations(points=np.array(flat).reshape(-1, 2), scene_size=size)

    side = 1 << cfg.obs_level
    coords = (np.arange(side) + 0.5) * (size / side)
    inv = 1.0 / (2.0 * cfg.blob_sigma ** 2)
    if len(ann):
        # both separable Gaussians in one (2, P, side) buffer: row 0 along x, row 1 along y
        g = np.subtract(coords, ann.points.T[:, :, None])
        np.square(g, out=g)
        g *= -inv
        np.exp(g, out=g)
        obs = g[1].T @ g[0]  # row index is y
    else:
        obs = np.zeros((side, side))
    if cfg.noise_std > 0:
        obs += rng.gaussian_block(side * side, std=cfg.noise_std).reshape(side, side)
    obs.setflags(write=False)
    gt = rasterize(ann, cfg.obs_level)
    return Scene(config=cfg, annotations=ann, observation=obs, gt_map=gt)


class Workspace:
    """The large arrays of a forward and backward, one set per (batch, side, channels).

    ``train`` makes one and passes it to every forward and validation pass,
    so a step writes into the same memory each time instead of allocating
    (and page-faulting) fresh temporaries.
    """

    def __init__(self):
        self._sets: dict[tuple[int, int, int], _Buffers] = {}

    def buffers(self, batch: int, side: int, channels: int) -> "_Buffers":
        key = (batch, side, channels)
        if key not in self._sets:
            self._sets[key] = _Buffers(*key)
        return self._sets[key]


class _Buffers:
    """One shape's arrays. Padded ones keep their zero border; only interiors are written.

    Arrays whose lifetimes do not overlap share memory. Nothing reads the forward's
    offset responses ``y`` once the output is copied out of them, so the backward's
    patch matrix ``cols_dz2`` is a view at the head of their block, and once ``dz1`` is
    formed ``cols_dz2`` is spent and the ``1 - h*h`` scratch ``g`` is one there too.
    The block is sized for the largest of the three; ``g`` outgrows ``y`` above 9
    channels. Every view is C-contiguous, so each ufunc and matmul sees the shapes
    and strides it would see on arrays of its own.
    """

    def __init__(self, batch: int, side: int, channels: int):
        pixels, padded = batch * side * side, batch * (side + 2) ** 2
        self.xp = np.zeros((batch, side + 2, side + 2))  # observations, then dz2
        self.cols1 = np.empty((9, pixels))
        self.h = np.empty((channels, pixels))  # first-stage pre-activation, then h
        self.hp = np.zeros((channels, batch, side + 2, side + 2))
        block = np.empty(max(9 * padded, channels * pixels))
        self.y = block[:9 * padded].reshape(9, padded)  # offset responses; row 0 sums them
        self.cols_dz2 = block[:9 * pixels].reshape(9, pixels)
        self.dh = np.empty((channels, pixels))  # dh, then dz1
        self.g = block[:channels * pixels].reshape(channels, pixels)  # 1 - h*h


def _patches(x: np.ndarray, xp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Patch matrix of a (B, H, W) stack into ``out`` (9, B*H*W); returns ``out``.

    Row k holds the input shifted by the 3x3 offset (k // 3, k % 3) (zero
    padded), so a 3x3 cross-correlation is one matmul with a (C, 9) kernel.
    ``xp`` (B, H+2, W+2) is zero-bordered scratch.
    """
    _, h, w = x.shape
    xp[:, 1:-1, 1:-1] = x
    cols = out.reshape((9,) + x.shape)
    for k in range(9):
        du, dv = divmod(k, 3)
        cols[k] = xp[:, du:du + h, dv:dv + w]
    return out


def _conv3x3_single_output(x: np.ndarray, w: np.ndarray, xp: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """Bias-free cross-correlation of (C, B, H, W) with one (C, 9) kernel -> (B, H, W).

    ``xp`` (C, B, H+2, W+2) is zero-bordered scratch and ``y`` (9, B*(H+2)*(W+2))
    receives each 3x3 offset's response at every padded position. In the
    flat padded layout the offset (du, dv) is a shift by du*(W+2) + dv, so
    the nine responses add up as contiguous 1-D slices into row 0 of ``y``,
    whose (B, H+2, W+2) view then holds the output in its top-left corner.
    """
    c, batch, h, wd = x.shape
    xp[:, :, 1:-1, 1:-1] = x
    np.matmul(w.T, xp.reshape(c, -1), out=y)
    # the largest shift, 2*(W+2) + 2, takes the last output cell to the last padded one
    size = y.shape[1] - 2 * (wd + 2) - 2
    acc = y[0, :size]
    for k in range(1, 9):
        du, dv = divmod(k, 3)
        shift = du * (wd + 2) + dv
        acc += y[k, shift:shift + size]
    return y[0].reshape(batch, h + 2, wd + 2)[:, :h, :wd].copy()


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) as log1p(exp(-|z|)) + max(z, 0), in a fresh array.

    The exponent is never positive, so nothing overflows. It equals
    ``np.logaddexp(0, z)`` bit for bit where numpy's float64 ``exp`` and
    ``log1p`` are the C library's. Under its AVX-512 kernels it is within
    4.5e-16 relative, or one step where the output is subnormal (z < -708.4).
    """
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(eq=False)
class TinyModel:
    """Two-stage 3x3 conv regressor with positive (softplus) output, on any square grid."""

    OUTPUT_BIAS = -4.26
    INIT_SCALE = 0.25

    channels: int
    params: np.ndarray

    @classmethod
    def initialize(cls, channels: int, seed: int) -> "TinyModel":
        """Uniform fan-scaled weights, zero hidden bias, calibrated output bias.

        ``OUTPUT_BIAS`` sets the initial density scale: softplus(OUTPUT_BIAS)
        per cell. It puts the initial count on a 64x64 grid near the
        benchmark scenes' counts, so training starts roughly count-calibrated.
        ``INIT_SCALE`` shrinks the fan-scaled weight range to keep the initial
        output spread small around that calibration.
        """
        rng = SplitMix64(seed)
        a1 = cls.INIT_SCALE * math.sqrt(6.0 / (9 + 9 * channels))
        a2 = cls.INIT_SCALE * math.sqrt(6.0 / (9 * channels + 9))
        w1 = rng.uniform_block(9 * channels, -a1, a1)
        w2 = rng.uniform_block(9 * channels, -a2, a2)
        params = np.concatenate([w1, np.zeros(channels), w2, np.array([cls.OUTPUT_BIAS])])
        return cls(channels=channels, params=params)

    def _unpack(self):
        """Views of ``params``: w1 (C, 9), b1 (C,), w2 (C, 9) and the scalar b2."""
        c = self.channels
        p = self.params
        w1 = p[:9 * c].reshape(c, 9)
        b1 = p[9 * c:10 * c]
        w2 = p[10 * c:19 * c].reshape(c, 9)
        return w1, b1, w2, p[19 * c]

    def _forward_cache(self, observations: np.ndarray, work: Workspace):
        """Batched forward on any grid; observations (B, side, side) -> (preds, cache).

        Activations are kept channel-major (C, B, side, side). The first
        stage is ``w1 @ cols1`` on the patch matrix of the observations. The
        C->1 second stage needs no patch matrix: one (9, C) matmul on the
        zero padded hidden stack gives each 3x3 offset's response, and the
        nine shifted 1-D slices of it add up to the output.

        The large arrays live in ``work`` and are written with ``out=``, so
        the bits do not depend on it. The cache holds views of those arrays:
        it stays valid only until the next forward through the same
        workspace. ``preds`` is never reused.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 3 or obs.shape[1] != obs.shape[2]:
            raise ValueError(f"observation batch shape {obs.shape} is not (B, side, side)")
        buf = work.buffers(*obs.shape[:2], self.channels)
        w1, b1, w2, b2 = self._unpack()
        cols1 = _patches(obs, buf.xp, buf.cols1)
        h = np.matmul(w1, cols1, out=buf.h)
        h += b1[:, None]
        np.tanh(h, out=h)
        h = h.reshape((self.channels,) + obs.shape)
        z2 = _conv3x3_single_output(h, w2, buf.hp, buf.y)
        z2 += b2
        preds = _softplus(z2)
        return preds, (cols1, h, z2, buf)

    def forward(self, observation: np.ndarray) -> DensityMap:
        """One observation's density map, at the level its power-of-two side gives."""
        preds, _ = self._forward_cache(np.asarray(observation, dtype=np.float64)[None],
                                       Workspace())
        return DensityMap(loss_mod._level(preds[0]), preds[0])

    def _backward(self, cache, dpreds: np.ndarray) -> np.ndarray:
        """Parameter gradient, summed over the batch; dpreds (B, side, side).

        Writes none of the cache's arrays, so the cache stays valid for
        another backward; it overwrites the forward's offset responses, which
        the cache does not hold.
        """
        cols1, h, z2, buf = cache
        w2 = self._unpack()[2]
        h = h.reshape(self.channels, -1)
        dz2 = dpreds * _sigmoid(z2)
        # both second-stage gradients are matmuls with the patch matrix of
        # dz2: reversing the offset index flips a 3x3 kernel, so dh is the
        # flipped w2 times it, and column k of h @ cols_dz2.T holds the
        # weight gradient at offset 8-k
        cols_dz2 = _patches(dz2, buf.xp, buf.cols_dz2)
        dw2 = (h @ cols_dz2.T)[:, ::-1]
        dz1 = np.matmul(np.ascontiguousarray(w2[:, ::-1]), cols_dz2, out=buf.dh)
        g = np.multiply(h, h, out=buf.g)
        np.subtract(1.0, g, out=g)
        dz1 *= g
        dw1 = dz1 @ cols1.T
        return np.concatenate([dw1.ravel(), dz1.sum(axis=1), dw2.ravel(), [dz2.sum()]])


def clip_by_global_norm(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float, bool]:
    """Scale ``grad`` so its L2 norm does not exceed ``max_norm``."""
    norm = float(np.linalg.norm(grad))
    if max_norm > 0 and norm > max_norm:
        return grad * (max_norm / norm), norm, True
    return grad, norm, False


class Adam:
    """First/second-moment adaptive updates with bias correction; only ``lr`` varies."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1 ** self.t)
        v_hat = self.v / (1.0 - self.BETA2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite, with the step, its loss and its
    pml ``LossBreakdown`` (None for plain L2, which has no breakdown)."""

    def __init__(self, step: int, loss_value: float, breakdown: loss_mod.LossBreakdown | None):
        super().__init__(f"non-finite loss {loss_value} at step {step}")
        self.step = step
        self.loss_value = loss_value
        self.breakdown = breakdown


@dataclass(frozen=True)
class TraceRow:
    step: int
    loss: float
    grad_norm: float
    clipped: bool
    val_mae: float | None = None
    val_mse: float | None = None


@dataclass(frozen=True)
class TrainResult:
    model: TinyModel
    rows: tuple[TraceRow, ...]

    def trace_csv(self) -> str:
        def f(v):
            return "" if v is None else f"{v:.17g}"

        lines = ["step,loss,grad_norm,clipped,val_mae,val_mse"]
        for r in self.rows:
            lines.append(
                f"{r.step},{f(r.loss)},{f(r.grad_norm)},{int(r.clipped)},{f(r.val_mae)},{f(r.val_mse)}"
            )
        return "\n".join(lines) + "\n"


def predict_counts(model: TinyModel, observations: np.ndarray, work: Workspace) -> np.ndarray:
    """Predicted total count of each (side, side) observation of the stack,
    ``SCORING_BATCH`` per forward through ``work``."""
    counts = np.empty(len(observations))
    for start in range(0, len(observations), SCORING_BATCH):
        part = slice(start, start + SCORING_BATCH)
        preds, _ = model._forward_cache(observations[part], work)
        counts[part] = preds.sum(axis=(1, 2))
    return counts


def count_errors(est: np.ndarray, true: np.ndarray) -> tuple[float, float]:
    """(MAE, root-mean-square error) of estimated against true counts."""
    err = est - true
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def _counting_errors(model: TinyModel, observations: np.ndarray, counts: np.ndarray,
                     work: Workspace) -> tuple[float, float]:
    return count_errors(predict_counts(model, observations, work), counts)


def train(
    model: TinyModel,
    batches: Iterable[tuple[np.ndarray, np.ndarray]],
    cfg: BenchmarkConfig,
    *,
    loss_kind: str,
    val: tuple[np.ndarray, np.ndarray],
) -> TrainResult:
    """Run Adam on the ``loss_kind`` loss, one step per batch of ``batches``.

    ``loss_kind`` is one of ``LOSS_KINDS``: "pml" trains the pml total over
    levels 0..n plus the full-resolution L2 term, "pml_noreg" the same loss
    without that term, and "l2" that term alone. ``cfg``, valid by
    construction, gives ``steps``, ``lr``, ``clip_norm``, ``n`` and
    ``val_every``. ``batches`` yields each step's stacked
    ``(observations, ground truths)``, as ``metrics.train_batches`` does; no
    batch is drawn after the last step, and batches that end before it raise
    ``ValueError``. A batch's level is read from its shape, and the pml loss
    rejects an ``n`` above it. Counting MAE/MSE on ``val``, an (observations,
    true counts) pair, is evaluated every ``val_every`` steps and at the last
    step unless it is empty. One ``Workspace`` serves every forward, backward and
    validation pass of the call and is dropped when it returns. A step whose
    loss is not finite (a non-finite prediction always makes it so) raises
    ``TrainingDiverged`` with that step's pml breakdown (None for plain L2).
    The loss guard is ``loss.DEFAULT_EPSILON``. The pml core takes each step's
    ``(pred, gt)`` and returns the gradient; plain L2 forms its own residual.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")
    steps, val_every = cfg.steps, cfg.val_every
    val_obs, val_counts = val

    model = TinyModel(channels=model.channels, params=model.params.copy())
    opt = Adam(model.params.size, lr=cfg.lr)
    work = Workspace()
    rows: list[TraceRow] = []
    # the range comes first, so no batch is drawn after the last step
    for step, (obs, gt) in zip(range(1, steps + 1), batches):
        pred, cache = model._forward_cache(obs, work)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
            if loss_kind == "l2":
                d = pred - gt
                bd, loss_value = None, loss_mod._sq_norm(d)
                d *= 2.0 / len(d)
            else:
                bd, d = loss_mod._evaluate(pred, gt, cfg.n, loss_kind == "pml", want_gradient=True)
                loss_value = bd.total
        if not math.isfinite(loss_value):
            raise TrainingDiverged(step, loss_value, bd)

        grad = model._backward(cache, d)
        grad, norm, clipped = clip_by_global_norm(grad, cfg.clip_norm)
        model.params = opt.step(model.params, grad)

        val_mae = val_mse = None
        if len(val_counts) and (step % val_every == 0 or step == steps):
            val_mae, val_mse = _counting_errors(model, val_obs, val_counts, work)
        rows.append(TraceRow(step, loss_value, norm, clipped, val_mae, val_mse))
    if len(rows) < steps:
        raise ValueError(f"batches ran out after {len(rows)} of {steps} steps")
    return TrainResult(model=model, rows=tuple(rows))
