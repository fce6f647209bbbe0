"""Dense float64 tensors with reverse-mode automatic differentiation.

A tensor is float64 unless it is made in another dtype: only the trunk's
weights and gains are, when the run's `trunk_dtype` says so, and the token
states between the trunk's blocks, which the block op
(`backbone.transformer_block`) emits in that dtype. The ops that read the
last state (the head's `linear`, the prefix slice) form float64 outputs
from it, numpy widening its values exactly.

Operations executed inside an active Tape are recorded in execution order;
Tape.backward walks the record list once, in reverse, and leaves grads on
leaf tensors only: a tensor used twice receives the sum of both
contributions, and an op output's grad is dropped once its pull has run.
Every pull skips the grads of frozen weights. The elementwise ops and
matmul also skip those of constant inputs, which the model feeds them (the
embedder's input, targets, norm stats). The fused ops (attention here,
`backbone.transformer_block`, `dlora.router_probs`) always form the grads
of their state inputs: the learning embedder makes those require grad in
every training step, and Tape.backward drops a grad an input does not
require. The ops here and those two are exactly the ones the model
records, no more; ops defined elsewhere record through `emit`, ask
`recording`, and run attention on arrays with `attend`, `attend_context`
and `attend_grads`.
matmul takes a 2-D weight and folds the leading axes of its left operand
into rows, so it runs as one GEMM, forward and backward; linear is matmul
plus an addend (a bias, or the alignment's residual) as one record.
Outside a tape every op is forward-only, which is what inference wants.

A Tape and the tensors recorded on it belong to one thread. Independent
model instances may run on separate threads, each with its own tape.
"""

from __future__ import annotations

import threading

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class _Local(threading.local):
    tape = None  # the thread's active Tape; the class default serves threads that set none


_LOCAL = _Local()


class Tape:
    """Ordered record of operations, replayed in reverse by backward()."""

    def __init__(self):
        self._records = []
        self._outer = None

    def __enter__(self):
        self._outer = _LOCAL.tape
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _LOCAL.tape = self._outer
        return False

    def record(self, out, inputs, pull):
        self._records.append((out, inputs, pull))

    def backward(self, loss: "Tensor") -> None:
        """Populate .grad on every leaf tensor that requires it and reaches the loss.

        The loss must be a single-element tensor produced under this tape.
        Records whose output got no grad are off the loss path and skipped,
        so a leaf reached only off the path keeps grad None. Pulls return
        None for inputs that need no grad. An op output's grad is dropped
        once its pull has run; leaves keep theirs. A leaf whose grad is
        already set accumulates every contribution in place; on a zeroed
        grad, 0.0 + g has the bits of g, except that a -0.0 turns +0.0. A
        None grad's first contribution is stored as is, since nothing else
        holds it, unless it is read-only or shares memory with another array
        the same pull handed over (add gives one array to both inputs); then
        it is copied. No two grads share memory, so later contributions add
        in place. numpy adds a float64 contribution to a float32 grad in
        float64 and rounds the sum once, so a float32 state's grad from the
        block above plus the float64 one from its router holds the bits the
        block below would round their float64 sum to.

        A pull may hand back a `Part`, the grad of a slice or of some rows
        of its input, instead of an input-sized grad that is zero elsewhere:
        the tape adds it into that part of the input's grad, and gives a
        None grad zeros of the input's shape and dtype first.

        A tape runs backward once: each record is dropped as its turn comes,
        so what its pull kept is freed once its grads exist, and the tape is
        empty when backward returns.
        """
        if loss.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar loss, got shape {loss.data.shape}"
            )
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            out, inputs, pull = records.pop()
            g = out.grad
            if g is None:
                continue
            out.grad = None
            kept = []  # arrays this pull handed over without a copy
            for t, gt in zip(inputs, pull(g)):
                if gt is None or not t.requires_grad:
                    continue
                if isinstance(gt, Part):
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    gt.add_into(t.grad)
                elif t.grad is not None:
                    t.grad += gt
                elif (isinstance(gt, np.ndarray) and gt.flags.writeable
                      and not any(np.may_share_memory(gt, k) for k in kept)):
                    t.grad = gt
                    kept.append(gt)
                else:
                    t.grad = np.array(gt, order="C")


class Part:
    """The grad of part of an op's input, as a pull hands it back to `Tape.backward`.

    `key` is a tuple of slices or an int64 array of row ids (a repeated id
    adds each of its rows), and `grad` has the shape of the input indexed
    by it.
    """

    __slots__ = ("key", "grad")

    def __init__(self, key, grad):
        self.key, self.grad = key, grad

    def add_into(self, acc: np.ndarray) -> None:
        """acc[key] += grad, in place."""
        if isinstance(self.key, np.ndarray):
            np.add.at(acc, self.key, self.grad)
        else:
            acc[self.key] += self.grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        self.data = np.ascontiguousarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __getitem__(self, key):
        return slice_(self, key)


def parameter(data, dtype=np.float64) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def recording() -> bool:
    """Whether this thread has an active tape, so an op must keep what its pull reads."""
    return _LOCAL.tape is not None


def emit(data, inputs, pull, dtype=np.float64) -> Tensor:
    """Create the output tensor, recording the op if a tape is active; pull names the op.

    The output is in `dtype`, float64 unless the op names another (the
    block op names the trunk dtype): data in another dtype is converted here.
    """
    req = False
    for t in inputs:
        if t.requires_grad:
            req = True
            break
    out = Tensor(data, requires_grad=req, dtype=dtype)
    if req:
        tape = _LOCAL.tape
        if tape is not None:
            tape.record(out, inputs, pull)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ------------------------------------------------------------- elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from e

    def pull(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return emit(data, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as e:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from e

    def pull(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return emit(data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from e
    ad, bd = a.data, b.data

    def pull(g):
        return (_unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, b.shape) if b.requires_grad else None)

    return emit(data, (a, b), pull)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError as e:
        raise ShapeError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from e
    ad, bd = a.data, b.data

    def pull(g):
        return (_unbroadcast(g / bd, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None)

    return emit(data, (a, b), pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g):
        return (g * c,)

    return emit(a.data * c, (a,), pull)


def silu(a: Tensor) -> Tensor:
    x = a.data
    flat = x.reshape(-1)
    data = kernels.silu(flat).reshape(x.shape)

    def pull(g):
        gflat = np.ascontiguousarray(g).reshape(-1)
        return (kernels.silu_grad(flat, gflat, kernels.sigmoid(flat)).reshape(x.shape),)

    return emit(data, (a,), pull)


def square(a: Tensor) -> Tensor:
    x = a.data

    def pull(g):
        return (g * (2.0 * x),)

    return emit(x * x, (a,), pull)


def absolute(a: Tensor) -> Tensor:
    x = a.data

    def pull(g):
        return (g * np.sign(x),)

    return emit(np.abs(x), (a,), pull)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); subgradient 0 where the clamp is active."""
    x = a.data
    floor = float(floor)

    def pull(g):
        return (g * (x > floor),)

    return emit(np.maximum(x, floor), (a,), pull)


# -------------------------------------------------------------- reductions


def total(a: Tensor) -> Tensor:
    """Sum over all elements."""
    x = a.data

    def pull(g):
        return (np.broadcast_to(g, x.shape),)

    return emit(x.sum(), (a,), pull)


def mean(a: Tensor, axis=None) -> Tensor:
    """Mean over all elements or along one axis."""
    x = a.data
    count = x.size if axis is None else x.shape[axis]
    data = x.mean(axis=axis)

    def pull(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge / count, x.shape),)

    return emit(data, (a,), pull)


# ------------------------------------------------------------------ linear


def _product(op: str, ad: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The (.., p) product of a (.., k) operand and a 2-D (k, p) weight, as one GEMM."""
    if ad.ndim < 2 or wd.ndim != 2:
        raise ShapeError(f"{op}: needs a (.., k) operand and a 2-D weight,"
                         f" got {ad.shape} @ {wd.shape}")
    if ad.shape[-1] != wd.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {ad.shape} @ {wd.shape}")
    k, p = wd.shape
    return (ad.reshape(-1, k) @ wd).reshape(ad.shape[:-1] + (p,))


def _product_grads(g, a: Tensor, w: Tensor, ad: np.ndarray, wd: np.ndarray):
    """Grads of `_product`'s operand and weight, each None unless it requires grad."""
    k, p = wd.shape
    g2 = g.reshape(-1, p)
    return ((g2 @ wd.T).reshape(ad.shape) if a.requires_grad else None,
            ad.reshape(-1, k).T @ g2 if w.requires_grad else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of a (.., k) operand and a 2-D (k, p) weight shared by every row.

    The leading axes of a fold into rows, so the product and both grads are
    single 2-D GEMMs.
    """
    ad, bd = a.data, b.data
    data = _product("matmul", ad, bd)

    def pull(g):
        return _product_grads(g, a, b, ad, bd)

    return emit(data, (a, b), pull)


def linear(a: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """a @ w + b as one op: matmul's product plus b, a (p,) bias or an addend
    that broadcasts to the product's shape.

    b is added into the product's buffer, which becomes the output, so no
    record keeps a product that only an add reads. Values and grads are the
    bits of the matmul and add records this replaces: the sum is the same
    either way round, and b's grad is the add's unbroadcast one.
    """
    ad, wd = a.data, w.data
    data = _product("linear", ad, wd)
    try:
        data += b.data
    except ValueError as e:
        raise ShapeError(f"linear: addend {b.shape} does not fit the product {data.shape}") from e

    def pull(g):
        return (*_product_grads(g, a, w, ad, wd),
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return emit(data, (a, w, b), pull)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows of a 2D tensor by integer index; repeats accumulate grads."""
    ids = np.asarray(ids, dtype=np.int64)
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expected 2D table, got {a.shape}")
    rows = a.data[ids]

    def pull(g):
        return (Part(ids, g),)

    return emit(rows, (a,), pull)


# ----------------------------------------------------------- restructuring


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from e
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def pull(g):
        pieces = []
        for i in range(len(sizes)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return emit(data, tuple(tensors), pull)


def slice_(a: Tensor, key) -> Tensor:
    """Basic slicing only. The result is a copy; its grad goes back as a `Part`."""
    if not isinstance(key, tuple):
        key = (key,)
    for k in key:
        if not isinstance(k, slice):
            raise ShapeError("slice: only slice objects are supported (no ints/arrays)")
    if len(key) > a.ndim:
        raise ShapeError(f"slice: too many axes for shape {a.shape}")
    data = a.data[key]

    def pull(g):
        # rounded to the input's dtype, so a float32 input's grad sums float32 values
        return (Part(key, g.astype(a.data.dtype, copy=False)),)

    return emit(data, (a,), pull)


# -------------------------------------------------------------- attention


def attend(qd, kd, vd, heads, keep):
    """Multi-head attention over arrays; head h owns columns [h*dh, (h+1)*dh).

    Returns the context, shaped like qd, and what `attend_grads` needs, or
    None when `keep` is unset: the head-major operands and the probabilities
    are then dropped as soon as their product is formed. What is kept holds
    the probabilities and values, so `attend_context` can form the context
    again with the same bits.
    """
    shape, d = qd.shape, qd.shape[-1]
    dh = d // heads
    # keys shared by every query: fold the batch into the query rows so each
    # head's key and value grads stay one product over all rows
    if kd.ndim == 2:
        qd = qd.reshape(-1, d)
    q4, k4, v4 = (x.reshape(x.shape[:-1] + (heads, dh)) for x in (qd, kd, vd))
    qp = np.ascontiguousarray(q4.swapaxes(-3, -2))  # (.., H, N, dh)
    kp = np.ascontiguousarray(k4.swapaxes(-3, -2).swapaxes(-2, -1))  # (.., H, dh, M)
    vp = np.ascontiguousarray(v4.swapaxes(-3, -2))  # (.., H, M, dh)
    c = float(1.0 / np.sqrt(dh))
    scores = qp @ kp  # (.., H, N, M)
    if not keep:
        del qp, kp
    scores *= c
    m = scores.shape[-1]
    probs = kernels.softmax_rows(scores.reshape(-1, m)).reshape(scores.shape)
    del scores
    ctx_t = _context(probs, vp)
    if not keep:
        del probs, vp
    return ctx_t.reshape(shape), ((qp, kp, vp, probs, c, ctx_t.shape) if keep else None)


def _context(probs, vp):
    """The (.., N, H, dh) context of head-major probabilities and values."""
    return np.ascontiguousarray((probs @ vp).swapaxes(-3, -2))


def attend_context(saved, shape):
    """The context `attend` returned, shaped `shape`, formed again from what it kept."""
    _, _, vp, probs, _, _ = saved
    return _context(probs, vp).reshape(shape)


def attend_grads(saved, g, k_shape, v_shape):
    """Grads of `attend`'s q, k and v from its output grad g."""
    qp, kp, vp, probs, c, ctx_t_shape = saved
    gctx = g.reshape(ctx_t_shape).swapaxes(-3, -2)
    gvp = _unbroadcast(probs.swapaxes(-1, -2) @ gctx, vp.shape)
    m = probs.shape[-1]
    gp = (gctx @ vp.swapaxes(-1, -2)).reshape(-1, m)
    gs = kernels.softmax_rows_grad(probs.reshape(-1, m), gp).reshape(probs.shape)
    gs *= c
    gqp = gs @ kp.swapaxes(-1, -2)
    gkp = _unbroadcast(qp.swapaxes(-1, -2) @ gs, kp.shape)
    return (gqp.swapaxes(-3, -2).reshape(g.shape),
            gkp.swapaxes(-2, -1).swapaxes(-3, -2).reshape(k_shape),  # (.., M, H, dh)
            gvp.swapaxes(-3, -2).reshape(v_shape))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one op; head h owns columns [h*dh, (h+1)*dh).

    q is (.., N, d) and k, v are (.., M, d) with broadcasting leading axes;
    the output has q's shape. All heads run as one batched scores product,
    one softmax and one batched context product; no position is masked.
    2-D k and v are shared by every query row, and the scores are then
    (H, rows of q, M). Forward and backward run the numpy expressions of the
    equivalent reshape, transpose, matmul, scale and softmax records
    (tests/oracles.py) in their order, so values and grads match those records bit for bit
    whenever q, k and v are distinct tensors. The pull always forms all
    three grads. Outside a tape the head-major operands are dropped as soon
    as their product is formed.
    """
    d = q.shape[-1]
    if d % heads != 0 or k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError(f"attention: {heads} heads over q {q.shape}, k {k.shape}, v {v.shape}")
    try:
        data, saved = attend(q.data, k.data, v.data, heads, recording())
    except ValueError as e:
        raise ShapeError(f"attention: leading axes of q {q.shape}, k {k.shape} and v {v.shape}"
                         " do not fit") from e

    def pull(g):
        return attend_grads(saved, g, k.shape, v.shape)

    return emit(data, (q, k, v), pull)
