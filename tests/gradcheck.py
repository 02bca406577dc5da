"""Finite-difference gradient check of the score model's hand-written
backward passes (a helper of the tests, not collected by pytest)."""


def finite_diff_check(model, x, sigma, target, cond=None, adapter=None, eps=1e-3):
    """Max relative error of reverse-mode gradients of the scalar loss
    0.5*||S - target||^2 against central finite differences. The model
    must be built with f64 parameters."""
    params = model.named_params()
    if adapter is not None:
        params.update(adapter.named_params())

    def scalar_loss():
        s = model.forward(x, sigma, cond=cond, adapter=adapter)
        return 0.5 * float(((s - target) ** 2).sum())

    for p in params.values():
        p.grad[...] = 0.0
    s = model.forward(x, sigma, cond=cond, adapter=adapter)
    model.backward(s - target)

    worst = 0.0
    for p in params.values():
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = scalar_loss()
            flat[j] = orig - eps
            down = scalar_loss()
            flat[j] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, abs(fd - gflat[j]) / denom)
    return worst
