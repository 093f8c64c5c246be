import numpy as np
import pytest

import fockspectra as fs


@pytest.fixture(scope="session")
def mnr():
    return fs.load_model("mnr-infinite")


@pytest.fixture(scope="session")
def s2e():
    return fs.load_model("sigma2-empty")


def make_decoupled(w1fn, w2fn, a=1.0, d=1, w0=0.0, v0fn=None):
    """Model with v1 identically zero (and v0 zero unless given)."""
    # constants: eval_x and eval_xy spread them over the points at any d
    return fs.ModelSpec(
        d=d, a=a, w0=w0,
        v0=v0fn if v0fn is not None else (lambda x: 0.0),
        w1=w1fn,
        v1=lambda x, y: 0.0,
        w2=w2fn,
    )


def random_trig_model(rng, with_vacuum=False):
    """Smooth random d=1 model: trigonometric polynomials, symmetric w2."""
    a = float(rng.uniform(0.8, 2.0))
    k = np.pi / a
    c1 = rng.uniform(-1.0, 1.0, 3)
    amp = float(rng.uniform(0.3, 1.5))
    c3 = rng.uniform(-0.8, 0.8, 3)
    base = float(rng.uniform(3.0, 5.0))
    c2a = float(rng.uniform(0.5, 1.0))
    c2b = float(rng.uniform(0.2, 0.6))

    def w1(x):
        return c1[0] + c1[1] * np.cos(k * x) + c1[2] * np.sin(k * x)

    def v1(x, y):
        return amp * (c3[0] * np.sin(k * x) * np.sin(k * y)
                      + c3[1] * np.cos(k * x) * np.cos(k * y)
                      + c3[2] * (np.sin(k * x) + np.sin(k * y)))

    def w2(x, y):
        return base + c2a * np.cos(k * x) * np.cos(k * y) + c2b * (np.cos(k * x) + np.cos(k * y))

    if with_vacuum:
        w0 = float(rng.uniform(-4.0, 4.0))
        d0 = rng.uniform(-1.0, 1.0, 2)

        def v0(x):
            return d0[0] * np.cos(k * x) + d0[1] * np.sin(k * x)
    else:
        w0 = 0.0
        v0 = lambda x: np.zeros_like(np.asarray(x, dtype=float))

    return fs.ModelSpec(d=1, a=a, w0=w0, v0=v0, w1=w1, v1=v1, w2=w2)


def complex_coupling_model():
    """A random trigonometric model whose coupling carries a nonsymmetric phase."""
    spec = random_trig_model(np.random.default_rng(41))
    return fs.ModelSpec(d=1, a=spec.a, w0=0.0, v0=spec.v0, w1=spec.w1, w2=spec.w2,
                        v1=lambda x, y: spec.v1(x, y) * np.exp(1j * (x - 2.0 * y)))


def pick_z_below(spec, grid, pair_grid, rng, guard=1e-8):
    """A z strictly below the essential spectrum with no eigenvalue of the
    three counting matrices within ``guard`` of its threshold."""
    ess = fs.essential_spectrum(spec, grid)
    spread = max(ess.M - ess.m, 1.0)
    z = ess.sess_min - float(rng.uniform(0.05, 0.8)) * spread

    A = fs.assemble_A(fs.assemble_blocks(spec, grid, pair_grid))
    evA = np.linalg.eigvalsh(A)
    for _ in range(60):
        try:
            T = fs.bs_operator(spec, grid, z)
        except ValueError:
            z -= 0.25 * spread
            continue
        S = fs.s_matrix(spec, grid, z)
        gaps = [np.min(np.abs(evA - z)),
                np.min(np.abs(np.linalg.eigvalsh(S))),
                np.min(np.abs(np.linalg.eigvalsh(T) - 1.0))]
        if min(gaps) > guard:
            return z, ess
        z -= float(rng.uniform(0.001, 0.01)) * spread
    raise AssertionError("could not find a threshold-clean z")


def simpson(fvals, h):
    """Composite Simpson weight sum; fvals on an odd number of uniform nodes."""
    n = fvals.shape[-1]
    assert n % 2 == 1
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * np.sum(w * fvals, axis=-1)


@pytest.fixture(scope="session")
def mnr_below0_counts(mnr):
    """Eigenvalue counts of the reduced matrix below 0 at N = 16, 32, 64."""
    counts = {}
    for n in (16, 32, 64):
        g = fs.make_grid(1, mnr.a, n)
        ev = fs.discrete_spectrum_below(mnr, g, sess_min=0.0)
        counts[n] = ev.size
    return counts
