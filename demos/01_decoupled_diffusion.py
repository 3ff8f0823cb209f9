"""A walking tour of the decoupled diffusion process on box motion.

The forward process splits data-to-noise into an analytic attenuation
(data to zero) plus a Wiener term (zero to noise). Because the
attenuation is analytic, the reverse conditional works for any step
size, including a single step from t=1 whose variance is exactly zero.
"""
import numpy as np

from ddmot.diffusion import (
    attenuation_constant,
    derive_noise,
    encode_windows,
    forward_diffuse,
    reverse_step,
    sample_k_steps,
    sample_one_step,
)

rng = np.random.default_rng(0)

print("1) forward process: M_t = (1 - t) * M_0 + sqrt(t) * z")
m0 = np.array([0.02, -0.01, 0.0, 0.005])  # one frame of box motion
z = rng.standard_normal(4)
for t in (0.001, 0.25, 0.5, 1.0):
    noisy, parts = forward_diffuse(m0, t, z)
    print(f"   t={t:5.3f}  M_t={np.round(noisy.values, 4)}  "
          f"data_term={np.round(parts.data_term, 4)}  noise_term={np.round(parts.noise_term, 4)}")
print("   at t=1 the data term is exactly zero; only the noise remains\n")

print("2) the attenuation constant is just the negated clean motion:")
print(f"   c = {attenuation_constant(m0)}\n")

print("3) the noise can be recovered algebraically from (M_t, c):")
noisy, _ = forward_diffuse(m0, 0.63, z)
z_back = derive_noise(noisy, attenuation_constant(m0))
print(f"   max |z_recovered - z| = {np.abs(z_back - z).max():.2e}\n")

print("4) a single reverse step with the true c and z lands on M_0 exactly")
print("   (the variance coefficient dt*(t-dt)/t vanishes when dt = t):")
out = reverse_step(noisy, 0.63, attenuation_constant(m0), z=z, noise=rng.standard_normal(4))
print(f"   max |M_recovered - M_0| = {np.abs(out.values - m0).max():.2e}\n")


class PerfectNet:
    """Stand-in for a trained network that always nails the attenuation."""

    history_length = 5

    def embed_condition(self, windows):
        return windows

    def bind_condition(self, windows):
        return windows

    def predict_values(self, noisy, t, windows):
        return np.broadcast_to(-m0, noisy.shape).copy(), None


print("5) sampling: draw M_1 ~ N(0, I), predict c, undo the diffusion.")
windows = np.zeros((1, 5, 8))  # a batch of one track; conditioning is the model's business
emb = encode_windows(windows, PerfectNet())  # encoded once, read at every step
one = sample_one_step(emb, PerfectNet(), np.random.default_rng(1))
print(f"   one-step sample      = {one[0]}  (target {m0})")
for k in (10, 20):
    out = sample_k_steps(k, emb, PerfectNet(), np.random.default_rng(1), deterministic=True)
    print(f"   {k:2d}-step deterministic = {out[0]}")
print("   with a perfect network every schedule reaches the same answer;")
print("   a learned network gets one cheap shot at it per frame.")
