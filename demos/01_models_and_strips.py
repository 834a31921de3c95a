"""Tour of the model zoo: characteristic exponents, strips, martingale drifts.

Every model describes log-price increments through a characteristic exponent
psi with E[exp(i xi X_t)] = exp(-t psi(xi)).  The exponent extends to a
horizontal strip of the complex plane, and beyond it to the whole plane but
the cuts on the imaginary axis outside the strip.  The horizontal pricing
contours live inside the strip; the sinh-deformed ones of the one-condition
digitals cross the axis inside it.  Run with:  python3 demos/01_models_and_strips.py
"""
import numpy as np

from levyexotic import (
    GaussianModel,
    esscher_calibrate,
    make_cgmy,
    make_gaussian,
    make_nig,
)

models = {
    "gaussian(sigma=0.2)": make_gaussian(0.2, r=0.05),
    "nig(8, -2, 0.3)": make_nig(8.0, -2.0, 0.3, r=0.05),
    "cgmy(1, 5, 5, 0.5)": make_cgmy(1.0, 5.0, 5.0, 0.5, r=0.05),
}

print(f"{'model':<22} {'strip':<18} {'order':<6} {'mu':>10} {'|r+psi(-i)|':>12}")
for name, model in models.items():
    lo, hi = model.strip
    print(f"{name:<22} ({lo:>6.1f},{hi:>6.1f})  {model.order:<6.2g} "
          f"{model.mu:>10.5f} {model.emm_residual():>12.2e}")

# The exponent on the real line: real part grows like |xi|^order.
print("\nRe psi(xi) along the real line (the integrand decay engine):")
grid = np.array([1.0, 5.0, 25.0, 125.0])
for name, model in models.items():
    vals = np.real(model.psi(grid + 0j))
    pretty = "  ".join(f"{v:9.3f}" for v in vals)
    print(f"  {name:<22} {pretty}")

# Exponential tilting maps a statistical model to a risk-neutral one.
historic = GaussianModel(mu=0.12, r=0.0, sigma=0.25)
tilted = esscher_calibrate(historic, r=0.04)
print("\nExponential tilt of a Gaussian with drift 0.12 to the pricing measure:")
print(f"  tilted drift = {tilted.mu:.6f}  (expected r - sigma^2/2 = {0.04 - 0.5 * 0.25**2:.6f})")
print(f"  martingale residual = {tilted.emm_residual():.2e}")
