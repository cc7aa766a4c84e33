"""Coordinated emergency frequency control for hybrid AC/DC grids.

Modules:
    gridsim     nonlinear ground-truth frequency simulator
    koopman     lifted-linear model identification and prediction
    controller  activation, one-shot shedding, DC-side LQR coordination
    robustness  switched-mode selection check under model error
    bench       desk-scale experiment harness
    cli         command-line entry point
"""

__version__ = "0.1.0"
