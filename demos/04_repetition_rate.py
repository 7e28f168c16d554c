#!/usr/bin/env python3
"""Walkthrough: the recharge time constant limits the repetition rate.

The discharge is nanoseconds, but after each pulse the crystal must crawl
back to the half-wave voltage through the recharge resistor (tau = R C).
This script tabulates the steady-state pre-pulse voltage fraction versus
repetition rate and locates the rate where it drops below 99%.
"""

import math

from sagnacsim import CrystalSpec, DriveCircuit, half_wave_voltage, recovery_fraction

crystal = CrystalSpec(20e-3, 1e-3, 632.8e-9, 2.20, 30.8e-12)
circuit = DriveCircuit(
    supply_voltage=half_wave_voltage(crystal),
    recharge_r=20e3,
    total_c=50e-12,
    mosfet_on_r=24.0,
    gate_rise_time=400e-12,
)
print(f"recharge time constant tau_r = {circuit.tau_recharge * 1e6:.2f} us")

hold = 1e-6
print("\nrate (kHz) | pre-pulse voltage / supply")
for rate in (50e3, 100e3, 150e3, 200e3, 250e3, 300e3, 500e3):
    frac = recovery_fraction(circuit, rate, hold)
    print(f"  {rate / 1e3:8.0f} | {frac:.6f}")

# 1 - exp(-(1 / rate - hold) / tau_r) = 0.99 solved for the rate
rate_99 = 1.0 / (hold + circuit.tau_recharge * math.log(100.0))
print(f"\nrecovery drops to 99% at {rate_99 / 1e3:.0f} kHz (hold = {hold * 1e6:.1f} us)")
print("running at 100 kHz keeps the full half-wave swing: "
      f"{recovery_fraction(circuit, 100e3, hold):.5f} of the supply")
