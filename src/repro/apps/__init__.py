"""Applications: the Smart Kiosk color tracker and friends.

* :mod:`repro.apps.video` — synthetic video source (the camera we don't
  have): seeded moving colored targets over a textured background.
* :mod:`repro.apps.colormodel` — Swain–Ballard color indexing: quantized
  color histograms, histogram intersection and back-projection.
* :mod:`repro.apps.tracker` — the Figure 2 color tracker: real NumPy
  kernels for all five tasks, the calibrated task graph, and kernel
  calibration utilities.
* :mod:`repro.apps.kiosk` — the kiosk environment: customer
  arrivals/departures driving the application state over time.
* :mod:`repro.apps.surveillance` — a second application (multi-camera
  surveillance) showing the framework generalizes beyond the tracker.
"""
