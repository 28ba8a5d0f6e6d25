"""Virtual-time simulation substrate: clock, calibrated cost model and
the fault plane."""
