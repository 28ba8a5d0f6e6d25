"""Virtual-time simulation substrate: clock, calibrated cost model,
discrete-event scheduler, and the fault plane."""
