"""Baselines: the monolithic SunOS 4.1.3 comparator of Table 3."""
