"""Route cost functions: plain shortest distance and the distance/bandwidth ratio."""

import enum


class Metric(enum.Enum):
    """Which cost function orders the search frontier."""

    DISTANCE = "distance"
    BANDWIDTH = "bandwidth"
