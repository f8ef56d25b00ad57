from hypothesis import HealthCheck, settings

# exact arithmetic makes some single examples slow; wall-clock deadlines
# only add flakiness on shared CI boxes
settings.register_profile(
    "knotcert",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("knotcert")
