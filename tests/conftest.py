from hypothesis import settings

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
