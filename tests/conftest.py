from hypothesis import settings

# one profile for every property test: the same examples on every run, and
# no per-example deadline (a first call can pay for numpy's warm-up)
settings.register_profile("qmemchan", derandomize=True, deadline=None)
settings.load_profile("qmemchan")
