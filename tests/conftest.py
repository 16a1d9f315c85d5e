from hypothesis import settings

# Property tests are derandomized, so a Tier-1 run is reproducible, and
# bounded, so it stays short; a cheap test may ask for more examples.
settings.register_profile("tier1", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("tier1")
