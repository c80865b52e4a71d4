from hypothesis import Phase, settings

settings.register_profile("ci", deadline=None, max_examples=100, derandomize=True)
# tests/mutants.py needs a test to fail, not its smallest failing example
settings.register_profile("mutants", settings.get_profile("ci"),
                          phases=(Phase.explicit, Phase.generate))
settings.load_profile("ci")
