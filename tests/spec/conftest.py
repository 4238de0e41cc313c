"""The executable specification's ``soak`` profile: the CI leg runs
``pytest tests/spec --hypothesis-profile soak --hypothesis-seed N`` and
``kill_list.py`` runs every mutant at this size."""

from hypothesis import settings

settings.register_profile("soak", max_examples=480,
                          stateful_step_count=50, deadline=None)
