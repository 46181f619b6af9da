"""Tournament harness racing search strategies under equal budgets."""

from .tournament import (
    TOURNAMENT_FORMAT_VERSION,
    ArenaEntry,
    EntryOutcome,
    TournamentResult,
    run_tournament,
)

__all__ = [
    "TOURNAMENT_FORMAT_VERSION",
    "ArenaEntry",
    "EntryOutcome",
    "TournamentResult",
    "run_tournament",
]
