"""The public checking API: session facade, engines, scheduler, reporters.

This layer is the front door for running checking campaigns::

    from repro.api import CheckSession, ConsoleReporter

    session = CheckSession(todomvc_app(), jobs=4,
                           reporters=[ConsoleReporter()])
    result = session.check("specs/todomvc.strom", property="safety")

``CheckSession`` owns executor lifecycle, spec loading and result
aggregation; :class:`CampaignEngine` strategies decide *how* one
campaign's test loop runs (serially, or fanned out over workers with
identical verdicts); :meth:`CheckSession.check_many` fans *whole
campaigns* out across one persistent :class:`WorkerPool` (the paper's
43-implementation audit shape); :class:`Reporter` hooks observe
progress -- console, JSON Lines, JUnit XML for CI, or a live TTY
progress line.  The lower-level :class:`repro.checker.Runner` remains
available as the single-test engine underneath.
"""

from .config import SessionConfig
from .engines import AsyncEngine, CampaignEngine, ParallelEngine, SerialEngine
from .lease import ExecutorCache, ExecutorLease
from .pool import (
    PoolMetrics,
    PoolTask,
    TaskFailure,
    WorkerCrashed,
    WorkerPool,
    suggest_jobs,
)
from .reporters import (
    ConsoleReporter,
    JsonlReporter,
    JUnitXmlReporter,
    ProgressReporter,
    Reporter,
)
from .scheduler import (
    CampaignOutcome,
    CampaignSet,
    CampaignSetResult,
    CheckTarget,
    PooledScheduler,
)
from .session import AUTO_JOBS, CheckSession
from .transport import (
    ForkTransport,
    PoolTransport,
    TcpTransport,
    ThreadTransport,
)

__all__ = [
    "AUTO_JOBS",
    "CheckSession",
    "SessionConfig",
    "suggest_jobs",
    "AsyncEngine",
    "CampaignEngine",
    "SerialEngine",
    "ParallelEngine",
    "CampaignOutcome",
    "CampaignSet",
    "CampaignSetResult",
    "CheckTarget",
    "PooledScheduler",
    "ExecutorCache",
    "ExecutorLease",
    "PoolMetrics",
    "PoolTask",
    "PoolTransport",
    "ForkTransport",
    "ThreadTransport",
    "TcpTransport",
    "TaskFailure",
    "WorkerCrashed",
    "WorkerPool",
    "Reporter",
    "ConsoleReporter",
    "JsonlReporter",
    "JUnitXmlReporter",
    "ProgressReporter",
]
