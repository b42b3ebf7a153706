"""Phase III: knowledge persistence behind the backend protocol.

The repositories depend on :class:`PersistenceBackend`; the built-in
implementation is the synchronous SQLite :class:`KnowledgeDatabase`
(local file or ``sqlite://`` URL).
"""

from repro.core.persistence.backend import PersistenceBackend
from repro.core.persistence.database import KnowledgeDatabase, resolve_database_target
from repro.core.persistence.io500_repo import IO500Repository
from repro.core.persistence.queries import KnowledgeQueries, SummaryRow
from repro.core.persistence.repository import KnowledgeRepository
from repro.core.persistence.scan import (
    PercentileSketch,
    ScanQuery,
    ScanResult,
    ScanRow,
    fold_scan,
)
from repro.core.persistence.schema import SCHEMA_VERSION, TABLES, create_schema
from repro.core.persistence.transfer import (
    export_csv,
    export_json,
    import_json,
    io500_from_dict,
    io500_to_dict,
    knowledge_from_dict,
    knowledge_to_dict,
)

__all__ = [
    "PersistenceBackend",
    "KnowledgeDatabase",
    "resolve_database_target",
    "KnowledgeRepository",
    "IO500Repository",
    "KnowledgeQueries",
    "SummaryRow",
    "ScanQuery",
    "ScanResult",
    "ScanRow",
    "PercentileSketch",
    "fold_scan",
    "create_schema",
    "SCHEMA_VERSION",
    "TABLES",
    "export_csv",
    "export_json",
    "import_json",
    "knowledge_to_dict",
    "knowledge_from_dict",
    "io500_to_dict",
    "io500_from_dict",
]
