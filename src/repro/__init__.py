"""repro — reproduction of "A Metadata Catalog Service for Data Intensive
Applications" (Singh et al., SC 2003).

Subpackages
-----------

``repro.core``
    The Metadata Catalog Service itself: data model, schema, catalog
    operations, attribute-query translation, policy-enforcing service and
    the synchronous client API.
``repro.db``
    The embedded relational database engine backing the catalog.
``repro.soap``
    The SOAP-over-HTTP web service stack (and in-process transports).
``repro.security``
    Simulated GSI (CAs, proxies, signed request tokens), CAS capability
    assertions, and the MCS authorization model.
``repro.rls`` / ``repro.gridftp`` / ``repro.pegasus``
    The surrounding Grid data-management substrate: replica location,
    data transfer, and workflow planning.
``repro.esg`` / ``repro.ligo``
    The paper's two application integrations.
``repro.federation``
    The §9 future-work federated-catalog design.

Quickest start::

    from repro.core import MCSService, MCSClient, ObjectQuery

    client = MCSClient.in_process(MCSService(), caller="/O=Grid/CN=You")
    client.define_attribute("experiment", "string")
    client.create_logical_file("f1", attributes={"experiment": "pulsar"})
    client.query(ObjectQuery().where("experiment", "=", "pulsar"))
"""

__version__ = "1.1.0"

# Opt-in runtime lock-order sanitizer: instrument the engine's RWLock
# layer for the whole process when REPRO_SANITIZER is set (the
# `pytest -m sanitizer` lane and ad-hoc sanitized runs use this).
import os as _os

if _os.environ.get("REPRO_SANITIZER", "") in ("1", "true", "yes", "on"):
    from repro.analysis import sanitizer as _sanitizer

    _sanitizer.install()
__paper__ = (
    "Singh, Bharathi, Chervenak, Deelman, Kesselman, Manohar, Patil, "
    "Pearlman. A Metadata Catalog Service for Data Intensive Applications. "
    "SC'03, Phoenix, AZ, 2003."
)
