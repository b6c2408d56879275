"""The declared metric-name registry.

Every metric family the process may emit — through ``/metrics`` or the
SOAP ``stats`` call — must be declared here, under the ``mcs_`` prefix.
The declaration is what dashboards and alerts key on, so drift in
either direction is a bug:

* a call site minting a name that is **not** declared silently adds an
  unreviewed series to ``/metrics`` (lint rule ``MCS005`` catches it);
* a declared name **no** call site emits any more is a dashboard query
  that will never match again (``tests/analysis`` cross-checks the
  declared set against the scanned tree).

Keep the set sorted; add the declaration in the same commit as the call
site.
"""

from __future__ import annotations

#: Regex every emitted metric name must match.
METRIC_NAME_PATTERN = r"^mcs_[a-z][a-z0-9_]*$"

DECLARED_METRICS: frozenset[str] = frozenset(
    {
        # -- asyncio front end (repro.aserve) -----------------------------
        "mcs_aserve_connections_open",
        "mcs_aserve_connections_total",
        "mcs_aserve_inflight_requests",
        "mcs_aserve_parse_errors_total",
        "mcs_aserve_pipeline_depth",
        # -- cache (repro.cache) ------------------------------------------
        "mcs_cache_entry_invalidations_total",
        "mcs_cache_hit_ratio",
        "mcs_cache_invalidations_total",
        "mcs_cache_requests_total",
        # -- circuit breakers (repro.resilience.breaker) ------------------
        "mcs_breaker_rejections_total",
        "mcs_breaker_state",
        "mcs_breaker_transitions_total",
        # -- catalog / service (repro.core) -------------------------------
        "mcs_catalog_authz_seconds",
        "mcs_catalog_bulk_batch_size",
        "mcs_catalog_bulk_item_seconds",
        "mcs_catalog_bulk_items_total",
        "mcs_catalog_calls_total",
        "mcs_catalog_op_seconds",
        # -- database engine (repro.db) -----------------------------------
        "mcs_db_index_probes_total",
        "mcs_db_lock_timeouts_total",
        "mcs_db_lock_wait_seconds",
        "mcs_db_parse_seconds",
        "mcs_db_plan_seconds",
        "mcs_db_statement_seconds",
        "mcs_db_stmt_cache_total",
        "mcs_db_wal_append_seconds",
        "mcs_db_wal_appends_total",
        "mcs_db_wal_bytes_total",
        "mcs_db_wal_fsyncs_total",
        "mcs_db_wal_records_total",
        # -- fault injection (repro.faults) -------------------------------
        "mcs_faults_injected_total",
        # -- MQL + attribute secondary indexes (repro.mql) ----------------
        "mcs_mql_leaves_total",
        "mcs_mql_parse_seconds",
        "mcs_mql_plan_cache_total",
        "mcs_mql_queries_total",
        # -- profiler (repro.obs.profiler) --------------------------------
        "mcs_profile_samples_total",
        # -- replication (repro.db.replication) ---------------------------
        "mcs_repl_apply_seconds",
        "mcs_repl_batches_applied_total",
        "mcs_repl_batches_shipped_total",
        "mcs_repl_lag_batches",
        # -- retries (repro.resilience.retry) -----------------------------
        "mcs_retry_attempts_total",
        "mcs_retry_backoff_seconds",
        # -- sharding (repro.shard) ---------------------------------------
        "mcs_shard_2pc_total",
        "mcs_shard_merge_seconds",
        "mcs_shard_ops_total",
        # -- SLOs (repro.obs.slo) -----------------------------------------
        "mcs_slo_burn_rate",
        "mcs_slo_error_budget_remaining",
        "mcs_slo_events_total",
        # -- SOAP stack (repro.soap) --------------------------------------
        "mcs_soap_bulk_batch_size",
        "mcs_soap_bulk_items_total",
        "mcs_soap_client_disconnects_total",
        "mcs_soap_client_keepalive_reuse_total",
        "mcs_soap_client_reconnects_total",
        "mcs_soap_client_requests_total",
        "mcs_soap_codec_seconds",
        "mcs_soap_faults_total",
        "mcs_soap_idempotent_replays_total",
        "mcs_soap_queue_depth",
        "mcs_soap_queue_wait_seconds",
        "mcs_soap_request_seconds",
        "mcs_soap_requests_total",
        "mcs_soap_worker_saturation_total",
        # -- tracing (repro.obs.trace) ------------------------------------
        "mcs_obs_spans_dropped_total",
        "mcs_span_seconds",
    }
)
