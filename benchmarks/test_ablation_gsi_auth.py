"""Ablation: per-request cost of GSI authentication and authorization.

§7 benchmarks an open service; production deployments would verify a GSI
token (certificate chain + signature) and evaluate ACLs per request.
This bench measures simple-query throughput across policy levels:

* open        — no authentication, no authorization (the §7 setup);
* service ACL — caller string + one service-level ACL check;
* GSI         — token signing (client) + chain verification (server)
                + service-level ACL check.
"""

from repro.bench.sweeps import get_environment
from repro.bench.timing import count_until_stopped, run_workers
from repro.core import MCSClient, MCSService, ObjectQuery, ObjectType
from repro.security import (
    CertificateAuthority,
    DistinguishedName,
    GSIContext,
    Permission,
)
from repro.security.gsi import create_proxy
from repro.workloads import QueryWorkload


def _measure(make_client, env, duration: float, threads: int = 2) -> float:
    clients = [make_client() for _ in range(threads)]
    worker_fns = []
    for idx, client in enumerate(clients):
        workload = QueryWorkload(env.spec, seed=idx)

        def op(_, client=client, workload=workload):
            field, value = workload.simple_query_args()
            client.query(ObjectQuery().where_field(field, "=", value))

        worker_fns.append(lambda stop, op=op: count_until_stopped(op, stop))
    return run_workers(worker_fns, duration).rate


def test_ablation_gsi_authentication_cost(benchmark, config):
    env = get_environment(config, config.db_sizes[0])
    catalog = env.catalog

    ca = CertificateAuthority(key_bits=256)
    user = ca.issue_credential(DistinguishedName.make("Bench User"), key_bits=256)
    proxy = create_proxy(user, key_bits=256)
    server_cred = ca.issue_credential(DistinguishedName.make("MCS"), key_bits=256)
    server_ctx = GSIContext(server_cred, trust_anchors=[ca.certificate])

    open_service = MCSService(catalog, granularity="none")
    acl_service = MCSService(catalog, granularity="service")
    gsi_service = MCSService(
        catalog, granularity="service", gsi_context=server_ctx
    )
    for principal in ("/O=Grid/CN=bench", str(user.subject)):
        catalog.set_permissions(ObjectType.SERVICE, None, principal, Permission.all())

    def open_client():
        return MCSClient.in_process(open_service, caller="/O=Grid/CN=bench")

    def acl_client():
        return MCSClient.in_process(acl_service, caller="/O=Grid/CN=bench")

    def gsi_client():
        client = MCSClient.in_process(gsi_service)
        client._gsi = GSIContext(proxy)
        return client

    def sweep():
        return {
            "open": _measure(open_client, env, config.duration),
            "service_acl": _measure(acl_client, env, config.duration),
            "gsi": _measure(gsi_client, env, config.duration),
        }

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== Ablation: authentication/authorization cost (simple queries) ==")
    for mode in ("open", "service_acl", "gsi"):
        print(f"  {mode:>11}: {rates[mode]:10.1f} q/s")
    acl_cost = rates["open"] / rates["service_acl"] if rates["service_acl"] else 0
    gsi_cost = rates["open"] / rates["gsi"] if rates["gsi"] else 0
    print(f"  ACL check cost: {acl_cost:.2f}x    full GSI cost: {gsi_cost:.2f}x")
    assert rates["open"] >= rates["service_acl"] > 0
    assert rates["service_acl"] >= rates["gsi"] > 0
