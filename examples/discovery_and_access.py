#!/usr/bin/env python3
"""Figure 2 end-to-end: attribute discovery → replica lookup → GridFTP.

The paper's canonical usage scenario, with GSI authentication and
per-object authorization enforced along the way:

  (1) the client queries the Metadata Service for data sets with
      particular attribute values,
  (2) the MCS returns matching logical names,
  (3) the client queries the Replica Location Service,
  (4) the RLS returns physical locations,
  (5) the client selects a replica and contacts the storage system,
  (6) the data comes back over (simulated) GridFTP.

    python examples/discovery_and_access.py
"""

from repro.core import MCSClient, MCSService, ObjectQuery, ObjectType
from repro.gridftp import GridFTPServer, StorageSite
from repro.rls import LocalReplicaCatalog, ReplicaLocationIndex, RLSClient
from repro.security import (
    CertificateAuthority,
    DistinguishedName,
    GSIContext,
    Permission,
)
from repro.security.gsi import create_proxy
from repro.soap import DirectTransport, HttpTransport, SoapServer


def main() -> None:
    # -- Grid security: a CA, a user credential, a proxy --------------------
    ca = CertificateAuthority(key_bits=256)
    alice = ca.issue_credential(
        DistinguishedName.make("Alice", unit="ISI"), key_bits=256
    )
    proxy = create_proxy(alice, key_bits=256)
    print(f"issued proxy credential for {proxy.subject}")

    server_cred = ca.issue_credential(DistinguishedName.make("MCS"), key_bits=256)
    server_ctx = GSIContext(server_cred, trust_anchors=[ca.certificate])

    # -- MCS with object-granularity authorization ----------------------------
    service = MCSService(gsi_context=server_ctx, granularity="object")
    admin_cred = ca.issue_credential(DistinguishedName.make("Admin"), key_bits=256)
    admin_dn = str(admin_cred.subject)
    service.catalog.set_permissions(
        ObjectType.SERVICE, None, admin_dn, Permission.all()
    )
    admin = MCSClient(
        DirectTransport(service.handle), gsi_context=GSIContext(admin_cred)
    )

    # -- Storage fabric + RLS --------------------------------------------------
    sites = {
        "ncar": StorageSite("ncar", wan_bandwidth_mbps=622, latency_ms=25),
        "llnl": StorageSite("llnl", wan_bandwidth_mbps=1000, latency_ms=15),
    }
    gridftp = GridFTPServer(sites)
    lrcs = {f"lrc-{n}": LocalReplicaCatalog(f"lrc-{n}") for n in sites}
    rls = RLSClient(ReplicaLocationIndex(), lrcs)

    # -- Publication (admin): climate files, replicated at two sites -----------
    admin.define_attribute("variable", "string")
    admin.define_attribute("year", "int")
    admin.create_collection("climate-2003")
    for year in (2001, 2002, 2003):
        name = f"precip-{year}.nc"
        content = f"precipitation data {year}".encode() * 64
        for site_name, site in sites.items():
            site.store(name, content)
            lrcs[f"lrc-{site_name}"].add_mapping(name, site.url_for(name))
        admin.create_logical_file(
            name,
            data_type="netcdf",
            collection="climate-2003",
            attributes={"variable": "precipitation", "year": year},
        )
    rls.refresh_all()
    # Grant Alice READ on the whole collection: the union rule (§5) makes
    # every member file readable.
    # Service-level READ lets Alice issue queries at all; the collection
    # grant (union rule, §5) then opens every member file's record.
    service.catalog.set_permissions(
        ObjectType.SERVICE, None, str(alice.subject), Permission.READ
    )
    service.catalog.set_permissions(
        ObjectType.COLLECTION, "climate-2003", str(alice.subject), Permission.READ
    )
    print("published 3 files, replicated at ncar and llnl; granted Alice READ")

    # -- (1)-(2): attribute discovery over SOAP with GSI ------------------------
    with SoapServer(service.handle, fault_mapper=service.fault_mapper) as soap:
        client = MCSClient(
            HttpTransport(*soap.endpoint), gsi_context=GSIContext(proxy)
        )

        names = client.query(
            ObjectQuery().where("variable", "=", "precipitation")
        )
        print(f"(1)-(2) MCS discovery: {names}")

        target = names[-1]
        record = client.get_logical_file(target)
        print(f"        chose {target} (created by {record['creator']})")

        # -- (3)-(4): replica lookup -------------------------------------------
        replicas = rls.lookup(target)
        print(f"(3)-(4) RLS replicas: {replicas}")

        # -- (5)-(6): replica selection + transfer -------------------------------
        # pick the site with the highest bandwidth
        best_url = max(
            (url for urls in replicas.values() for url in urls),
            key=lambda u: sites[u.split("/")[2]].wan_bandwidth_mbps,
        )
        content, result = gridftp.fetch(best_url, streams=8)
        print(
            f"(5)-(6) fetched {result.size_bytes} bytes from {best_url} "
            f"in {result.simulated_seconds * 1000:.1f} simulated ms "
            f"({result.throughput_mbps:.0f} Mbit/s with {result.streams} streams)"
        )
        print(f"        checksum {result.checksum[:16]}...")
        client.close()


if __name__ == "__main__":
    main()
