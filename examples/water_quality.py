"""The paper's motivating application: a federation of water-quality databases.

Many geographically distributed stations measure water quality; every source
has the *same* measurement type, so each new station is one extent declaration
on the shared ``Measurement`` interface.  The example builds a dozen stations
on heterogeneous back-ends (relational, SQL, CSV), federates them under one
mediator, and runs monitoring queries and a reconciliation view across all of
them -- including the ``site*`` style of growth where new stations join
without touching any existing query.

Run with:  python examples/water_quality.py
"""

from __future__ import annotations

import tempfile

from repro import Mediator, RelationalWrapper, SqlWrapper, CsvWrapper
from repro.sources import CsvStore, RelationalEngine, SimulatedServer
from repro.sources.network import NetworkProfile
from repro.sources.sql.engine import SqlEngine
from repro.sources.workload import generate_water_quality_rows

SITES = ["Seine", "Loire", "Rhone", "Garonne", "Marne", "Oise"]


def build_mediator() -> Mediator:
    mediator = Mediator(name="water-quality")
    mediator.define_interface(
        "Measurement",
        [("site", "String"), ("day", "Long"), ("parameter", "String"), ("value", "Float")],
        extent_name="measurements",
    )

    csv_dir = tempfile.mkdtemp(prefix="disco-water-")
    for index, site in enumerate(SITES):
        rows = generate_water_quality_rows(200, site=site, seed=index)
        collection = f"station{index}"
        if index % 3 == 0:
            engine = RelationalEngine(f"{site}-db")
            engine.create_table(collection, rows=rows)
            server = SimulatedServer(site, engine, network=NetworkProfile.lan(seed=index))
            wrapper = RelationalWrapper(f"w{index}", server)
        elif index % 3 == 1:
            engine = SqlEngine(name=f"{site}-sql")
            engine.create_table(collection, rows=rows)
            server = SimulatedServer(site, engine, network=NetworkProfile.wan(seed=index))
            wrapper = SqlWrapper(f"w{index}", server)
        else:
            store = CsvStore(csv_dir, name=f"{site}-files")
            store.write_collection(collection, rows)
            server = SimulatedServer(site, store, network=NetworkProfile.lan(seed=index))
            wrapper = CsvWrapper(f"w{index}", server)
        mediator.register_wrapper(f"w{index}", wrapper)
        mediator.create_repository(f"r{index}", host=f"{site.lower()}.example.org")
        mediator.add_extent(collection, "Measurement", f"w{index}", f"r{index}")
    return mediator


def main() -> None:
    mediator = build_mediator()
    print(f"federated stations: {len(mediator.registry.extents())}")

    high_ph = mediator.query(
        'select struct(site: m.site, value: m.value) from m in measurements '
        'where m.parameter = "ph" and m.value > 9'
    )
    print(f"alkaline readings across every station: {len(high_ph.rows())}")

    per_site = mediator.query(
        'select distinct m.site from m in measurements where m.parameter = "lead"'
    )
    print(f"stations reporting lead measurements: {sorted(per_site.rows())}")

    mediator.define_view(
        "site_max_ph",
        'select struct(site: s, peak: max(select m.value from m in measurements '
        'where m.site = s and m.parameter = "ph")) '
        "from s in (select distinct x.site from x in measurements)",
    )
    peaks = mediator.query("site_max_ph")
    for row in sorted(peaks.rows(), key=lambda r: r["site"]):
        print(f"  {row['site']:10s} peak ph = {row['peak']}")

    total = mediator.query('count(select m from m in measurements)')
    print(f"total measurements federated: {total.data}")


if __name__ == "__main__":
    main()
