from repro.analysis import DispatchSite, Hierarchy, Spec

SPEC = Spec(
    scan=(".",),
    hierarchies=(
        Hierarchy(name="node", module="algebra.py", root="Node"),
        Hierarchy(name="leaf", module="algebra.py", root="Leaf", frozen=True),
    ),
    dispatch_sites=(
        DispatchSite(
            name="render",
            module="visit.py",
            hierarchy="node",
            functions=("render",),
            # Seeded stale exemption: render() handles Sub, so this entry
            # must be reported as shed-able.
            exempt=(("Sub", "seeded stale exemption"),),
        ),
    ),
)
