"""Attribution arithmetic of the traced run: span self time, estimated
layer shares and the unattributed residual.

A layer's estimated share is the count the traced run observed for each of
its operations times that operation's isolated unit cost, summed, over the
run's basis: host time for the DES workloads, process CPU time for the live
one. Whatever the named layers do not explain is host.unattributed_share.
"""

# Every est-share metric the benchmark reports; a workload with no term for
# one reports 0 and says why.
EST_SHARE_METRICS = (
    "overlay.est_share",
    "rac.fingerprint_est_share",
    "crypto.est_share",
    "net.est_share",
)


def self_times(spans):
    """Map span id -> self time in ns: the span's duration minus the part of
    its interval covered by the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def self_time_by_name(spans):
    """Total self time in seconds per span name."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]] / 1e9
    return out


def est_shares(terms, basis_ns):
    """Sum count x unit cost per metric, as a share of basis_ns."""
    if basis_ns <= 0:
        raise ValueError("attribution basis must be positive")
    shares = {m: 0.0 for m in EST_SHARE_METRICS}
    for t in terms:
        shares[t["metric"]] = (
            shares.get(t["metric"], 0.0) + t["count"] * t["unit_ns"] / basis_ns
        )
    return shares


def unattributed_share(shares):
    """1 - the sum of the estimated shares (negative when they overlap or
    overestimate)."""
    return 1.0 - sum(shares.values())


def overhead_share(attribution):
    """Tracing overhead: extra host time of the traced run (DES), or goodput
    the traced run lost (live), relative to the untraced run."""
    if attribution["overhead_basis"] == "host_time":
        base = attribution["untraced_basis_ns"]
        return (attribution["basis_ns"] - base) / base
    base = attribution["untraced_goodput"]
    return (base - attribution["traced_goodput"]) / base


def layer_metrics(attribution):
    """Every attribution-derived per-layer metric of a traced run."""
    shares = est_shares(attribution["terms"], attribution["basis_ns"])
    out = dict(shares)
    out["host.unattributed_share"] = unattributed_share(shares)
    out["telemetry.overhead_share"] = overhead_share(attribution)
    return out
