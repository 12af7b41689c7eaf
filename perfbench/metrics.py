"""Arithmetic that turns the driver's raw records into benchmark metrics.

The driver (driver.cpp) prints one JSON object per line: a "setup" record
per set-up, a "day" record per scanned day with cumulative counters and
clock readings, and one "end" record.  Everything here is a pure function
of those records, so it is tested on its own (test_metrics.py).
"""

import statistics

# Fields of a day record that are cumulative since the study began; a day's
# own value is its difference from the previous day's record.
CUMULATIVE = (
    "requests", "servfails", "total_queries", "fallbacks", "rows_touched",
    "rs_queries", "rs_cache_hits", "rs_cache_misses", "rs_upstream",
    "rs_validations", "rs_servfails", "rs_auth_cache_hits",
    "rs_sig_cache_hits", "rs_bytes_encoded",
    "gc_compaction_freed", "gc_zone_swept", "gc_resolver_swept",
    "sock_udp_queries", "sock_retransmits", "sock_timeouts",
    "sock_tcp_fallbacks", "sock_stray_replies", "sock_mismatched_replies",
    "busy_scan_s", "busy_ns_s",
)


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def records_of(lines):
    """Splits parsed driver records into (setups, days, end)."""
    setups = [r for r in lines if r["type"] == "setup"]
    days = [r for r in lines if r["type"] == "day"]
    ends = [r for r in lines if r["type"] == "end"]
    if not setups or not days or len(ends) != 1:
        raise ValueError("driver output lacks setups, days or its end record")
    return setups, days, ends[0]


def per_day(days):
    """Each day's own counters: cumulative fields become day-over-day
    differences (the first day against zero); lists differ elementwise."""
    out = []
    prev = None
    for day in days:
        own = dict(day)
        for key in CUMULATIVE:
            if key not in day:
                continue
            now = day[key]
            before = prev[key] if prev is not None else None
            if isinstance(now, list):
                before = before if before is not None else [0] * len(now)
                own[key] = [a - b for a, b in zip(now, before)]
            else:
                own[key] = now - (before if before is not None else 0)
        out.append(own)
        prev = day
    return out


def steady(days):
    """The measured days: every day after the driver's fixed warm-up."""
    chosen = [d for d in days if d["steady"]]
    if not chosen:
        raise ValueError("no steady days")
    return chosen


def proc_stat_cpu_ticks(line):
    """utime + stime, in clock ticks, from a /proc/<pid>/stat line.

    The command name (field 2) sits in parentheses and may itself hold
    spaces or parentheses, so fields are counted from the last ')'."""
    rest = line[line.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]) + int(rest[12])


def serve_cpu_seconds(day, clk_tck):
    """CPU seconds the serve process spent on one day (0 without one)."""
    if not day.get("serve_stat_start"):
        return 0.0
    return (proc_stat_cpu_ticks(day["serve_stat_end"]) -
            proc_stat_cpu_ticks(day["serve_stat_start"])) / clk_tck


def day_cpu_seconds(day, clk_tck):
    """CPU seconds one day cost, summed over the scan client and, when the
    workload has one, the serve process."""
    return day["cpu_end_s"] - day["cpu_start_s"] + serve_cpu_seconds(day, clk_tck)


def vm_hwm_kib(line):
    """Peak resident set from a /proc/<pid>/status "VmHWM:  1234 kB" line."""
    fields = line.split()
    if len(fields) != 3 or fields[0] != "VmHWM:" or fields[2] != "kB":
        raise ValueError("not a VmHWM line: %r" % line)
    return int(fields[1])


def total_peak_rss_mib(client_kib, serve_lines):
    """Peak RSS of every process in the workload, summed, in MiB."""
    return (client_kib + sum(vm_hwm_kib(l) for l in serve_lines)) / 1024.0


def serve_shutdown_stats(text):
    """The counters of httpsrr_serve's ";; served udp=N tcp=N ..." line."""
    for line in text.splitlines():
        if line.startswith(";; served "):
            return {k: int(v) for k, v in
                    (field.split("=") for field in line[len(";; served "):].split())}
    return {}


def end_to_end(setups, days, end, clk_tck):
    """The metrics a user of the system sees, from an untraced run."""
    chosen = steady(per_day(days))
    serve = [end["serve_vm_hwm"]] if end.get("serve_vm_hwm") else []
    return {
        "setup_s": (median(s["total_s"] for s in setups), "s"),
        "steady_day_s": (median(d["wall_s"] for d in chosen), "s"),
        "steady_cpu_s": (median(day_cpu_seconds(d, clk_tck) for d in chosen), "s"),
        "peak_rss_mib": (total_peak_rss_mib(end["client_peak_rss_kib"], serve), "MiB"),
        "snapshot_bytes_per_domain": (days[-1]["bytes_per_domain"], "B"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def layer_rows(day, shards):
    """The per-layer table of one day: (row, seconds) pairs whose sum is the
    share of the day's wall time the layers account for.  The scan phase
    splits into endpoint time and the scanner's own time; with K shards the
    endpoint row is the mean shard's busy time."""
    endpoint = sum(day["busy_scan_s"]) / shards
    return [
        ("ecosystem.advance", day["advance_s"]),
        ("scanner.sweep", day["sweep_s"]),
        ("scanner.compact", day["compact_s"]),
        ("resolver.endpoint", endpoint),
        ("scanner.classify", day["scan_s"] - endpoint),
        ("scanner.ns", day["ns_s"]),
        ("scanner.churn", day["churn_s"]),
        ("analysis.observers", day["observers_s"]),
    ]


def coverage(day, shards):
    return sum(s for _, s in layer_rows(day, shards)) / day["wall_s"]


def format_table(title, day, shards):
    rows = layer_rows(day, shards)
    wall = day["wall_s"]
    lines = ["%s (day %d, %.3f s wall)" % (title, day["day"], wall),
             "  %-22s %10s %8s" % ("layer", "seconds", "share")]
    for name, seconds in rows:
        lines.append("  %-22s %10.4f %7.1f%%" % (name, seconds, 100 * seconds / wall))
    covered = sum(s for _, s in rows)
    lines.append("  %-22s %10.4f %7.1f%%" % ("(unattributed)", wall - covered,
                                               100 * (wall - covered) / wall))
    return "\n".join(lines)


def median_day(days):
    """The steady day whose wall time is the (lower) median."""
    ordered = sorted(days, key=lambda d: d["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(setups, days, end, clk_tck, shards):
    """Per-layer metrics from a traced run: medians over its steady days of
    each day's own value, unless noted."""
    own = per_day(days)
    chosen = steady(own)
    listed = lambda d: d["listed"]

    def med(fn):
        return median(fn(d) for d in chosen)

    def busy(d):
        return sum(d["busy_scan_s"]) + sum(d["busy_ns_s"])

    def shard_skew(d):
        b = d["busy_scan_s"]
        return ratio(max(b), sum(b) / len(b))

    serve_stats = serve_shutdown_stats(end.get("serve_stderr", ""))
    socket = bool(end.get("serve_vm_hwm"))
    last = days[-1]
    return {
        "ecosystem.build_s": (median(s["build_s"] for s in setups), "s"),
        "ecosystem.advance_s": (med(lambda d: d["advance_s"]), "s"),
        "ecosystem.zone_swept": (med(lambda d: d["gc_zone_swept"]), "count"),
        "scanner.scan_s": (med(lambda d: d["scan_s"]), "s"),
        "scanner.classify_self_s": (
            med(lambda d: d["scan_s"] - sum(d["busy_scan_s"]) / shards), "s"),
        "scanner.ns_s": (med(lambda d: d["ns_s"]), "s"),
        "scanner.churn_s": (med(lambda d: d["churn_s"]), "s"),
        "scanner.sweep_s": (med(lambda d: d["sweep_s"]), "s"),
        "scanner.compact_s": (med(lambda d: d["compact_s"]), "s"),
        "scanner.serial_s": (med(lambda d: d["wall_s"] - d["scan_s"] - d["ns_s"]), "s"),
        "scanner.day1_s": (days[0]["wall_s"], "s"),
        "scanner.queries_per_domain": (
            med(lambda d: ratio(d["total_queries"], listed(d))), "queries/domain"),
        "scanner.interner_entries": (last["gc_interner_entries"], "count"),
        "scanner.interner_live": (last["gc_live_refs"], "count"),
        "scanner.compaction_freed": (med(lambda d: d["gc_compaction_freed"]), "count"),
        "scanner.intern_hit_rate": (last["intern_hit_rate"], "ratio"),
        "resolver.endpoint_busy_s": (med(busy), "s"),
        "resolver.busy_per_query_ns": (
            med(lambda d: 1e9 * ratio(busy(d), d["requests"])), "ns"),
        "resolver.busy_over_cpu": (
            med(lambda d: ratio(sum(d["busy_scan_s"]), d["scan_cpu_s"])), "ratio"),
        "resolver.shard_busy_max_over_mean": (med(shard_skew), "ratio"),
        "resolver.upstream_per_domain": (
            med(lambda d: ratio(d["rs_upstream"], listed(d))), "queries/domain"),
        "resolver.cache_hit_ratio": (
            med(lambda d: ratio(d["rs_cache_hits"],
                                d["rs_cache_hits"] + d["rs_cache_misses"])), "ratio"),
        "resolver.auth_memo_hit_ratio": (
            med(lambda d: ratio(d["rs_auth_cache_hits"], d["rs_upstream"])), "ratio"),
        "resolver.sig_memo_hits": (med(lambda d: d["rs_sig_cache_hits"]), "count"),
        "resolver.validations": (med(lambda d: d["rs_validations"]), "count"),
        "resolver.bytes_encoded_per_query": (
            med(lambda d: ratio(d["rs_bytes_encoded"], d["rs_upstream"])), "B"),
        "resolver.fallbacks": (med(lambda d: d["fallbacks"]), "count"),
        "resolver.servfails": (med(lambda d: d["rs_servfails"]), "count"),
        "analysis.observers_s": (med(lambda d: d["observers_s"]), "s"),
        "analysis.rows_touched": (med(lambda d: d["rows_touched"]), "count"),
        "net.client_busy_s": (med(busy) if socket else 0.0, "s"),
        "net.udp_queries": (med(lambda d: d["sock_udp_queries"]), "count"),
        "net.retransmits": (med(lambda d: d["sock_retransmits"]), "count"),
        "net.timeouts": (med(lambda d: d["sock_timeouts"]), "count"),
        "net.tcp_fallbacks": (med(lambda d: d["sock_tcp_fallbacks"]), "count"),
        "net.stray_replies": (med(lambda d: d["sock_stray_replies"]), "count"),
        "net.mismatched_replies": (med(lambda d: d["sock_mismatched_replies"]), "count"),
        "serve.cpu_s": (med(lambda d: serve_cpu_seconds(d, clk_tck)), "s"),
        "serve.busy_ratio": (
            med(lambda d: serve_cpu_seconds(d, clk_tck) / d["wall_s"]), "ratio"),
        "client.cpu_s": (med(lambda d: d["cpu_end_s"] - d["cpu_start_s"]), "s"),
        "serve.udp_queries": (serve_stats.get("udp", 0), "count"),
        "serve.truncated": (serve_stats.get("truncated", 0), "count"),
        "serve.dropped": (serve_stats.get("dropped", 0), "count"),
        "ledger.coverage": (coverage(median_day(chosen), shards), "ratio"),
        "trace.steady_day_s": (med(lambda d: d["wall_s"]), "s"),
    }


def operations(days):
    """(attempted, failed) over the measured days: every query the scanner
    sent through its endpoints, and every one answered SERVFAIL (transport
    timeouts and malformed replies arrive as SERVFAIL)."""
    chosen = steady(per_day(days))
    return (sum(d["requests"] for d in chosen),
            sum(d["servfails"] for d in chosen))
