package main

import (
	"math"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's reported values with their sample counts, in the
// order they were set.
type metrics struct {
	vals    map[string]metric
	samples map[string]int
	order   []string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, samples: map[string]int{}}
}

func (m *metrics) set(name string, v float64, unit string, samples int) {
	if _, dup := m.vals[name]; !dup {
		m.order = append(m.order, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.samples[name] = samples
}

// latencyWindow is the window the open-loop percentiles are taken over
// before their median is reported.
const latencyWindow = time.Second

// qpsWindow is the window closed-loop throughput is counted over.
const qpsWindow = 250 * time.Millisecond

// endToEnd derives the user-visible metrics of an untraced run. Latency
// percentiles are medians over one-second windows, each request timed from
// when it was due. The 99th percentiles are returned apart, in info: they
// are printed with the rest but are not part of the result: on a shared
// 2-vCPU VM, contention from other tenants lasting tens of seconds moved
// them several-fold between runs.
// So is the flush median: about a third of flushes also merge segments,
// the median sits where fast and slow flushes meet and moved twofold
// between runs, so the result carries the 25th percentile instead.
func (r *runner) endToEnd() (m, info *metrics) {
	o := &r.out
	m, info = newMetrics(), newMetrics()
	m.set("setup_s", median(append([]float64(nil), o.setupS...)), "s", len(o.setupS))

	writes := o.writes
	if r.w.ingest {
		writes = o.open
	}
	for _, l := range []struct {
		name string
		ss   []sample
	}{
		{"search", o.open.lat[opSearch]},
		{"filtered", o.open.lat[opFiltered]},
		{"insert", writes.lat[opInsert]},
	} {
		v, n := windowed(l.ss, 0.5, latencyWindow)
		m.set(l.name+"_p50_ms", v, "ms", n)
		v, n = windowed(l.ss, 0.99, latencyWindow)
		info.set(l.name+"_p99_ms", v, "ms", n)
	}
	fl := values(writes.lat[opFlush])
	m.set("flush_p25_ms", quantile(fl, 0.25), "ms", len(fl))
	info.set("flush_p50_ms", quantile(fl, 0.5), "ms", len(fl))

	searches := append(append([]sample(nil), o.closed.lat[opSearch]...), o.closed.lat[opFiltered]...)
	v, n := rate(searches, o.closedFrom, o.closedTo, qpsWindow)
	m.set("search_qps", v, "1/s", n)
	recall := &recorder{}
	if !r.w.ingest {
		recall.merge(o.open)
	}
	recall.merge(o.closed)
	m.set("recall_at_10", recall.recallSum/float64(recall.recallN), "ratio", recall.recallN)
	m.set("rss_peak_mb", rssPeakMB(), "MB", 1)
	return m, info
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// planDecisions are the planner's decision labels.
var planDecisions = []string{"flat_cpu", "ivf_cpu", "gpu", "sq8h", "pushdown", "prefilter", "graph"}

// perLayer derives the traced run's layer metrics. Counter-derived values
// are deltas over the traced window; stage times are means per search
// request over the same window and add up to the round trip:
// client.self + rest.self + the core stages + core.unattributed.
func (r *runner) perLayer() *metrics {
	o := &r.out
	m := newMetrics()
	d := o.edges[1].reg.delta(o.edges[0].reg)
	tr := o.tr
	acc := &tr.traces
	n := float64(acc.n)
	queries := d.sum("vectordb_query_total")
	traced := &recorder{}
	traced.merge(o.open)
	traced.merge(o.closed)
	traced.merge(o.writes)

	rt := ratio(float64(traced.rtNs), float64(traced.rtN)) / 1e6
	handler := ratio(float64(tr.handlerNs.Load()), float64(tr.handlerN.Load())) / 1e6
	core := ratio(float64(acc.durNs), n) / 1e6
	m.set("client.roundtrip_ms", rt, "ms", int(traced.rtN))
	m.set("client.self_ms", rt-handler, "ms", int(traced.rtN))
	m.set("rest.handler_ms", handler, "ms", int(tr.handlerN.Load()))
	m.set("rest.self_ms", handler-core, "ms", acc.n)
	for _, s := range coreStages {
		m.set(s, ratio(float64(acc.stageNs[s]), n)/1e6, "ms", acc.n)
	}
	unattr := ratio(float64(acc.unattrNs), n) / 1e6
	m.set("core.unattributed_ms", unattr, "ms", acc.n)
	m.set("trace.coverage", 1-ratio(unattr, rt), "ratio", acc.n)
	unattrF := ratio(float64(acc.unattrFiltNs), float64(acc.filtered)) / 1e6
	rtF := ratio(float64(traced.rtFilteredNs), float64(traced.rtFilteredN)) / 1e6
	m.set("core.unattributed_filtered_ms", unattrF, "ms", acc.filtered)
	m.set("trace.coverage_filtered", 1-ratio(unattrF, rtF), "ratio", acc.filtered)
	m.set("trace.lost", float64(acc.lost), "count", acc.n)
	// Open-loop searches sent while tracing recorded against those sent in
	// the interleaved seconds while it did not.
	var on, off []float64
	for _, s := range append(append([]sample(nil), o.open.lat[opSearch]...), o.open.lat[opFiltered]...) {
		if s.traced {
			on = append(on, s.ms)
		} else {
			off = append(off, s.ms)
		}
	}
	m.set("trace.overhead", median(on)/median(off)-1, "ratio", len(on)+len(off))

	// batchform
	batched := d.sum("vectordb_batchform_queries_total", "path=batched")
	passed := d.sum("vectordb_batchform_queries_total", "path=passthrough")
	m.set("batchform.batched_share", ratio(batched, batched+passed), "ratio", int(batched+passed))
	occN, occSum := 0.0, 0.0
	for _, size := range d.labelValues("vectordb_batchform_occupancy_total", "size") {
		c := d.sum("vectordb_batchform_occupancy_total", "size="+size)
		k, _ := strconv.Atoi(size)
		occN += c
		occSum += c * float64(k)
	}
	m.set("batchform.occupancy", ratio(occSum, occN), "queries", int(occN))
	waits := d.sum("vectordb_batchform_wait_seconds_count")
	m.set("batchform.coalesce_ms", ratio(d.sum("vectordb_batchform_wait_seconds_sum"), waits)*1e3, "ms", int(waits))

	// exec
	tasks := d.sum("vectordb_exec_task_wait_seconds_count")
	m.set("exec.task_wait_ms", ratio(d.sum("vectordb_exec_task_wait_seconds_sum"), tasks)*1e3, "ms", int(tasks))
	m.set("exec.tasks_per_query", ratio(d.sum("vectordb_exec_tasks_total"), queries), "count", int(queries))
	m.set("exec.rejected", d.sum("vectordb_exec_rejected_total"), "count", int(queries))

	// plan
	decisions := d.sum("vectordb_plan_decisions_total")
	for _, dec := range planDecisions {
		m.set("plan.decisions."+dec, ratio(d.sum("vectordb_plan_decisions_total", "decision="+dec), decisions), "ratio", int(decisions))
	}
	m.set("plan.mispredicts", ratio(d.sum("vectordb_plan_mispredict_total"), decisions), "ratio", int(decisions))

	// colstore filter modes, over filtered searches
	for _, mode := range []string{"dense", "sparse", "graph"} {
		m.set("colstore.filter_mode."+mode, ratio(float64(acc.filterModes[mode]), float64(acc.filtered)), "ratio", acc.filtered)
	}

	// index, segments, kernels, merge
	m.set("index.search_ms", ratio(d.sum("vectordb_index_search_seconds_sum"), queries)*1e3, "ms", int(queries))
	m.set("index.segment_scan_ms", ratio(float64(acc.scanNs), n)/1e6, "ms", acc.n)
	m.set("core.segments_per_query", ratio(d.sum("vectordb_query_segments_total"), queries), "count", int(queries))
	l := o.layouts[len(o.layouts)-1]
	m.set("core.segments", float64(l.Segments), "count", 1)
	m.set("core.unindexed_rows", float64(l.UnindexedRows), "rows", 1)
	m.set("vec.batch_dispatch_per_query", ratio(d.sum("vectordb_simd_batch_dispatch_total"), queries), "count", int(queries))

	// block cache and tiers
	hits, misses := d.sum("vectordb_blockcache_hits_total"), d.sum("vectordb_blockcache_misses_total")
	m.set("blockcache.hit_rate", ratio(hits, hits+misses), "ratio", int(hits+misses))
	m.set("blockcache.misses_per_query", ratio(misses, queries), "count", int(queries))
	m.set("blockcache.evictions", d.sum("vectordb_blockcache_evictions_total"), "count", 1)
	m.set("tier.promotes", d.sum("vectordb_tier_promote_total"), "count", 1)
	m.set("tier.demotes", d.sum("vectordb_tier_demote_total"), "count", 1)

	// write path
	sc := o.edges[1].store.sub(o.edges[0].store)
	m.set("objstore.puts", float64(sc.Put.N), "count", 1)
	m.set("objstore.put_ms", sc.Put.meanMs(), "ms", int(sc.Put.N))
	m.set("objstore.write_amp", ratio(float64(sc.Put.Bytes), float64(o.userBytes)), "ratio", 1)
	m.set("objstore.gets", float64(sc.Get.N), "count", 1)
	m.set("objstore.get_ms", sc.Get.meanMs(), "ms", int(sc.Get.N))
	m.set("objstore.deletes", float64(sc.Del.N), "count", 1)
	m.set("objstore.lists", float64(sc.List.N), "count", 1)
	m.set("wal.appends", d.sum("vectordb_wal_appends_total"), "count", 1)
	m.set("core.flushes", d.sum("vectordb_flush_total"), "count", 1)
	m.set("core.merges", d.sum("vectordb_merge_total"), "count", 1)
	builds := d.sum("vectordb_index_builds_total")
	m.set("core.index_builds", builds, "count", 1)
	m.set("core.index_build_s", d.sum("vectordb_index_build_seconds_sum"), "s", int(builds))
	kept := 0
	for id := range o.edges[1].indexed {
		if !o.edges[0].indexed[id] {
			kept++
		}
	}
	m.set("core.index_builds_wasted", builds-float64(kept), "count", int(builds))

	// set-up, from the counters at its end (the registry starts with the DB)
	su := o.setupEdge
	m.set("setup.objstore_write_amp", ratio(float64(su.store.Put.Bytes), float64(r.w.rows)*rowBytes), "ratio", 1)
	m.set("setup.index_builds", su.reg.sum("vectordb_index_builds_total"), "count", 1)
	m.set("setup.index_build_s", su.reg.sum("vectordb_index_build_seconds_sum"), "s", 1)

	// Go runtime, process-wide (client, server and engine share it)
	m0, m1 := &o.edges[0].mem, &o.edges[1].mem
	ops := traced.attempted
	m.set("go.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), float64(ops)), "count", int(ops))
	m.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int(m1.NumGC-m0.NumGC))
	m.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", 1)
	return m
}
