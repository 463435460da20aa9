package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/obs/promtext"
)

// tracer produces the per-layer attribution of a traced run. It times the
// REST handler around every search request and drains the engine's
// per-query trace summaries from DB.QueryLog() while recording is on;
// readEdge snapshots the metric registry, the object-store decorator and
// the Go runtime at the window's edges so every counter-derived metric is
// a delta over the traced window only.
//
// Through the open loop recording switches on and off every toggleEvery,
// so trace.overhead compares interleaved traced and untraced seconds and
// drift or background work falls on both alike; hold keeps it on after.
type tracer struct {
	on        atomic.Bool
	handlerNs atomic.Int64
	handlerN  atomic.Int64

	mu       sync.Mutex // guards the fields below
	ql       *obs.QueryLog
	toggling bool
	last     traceKey
	seen     bool
	traces   traceAcc

	stop    chan struct{}
	stopped chan struct{}
}

// toggleEvery is how long each traced or untraced stretch of the open
// loop lasts.
const toggleEvery = time.Second

// traceKey identifies a trace summary in the query log's ring.
type traceKey struct {
	op    string
	start time.Time
	dur   time.Duration
}

func keyOf(s *obs.TraceSummary) traceKey { return traceKey{s.Op, s.Start, s.Duration} }

// recording reports whether tracing is on; false for a nil tracer.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// wrap times h's handling of search requests while recording is on.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasSuffix(r.URL.Path, "/search") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.handlerNs.Add(int64(time.Since(t0)))
		t.handlerN.Add(1)
	})
}

// drainEvery is how often the query log is read. The ring holds 128
// traces; at the benchmark's rates fewer than 10 queries finish per tick.
const drainEvery = 5 * time.Millisecond

// start begins the traced window on ql: recording toggles every
// toggleEvery, starting off, until hold.
func (t *tracer) start(ql *obs.QueryLog) {
	t.ql = ql
	t.traces = newTraceAcc()
	t.toggling = true
	t.stop = make(chan struct{})
	t.stopped = make(chan struct{})
	begin := time.Now()
	go func() {
		defer close(t.stopped)
		tick := time.NewTicker(drainEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case now := <-tick.C:
				t.mu.Lock()
				if t.toggling {
					t.switchTo(int64(now.Sub(begin)/toggleEvery)%2 == 1)
				}
				if t.on.Load() {
					t.drain()
				}
				t.mu.Unlock()
			}
		}
	}()
}

// hold ends the toggling and keeps recording on. A nil tracer ignores it.
func (t *tracer) hold() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.toggling = false
	t.switchTo(true)
}

// finish stops recording and returns once the drain goroutine has exited.
func (t *tracer) finish() {
	close(t.stop)
	<-t.stopped
	t.mu.Lock()
	defer t.mu.Unlock()
	t.switchTo(false)
}

// switchTo turns recording on or off; t.mu is held. Switching on skips
// the summaries the ring holds from while it was off; switching off
// drains those recorded since the last drain.
func (t *tracer) switchTo(on bool) {
	if on == t.on.Load() {
		return
	}
	if !on {
		t.on.Store(false)
		t.drain()
		return
	}
	if r := t.ql.Recent(); len(r) > 0 {
		t.last, t.seen = keyOf(&r[0]), true
	}
	t.on.Store(true)
}

// drain consumes the summaries recorded since the last drain, newest first
// in the ring, stopping at the newest one already consumed. When that one
// is no longer in the ring, unread summaries were overwritten: the drain
// counts in trace.lost.
func (t *tracer) drain() {
	recent := t.ql.Recent()
	i := 0
	for ; i < len(recent); i++ {
		if t.seen && keyOf(&recent[i]) == t.last {
			break
		}
	}
	if t.seen && i == len(recent) {
		t.traces.lost++
	}
	if i == 0 {
		return
	}
	for j := i - 1; j >= 0; j-- {
		t.traces.add(&recent[j])
	}
	t.last, t.seen = keyOf(&recent[0]), true
}

// stageOf maps an engine span at the root of a trace to the layer metric
// it is attributed to.
func stageOf(span string) string {
	switch span {
	case "sched_wait":
		return "exec.sched_wait_ms"
	case "batch_form":
		return "batchform.wait_ms"
	case "filter_plan", "plan":
		return "plan.ms"
	case "attr_filter":
		return "colstore.attr_filter_ms"
	case "segments":
		return "core.segments_ms"
	case "topk_merge":
		return "topk.merge_ms"
	}
	return "core.other_stages_ms"
}

// coreStages lists every stage stageOf can return, in pipeline order.
var coreStages = []string{
	"exec.sched_wait_ms", "batchform.wait_ms", "plan.ms", "colstore.attr_filter_ms",
	"core.segments_ms", "topk.merge_ms", "core.other_stages_ms",
}

// traceAcc sums what the drained summaries say.
type traceAcc struct {
	n            int
	durNs        int64
	stageNs      map[string]int64
	unattrNs     int64
	unattrFiltNs int64 // of filtered searches only
	scanNs       int64
	filtered     int
	filterModes  map[string]int
	lost         int64
}

func newTraceAcc() traceAcc {
	return traceAcc{stageNs: map[string]int64{}, filterModes: map[string]int{}}
}

func (a *traceAcc) add(s *obs.TraceSummary) {
	a.n++
	a.durNs += int64(s.Duration)
	rooted := int64(0)
	for i := range s.Spans {
		sp := &s.Spans[i]
		switch {
		case sp.Parent == "":
			a.stageNs[stageOf(sp.Name)] += int64(sp.Duration)
			rooted += int64(sp.Duration)
		case sp.Name == "segment_scan":
			a.scanNs += int64(sp.Duration)
		}
	}
	a.unattrNs += int64(s.Duration) - rooted
	if s.Op == "filtered" || s.Op == "categorical" {
		a.filtered++
		a.unattrFiltNs += int64(s.Duration) - rooted
		if mode, ok := s.Attr("filter_mode"); ok {
			a.filterModes[mode]++
		}
	}
}

// scrape is one reading of the metric registry: sample value by series
// (name plus sorted labels).
type scrape map[string]float64

func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[seriesKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out, nil
}

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

// delta is after minus before, series by series.
func (after scrape) delta(before scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the named sample whose labels include all of
// the given key=value pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		series, rest, _ := strings.Cut(k, "|")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains("|"+rest+"|", "|"+l+"|") {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// labelValues returns the distinct values of label across the named sample.
func (s scrape) labelValues(name, label string) []string {
	seen := map[string]bool{}
	for k := range s {
		series, rest, _ := strings.Cut(k, "|")
		if series != name {
			continue
		}
		for _, kv := range strings.Split(rest, "|") {
			if v, ok := strings.CutPrefix(kv, label+"="); ok {
				seen[v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// windowEdge is everything read at one edge of the traced window.
type windowEdge struct {
	reg     scrape
	store   storeCounts
	mem     runtime.MemStats
	indexed map[int64]bool
}

func readEdge(st *stack) (windowEdge, error) {
	var e windowEdge
	var err error
	if e.reg, err = scrapeRegistry(st.db.Obs()); err != nil {
		return e, err
	}
	if st.store != nil {
		e.store = st.store.counts()
	}
	runtime.ReadMemStats(&e.mem)
	e.indexed = st.indexedSegments()
	return e, nil
}
