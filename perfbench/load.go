package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/client"
	"vectordb/internal/rest"
)

// maxConns is how many client connections the benchmark opens, one per
// CPU of the two-CPU machines it is sized for. Open-loop requests queue for
// a free connection, and their wait counts in their latency.
const maxConns = 2

type opKind int

const (
	opSearch opKind = iota
	opFiltered
	opInsert
	opDelete
	opFlush
	numKinds
)

var kindNames = [numKinds]string{"search", "filtered", "insert", "delete", "flush"}

// op is one scheduled request. due is when an open loop was to send it;
// a closed loop leaves it zero and times from the send.
type op struct {
	kind  opKind
	due   time.Time
	q     *query
	batch int
}

// sample is one latency: at is when the op was due (open loop) or sent
// (closed loop), ms how long from then until its reply, traced whether
// tracing was recording when it was sent.
type sample struct {
	at     time.Time
	ms     float64
	traced bool
}

// checkClass is the kind of a failed check. Each is counted apart.
type checkClass int

const (
	classUnderfill checkClass = iota // an unfiltered search with fewer than K hits
	classExcess                      // more hits than K or than the filter admits
	classID                          // unknown or duplicate ID
	classOrder                       // distances not ascending
	classDistance                    // distance differs from the exact one
	classFilter                      // hit fails the request's predicate
	classDeleted                     // hit deleted before a covering flush
	classCount                       // Count() differs from inserted minus deleted
	classError                       // the request itself failed
	numClasses
)

var classNames = [numClasses]string{
	"underfill", "excess", "id", "order", "distance", "filter", "deleted", "count", "error",
}

// violation is one failed check, with the text of its first instance.
type violation struct {
	class checkClass
	msg   string
}

// recorder collects one phase's outcomes from every connection goroutine.
type recorder struct {
	mu        sync.Mutex
	lat       [numKinds][]sample
	attempted int64
	failed    int64              // failed operations
	byClass   [numClasses]int64  // failed operations per violated class
	problems  [numClasses]string // first failure text per class
	recallSum float64
	recallN   int
	lateMs    []float64

	// filtered answers with fewer than K hits although the filter admits
	// more: a partial IVF probe may find too few admitted rows, which the
	// engine allows and recall scores, so they are counted, not failed
	short      int64
	shortFirst string

	// traced round trips of searches, all and filtered only
	rtNs, rtN                 int64
	rtFilteredNs, rtFilteredN int64
}

// fail counts one failed operation under each class it violated.
func (r *recorder) fail(vs ...violation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	for _, v := range vs {
		r.byClass[v.class]++
		if r.problems[v.class] == "" {
			r.problems[v.class] = v.msg
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for c := range r.byClass {
		r.byClass[c] += o.byClass[c]
		if r.problems[c] == "" {
			r.problems[c] = o.problems[c]
		}
	}
	r.recallSum += o.recallSum
	r.recallN += o.recallN
	r.short += o.short
	if r.shortFirst == "" {
		r.shortFirst = o.shortFirst
	}
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.rtNs += o.rtNs
	r.rtN += o.rtN
	r.rtFilteredNs += o.rtFilteredNs
	r.rtFilteredN += o.rtFilteredN
}

// judge checks one search answer. expect is the exact hit count required
// (min(K, rows the filter admits)), or -1 when only "K, or fewer only when
// the filter admits fewer" can be known up front; hidden reports IDs that
// must not appear; withRecall scores the answer against q.truth.
type judge struct {
	d          *dataset
	expect     int
	hidden     func(id int64) bool
	withRecall bool
}

// check runs every check on one answer and returns the violations, at
// most one per class. short describes a filtered answer with fewer hits
// than K and than the filter admits, "" otherwise. When the judge scores
// recall, scored is set and recall is the share of the exact top K the
// answer holds, whatever the checks found: a short answer scores the true
// neighbours it has.
func (j judge) check(q *query, res []client.Result) (recall float64, scored bool, short string, vs []violation) {
	var seenClass [numClasses]bool
	add := func(c checkClass, format string, args ...any) {
		if !seenClass[c] {
			seenClass[c] = true
			vs = append(vs, violation{c, fmt.Sprintf(q.filter.label+": "+format, args...)})
		}
	}
	need := j.expect
	if need < 0 {
		need = min(topK, q.matches)
	}
	if len(res) < need {
		// An unfiltered search always reaches K rows; a filtered one
		// probing part of an IVF index may not (see README.md).
		if q.filter.kind == noFilter {
			add(classUnderfill, "%d hits, want %d", len(res), need)
		} else {
			short = fmt.Sprintf("%s: %d hits, want %d (%d admissible rows)", q.filter.label, len(res), need, q.matches)
		}
	}
	if len(res) > topK || (j.expect >= 0 && len(res) > j.expect) {
		add(classExcess, "%d hits for K=%d with %d admissible rows", len(res), topK, q.matches)
	}
	// A hit is a true neighbour when it passes every check and its exact
	// distance is no farther than the exact K-th, which counts ties at the
	// boundary correctly.
	kth := math.Inf(-1)
	if len(q.truth) > 0 {
		kth = float64(q.truth[len(q.truth)-1])
	}
	good := 0
	seen := make(map[int64]bool, len(res))
	for i, h := range res {
		if h.ID < 0 || h.ID >= int64(j.d.rows()) {
			add(classID, "hit %d: unknown id %d", i, h.ID)
			continue
		}
		ok := true
		if seen[h.ID] {
			add(classID, "hit %d: duplicate id %d", i, h.ID)
			ok = false
		}
		seen[h.ID] = true
		if i > 0 && h.Distance < res[i-1].Distance {
			add(classOrder, "hit %d: distance %g after %g", i, h.Distance, res[i-1].Distance)
		}
		if !q.filter.admits(j.d, h.ID) {
			add(classFilter, "hit %d: id %d fails the filter", i, h.ID)
			ok = false
		}
		if j.hidden != nil && j.hidden(h.ID) {
			add(classDeleted, "hit %d: id %d was deleted before a covering flush", i, h.ID)
			ok = false
		}
		want := float64(l2(q.vec, j.d.row(h.ID), float32(math.Inf(1))))
		if math.Abs(float64(h.Distance)-want) > 1e-3*math.Max(1, want) {
			add(classDistance, "hit %d: id %d distance %g, exact %g", i, h.ID, h.Distance, want)
			ok = false
		}
		if ok && want <= kth+1e-3*math.Max(1, kth) {
			good++
		}
	}
	if !j.withRecall || len(q.truth) == 0 {
		return 0, false, short, vs
	}
	return math.Min(1, float64(good)/float64(len(q.truth))), true, short, vs
}

// runSearch sends one search of q over cn and checks the answer. The
// answer counts as traced when tr is recording as it is sent.
func runSearch(cn *conn, q *query, nprobe int, j judge, rec *recorder, o op, tr *tracer) {
	opts := &client.SearchOptions{Nprobe: nprobe}
	kind := opSearch
	switch q.filter.kind {
	case rangeFilter:
		kind = opFiltered
		opts.Filter = &client.Filter{Attr: attrName, Lo: q.filter.lo, Hi: q.filter.hi}
	case inFilter:
		kind = opFiltered
		opts.CatFilter = &rest.CatFilterJSON{Attr: catName, Values: q.filter.cats}
	}
	traced := tr.recording()
	t0 := time.Now()
	res, err := cn.c.Search(collection, q.vec, topK, opts)
	t1 := time.Now()
	from := o.due
	if from.IsZero() {
		from = t0
	}
	// Recall scores every answer the server returned; only a failed
	// request has none to score.
	var recall float64
	var scored bool
	var short string
	var vs []violation
	if err == nil {
		recall, scored, short, vs = j.check(q, res)
	} else {
		vs = []violation{{classError, fmt.Sprintf("%s %s: %v", kindNames[kind], q.filter.label, err)}}
	}
	rec.mu.Lock()
	rec.attempted++
	rec.lat[kind] = append(rec.lat[kind], sample{from, ms(t1.Sub(from)), traced})
	if traced {
		rec.rtNs += int64(t1.Sub(t0))
		rec.rtN++
		if kind == opFiltered {
			rec.rtFilteredNs += int64(t1.Sub(t0))
			rec.rtFilteredN++
		}
	}
	if scored {
		rec.recallSum += recall
		rec.recallN++
	}
	if short != "" {
		rec.short++
		if rec.shortFirst == "" {
			rec.shortFirst = short
		}
	}
	rec.mu.Unlock()
	if len(vs) > 0 {
		rec.fail(vs...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeOp runs a non-search request and records its latency from due.
func timeOp(kind opKind, due time.Time, rec *recorder, call func() error) error {
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	if due.IsZero() {
		due = t0
	}
	rec.mu.Lock()
	rec.attempted++
	rec.lat[kind] = append(rec.lat[kind], sample{at: due, ms: ms(t1.Sub(due))})
	rec.mu.Unlock()
	if err != nil {
		rec.fail(violation{classError, fmt.Sprintf("%s: %v", kindNames[kind], err)})
	}
	return err
}

// openLoop sends ops on their fixed schedule: each is handed, when due, to
// whichever of conns is free. It returns once every op sent
// has completed. The queue holds the whole schedule, so the generator
// never blocks behind a slow server; how late it ran is recorded.
func openLoop(ops []op, conns []*conn, rec *recorder, exec func(*conn, op)) {
	queue := make(chan op, len(ops))
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for o := range queue {
				exec(cn, o)
			}
		}(cn)
	}
	late := make([]float64, 0, len(ops))
	for _, o := range ops {
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(o.due)))
		queue <- o
	}
	close(queue)
	wg.Wait()
	rec.mu.Lock()
	rec.lateMs = append(rec.lateMs, late...)
	rec.mu.Unlock()
}

// closedLoop runs one caller per connection, each sending the next op of
// the sequence as soon as its previous reply arrived, until deadline.
func closedLoop(deadline time.Time, next func(i int) op, conns []*conn, exec func(*conn, op)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				exec(cn, next(int(cursor.Add(1)-1)))
			}
		}(cn)
	}
	wg.Wait()
}
