package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/client"
)

// Set-up loads rows in batches of loadBatch over both connections, then
// flushes once.
const loadBatch = 512

// An untraced run sets up at least setupMinReps times and until the
// set-ups took setupMinS seconds, at most setupMaxReps times; setup_s is
// their median. A cheap set-up (ingest, ~0.35 s) is thereby repeated more,
// so one slow one moves its median less. A traced run sets up once.
const (
	setupMinReps = 3
	setupMaxReps = 9
	setupMinS    = 3.0
)

// outcome is everything one run measured.
type outcome struct {
	setupS     []float64
	setupLoad  *recorder // set-up inserts and flushes, all reps
	warm       *recorder
	open       *recorder // open loop
	closed     *recorder
	closedFrom time.Time
	closedTo   time.Time
	writes     *recorder // write stream of read-only workloads
	final      *recorder // final flush and count check
	layouts    []layout  // at the end of each set-up
	endLayout  layout    // after the final flush
	setupEdge  windowEdge
	edges      [2]windowEdge // traced window: from the open loop to the end
	tr         *tracer
	userBytes  int64 // bytes of rows inserted inside the traced window
}

type runner struct {
	w        *workload
	seed     int64
	seconds  float64
	traced   bool
	dir      string
	d        *dataset
	plain    []*query
	filtered []*query
	rng      *rand.Rand
	out      outcome

	// Write-stream bookkeeping. The single write connection writes these;
	// searches read only delOrd (fixed up front) and covered.
	delIDs  [][]int64    // IDs each insert batch's delete removes
	delOrd  []int32      // per ID above w.rows: its delete batch, or -1
	acked   []bool       // per insert batch: insert acknowledged
	deleted []bool       // per ID above w.rows: delete acknowledged
	lastDel atomic.Int64 // 1 + newest acknowledged delete batch
	covered atomic.Int64 // delete batches a completed flush covers
}

func newRunner(w *workload, seed int64, seconds float64, traced bool, workdir string) *runner {
	r := &runner{
		w: w, seed: seed, seconds: seconds, traced: traced,
		dir: filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid())),
		rng: rand.New(rand.NewSource(seed)),
	}
	r.d = genDataset(r.rng, w.rows+r.maxBatches()*writeRows)
	r.plain, r.filtered = makePool(w, r.d, r.rng)
	r.planDeletes()
	return r
}

func (r *runner) share(f float64) time.Duration {
	return time.Duration(r.seconds * f * float64(time.Second))
}

func (r *runner) openDur() time.Duration   { return r.share(r.w.openShare) }
func (r *runner) closedDur() time.Duration { return r.share(r.w.closedShare) }

// writeDur is how long the write stream runs.
func (r *runner) writeDur() time.Duration {
	if r.w.ingest {
		return r.openDur()
	}
	return r.share(1 - r.w.openShare - r.w.closedShare)
}

func (r *runner) maxBatches() int { return r.writeBatches(r.writeDur()) + 1 }

func (r *runner) writeBatches(dur time.Duration) int { return int(dur.Seconds() * writeHz) }

// planDeletes fixes, per insert batch, which of its IDs the following
// delete removes.
func (r *runner) planDeletes() {
	w := r.w
	nb := r.maxBatches()
	r.delIDs = make([][]int64, nb)
	r.delOrd = make([]int32, nb*writeRows)
	r.acked = make([]bool, nb)
	r.deleted = make([]bool, nb*writeRows)
	for i := range r.delOrd {
		r.delOrd[i] = -1
	}
	for b := 0; b < nb; b++ {
		for _, k := range r.rng.Perm(writeRows)[:writeDel] {
			id := int64(w.rows + b*writeRows + k)
			r.delIDs[b] = append(r.delIDs[b], id)
			r.delOrd[id-int64(w.rows)] = int32(b)
		}
	}
}

// live reports whether id is visible once every acknowledged write is.
func (r *runner) live(id int64) bool {
	if id < int64(r.w.rows) {
		return true
	}
	k := id - int64(r.w.rows)
	return r.acked[int(k)/writeRows] && !r.deleted[k]
}

func (r *runner) entities(lo, hi int) []client.Entity {
	out := make([]client.Entity, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, client.Entity{
			ID:      int64(id),
			Vectors: [][]float32{r.d.row(int64(id))},
			Attrs:   []int64{r.d.attrs[id]},
			Cats:    []string{r.d.cats[id]},
		})
	}
	return out
}

func (r *runner) pool() []*query {
	return append(append([]*query(nil), r.plain...), r.filtered...)
}

// setUp boots a stack and loads, flushes and indexes the initial rows,
// recording how many seconds that took.
func (r *runner) setUp(rep int) (*stack, error) {
	t0 := time.Now()
	st, err := startStack(r.w, filepath.Join(r.dir, fmt.Sprintf("rep-%d", rep)), r.out.tr)
	if err != nil {
		return nil, err
	}
	if err := st.createCollection(r.w); err != nil {
		st.close()
		return nil, err
	}
	rec := r.out.setupLoad
	var next atomic.Int64
	parallel(st.conns, func(cn *conn) {
		for lo := int(next.Add(loadBatch)) - loadBatch; lo < r.w.rows; lo = int(next.Add(loadBatch)) - loadBatch {
			ents := r.entities(lo, min(lo+loadBatch, r.w.rows))
			_ = timeOp(opInsert, time.Time{}, rec, func() error { return cn.c.Insert(collection, ents) })
		}
	})
	_ = timeOp(opFlush, time.Time{}, rec, func() error { return st.conns[0].c.Flush(collection) })
	st.col.WaitIndexed()
	r.out.setupS = append(r.out.setupS, time.Since(t0).Seconds())
	r.out.layouts = append(r.out.layouts, st.layout())
	return st, nil
}

func (r *runner) run() error {
	o := &r.out
	o.setupLoad, o.warm, o.open = &recorder{}, &recorder{}, &recorder{}
	o.closed, o.writes, o.final = &recorder{}, &recorder{}, &recorder{}
	if r.traced {
		o.tr = &tracer{}
	}
	defer os.RemoveAll(r.dir)

	solve(r.d, func(id int64) bool { return id < int64(r.w.rows) }, r.pool())

	var st *stack
	for rep, spent := 0, 0.0; ; rep++ {
		var err error
		if st, err = r.setUp(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		spent += o.setupS[rep]
		if r.traced || rep+1 == setupMaxReps || (rep+1 >= setupMinReps && spent >= setupMinS) {
			break
		}
		if err := st.close(); err != nil {
			return fmt.Errorf("tear-down: %w", err)
		}
		// Each set-up starts without the last one's garbage.
		runtime.GC()
	}
	err := r.measure(st)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	return err
}

// staticJudge checks answers against the rows q.truth was solved over.
func (r *runner) staticJudge(q *query) judge {
	return judge{d: r.d, expect: min(topK, q.matches), withRecall: true}
}

// liveJudge checks answers while the write stream runs: K hits unless the
// filter admits fewer, and no ID whose delete a completed flush covered
// when the search was sent.
func (r *runner) liveJudge() judge {
	cov := r.covered.Load()
	base := int64(r.w.rows)
	return judge{d: r.d, expect: -1, hidden: func(id int64) bool {
		k := id - base
		return k >= 0 && r.delOrd[k] >= 0 && int64(r.delOrd[k]) < cov
	}}
}

func (r *runner) measure(st *stack) error {
	w, o := r.w, &r.out
	if r.traced {
		var err error
		if o.setupEdge, err = readEdge(st); err != nil {
			return err
		}
	}
	// The set-up leaves garbage; collect it before timing. Then one
	// unmeasured pass over the query pool lets the planner calibrate and
	// the block cache fill.
	runtime.GC()
	pool := r.pool()
	var wi atomic.Int64
	parallel(st.conns, func(cn *conn) {
		for i := int(wi.Add(1) - 1); i < len(pool); i = int(wi.Add(1) - 1) {
			runSearch(cn, pool[i], w.nprobe, r.staticJudge(pool[i]), o.warm, op{}, nil)
		}
	})

	// Open loop. A traced run switches tracing on and off every second of
	// it, for trace.overhead, and keeps it on for the rest of the run.
	tr := o.tr
	if r.traced {
		if err := r.startWindow(st); err != nil {
			return err
		}
	}
	start := time.Now()
	dur := r.openDur()
	reads := searchOps(w, r.rng, r.plain, r.filtered, start, dur)
	if !w.ingest {
		openLoop(reads, st.conns, o.open, func(cn *conn, op op) {
			runSearch(cn, op.q, w.nprobe, r.staticJudge(op.q), o.open, op, tr)
		})
	} else {
		n := r.writeBatches(dur)
		writes := writeOps(start, 0, n, dur)
		o.userBytes = int64(n*writeRows) * rowBytes
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(writes, st.conns[:1], o.open, func(cn *conn, op op) { r.write(cn, op, o.open) })
		}()
		openLoop(reads, st.conns[1:], o.open, func(cn *conn, op op) {
			runSearch(cn, op.q, w.nprobe, r.liveJudge(), o.open, op, tr)
		})
		wg.Wait()
	}
	tr.hold()
	if w.ingest {
		// Searches from here on see the final rows: check them against a
		// fresh oracle.
		r.finalCheck(st)
		solve(r.d, r.live, pool)
	}

	// Closed loop over the same search mix.
	seq := make([]op, 1<<14)
	for i := range seq {
		seq[i] = drawSearch(w, r.rng, r.plain, r.filtered)
	}
	o.closedFrom = time.Now()
	o.closedTo = o.closedFrom.Add(r.closedDur())
	closedLoop(o.closedTo, func(i int) op { return seq[i%len(seq)] }, st.conns, func(cn *conn, op op) {
		runSearch(cn, op.q, w.nprobe, r.staticJudge(op.q), o.closed, op, tr)
	})

	if !w.ingest {
		// The write stream of the read-only workloads, after their reads.
		dur := r.writeDur()
		n := r.writeBatches(dur)
		o.userBytes = int64(n*writeRows) * rowBytes
		openLoop(writeOps(time.Now(), 0, n, dur), st.conns[:1], o.writes, func(cn *conn, op op) {
			r.write(cn, op, o.writes)
		})
		r.finalCheck(st)
	}
	if r.traced {
		return r.endWindow(st)
	}
	return nil
}

// finalCheck flushes, waits for index builds, and checks that Count()
// equals the rows loaded plus those inserted minus those deleted.
func (r *runner) finalCheck(st *stack) {
	rec := r.out.final
	_ = timeOp(opFlush, time.Time{}, rec, func() error { return st.conns[0].c.Flush(collection) })
	st.col.WaitIndexed()
	want := 0
	for id := int64(0); id < int64(r.d.rows()); id++ {
		if r.live(id) {
			want++
		}
	}
	rec.mu.Lock()
	rec.attempted++
	rec.mu.Unlock()
	if got := st.col.Count(); got != want {
		rec.fail(violation{classCount, fmt.Sprintf("Count()=%d, inserted minus deleted=%d", got, want)})
	}
	r.out.endLayout = st.layout()
}

func (r *runner) startWindow(st *stack) error {
	e, err := readEdge(st)
	if err != nil {
		return err
	}
	r.out.edges[0] = e
	r.out.tr.start(st.db.QueryLog())
	return nil
}

func (r *runner) endWindow(st *stack) error {
	r.out.tr.finish()
	e, err := readEdge(st)
	r.out.edges[1] = e
	return err
}

// parallel runs fn once per connection and returns when all have.
func parallel(conns []*conn, fn func(*conn)) {
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			fn(cn)
		}(cn)
	}
	wg.Wait()
}

// write executes one op of the write stream.
func (r *runner) write(cn *conn, o op, rec *recorder) {
	w := r.w
	switch o.kind {
	case opInsert:
		lo := w.rows + o.batch*writeRows
		ents := r.entities(lo, lo+writeRows)
		if timeOp(opInsert, o.due, rec, func() error { return cn.c.Insert(collection, ents) }) != nil {
			return
		}
		r.acked[o.batch] = true
		ids := r.delIDs[o.batch]
		if timeOp(opDelete, time.Time{}, rec, func() error { return cn.c.Delete(collection, ids) }) != nil {
			return
		}
		for _, id := range ids {
			r.deleted[id-int64(w.rows)] = true
		}
		r.lastDel.Store(int64(o.batch) + 1)
	case opFlush:
		pending := r.lastDel.Load()
		if timeOp(opFlush, o.due, rec, func() error { return cn.c.Flush(collection) }) == nil {
			r.covered.Store(pending)
		}
	}
}
