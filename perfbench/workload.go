package main

import (
	"math"
	"math/rand"
	"time"
)

// workload is one traffic mix with the deployment it runs against.
//
// Every workload has the same write stream (see writeRows). On ingest it
// runs beside the open-loop searches; on the read-only workloads it runs
// alone after the searches, so insert and flush latency are measured on
// every deployment without the reads ever seeing a changing collection.
type workload struct {
	name string

	rows    int  // rows loaded in set-up
	nprobe  int  // per-search nprobe
	durable bool // object store on disk, as vectordbd -data
	tiered  bool // out-of-core segments, as vectordbd -tier-dir
	zipf    bool // query clusters drawn Zipf rather than uniformly
	ingest  bool // writes run beside the open-loop searches

	readQPS       float64 // open-loop search rate
	filteredShare float64 // share of searches with a filter

	// Shares of --seconds: open loop, then closed loop; the rest (on
	// read-only workloads) is the write stream.
	openShare, closedShare float64
}

// cacheBytes sizes the shared block cache to a quarter of the vector bytes.
func (w *workload) cacheBytes() int64 { return int64(w.rows) * dim * 4 / 4 }

// nlist is the IVF_FLAT nlist every collection is created with.
const nlist = 128

// filterMix is the range-filter selectivities every workload draws from,
// beside IN lists over one or two of the numCats categories.
var filterMix = []float64{0.001, 0.01, 0.1, 0.5}

// loadRows is the read-only workloads' collection size: seven of the
// engine's 4096-row seals. Four of them merge into one 16384-row segment
// that gets an IVF index; the other 12288 rows stay in small unindexed
// segments. The 1 s flush timer may split up to two seals into smaller
// segments without changing which rows are indexed, so the layout that
// searches see does not depend on when the timer fired.
const loadRows = 7 * 4096

// The write stream: insert batches of writeRows at writeHz, each followed
// by a delete of writeDel of its IDs, and a flush every writeFlush (enough
// flushes in a run for a steady median).
const (
	writeRows  = 10
	writeHz    = 100
	writeDel   = 1 // IDs of each batch deleted
	writeFlush = 125 * time.Millisecond
)

var workloads = []*workload{
	// serve: the default deployment with segments in RAM. Unfiltered
	// searches go through batchform, filtered ones bypass it, so each is
	// the other's control; the filtered share exercises predicate compile
	// and the planner's filter strategy.
	{
		name: "serve",
		rows: loadRows, nprobe: 2,
		readQPS: 300, filteredShare: 0.4,
		openShare: 0.6, closedShare: 0.2,
	},
	// ingest: a small durable collection taking writes beside searches,
	// the only workload where the WAL, seals, merges, background index
	// builds and object-store puts do most of the work. Set-up leaves
	// three 4096-row segments; about 4.5 s into the writes the flushed
	// small segments have merged into a fourth, the four merge into one
	// 16384-row segment, and its IVF index builds in the background while
	// searches run: once per run, well inside the 12 s of writes.
	{
		name: "ingest",
		rows: 3 * 4096, nprobe: 2, durable: true, ingest: true,
		readQPS: 150, filteredShare: 0.4,
		openShare: 0.6, closedShare: 0.4,
	},
	// ooc: out of core. Tiered segments are scanned through a block cache
	// holding a quarter of the vector bytes, and Zipf-skewed query
	// clusters make a hot set; serve is its fits-in-memory control.
	{
		name: "ooc",
		rows: loadRows, nprobe: 8, durable: true, tiered: true, zipf: true,
		readQPS: 200, filteredShare: 0.2,
		openShare: 0.6, closedShare: 0.2,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// poolSize is how many distinct queries a run draws; the schedule cycles
// through them so the exact oracle runs once per query, before timing.
// Which queries a seed draws moves recall and the under-fill count (the
// filtered ones at 0.1% selectivity are a few dozen of the pool): with
// 256 queries recall_at_10 on ingest spread 0.038 of its median over ten
// seeds, with 1024 about half that.
const poolSize = 1024

// zipfS is the skew of the query-cluster popularity in zipf workloads.
const zipfS = 1.1

// makePool draws the query pool: unfiltered queries first, then filtered
// ones, in the workload's proportions.
func makePool(w *workload, d *dataset, rng *rand.Rand) (plain, filtered []*query) {
	pick := func() int { return rng.Intn(numLatent) }
	if w.zipf {
		z := rand.NewZipf(rng, zipfS, 1, numLatent-1)
		hot := rng.Perm(numLatent)
		pick = func() int { return hot[z.Uint64()] }
	}
	nf := int(math.Round(poolSize * w.filteredShare))
	for i := 0; i < poolSize; i++ {
		q := &query{vec: make([]float32, dim)}
		d.draw(rng, pick(), q.vec)
		if i < poolSize-nf {
			plain = append(plain, q)
			continue
		}
		if c := rng.Intn(len(filterMix) + 1); c < len(filterMix) {
			q.filter = rangeWithSelectivity(rng, filterMix[c])
		} else {
			q.filter = inList(rng)
		}
		filtered = append(filtered, q)
	}
	return plain, filtered
}

// searchOps builds an open-loop search schedule at w.readQPS over dur,
// starting at start, drawing kinds and queries from rng.
func searchOps(w *workload, rng *rand.Rand, plain, filtered []*query, start time.Time, dur time.Duration) []op {
	n := int(dur.Seconds() * w.readQPS)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = drawSearch(w, rng, plain, filtered)
		ops[i].due = start.Add(time.Duration(float64(i) / w.readQPS * float64(time.Second)))
	}
	return ops
}

func drawSearch(w *workload, rng *rand.Rand, plain, filtered []*query) op {
	if len(filtered) > 0 && rng.Float64() < w.filteredShare {
		return op{kind: opFiltered, q: filtered[rng.Intn(len(filtered))]}
	}
	return op{kind: opSearch, q: plain[rng.Intn(len(plain))]}
}

// writeOps builds a write schedule over dur: insert batch j is due at
// j/writeHz (batches numbered from first) and a flush every writeFlush,
// half an insert interval after the insert due then, so an insert waits
// behind a flush on the shared connection only when the flush is slow.
func writeOps(start time.Time, first, n int, dur time.Duration) []op {
	interval := time.Second / writeHz
	var ops []op
	nextFlush := writeFlush + interval/2
	for j := 0; j < n; j++ {
		at := time.Duration(j) * interval
		for nextFlush <= at {
			ops = append(ops, op{kind: opFlush, due: start.Add(nextFlush)})
			nextFlush += writeFlush
		}
		ops = append(ops, op{kind: opInsert, due: start.Add(at), batch: first + j})
	}
	for ; nextFlush <= dur; nextFlush += writeFlush {
		ops = append(ops, op{kind: opFlush, due: start.Add(nextFlush)})
	}
	return ops
}
