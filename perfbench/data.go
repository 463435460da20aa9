package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// The data model follows dataset.SIFTLike: 128-d non-negative descriptors
// drawn around latent cluster centres, rounded to integers as real SIFT
// descriptors are (which also keeps the JSON on the wire compact, and every
// squared L2 distance an integer that float32 accumulates exactly). Each row
// carries one int attribute ("price", uniform) and one categorical field
// ("color", uniform over numCats values).
const (
	dim        = 128
	numLatent  = 64
	attrRange  = 1_000_000
	numCats    = 20
	topK       = 10
	noiseSigma = 8
	attrName   = "price"
	catName    = "color"
	vecName    = "v"
	collection = "bench"
)

// rowBytes is the user payload of one row: vector, ID, attribute and the
// (three-byte) category string. objstore.write_amp divides by it.
const rowBytes = 4*dim + 8 + 8 + 3

type dataset struct {
	centers []float32 // numLatent*dim
	vecs    []float32 // rows*dim, row i has ID i
	attrs   []int64
	cats    []string
}

func (d *dataset) rows() int              { return len(d.attrs) }
func (d *dataset) row(id int64) []float32 { return d.vecs[id*dim : (id+1)*dim] }

func catValue(i int) string { return fmt.Sprintf("c%02d", i) }

// genDataset draws n rows from the mixture.
func genDataset(rng *rand.Rand, n int) *dataset {
	d := &dataset{
		centers: make([]float32, numLatent*dim),
		vecs:    make([]float32, n*dim),
		attrs:   make([]int64, n),
		cats:    make([]string, n),
	}
	for i := range d.centers {
		d.centers[i] = float32(rng.Float64() * 128)
	}
	for i := 0; i < n; i++ {
		d.draw(rng, rng.Intn(numLatent), d.vecs[i*dim:(i+1)*dim])
		d.attrs[i] = rng.Int63n(attrRange)
		d.cats[i] = catValue(rng.Intn(numCats))
	}
	return d
}

// draw writes one fresh vector around latent centre c into dst.
func (d *dataset) draw(rng *rand.Rand, c int, dst []float32) {
	base := d.centers[c*dim : (c+1)*dim]
	for j := range dst {
		v := math.Round(float64(base[j]) + rng.NormFloat64()*noiseSigma)
		dst[j] = float32(math.Min(255, math.Max(0, v)))
	}
}

// filterSpec is a query's predicate: none, an inclusive range on price, or
// an IN list on color.
type filterSpec struct {
	kind   filterKind
	lo, hi int64
	cats   []string
	label  string // selectivity class, for reporting
}

type filterKind int

const (
	noFilter filterKind = iota
	rangeFilter
	inFilter
)

func (f *filterSpec) admits(d *dataset, id int64) bool {
	switch f.kind {
	case rangeFilter:
		return d.attrs[id] >= f.lo && d.attrs[id] <= f.hi
	case inFilter:
		for _, c := range f.cats {
			if d.cats[id] == c {
				return true
			}
		}
		return false
	}
	return true
}

// rangeWithSelectivity draws an inclusive price range admitting the share
// sel of the uniform attribute domain.
func rangeWithSelectivity(rng *rand.Rand, sel float64) filterSpec {
	width := int64(sel * attrRange)
	lo := rng.Int63n(attrRange - width + 1)
	return filterSpec{kind: rangeFilter, lo: lo, hi: lo + width - 1, label: fmt.Sprintf("range_%g", sel)}
}

// inList draws an IN filter over one or two distinct categories.
func inList(rng *rand.Rand) filterSpec {
	n := 1 + rng.Intn(2)
	perm := rng.Perm(numCats)[:n]
	f := filterSpec{kind: inFilter, label: fmt.Sprintf("in_%d", n)}
	for _, c := range perm {
		f.cats = append(f.cats, catValue(c))
	}
	return f
}

// query is one entry of a workload's query pool. truth holds the exact
// top-K distances (ascending) over the live rows the query is judged
// against, and matches how many live rows its filter admits.
type query struct {
	vec     []float32
	filter  filterSpec
	truth   []float32
	matches int
}

// l2 is the oracle's distance: a plain loop, independent of the engine's
// SIMD kernels. It stops early once the partial sum exceeds bound.
func l2(a, b []float32, bound float32) float32 {
	var s float32
	for j := 0; j < len(a); j += 16 {
		for k := j; k < j+16; k++ {
			d := a[k] - b[k]
			s += d * d
		}
		if s > bound {
			return s
		}
	}
	return s
}

// solve computes every query's exact answer over the rows live reports as
// visible: filter first, then scan. It runs one goroutine per CPU and
// returns once all are done.
func solve(d *dataset, live func(id int64) bool, qs []*query) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan *query)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				solveOne(d, live, q)
			}
		}()
	}
	for _, q := range qs {
		next <- q
	}
	close(next)
	wg.Wait()
}

func solveOne(d *dataset, live func(id int64) bool, q *query) {
	best := make([]float32, 0, topK+1)
	bound := float32(math.Inf(1))
	q.matches = 0
	for id := int64(0); id < int64(d.rows()); id++ {
		if !live(id) || !q.filter.admits(d, id) {
			continue
		}
		q.matches++
		dist := l2(q.vec, d.row(id), bound)
		if len(best) == topK && dist >= bound {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return best[i] > dist })
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = dist
		if len(best) > topK {
			best = best[:topK]
		}
		if len(best) == topK {
			bound = best[topK-1]
		}
	}
	q.truth = best
}
