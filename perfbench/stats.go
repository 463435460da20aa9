package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func values(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.ms
	}
	return xs
}

// windowed splits samples into consecutive windows of length win by their
// time, takes the q-quantile within each window holding at least
// minWindowSamples, and returns the median over those windows with the
// number of samples they held. A stall confined to a few windows moves the
// result less than it moves a quantile over the whole phase.
func windowed(ss []sample, q float64, win time.Duration) (float64, int) {
	if len(ss) == 0 {
		return math.NaN(), 0
	}
	t0 := ss[0].at
	for _, s := range ss {
		if s.at.Before(t0) {
			t0 = s.at
		}
	}
	byWin := map[int64][]float64{}
	for _, s := range ss {
		w := int64(s.at.Sub(t0) / win)
		byWin[w] = append(byWin[w], s.ms)
	}
	var per []float64
	n := 0
	for _, xs := range byWin {
		if len(xs) >= minWindowSamples {
			per = append(per, quantile(xs, q))
			n += len(xs)
		}
	}
	return median(per), n
}

// minWindowSamples keeps near-empty trailing windows out of windowed.
const minWindowSamples = 20

// rate is how many samples fall in a window of length win, per second:
// the mean over the middle half of the windows wholly inside [from, to),
// so a stall in a few windows does not move it.
func rate(ss []sample, from, to time.Time, win time.Duration) (float64, int) {
	nwin := int(to.Sub(from) / win)
	if nwin == 0 {
		return math.NaN(), 0
	}
	counts := make([]float64, nwin)
	n := 0
	for _, s := range ss {
		if w := int(s.at.Sub(from) / win); w >= 0 && w < nwin {
			counts[w]++
			n++
		}
	}
	sort.Float64s(counts)
	mid := counts[nwin/4 : nwin-nwin/4]
	sum := 0.0
	for _, c := range mid {
		sum += c
	}
	return sum / float64(len(mid)) / win.Seconds(), n
}
