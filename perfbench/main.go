// Command perfbench is the repository's end-to-end benchmark. It starts the
// serving stack in-process (core.NewDB, optional tiering,
// rest.NewServerWithConfig on a loopback listener), drives it through the
// client package over at most two connections, checks every answer against
// its own exact oracle, and prints one JSON result as its last line.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer attribution (see README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"vectordb/internal/vec"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve, ingest or ooc")
	seed := flag.Int64("seed", 1, "seed for data, queries and schedules")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer attribution instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's data files")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := newRunner(w, *seed, *seconds, *trace == 1, *workdir)
	if err := r.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	all := &recorder{}
	o := &r.out
	for _, rec := range []*recorder{o.setupLoad, o.warm, o.open, o.closed, o.writes, o.final} {
		all.merge(rec)
	}
	m, info := newMetrics(), newMetrics()
	if r.traced {
		m = r.perLayer()
		m.set("checks.underfilled", float64(all.short), "count", int(all.attempted))
	} else {
		m, info = r.endToEnd()
	}

	for c, n := range all.byClass {
		if all.problems[c] != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %d failed %s check(s), first: %s\n", n, classNames[c], all.problems[c])
		}
	}
	if all.short > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d under-filled filtered answer(s), first: %s\n", all.short, all.shortFirst)
	}
	for _, k := range m.order {
		if v := m.vals[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", k)
			os.Exit(1)
		}
	}

	out := bufio.NewWriter(os.Stdout)
	env, _ := json.Marshal(map[string]any{"env": r.fingerprint()})
	fmt.Fprintln(out, string(env))
	for _, k := range m.order {
		fmt.Fprintf(out, "%-34s %14.4f %-6s samples=%d\n", k, m.vals[k].Value, m.vals[k].Unit, m.samples[k])
	}
	for _, k := range info.order {
		fmt.Fprintf(out, "%-34s %14.4f %-6s samples=%d (not in the result)\n", k, info.vals[k].Value, info.vals[k].Unit, info.samples[k])
	}
	fmt.Fprintf(out, "%-34s %14d\n%-34s %14d\n%-34s %14d\n", "attempted", all.attempted, "failed", all.failed, "underfilled", all.short)
	for c, n := range all.byClass {
		fmt.Fprintf(out, "%-34s %14d\n", "failed."+classNames[c], n)
	}
	res, _ := json.Marshal(result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m.vals})
	fmt.Fprintln(out, string(res))
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
}

// fingerprint describes the machine, the runtime and the run's fixed
// settings, plus the segment layout each set-up ended with.
func (r *runner) fingerprint() map[string]any {
	w := r.w
	rates := map[string]any{
		"search_qps": w.readQPS, "filtered_share": w.filteredShare,
		"open_s": r.openDur().Seconds(), "closed_s": r.closedDur().Seconds(), "write_s": r.writeDur().Seconds(),
		"writes_beside_reads": w.ingest, "insert_rows_per_s": writeRows * writeHz,
		"insert_batches_per_s": writeHz, "deletes_per_batch": writeDel, "flush_every_s": writeFlush.Seconds(),
	}
	late := &recorder{}
	late.merge(r.out.open)
	return map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"simd":         vec.CurrentLevel().String(),
		"go":           runtime.Version(),
		"workload":     w.name,
		"seed":         r.seed,
		"seconds":      r.seconds,
		"traced":       r.traced,
		"rows":         w.rows,
		"nlist":        nlist,
		"nprobe":       w.nprobe,
		"cache_bytes":  map[bool]int64{true: w.cacheBytes(), false: 0}[w.tiered],
		"rates":        rates,
		"setup_s":      r.out.setupS,
		"setup_layout": r.out.layouts,
		"end_layout":   r.out.endLayout,
		"late_p99_ms":  quantile(late.lateMs, 0.99),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
