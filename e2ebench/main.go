// Command e2ebench is the repository's end-to-end benchmark. It runs the
// real tiers — service backends, the gateway, the client — in one process
// behind loopback TCP listeners built with their public constructors,
// drives one named workload for a fixed time, checks every delivered row,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes a Chrome trace-event
// file. See README.md for the workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	corrupt  bool // perturb the expected checksum, proving the correctness gate trips
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: pull-small, push-bulk or gateway-hot-ingest")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 35, "length of the timed window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/e2ebench-out", "directory for the report and trace files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, err := workloadByName(o.workload); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := rep.save(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. Metrics are the contract metrics of the
// run's mode; Extra are figures printed and saved but not part of the
// result line.
type report struct {
	Workload  string         `json:"workload"`
	Trace     bool           `json:"trace"`
	Env       map[string]any `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   []metric       `json:"metrics"`
	Extra     []metric       `json:"extra"`
	Notes     []string       `json:"notes,omitempty"`
}

// run sets up the workload's deployment, measures it, checks its output
// and assembles the report.
func run(ctx context.Context, o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	// A traced run splits its time between an untraced phase, the base
	// of trace.overhead_frac, and the traced phase, so both modes take
	// about as long.
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	rep := &report{Workload: w.name, Trace: o.trace, Env: environment(w, o)}

	reps := setupReps
	if o.trace {
		reps = 1
	}
	t, setupS, err := setUp(ctx, w, reps, nil)
	if err != nil {
		return nil, err
	}
	base, err := measure(ctx, w, t, o.seed, dur, nil)
	if err != nil {
		t.stop()
		return nil, err
	}
	g := verify(ctx, w, t, base.wr, o.corrupt)
	t.stop()
	rep.tally(base, g)
	rep.Extra = append(rep.Extra, endToEnd(base, setupS)...)
	rep.Extra = append(rep.Extra, workloadExtras(base)...)

	if !o.trace {
		rep.Metrics, rep.Extra = rep.Extra[:len(endToEndNames)], rep.Extra[len(endToEndNames):]
		return rep, nil
	}

	tr := newTracer()
	t2, _, err := setUp(ctx, w, 1, tr)
	if err != nil {
		return nil, err
	}
	tr.reset()
	ph, err := measure(ctx, w, t2, o.seed, dur, tr)
	if err != nil {
		t2.stop()
		return nil, err
	}
	rep.Metrics = perLayer(ph, tr, base)
	g2 := verify(ctx, w, t2, ph.wr, o.corrupt)
	t2.stop()
	rep.tally(ph, g2)
	// The isolated layer timings run once the tiers have stopped and
	// everything but one catalog is garbage, so neither their background
	// work nor their heap is timed with them.
	lanes, cat := laneNames(t2), t2.cats[0]
	runtime.GC()
	iso, err := isolated(cat, w.columns, ph.commandedSizes())
	if err != nil {
		return nil, fmt.Errorf("isolated layer timings: %w", err)
	}
	rep.Metrics = append(rep.Metrics,
		metric{"minidb.scan_ns_per_tuple", iso.scan, "ns"},
		metric{"wire.encode_ns_per_tuple", iso.encode, "ns"},
		metric{"wire.decode_ns_per_tuple", iso.decode, "ns"})
	if gap := valueOf(rep.Metrics, "trace.budget_gap_frac"); gap > budgetTolerance {
		rep.Failed++
		rep.Notes = append(rep.Notes, fmt.Sprintf("layer budget open by %.4f of query wall time, over the %.2f tolerance", gap, budgetTolerance))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
	if err := tr.writeChrome(path, lanes); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.Env["trace_file"] = path
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// setupReps is the minimum number of set-ups in an untraced run; setup_s
// is their median. A traced run sets up once.
const setupReps = 5

// setupBudget is how long set-up keeps repeating past its minimum count
// (up to four times that count), so a set-up of a tenth of a second is
// sampled often enough for a steady median.
const setupBudget = 2 * time.Second

// setUp builds the deployment at least reps times — catalog generation,
// tier start and warm-up each time — keeps the last one running and
// returns the median set-up time in seconds.
func setUp(ctx context.Context, w *workload, reps int, tr *tracer) (*tiers, float64, error) {
	var times []float64
	var t *tiers
	var total time.Duration
	for i := 0; i < reps || (total < setupBudget && i < 4*reps); i++ {
		if t != nil {
			t.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		t, err = start(w, tr)
		if err != nil {
			return nil, 0, err
		}
		if err := warm(ctx, w, t); err != nil {
			t.stop()
			return nil, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	runtime.GC()
	return t, quantile(times, 0.5), nil
}

// tally folds a phase's operations and a gate's checks into the counts.
func (r *report) tally(ph *phase, g gate) {
	r.Attempted += ph.queries + g.attempted
	r.Failed += ph.queryFails + g.failed
	if ph.wr != nil {
		r.Attempted += ph.wr.attempted
		r.Failed += ph.wr.fails
	}
	r.Notes = append(r.Notes, g.notes...)
	r.Correct = r.Failed == 0
}

// endToEndNames are the result-line metrics of an untraced run, in the
// order endToEnd returns them.
var endToEndNames = []string{"tuples_per_s", "query_ms_p50", "query_ms_p95", "block_ms_p50", "block_ms_p95", "cpu_ns_per_tuple", "heap_inuse_peak_mb", "setup_s"}

// endToEnd computes the end-to-end metrics over the whole timed window:
// query-time quantiles over every query, block-time quantiles as the
// median over the window's slices, throughput and CPU per tuple over
// every tuple delivered, and the largest heap sample.
func endToEnd(ph *phase, setupS float64) []metric {
	return []metric{
		{"tuples_per_s", ph.throughput(), "tuples/s"},
		{"query_ms_p50", quantile(ph.queryMs, 0.50), "ms"},
		{"query_ms_p95", quantile(ph.queryMs, 0.95), "ms"},
		{"block_ms_p50", ph.blockQuantile(0.50), "ms"},
		{"block_ms_p95", ph.blockQuantile(0.95), "ms"},
		{"cpu_ns_per_tuple", ratio(float64(ph.cpu), float64(ph.tuples)), "ns"},
		{"heap_inuse_peak_mb", float64(ph.heapPeak) / (1 << 20), "MB"},
		{"setup_s", setupS, "s"},
	}
}

// workloadExtras are printed beside the end-to-end metrics: sample
// counts, the failure share and the writer's side of the trade.
func workloadExtras(ph *phase) []metric {
	pooled := append([]float64(nil), ph.blockMs...) // quantile sorts; keep blockMs in step with blockAt
	m := []metric{
		{"queries", float64(ph.queries), "count"},
		{"blocks", float64(len(ph.blockMs)), "count"},
		// The block-time quantiles pooled over the whole window, beside
		// the median over its slices that the result line carries.
		{"block_ms_p50_pooled", quantile(pooled, 0.50), "ms"},
		{"block_ms_p95_pooled", quantile(pooled, 0.95), "ms"},
	}
	if wr := ph.wr; wr != nil {
		// The writer targets backend 0; the gateway decides which backend
		// serves each read, so record how many reads that backend took.
		var opened, opened0 int64
		for i := range ph.svcAfter {
			d := ph.svcAfter[i].SessionsOpened - ph.svcBefore[i].SessionsOpened
			opened += d
			if i == 0 {
				opened0 = d
			}
		}
		m = append(m,
			metric{"ingest_ms_p50", quantile(wr.ingestMs, 0.50), "ms"},
			metric{"ingest_ms_p95", quantile(wr.ingestMs, 0.95), "ms"},
			metric{"ingest_blocks", float64(wr.attempted), "count"},
			metric{"blockcache_hit_rate", ph.cache().hitRate(), "fraction"},
			metric{"written_backend_read_share", ratio(float64(opened0), float64(opened)), "fraction"})
	}
	return append(m, metric{"failed_frac", ph.failedFrac(), "fraction"})
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// environment records what the figures depend on.
func environment(w *workload, o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	sizes := fmt.Sprintf("static per query, seed-drawn from [%d, %d]", w.sizeLo, w.sizeHi)
	switch {
	case w.push:
		sizes = "hybrid controller per query: x0=1000, limits [100, 20000], seed-derived dither"
	case w.sizeLo == w.sizeHi:
		sizes = fmt.Sprintf("static %d", w.sizeLo)
	}
	env := map[string]any{
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"num_cpu":           runtime.NumCPU(),
		"go_version":        runtime.Version(),
		"git_commit":        commit,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"transport":         "loopback TCP (127.0.0.1), all tiers in one process; no real network link",
		"codec":             "binary",
		"relation":          fmt.Sprintf("customer, %d tuples (TPC-H sf %g)", int(w.sf*150_000), w.sf),
		"columns":           strings.Join(w.columns, ","),
		"block_sizes":       sizes,
		"readers":           w.readers,
		"backends":          w.backends,
		"gateway":           w.gateway,
		"replication":       w.replicate,
		"replica_log":       replicaLogRecords,
		"cache_bytes":       w.cacheBytes,
		"writer_rate_per_s": w.writerRate,
		"writer_rows":       w.writerRows,
	}
	if w.push {
		env["transport_mode"] = "push stream + credit side channel"
	} else {
		env["transport_mode"] = "pull"
	}
	return env
}

// save writes the full report as JSON into the output directory.
func (r *report) save(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if r.Trace {
		mode = 1
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.report.json", r.Workload, o.seed, mode)), b, 0o644)
}

// print writes the human-readable report, then the result line.
func (r *report) print(f *os.File) {
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "e2ebench workload=%s trace=%v\n", r.Workload, r.Trace)
	for _, k := range keys {
		fmt.Fprintf(f, "  env %-18s %v\n", k, r.Env[k])
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(f, "  %-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Extra {
		fmt.Fprintf(f, "  (extra) %-26s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(f, "  FAIL %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A failed operation counts as infinitely slow; JSON has no
			// infinity, so it is printed as the largest double.
			v = math.MaxFloat64
		}
		ms[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return
	}
	fmt.Fprintln(f, string(line))
}
