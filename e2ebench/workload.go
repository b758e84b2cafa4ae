package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wsopt/internal/client"
	"wsopt/internal/core"
	"wsopt/internal/metrics"
	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// workload is one named traffic mix over one deployment.
type workload struct {
	name, why  string
	sf         float64  // TPC-H scale of the customer relation
	columns    []string // projection; nil = full width
	backends   int
	gateway    bool
	replicate  bool
	cacheBytes int64 // per-backend memory blockcache budget; 0 = no cache
	push       bool  // push transport with a fresh hybrid controller per query
	readers    int   // closed-loop reader goroutines, one client each
	sizeLo     int   // per-query static block size range (pull readers)
	sizeHi     int
	writerRate float64 // open-loop ingest blocks per second; 0 = no writer
	writerRows int     // rows per ingest block
}

var workloads = []*workload{
	{
		name:     "pull-small",
		why:      "per-request costs dominate: HTTP round trip, admission, session store, seq/replay commit, controller step",
		sf:       0.2,
		columns:  []string{"c_custkey", "c_acctbal"},
		backends: 1, readers: 2,
		sizeLo: 40, sizeHi: 400,
	},
	{
		name:     "push-bulk",
		why:      "per-tuple costs dominate: scan, encode/decode, socket writes, credit flow; the paper's controller picks sizes",
		sf:       0.5,
		backends: 1, readers: 1, push: true,
	},
	{
		name:     "gateway-hot-ingest",
		why:      "gateway hop, replication feed and cache do the work; an open-loop writer invalidates the cache beside the reader",
		sf:       0.5,
		backends: 2, gateway: true, replicate: true, cacheBytes: 64 << 20,
		readers: 1, sizeLo: 2000, sizeHi: 2000,
		writerRate: 3, writerRows: 8,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) query() client.Query {
	return client.Query{Table: "customer", Columns: w.columns}
}

// sideTable is the ingest target of the open-loop writer.
const sideTable = "bench_ingest"

func sideSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "k", Type: minidb.Int64},
		{Name: "v", Type: minidb.Float64},
		{Name: "s", Type: minidb.String},
	}
}

// sizeDeck draws per-query static block sizes from [lo, hi], stratified
// over eight equal-width strata so every run covers the whole range in
// the same proportions while the seed picks the exact sizes and order.
type sizeDeck struct {
	rng    *rand.Rand
	lo, hi int
	perm   []int
	i      int
}

func (d *sizeDeck) next() int {
	if d.hi <= d.lo {
		return d.lo
	}
	if d.i%len(d.perm) == 0 {
		d.perm = d.rng.Perm(len(d.perm))
	}
	s := d.perm[d.i%len(d.perm)]
	d.i++
	u := (float64(s) + d.rng.Float64()) / float64(len(d.perm))
	return d.lo + int(u*float64(d.hi-d.lo))
}

func newSizeDeck(seed int64, lo, hi int) *sizeDeck {
	return &sizeDeck{rng: rand.New(rand.NewSource(seed)), lo: lo, hi: hi, perm: make([]int, 8)}
}

// reader is one closed-loop load goroutine with its own client and
// connection pool.
type reader struct {
	cl    *client.Client
	reg   *metrics.Registry
	dials atomic.Int64
	rt    *clientRT // nil when untraced

	queryMs, blockMs []float64
	blockAt          []time.Duration // when each block completed, from t0
	t0               time.Time       // start of the timed window
	tuples           int64
	queries, fails   int
	steps, sizes     []float64 // traced: ns per control step, commanded tuples per block
	budget           budget
}

// budget is the traced run's client critical-path decomposition.
type budget struct {
	wall, open, close, wait, step, covered, bytes int64
}

func newReader(w *workload, entry string, tr *tracer) (*reader, error) {
	r := &reader{reg: metrics.NewRegistry()}
	var rt http.RoundTripper = loopbackTransport(&r.dials)
	if tr != nil {
		r.rt = &clientRT{base: rt, t: tr}
		rt = r.rt
	}
	cl, err := client.New(entry, wire.Binary{}, &http.Client{Transport: rt, Timeout: 2 * time.Minute})
	if err != nil {
		return nil, err
	}
	cl.SetMetrics(r.reg)
	cl.SetRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond})
	if w.push {
		cl.SetPush(client.PushConfig{Enabled: true})
	}
	r.cl = cl
	return r, nil
}

// pullQuery runs one query over the pull transport with a static block
// size, Algorithm 1's loop over the public Session API, and returns the
// tuples delivered. When set, onBlock gets each block's time in ms and
// onRows each block's rows.
func pullQuery(ctx context.Context, cl *client.Client, q client.Query, ctl core.Controller, onBlock func(ms float64), onRows func([]minidb.Row)) (int, error) {
	sess, err := cl.OpenSession(ctx, q)
	if err != nil {
		return 0, err
	}
	total := 0
	for !sess.Done() {
		size := ctl.Size()
		blk, err := sess.Next(ctx, size)
		if err != nil {
			_ = sess.Close(ctx) // the pull error is the one to report
			return total, err
		}
		got := len(blk.Rows)
		if got == 0 {
			if !blk.Done {
				_ = sess.Close(ctx)
				return total, fmt.Errorf("empty block without the done flag after %d tuples", total)
			}
			continue
		}
		total += got
		ms := float64(blk.Elapsed) / float64(time.Millisecond)
		if onBlock != nil {
			onBlock(ms)
		}
		if onRows != nil {
			onRows(blk.Rows)
		}
		ctl.Observe(ms / float64(got))
	}
	return total, sess.Close(ctx)
}

// pushQuery runs one query over the push transport through client.Run
// with a fresh hybrid controller at the paper defaults, recording each
// block's time through the controller's observations.
func (r *reader) pushQuery(ctx context.Context, q client.Query, ctl core.Controller) (int, error) {
	tuples := r.reg.Counter("wsopt_client_tuples_total", "")
	obs := &observed{inner: ctl, tuples: tuples, last: tuples.Value(), r: r}
	res, err := r.cl.Run(ctx, q, obs, client.MetricPerTuple, false)
	if res == nil {
		return 0, err
	}
	return res.Tuples, err
}

// observed records each block's time in ms at full precision: what the
// controller observes (Block.Elapsed per tuple) times the block's tuples,
// read as the growth of the client's tuple counter, which the transport
// advances before Run hands the block's time to the controller.
type observed struct {
	inner  core.Controller
	tuples *metrics.Counter
	last   int64
	r      *reader
}

func (o *observed) Size() int    { return o.inner.Size() }
func (o *observed) Name() string { return o.inner.Name() }
func (o *observed) Observe(y float64) {
	n := o.tuples.Value()
	o.r.block(y * float64(n-o.last))
	o.last = n
	o.inner.Observe(y)
}

// block records one block's time in ms and when it completed.
func (r *reader) block(ms float64) {
	r.blockMs = append(r.blockMs, ms)
	r.blockAt = append(r.blockAt, time.Since(r.t0))
}

// hybridFor returns query i's controller: the paper's defaults (x0=1000,
// limits [100, 20000]) with a dither seed derived from the run seed.
func hybridFor(seed int64, reader, i int) (core.Controller, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed*1_000_003 + int64(reader)*10_007 + int64(i)
	return core.NewHybrid(cfg)
}

// runQueries is one reader's closed loop: queries back to back until
// the deadline. Every query must deliver exactly card tuples.
func (r *reader) runQueries(ctx context.Context, w *workload, seed int64, idx, card int, deadline time.Time, tr *tracer) {
	deck := newSizeDeck(seed*7919+int64(idx), w.sizeLo, w.sizeHi)
	q := w.query()
	for i := 0; time.Now().Before(deadline); i++ {
		var ctl core.Controller
		if w.push {
			h, err := hybridFor(seed, idx, i)
			if err != nil {
				r.fails++
				r.queries++
				r.queryMs = append(r.queryMs, inf)
				continue
			}
			ctl = h
		} else {
			ctl = core.NewStatic(deck.next())
		}
		var qt *queryTrace
		if tr != nil {
			qt = &queryTrace{root: tr.start("query", pidClient, nil, 0, 0)}
			r.rt.cur.Store(qt)
			ctl = &stepCtl{inner: ctl, q: qt, steps: &r.steps, sizes: &r.sizes}
		}
		qstart := time.Now()
		var n int
		var err error
		if w.push {
			n, err = r.pushQuery(ctx, q, ctl)
		} else {
			n, err = pullQuery(ctx, r.cl, q, ctl, r.block, nil)
		}
		wall := time.Since(qstart)
		if qt != nil {
			r.rt.cur.Store(nil)
			r.budget.add(qt, qt.root.end())
		}
		r.queries++
		r.tuples += int64(n)
		if err == nil && n != card {
			err = fmt.Errorf("query delivered %d tuples, relation has %d", n, card)
		}
		if err != nil {
			r.fails++
			r.queryMs = append(r.queryMs, inf)
			logf("%s reader %d query %d: %v", w.name, idx, i, err)
			continue
		}
		r.queryMs = append(r.queryMs, float64(wall)/float64(time.Millisecond))
	}
}

// add folds in one query whose root span lasted wall.
func (b *budget) add(q *queryTrace, wall time.Duration) {
	lo := int64(q.root.start.Sub(q.root.t.base))
	cov := q.covered(lo, lo+int64(wall))
	q.mu.Lock()
	defer q.mu.Unlock()
	b.wall += int64(wall)
	b.open += q.open
	b.close += q.close
	b.wait += q.wait
	b.step += q.step
	b.covered += cov
	b.bytes += q.bytes
}

// writer is the open-loop ingest generator: small blocks into the side
// table at a fixed rate, each timed from when it was due.
type writer struct {
	cl        *client.Client
	ingestMs  []float64
	lateMs    []float64
	attempted int
	fails     int
	acked     int
	confirmed int
	sum       uint64 // order-independent checksum of acked rows
}

func (wr *writer) run(ctx context.Context, w *workload, seed int64, t0 time.Time, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	ps, err := wr.cl.OpenPush(ctx, sideTable)
	if err != nil {
		wr.attempted++
		wr.fails++
		logf("%s writer: open: %v", w.name, err)
		return
	}
	interval := time.Duration(float64(time.Second) / w.writerRate)
	schema := sideSchema()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			tm := time.NewTimer(d)
			select {
			case <-stop:
				tm.Stop()
				wr.close(ctx, ps, w)
				return
			case <-tm.C:
			}
		} else {
			select {
			case <-stop:
				wr.close(ctx, ps, w)
				return
			default:
			}
		}
		rows := make([]minidb.Row, w.writerRows)
		for j := range rows {
			rows[j] = minidb.Row{
				minidb.NewInt(int64(k*w.writerRows + j)),
				minidb.NewFloat(float64(rng.Intn(1_000_000)) / 100),
				minidb.NewString(fmt.Sprintf("r%x", rng.Uint32())),
			}
		}
		sent := time.Now()
		wr.attempted++
		_, err := ps.Send(ctx, schema, rows)
		done := time.Now()
		wr.lateMs = append(wr.lateMs, float64(sent.Sub(due))/float64(time.Millisecond))
		if err != nil {
			wr.fails++
			wr.ingestMs = append(wr.ingestMs, inf)
			logf("%s writer: block %d: %v", w.name, k, err)
			continue
		}
		wr.ingestMs = append(wr.ingestMs, float64(done.Sub(due))/float64(time.Millisecond))
		wr.acked += len(rows)
		for _, row := range rows {
			wr.sum += rowHash(row)
		}
	}
}

func (wr *writer) close(ctx context.Context, ps *client.PushSession, w *workload) {
	n, err := ps.Close(ctx)
	if err != nil {
		wr.fails++
		logf("%s writer: close: %v", w.name, err)
		return
	}
	wr.confirmed = n
}

// phase is the outcome of one timed window over one deployment.
type phase struct {
	dur        time.Duration // the timed window
	wall       time.Duration
	tuples     int64
	queries    int
	queryFails int
	queryMs    []float64
	blockMs    []float64
	blockAt    []time.Duration
	cpu        time.Duration
	heapPeak   uint64 // largest heap-in-use sample
	readers    []*reader
	wr         *writer

	svcBefore, svcAfter []service.Stats
	gwFailovers         int64
	gwStandbyReplays    int64
	cacheMemPeak        int64
	lagMax              uint64
	mem0, mem1          runtime.MemStats
	gcCPU               float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the workload's load against running tiers for dur and
// collects the end-to-end figures (and, with a tracer, the layer
// counters around the window).
func measure(ctx context.Context, w *workload, t *tiers, seed int64, dur time.Duration, tr *tracer) (*phase, error) {
	tbl, err := t.cats[0].Table("customer")
	if err != nil {
		return nil, err
	}
	rows := tbl.RowCount()
	ph := &phase{}
	for i := 0; i < w.readers; i++ {
		r, err := newReader(w, t.entry, tr)
		if err != nil {
			return nil, err
		}
		ph.readers = append(ph.readers, r)
	}
	if w.writerRate > 0 {
		wr := &writer{}
		cl, err := client.New(t.backends[0], wire.Binary{}, &http.Client{Transport: loopbackTransport(nil), Timeout: 2 * time.Minute})
		if err != nil {
			return nil, err
		}
		cl.SetRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond})
		wr.cl = cl
		ph.wr = wr
	}

	for _, s := range t.srvs {
		ph.svcBefore = append(ph.svcBefore, s.Stats())
	}
	var gw0 gatewayCounters
	if t.gw != nil {
		gw0 = gwCounters(t)
	}
	runtime.ReadMemStats(&ph.mem0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for _, r := range ph.readers {
		r.t0 = t0
	}
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		ph.sample(t, tr != nil, stopSampler)
	}()
	var wg sync.WaitGroup
	for i, r := range ph.readers {
		wg.Add(1)
		go func(i int, r *reader) {
			defer wg.Done()
			r.runQueries(ctx, w, seed, i, rows, deadline, tr)
		}(i, r)
	}
	stopWriter := make(chan struct{})
	var wwg sync.WaitGroup
	if ph.wr != nil {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			ph.wr.run(ctx, w, seed, t0, stopWriter)
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	close(stopWriter)
	wwg.Wait()
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.mem1)
	if total := ph.cpu.Seconds(); total > 0 {
		ph.gcCPU = (gcCPUSeconds() - gc0) / total
	}
	close(stopSampler)
	samplerWG.Wait()

	for _, s := range t.srvs {
		ph.svcAfter = append(ph.svcAfter, s.Stats())
	}
	if t.gw != nil {
		gw1 := gwCounters(t)
		ph.gwFailovers = gw1.failovers - gw0.failovers
		ph.gwStandbyReplays = gw1.standbyReplays - gw0.standbyReplays
	}
	for _, r := range ph.readers {
		ph.tuples += r.tuples
		ph.queries += r.queries
		ph.queryFails += r.fails
		ph.queryMs = append(ph.queryMs, r.queryMs...)
		ph.blockMs = append(ph.blockMs, r.blockMs...)
		ph.blockAt = append(ph.blockAt, r.blockAt...)
	}
	ph.dur = dur
	return ph, nil
}

type gatewayCounters struct{ failovers, standbyReplays int64 }

func gwCounters(t *tiers) gatewayCounters {
	s := t.gw.Stats()
	return gatewayCounters{failovers: s.Failovers, standbyReplays: s.StandbyReplays}
}

func heapInuse() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// sample polls the heap every 10ms (and, traced, the cache footprint and
// the gateway's replication lag), keeping the peaks, until stop closes.
func (ph *phase) sample(t *tiers, traced bool, stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if h := heapInuse(); h > ph.heapPeak {
			ph.heapPeak = h
		}
		if traced {
			var mem int64
			for _, c := range t.caches {
				mem += c.Stats().MemBytes
			}
			if mem > ph.cacheMemPeak {
				ph.cacheMemPeak = mem
			}
			if t.gw != nil {
				for _, b := range t.gw.Stats().Backends {
					if b.LagRecords > ph.lagMax {
						ph.lagMax = b.LagRecords
					}
				}
			}
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// warm runs untimed queries so connections, pools and caches are hot
// before timing. On a cached deployment it first pulls the hot query
// directly from every backend — the gateway places sessions itself, so
// going through it cannot be relied on to reach them all — and then
// checks that each backend's cache holds the result.
func warm(ctx context.Context, w *workload, t *tiers) error {
	q := w.query()
	pull := func(url string) error {
		cl, err := client.New(url, wire.Binary{}, &http.Client{Transport: loopbackTransport(nil), Timeout: 2 * time.Minute})
		if err != nil {
			return err
		}
		if !w.push {
			_, err := pullQuery(ctx, cl, q, core.NewStatic(w.sizeHi), nil, nil)
			return err
		}
		cl.SetPush(client.PushConfig{Enabled: true})
		h, err := hybridFor(0, 0, 0)
		if err != nil {
			return err
		}
		_, err = cl.Run(ctx, q, h, client.MetricPerTuple, false)
		return err
	}
	if len(t.caches) > 0 {
		for _, u := range t.backends {
			if err := pull(u); err != nil {
				return fmt.Errorf("warm-up on %s: %w", u, err)
			}
		}
		for i, c := range t.caches {
			if c.Stats().MemEntries == 0 {
				return fmt.Errorf("warm-up: backend %d cache still empty", i)
			}
		}
	}
	for i := 0; i < w.readers; i++ {
		if err := pull(t.entry); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

var inf = math.Inf(1)

// throughput is tuples delivered per second over the phase: from the
// start of the timed window until the last reader's last query closed.
func (ph *phase) throughput() float64 {
	return ratio(float64(ph.tuples), ph.wall.Seconds())
}

// blockSlice is the nominal length of the slices of the timed window
// over which the block-time quantiles are taken.
const blockSlice = 3 * time.Second

// blockQuantile is the median, over the window's slices of about
// blockSlice, of each slice's q-quantile of block time. A block belongs
// to the slice in which it completed; blocks of the last query, which
// may complete after the window, belong to the last slice. A burst of
// contention from outside the program that covers fewer than half of the
// slices cannot move the figure beyond the quantiles of the slices it
// spared.
func (ph *phase) blockQuantile(q float64) float64 {
	n := int(ph.dur / blockSlice)
	if n < 1 {
		n = 1
	}
	width := ph.dur / time.Duration(n)
	slices := make([][]float64, n)
	for i, ms := range ph.blockMs {
		k := int(ph.blockAt[i] / width)
		if k >= n {
			k = n - 1
		}
		slices[k] = append(slices[k], ms)
	}
	qs := make([]float64, 0, n)
	for _, s := range slices {
		if len(s) > 0 {
			qs = append(qs, quantile(s, q))
		}
	}
	return quantile(qs, 0.5)
}

// failedFrac is failed operations (queries and ingest blocks) over those
// attempted in the window.
func (ph *phase) failedFrac() float64 {
	attempted, failed := ph.queries, ph.queryFails
	if ph.wr != nil {
		attempted += ph.wr.attempted
		failed += ph.wr.fails
	}
	return ratio(float64(failed), float64(attempted))
}

// cacheDelta is the backends' encoded-block cache counters over the
// window, summed.
type cacheDelta struct{ hits, misses, evictions, shared int64 }

func (c cacheDelta) hitRate() float64 { return ratio(float64(c.hits), float64(c.hits+c.misses)) }

func (ph *phase) cache() cacheDelta {
	var c cacheDelta
	for i := range ph.svcAfter {
		a, z := ph.svcAfter[i].Cache, ph.svcBefore[i].Cache
		if a == nil || z == nil {
			continue
		}
		c.hits += a.MemHits + a.DiskHits - z.MemHits - z.DiskHits
		c.misses += a.Misses - z.Misses
		c.evictions += a.MemEvictions - z.MemEvictions
		c.shared += a.SingleflightShared - z.SingleflightShared
	}
	return c
}
