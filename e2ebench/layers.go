package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// budgetTolerance is the largest share of query wall time by which the
// client's critical-path components (open + wait + self + step + close)
// may fail to add up before a traced run fails. Self time is wall time
// minus the union of the other components, so the sum exceeds wall time
// exactly by the components' overlap: time counted twice, or a component
// timed off the query's critical path.
const budgetTolerance = 0.02

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func laneNames(t *tiers) map[int]string {
	names := map[int]string{pidClient: "loadgen + client"}
	if t.gw != nil {
		names[pidGateway] = "gateway"
	}
	for i := range t.srvs {
		names[pidBackend+i] = fmt.Sprintf("service backend %d", i)
	}
	return names
}

func p(a spanAgg, q float64) float64 { return quantile(a.durs, q) / 1e6 } // ns → ms

// perLayer assembles the traced run's per-layer metrics, all but the
// isolated ones. Counts and times cover the timed window; per-tuple
// figures divide by the tuples delivered to the readers in it. A layer
// absent from the workload reports 0. base is the untraced phase the
// tracing overhead is taken against.
func perLayer(ph *phase, tr *tracer, base *phase) []metric {
	tuples := float64(ph.tuples)
	perTuple := func(ns int64) float64 { return ratio(float64(ns), tuples) }

	var counters struct{ retries, replays, grants, timeouts, hedges, dials int64 }
	var b budget
	var steps []float64
	for _, r := range ph.readers {
		s := r.reg.Snapshot()
		counters.retries += s.Counter("wsopt_client_retries_total")
		counters.replays += s.Counter("wsopt_client_replays_total")
		counters.grants += s.Counter("wsopt_client_push_grants_total")
		counters.timeouts += s.Counter("wsopt_client_deadline_timeouts_total")
		counters.hedges += s.Counter("wsopt_client_hedges_total")
		counters.dials += r.dials.Load()
		b.wall += r.budget.wall
		b.open += r.budget.open
		b.close += r.budget.close
		b.wait += r.budget.wait
		b.step += r.budget.step
		b.covered += r.budget.covered
		b.bytes += r.budget.bytes
		steps = append(steps, r.steps...)
	}
	meanSize, cvSize := meanCV(ph.commandedSizes())
	self := b.wall - b.covered
	gap := b.open + b.close + b.wait + b.step - b.covered

	var ingestMs, lateMs []float64
	if ph.wr != nil {
		ingestMs, lateMs = ph.wr.ingestMs, ph.wr.lateMs
	}

	var svc struct{ replayed, shed, encFail int64 }
	for i := range ph.svcAfter {
		a, z := ph.svcAfter[i], ph.svcBefore[i]
		svc.replayed += a.BlocksReplayed - z.BlocksReplayed
		svc.shed += a.SessionsShed - z.SessionsShed
		svc.encFail += a.EncodeFailures - z.EncodeFailures
	}
	cache := ph.cache()
	next, stream := tr.agg("service.next"), tr.agg("service.stream")
	gwNext, gwBackendNext := tr.agg("gateway.next"), tr.agg("gateway.backend.next")
	feedRT, feedHandler := tr.agg("gateway.backend.feed"), tr.agg("service.feed")

	return []metric{
		{"loadgen.queries", float64(ph.queries), "count"},
		{"loadgen.ingest_late_ms_p95", quantile(lateMs, 0.95), "ms"},
		{"loadgen.ingest_ms_p50", quantile(ingestMs, 0.50), "ms"},
		{"loadgen.ingest_ms_p95", quantile(ingestMs, 0.95), "ms"},
		{"loadgen.failed_frac", ph.failedFrac(), "fraction"},

		{"client.open_ms_p50", p(tr.agg("client.create"), 0.5), "ms"},
		{"client.close_ms_p50", p(tr.agg("client.delete"), 0.5), "ms"},
		{"client.wait_ns_per_tuple", perTuple(b.wait), "ns"},
		{"client.self_ns_per_tuple", perTuple(self), "ns"},
		{"client.bytes_per_tuple", ratio(float64(b.bytes), tuples), "B"},
		{"client.credit_requests", float64(counters.grants), "count"},
		{"client.retries", float64(counters.retries), "count"},
		{"client.replays", float64(counters.replays), "count"},
		{"client.dials", float64(counters.dials), "count"},

		{"resilience.deadline_timeouts", float64(counters.timeouts), "count"},
		{"resilience.hedges", float64(counters.hedges), "count"},

		{"core.step_ns_p50", quantile(steps, 0.5), "ns"},
		{"core.mean_block_tuples", meanSize, "tuples"},
		{"core.block_tuples_cv", cvSize, "ratio"},

		{"service.create_ms_p50", p(tr.agg("service.create"), 0.5), "ms"},
		{"service.next_ms_p50", p(next, 0.5), "ms"},
		{"service.next_ms_p99", p(next, 0.99), "ms"},
		{"service.credit_ms_p50", p(tr.agg("service.credit"), 0.5), "ms"},
		{"service.ingest_ms_p50", p(tr.agg("service.ingest"), 0.5), "ms"},
		{"service.self_ns_per_tuple", perTuple(next.total + stream.total - next.writeNs - stream.writeNs), "ns"},
		{"service.write_ns_per_tuple", perTuple(next.writeNs + stream.writeNs), "ns"},
		{"service.blocks_replayed", float64(svc.replayed), "count"},
		{"service.sessions_shed", float64(svc.shed), "count"},
		{"service.encode_failures", float64(svc.encFail), "count"},

		{"blockcache.hit_rate", cache.hitRate(), "fraction"},
		{"blockcache.misses", float64(cache.misses), "count"},
		{"blockcache.mem_evictions", float64(cache.evictions), "count"},
		{"blockcache.singleflight_shared", float64(cache.shared), "count"},
		{"blockcache.mem_bytes_peak", float64(ph.cacheMemPeak), "B"},

		{"gateway.next_ms_p50", p(gwNext, 0.5), "ms"},
		{"gateway.next_ms_p99", p(gwNext, 0.99), "ms"},
		{"gateway.self_ns_per_tuple", perTuple(gwNext.total - gwBackendNext.total - gwNext.writeNs), "ns"},
		{"gateway.backend_wait_ns_per_tuple", perTuple(gwBackendNext.total), "ns"},
		{"gateway.failovers", float64(ph.gwFailovers), "count"},
		{"gateway.standby_replays", float64(ph.gwStandbyReplays), "count"},

		{"replica.feed_bytes_per_tuple", ratio(float64(feedRT.bytes), tuples), "B"},
		{"replica.feed_polls_per_s", float64(len(feedRT.durs)) / ph.wall.Seconds(), "1/s"},
		{"replica.feed_rt_ns_per_tuple", perTuple(feedRT.total), "ns"},
		{"replica.feed_handler_ns_per_tuple", perTuple(feedHandler.total), "ns"},
		{"replica.lag_records_max", float64(ph.lagMax), "count"},

		{"runtime.alloc_bytes_per_tuple", ratio(float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc), tuples), "B"},
		{"runtime.gc_cpu_frac", ph.gcCPU, "fraction"},
		{"runtime.gc_cycles", float64(ph.mem1.NumGC - ph.mem0.NumGC), "count"},

		{"trace.overhead_frac", 1 - ratio(ph.throughput(), base.throughput()), "fraction"},
		{"trace.budget_gap_frac", ratio(float64(gap), float64(b.wall)), "fraction"},
	}
}

// commandedSizes is every block size the readers' controllers commanded
// in the traced window.
func (ph *phase) commandedSizes() []float64 {
	var sizes []float64
	for _, r := range ph.readers {
		sizes = append(sizes, r.sizes...)
	}
	return sizes
}

// isoTimes are per-tuple costs of single layers timed in isolation, on
// the workload's own plan and block sizes, outside the served path.
type isoTimes struct{ scan, encode, decode float64 }

// isolated times minidb's scan (Catalog.Execute + NextBlockAppend), the
// binary codec's Encode and wire.DecodeBlock at the workload's commanded
// block sizes (their 10th, 50th and 90th percentiles), repeating each
// pass until it has run for at least isoMin.
func isolated(cat *minidb.Catalog, columns []string, commanded []float64) (isoTimes, error) {
	const isoMin = 300 * time.Millisecond
	q := minidb.Query{Table: "customer", Columns: columns}
	codec := wire.Binary{}
	var scanNs, encNs, decNs, scanT, encT, decT int64
	for _, size := range distinctSizes(commanded) {
		// Blocks to encode and decode, retained (NextBlock allocates).
		it, err := cat.Execute(q)
		if err != nil {
			return isoTimes{}, err
		}
		schema := it.Schema()
		var blocks [][]minidb.Row
		for done := false; !done; {
			var rows []minidb.Row
			if rows, done, err = minidb.NextBlock(it, size); err != nil {
				return isoTimes{}, err
			}
			if len(rows) > 0 {
				blocks = append(blocks, rows)
			}
		}
		for t0 := time.Now(); time.Since(t0) < isoMin; {
			s := time.Now()
			n, err := scanPass(cat, q, size)
			if err != nil {
				return isoTimes{}, err
			}
			scanNs += int64(time.Since(s))
			scanT += int64(n)
		}
		encoded := make([]bytes.Buffer, len(blocks))
		for t0 := time.Now(); time.Since(t0) < isoMin; {
			s := time.Now()
			for i, rows := range blocks {
				encoded[i].Reset()
				if err := codec.Encode(&encoded[i], schema, rows); err != nil {
					return isoTimes{}, err
				}
				encT += int64(len(rows))
			}
			encNs += int64(time.Since(s))
		}
		var scratch wire.Scratch
		var rd bytes.Reader
		for t0 := time.Now(); time.Since(t0) < isoMin; {
			s := time.Now()
			for i := range encoded {
				rd.Reset(encoded[i].Bytes())
				_, rows, err := wire.DecodeBlock(codec, &rd, &scratch)
				if err != nil {
					return isoTimes{}, err
				}
				decT += int64(len(rows))
			}
			decNs += int64(time.Since(s))
		}
	}
	return isoTimes{
		scan:   ratio(float64(scanNs), float64(scanT)),
		encode: ratio(float64(encNs), float64(encT)),
		decode: ratio(float64(decNs), float64(decT)),
	}, nil
}

// scanPass scans the plan once in blocks of size, reusing one batch.
func scanPass(cat *minidb.Catalog, q minidb.Query, size int) (int, error) {
	it, err := cat.Execute(q)
	if err != nil {
		return 0, err
	}
	var batch []minidb.Row
	n := 0
	for done := false; !done; {
		if batch, done, err = minidb.NextBlockAppend(it, size, batch[:0]); err != nil {
			return n, err
		}
		n += len(batch)
	}
	return n, nil
}

// distinctSizes returns the distinct 10th/50th/90th percentiles of the
// commanded block sizes.
func distinctSizes(commanded []float64) []int {
	if len(commanded) == 0 {
		return nil
	}
	c := append([]float64(nil), commanded...)
	var out []int
	for _, q := range []float64{0.1, 0.5, 0.9} {
		s := int(quantile(c, q) + 0.5)
		if s < 1 {
			s = 1
		}
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}
