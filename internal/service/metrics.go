package service

import (
	"time"

	"wsopt/internal/metrics"
)

// serviceMetrics holds the service's series in a metrics.Registry — the
// only store of its counters: Stats reads them back, so /stats and
// /metrics cannot disagree. All series are registered eagerly (value 0)
// so a scrape sees the full schema before traffic.
type serviceMetrics struct {
	sessionsOpened *metrics.Counter
	ingestsOpened  *metrics.Counter
	blocksServed   *metrics.Counter
	tuplesServed   *metrics.Counter
	blocksReplayed *metrics.Counter
	encodeFailures *metrics.Counter
	sessionsShed   *metrics.Counter

	blocksIngested *metrics.Counter
	tuplesIngested *metrics.Counter
	ingestReplays  *metrics.Counter

	pushStreamsOpened  *metrics.Counter
	pushFramesSent     *metrics.Counter
	pushFramesReplayed *metrics.Counter
	pushCreditGrants   *metrics.Counter
	pushCreditStalls   *metrics.Counter

	faultsDropped   *metrics.Counter
	faultsTruncated *metrics.Counter
	faultsRefused   *metrics.Counter

	blockSize  *metrics.Histogram
	blockDelay *metrics.Histogram
	blockServe *metrics.Histogram
}

// newServiceMetrics registers the service's series in reg. The live
// session gauge reads the server's maps at scrape time.
func newServiceMetrics(reg *metrics.Registry, s *Server) *serviceMetrics {
	m := &serviceMetrics{
		sessionsOpened: reg.Counter("wsopt_service_sessions_opened_total", "Download sessions ever created."),
		ingestsOpened:  reg.Counter("wsopt_service_ingests_opened_total", "Upload sessions ever created."),
		blocksServed:   reg.Counter("wsopt_service_blocks_served_total", "Block responses fully written to clients (replays included)."),
		tuplesServed:   reg.Counter("wsopt_service_tuples_served_total", "Tuples in fully written block responses."),
		blocksReplayed: reg.Counter("wsopt_service_blocks_replayed_total", "Blocks served verbatim from a session's replay buffer."),
		sessionsShed:   reg.Counter("wsopt_service_sessions_shed_total", "Session creations refused by admission control (503 + Retry-After)."),
		encodeFailures: reg.Counter("wsopt_service_encode_failures_total", "Blocks whose codec encoding failed."),
		blocksIngested: reg.Counter("wsopt_service_blocks_ingested_total", "Blocks received from uploading clients."),
		tuplesIngested: reg.Counter("wsopt_service_tuples_ingested_total", "Tuples received from uploading clients."),
		ingestReplays:  reg.Counter("wsopt_service_ingest_replays_total", "Duplicate upload blocks acknowledged without re-applying."),

		pushStreamsOpened:  reg.Counter("wsopt_service_push_streams_opened_total", "Push streams opened (reconnects included)."),
		pushFramesSent:     reg.Counter("wsopt_service_push_frames_sent_total", "Push data frames fully written (replays included)."),
		pushFramesReplayed: reg.Counter("wsopt_service_push_frames_replayed_total", "Push frames re-sent from the retained unacked tail."),
		pushCreditGrants:   reg.Counter("wsopt_service_push_credit_grants_total", "Credit updates accepted on the push side channel."),
		pushCreditStalls:   reg.Counter("wsopt_service_push_credit_stalls_total", "Push producer waits that blocked on an exhausted credit window."),

		faultsDropped:   reg.Counter("wsopt_service_faults_injected_total", "Transport faults fired by the chaos layer, by kind.", metrics.L("kind", "dropped")),
		faultsTruncated: reg.Counter("wsopt_service_faults_injected_total", "Transport faults fired by the chaos layer, by kind.", metrics.L("kind", "truncated")),
		faultsRefused:   reg.Counter("wsopt_service_faults_injected_total", "Transport faults fired by the chaos layer, by kind.", metrics.L("kind", "refused")),

		blockSize:  reg.Histogram("wsopt_service_block_size_tuples", "Tuples per served block.", metrics.DefSizeBuckets),
		blockDelay: reg.Histogram("wsopt_service_block_delay_ms", "Injected simulated delay per served block, in milliseconds.", metrics.DefLatencyBuckets),
		blockServe: reg.Histogram("wsopt_service_block_serve_ms", "Wall time to serve one block (injected delay included), in milliseconds — the SLO regulator's feedback signal.", metrics.DefServeBuckets),
	}
	reg.GaugeFunc("wsopt_service_sessions_live", "Currently open sessions (downloads + uploads).", func() float64 {
		return float64(s.liveSessions())
	})
	reg.GaugeFunc("wsopt_service_stream_groups_active", "Stream groups currently holding at least one open cursor.", func() float64 {
		_, _, active := s.groups.snapshot()
		return float64(active)
	})
	reg.GaugeFunc("wsopt_service_session_limit", "Live admitted-session ceiling (0 = unlimited); owned by the SLO regulator when one is running.", func() float64 {
		return float64(s.SessionLimit())
	})
	reg.GaugeFunc("wsopt_service_admission_pressure", "Live delay-pricing pressure scaling Retry-After on shed sessions (0 = none).", func() float64 {
		return s.AdmissionPressure()
	})
	if rl := s.cfg.Replica; rl != nil {
		reg.GaugeFunc("wsopt_service_replication_appended_total", "Replication records appended to the primary-side log.", func() float64 {
			appended, _ := rl.Stats()
			return float64(appended)
		})
		reg.GaugeFunc("wsopt_service_replication_evicted_total", "Replication records evicted past the log's retention window.", func() float64 {
			_, evicted := rl.Stats()
			return float64(evicted)
		})
		reg.GaugeFunc("wsopt_service_replication_retained", "Replication records currently retained in the log.", func() float64 {
			return float64(rl.Len())
		})
	}
	return m
}

// countFault records an injected fault.
func (s *Server) countFault(k faultKind) {
	switch k {
	case faultDrop:
		s.metrics.faultsDropped.Inc()
	case faultTruncate:
		s.metrics.faultsTruncated.Inc()
	case fault503:
		s.metrics.faultsRefused.Inc()
	}
}

// accountServed records one block fully written to a client — the one
// served-block accounting site both transports share. started is when
// serving this block began: a pull's arrival at the handler, or a push
// producer taking the session lock for it (credit wait excluded), so
// the serve-time histogram the SLO regulator closes its loop on sees
// every served block, pulled or pushed.
func (s *Server) accountServed(rb *replayBlock, replayed, push bool, started time.Time) {
	m := s.metrics
	m.blocksServed.Inc()
	m.tuplesServed.Add(int64(rb.tuples))
	m.blockSize.Observe(float64(rb.tuples))
	m.blockDelay.Observe(rb.delayMS)
	m.blockServe.Observe(float64(time.Since(started)) / float64(time.Millisecond))
	if replayed {
		m.blocksReplayed.Inc()
	}
	if push {
		m.pushFramesSent.Inc()
		if replayed {
			m.pushFramesReplayed.Inc()
		}
	}
}
