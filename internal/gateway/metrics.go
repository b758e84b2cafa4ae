package gateway

import "wsopt/internal/metrics"

// gwMetrics holds the gateway's metric instruments — the only store of
// its counters (Stats reads them back). The gateway re-exports an
// AGGREGATE view: per-backend health and replication lag plus
// fleet-wide session/block/failover counters, so one scrape of the
// gateway describes the whole tier.
type gwMetrics struct {
	sessionsOpened  *metrics.Counter
	sessionsShed    *metrics.Counter
	sessionsExpired *metrics.Counter
	blocksProxied   *metrics.Counter
	tuplesProxied   *metrics.Counter
	failovers       *metrics.Counter
	standbyReplays  *metrics.Counter
	fallbackReplays *metrics.Counter
	blockServe      *metrics.Histogram
}

func newGatewayMetrics(reg *metrics.Registry, g *Gateway) *gwMetrics {
	m := &gwMetrics{
		sessionsOpened: reg.Counter("wsopt_gateway_sessions_opened_total",
			"Client sessions opened through the gateway."),
		sessionsShed: reg.Counter("wsopt_gateway_sessions_shed_total",
			"Session creates refused by edge admission control."),
		sessionsExpired: reg.Counter("wsopt_gateway_sessions_expired_total",
			"Idle gateway sessions expired by the janitor (admission slot released)."),
		blocksProxied: reg.Counter("wsopt_gateway_blocks_proxied_total",
			"Blocks served to clients through the gateway."),
		tuplesProxied: reg.Counter("wsopt_gateway_tuples_proxied_total",
			"Tuples served to clients through the gateway."),
		failovers: reg.Counter("wsopt_gateway_failovers_total",
			"Sessions transparently moved to a successor backend after a primary died."),
		standbyReplays: reg.Counter("wsopt_gateway_standby_replays_total",
			"Post-failover retries served byte-identical from the replicated standby copy."),
		fallbackReplays: reg.Counter("wsopt_gateway_fallback_replays_total",
			"Post-failover retries re-pulled from the successor because replication lagged behind the crash."),
		blockServe: reg.Histogram("wsopt_gateway_block_serve_ms",
			"Client-observed block serve time through the gateway in milliseconds (fleet-wide; feeds the edge SLO regulator).",
			metrics.DefServeBuckets),
	}
	reg.GaugeFunc("wsopt_gateway_sessions_live",
		"Client sessions currently open at the gateway.",
		func() float64 { return float64(g.SessionCount()) })
	reg.GaugeFunc("wsopt_gateway_session_limit",
		"Edge admission ceiling commanded by the SLO regulator (0 = unlimited).",
		func() float64 { return float64(g.SessionLimit()) })
	reg.GaugeFunc("wsopt_gateway_admission_pressure",
		"Edge delay-pricing pressure commanded by the SLO regulator.",
		g.AdmissionPressure)

	for _, url := range g.order {
		b := g.backends[url]
		lbl := metrics.L("backend", url)
		reg.GaugeFunc("wsopt_gateway_backend_healthy",
			"Backend health from its circuit breaker: 1 closed, 0.5 half-open, 0 open.",
			b.healthScore, lbl)
		reg.GaugeFunc("wsopt_gateway_sessions_by_backend",
			"Gateway sessions currently primaried on this backend.",
			func() float64 { return float64(b.sessions.Load()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_replication_lag_records",
			"Replication records appended on the backend but not yet applied at the gateway.",
			func() float64 { return float64(b.puller.Lag()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_replication_lag_ms",
			"Ship-to-apply latency of the backend's most recent replication record in milliseconds.",
			b.store.LastLagMS, lbl)
		reg.GaugeFunc("wsopt_gateway_standby_sessions",
			"Sessions with standby state replicated from this backend.",
			func() float64 { return float64(b.store.Sessions()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_primary_restarts",
			"Primary restarts observed on this backend's replication feed (boot id changed or LSNs regressed); each rewound the puller and cleared the standby store.",
			func() float64 { return float64(b.puller.Restarts()) }, lbl)
	}
	return m
}
