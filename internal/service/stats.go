package service

import (
	"encoding/json"
	"net/http"

	"wsopt/internal/blockcache"
)

// Stats aggregates service-level counters, exposed at GET /stats.
type Stats struct {
	// SessionsOpened counts download sessions ever created.
	SessionsOpened int64 `json:"sessions_opened"`
	// BlocksServed counts block responses fully written to clients
	// (replays included — it is the number of completed block serves,
	// not the number of distinct blocks produced).
	BlocksServed int64 `json:"blocks_served"`
	// TuplesServed counts tuples in fully written block responses.
	TuplesServed int64 `json:"tuples_served"`
	// BlocksReplayed counts blocks served verbatim from a session's
	// retained tail (a pull retried its seq, or a push stream
	// reconnected), once fully written.
	BlocksReplayed int64 `json:"blocks_replayed"`
	// EncodeFailures counts blocks whose codec encoding failed; the
	// rows stay parked in the session so a same-seq retry can re-encode.
	EncodeFailures int64 `json:"encode_failures"`
	// IngestsOpened counts upload sessions ever created.
	IngestsOpened int64 `json:"ingests_opened"`
	// BlocksIngested counts blocks received from clients.
	BlocksIngested int64 `json:"blocks_ingested"`
	// TuplesIngested counts tuples received from clients.
	TuplesIngested int64 `json:"tuples_ingested"`
	// BlocksIngestReplayed counts duplicate upload blocks acknowledged
	// without re-applying (client retried a seq).
	BlocksIngestReplayed int64 `json:"blocks_ingest_replayed"`
	// SessionsShed counts session creations refused by admission control
	// (503 + Retry-After) because MaxSessions cursors were already open.
	SessionsShed int64 `json:"sessions_shed"`
	// PushStreamsOpened counts push streams ever opened (reconnects
	// included — it is stream opens, not sessions in push mode).
	PushStreamsOpened int64 `json:"push_streams_opened"`
	// PushFramesSent counts data frames fully written to push streams
	// (replays included); every one is also counted in BlocksServed.
	PushFramesSent int64 `json:"push_frames_sent"`
	// PushFramesReplayed counts frames re-sent from the retained unacked
	// tail to a reconnecting stream; also counted in BlocksReplayed.
	PushFramesReplayed int64 `json:"push_frames_replayed"`
	// PushCreditGrants counts credit updates accepted on the side channel.
	PushCreditGrants int64 `json:"push_credit_grants"`
	// PushCreditStalls counts producer waits that actually blocked on an
	// exhausted credit window — the server-side backpressure signal.
	PushCreditStalls int64 `json:"push_credit_stalls"`
	// StreamSessionsOpened counts sessions created with a stream-group
	// tag — cursors that were one parallel stream of a larger query.
	StreamSessionsOpened int64 `json:"stream_sessions_opened"`
	// PeakGroupStreams is the high-water count of concurrently open
	// cursors within any single stream group — the server-side view of
	// the largest parallel fan-out any one client ran.
	PeakGroupStreams int64 `json:"peak_group_streams"`
	// StreamGroupsActive counts groups currently holding at least one
	// open cursor.
	StreamGroupsActive int `json:"stream_groups_active"`
	// FaultsInjected counts transport faults fired by the chaos layer,
	// by kind.
	FaultsInjected FaultStats `json:"faults_injected"`
	// Cache snapshots the encoded-block cache (nil when disabled).
	Cache *blockcache.Stats `json:"cache,omitempty"`
}

// FaultStats breaks injected faults down by kind.
type FaultStats struct {
	Dropped   int64 `json:"dropped"`
	Truncated int64 `json:"truncated"`
	Refused   int64 `json:"refused"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Stats()); err != nil {
		s.logf("encode stats: %v", err)
	}
}

// Stats returns a snapshot of the service counters. The metrics
// registry is their only store: each field reads its registered series,
// so Stats and /metrics agree by construction. The snapshot is exact
// once traffic has quiesced, and each counter is exact at its load
// instant under load.
func (s *Server) Stats() Stats {
	m := s.metrics
	streamOpened, streamPeak, groupsActive := s.groups.snapshot()
	var cache *blockcache.Stats
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		cache = &cs
	}
	return Stats{
		Cache:                cache,
		StreamSessionsOpened: streamOpened,
		PeakGroupStreams:     streamPeak,
		StreamGroupsActive:   groupsActive,
		SessionsOpened:       m.sessionsOpened.Value(),
		BlocksServed:         m.blocksServed.Value(),
		TuplesServed:         m.tuplesServed.Value(),
		BlocksReplayed:       m.blocksReplayed.Value(),
		EncodeFailures:       m.encodeFailures.Value(),
		IngestsOpened:        m.ingestsOpened.Value(),
		BlocksIngested:       m.blocksIngested.Value(),
		TuplesIngested:       m.tuplesIngested.Value(),
		BlocksIngestReplayed: m.ingestReplays.Value(),
		SessionsShed:         m.sessionsShed.Value(),
		PushStreamsOpened:    m.pushStreamsOpened.Value(),
		PushFramesSent:       m.pushFramesSent.Value(),
		PushFramesReplayed:   m.pushFramesReplayed.Value(),
		PushCreditGrants:     m.pushCreditGrants.Value(),
		PushCreditStalls:     m.pushCreditStalls.Value(),
		FaultsInjected: FaultStats{
			Dropped:   m.faultsDropped.Value(),
			Truncated: m.faultsTruncated.Value(),
			Refused:   m.faultsRefused.Value(),
		},
	}
}
