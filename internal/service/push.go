package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wsopt/internal/wire"
)

// Server-push streaming transport (DESIGN.md §16). A client opens a
// long-lived stream
//
//	POST /sessions/{id}/stream?size=N&window=W&from=S
//
// and the server frames encoded blocks onto the chunked response
// continuously, keeping up to `window` committed-but-unacked blocks in
// flight. The client grants credits on a side channel
//
//	POST /sessions/{id}/credit?acked=A&window=W&size=N
//
// where `acked` is the cumulative highest block sequence the client has
// durably consumed. Blocks, sequence numbers, commit points, pricing,
// the retained tail, fault injection, serve accounting and replication
// are all shared with the pull path — the stream handler drives the
// same produceBlockLocked and serveBlock the pull handler does, so
// exactly-once across reconnects and failovers holds by the same
// argument. Pull is a credit window of one on the session's tail; push
// widens the window to W. What is left here is the envelope (frames
// instead of per-block responses) and the credit bookkeeping.

// Push transport defaults, exported for flag tables and docs.
const (
	// DefaultPushMaxWindow caps the credit window absent configuration.
	DefaultPushMaxWindow = 64
	// DefaultPushMaxFrameBytes caps one frame's encoded payload.
	DefaultPushMaxFrameBytes = 8 << 20
)

// pushState is a session's push-mode credit bookkeeping, created by the
// first stream open and living until the session closes. Its fields are
// guarded by the session tail's mutex, which is also cond's lock: the
// credit window is measured on the tail, so one lock covers both. The
// producer sleeps holding neither lock (credit waits) or only sess.mu
// (the priced delay, exactly like a pull).
type pushState struct {
	cond *sync.Cond

	// gen is the stream generation. Opening a stream bumps it; a
	// producer from an older generation stops producing at its next
	// generation check, so at most one stream drives the session
	// forward and a reconnect cleanly takes over mid-result-set.
	gen uint64

	// size and window are the client's latest grant: produce blocks of
	// `size` tuples while fewer than `window` blocks are retained unacked.
	size   int
	window int
}

// errPushClosed and errPushTakeover report why a producer's credit wait
// ended without credit: the session closed or a newer stream took the
// session over.
var (
	errPushClosed   = fmt.Errorf("service: session closed")
	errPushTakeover = fmt.Errorf("service: a newer stream took over the session")
)

// grant applies a credit update. Acks are cumulative: a stale or
// repeated grant can never un-ack. Returns false when the ack is ahead
// of anything produced — a protocol error by the client.
func (sess *session) grant(ps *pushState, acked uint64, window, size int) bool {
	t := &sess.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	if acked > t.last {
		return false
	}
	t.ackLocked(acked)
	if window > 0 {
		ps.window = window
	}
	if size > 0 {
		ps.size = size
	}
	ps.cond.Broadcast()
	return true
}

// waitCredit blocks until the window has room (returning the granted
// block size), the session closes, a newer generation takes over, or
// the stream's context dies. onStall fires once, before the first
// actual block on an exhausted window, so the backpressure signal is
// visible while the producer is still parked. The caller must have
// arranged for ctx's cancellation to broadcast ps.cond
// (context.AfterFunc), or the wait could sleep past a dead connection.
func (sess *session) waitCredit(ctx context.Context, ps *pushState, gen uint64, maxWindow int, onStall func()) (int, error) {
	t := &sess.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	stalled := false
	for {
		switch {
		case t.closed:
			return 0, errPushClosed
		case ps.gen != gen:
			return 0, errPushTakeover
		case ctx.Err() != nil:
			return 0, ctx.Err()
		}
		if len(t.blocks) < min(ps.window, maxWindow) && ps.size > 0 {
			return ps.size, nil
		}
		if !stalled {
			stalled = true
			onStall()
		}
		ps.cond.Wait()
	}
}

// takeover bumps the generation for a newly opened stream and collects
// the retained blocks the new stream must replay (seq >= from), each
// with a reference for the caller's writes. Acking from-1 is the open's
// implied cumulative ack; a `from` inside the acked prefix is refused.
// Caller holds sess.mu.
func (sess *session) takeover(ps *pushState, from uint64, size, window int) (gen uint64, replay []*replayBlock, ok bool) {
	t := &sess.tail
	t.mu.Lock()
	defer t.mu.Unlock()
	if from <= t.ackedLocked() {
		// The client wants bytes it already acked; they are gone.
		return 0, nil, false
	}
	ps.gen++
	ps.size = size
	ps.window = window
	t.ackLocked(from - 1)
	ps.cond.Broadcast()
	return ps.gen, t.fromLocked(from), true
}

// liveGen reports whether gen is still the live stream generation of an
// open session.
func (sess *session) liveGen(ps *pushState, gen uint64) bool {
	sess.tail.mu.Lock()
	defer sess.tail.mu.Unlock()
	return ps.gen == gen && !sess.tail.closed
}

// pushQuery parses the stream/credit query parameters shared by both
// endpoints.
func pushQuery(r *http.Request, key string, def uint64) (uint64, error) {
	qs := r.URL.Query().Get(key)
	if qs == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(qs, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a non-negative integer", key)
	}
	return v, nil
}

// handleStream serves POST /sessions/{id}/stream: the long-lived
// chunked response framing blocks continuously under credit control.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	size, err := strconv.Atoi(r.URL.Query().Get("size"))
	if err != nil || size < 1 {
		httpError(w, http.StatusBadRequest, "size must be a positive integer")
		return
	}
	if size > s.cfg.MaxBlockSize {
		httpError(w, http.StatusBadRequest, "size %d exceeds maximum %d", size, s.cfg.MaxBlockSize)
		return
	}
	window64, err := pushQuery(r, "window", 1)
	if err != nil || window64 < 1 {
		httpError(w, http.StatusBadRequest, "window must be a positive integer")
		return
	}
	window := int(window64)
	if window > s.cfg.PushMaxWindow {
		window = s.cfg.PushMaxWindow
	}
	if _, ok := w.(http.Flusher); !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	if fault := s.faults.decide(sess.id); fault == fault503 {
		// Refused before touching any session state: a clean retry.
		s.countFault(fault)
		httpError(w, http.StatusServiceUnavailable, "injected fault: service unavailable")
		return
	}

	sess.touch()
	sess.mu.Lock()
	if sess.closed.Load() {
		sess.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	ps := sess.push.Load()
	if ps == nil {
		// Set only here, under sess.mu, so no other open can race it.
		ps = &pushState{size: size, window: window}
		ps.cond = sync.NewCond(&sess.tail.mu)
		sess.push.Store(ps)
	}
	// The next seq is read under the lock: a live producer commits
	// under it, so no session field may be read after Unlock.
	next := sess.lastSeq + 1
	from, err := pushQuery(r, "from", next)
	if err != nil || from < 1 {
		sess.mu.Unlock()
		httpError(w, http.StatusBadRequest, "from must be a positive integer")
		return
	}
	if from > next {
		sess.mu.Unlock()
		httpError(w, http.StatusConflict, "from %d beyond the next block %d", from, next)
		return
	}
	gen, replays, ok := sess.takeover(ps, from, size, window)
	sess.mu.Unlock()
	if !ok {
		httpError(w, http.StatusConflict,
			"from %d inside the acked prefix — those frames are released", from)
		return
	}

	s.metrics.pushStreamsOpened.Inc()
	s.logf("session %s: push stream opened (gen %d, from %d, size %d, window %d)", sess.id, gen, from, size, window)

	// Cancellation must wake a producer parked on ps.cond: the
	// connection dying is otherwise invisible to a Wait.
	stopWake := context.AfterFunc(r.Context(), func() {
		sess.tail.mu.Lock()
		ps.cond.Broadcast()
		sess.tail.mu.Unlock()
	})
	defer stopWake()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	// Replay the retained tail past the client's ack first; a reconnect
	// resumes mid-result-set without touching the iterator. Blocks left
	// unwritten when the stream dies are released on the way out.
	defer func() {
		for _, rb := range replays {
			releaseReplay(rb)
		}
	}()
	for seq := from; len(replays) > 0; seq++ {
		rb := replays[0]
		replays = replays[1:]
		if s.writeFrame(w, sess, seq, rb, true, time.Now()) != nil {
			return
		}
	}

	s.runPushProducer(w, r, sess, ps, gen)
}

// runPushProducer is the stream's serve loop: wait for credit, produce
// one block through the shared pull path, frame and flush it.
func (s *Server) runPushProducer(w http.ResponseWriter, r *http.Request, sess *session, ps *pushState, gen uint64) {
	for {
		size, err := sess.waitCredit(r.Context(), ps, gen, s.cfg.PushMaxWindow, s.metrics.pushCreditStalls.Inc)
		if err != nil {
			s.logf("session %s: push stream ends: %v", sess.id, err)
			return
		}

		sess.touch()
		started := time.Now()
		sess.mu.Lock()
		if !sess.liveGen(ps, gen) {
			// Closed, or a reconnect took over between the credit wait and
			// the session lock; producing here would skip its replay window.
			sess.mu.Unlock()
			return
		}
		if sess.done {
			sess.mu.Unlock()
			// The done frame was already produced and written (or is in
			// the retained tail a replay just covered). End cleanly.
			return
		}
		rb, alive, err := s.produceBlockLocked(r.Context(), sess, size)
		seq := sess.lastSeq
		sess.mu.Unlock()
		if err == errProduceCancelled {
			return
		}
		if err != nil {
			s.writeErrorFrame(w, sess, err)
			return
		}
		// The block is committed and retained (unless the session raced
		// its close, in which case this write is the client's last): it
		// survives in the tail for a reconnect's replay whatever happens
		// to this write.
		if n := len(rb.payload); n > s.cfg.PushMaxFrameBytes {
			releaseReplay(rb)
			s.writeErrorFrame(w, sess, fmt.Errorf(
				"block %d encodes to %d bytes, past the %d push frame cap — lower the block size or raise -push-max-frame",
				seq, n, s.cfg.PushMaxFrameBytes))
			return
		}
		done := rb.done
		if s.writeFrame(w, sess, seq, rb, false, started) != nil || done || !alive {
			// After the done frame comes the chunked EOF: the client
			// drains to it and the connection returns to its keep-alive
			// pool.
			return
		}
	}
}

// writeFrame frames one committed block onto the stream through the
// shared serve path, consuming the caller's reference: same fault
// injection, same accounting as a pull, so a frame counts once fully
// written and flushed. An injected drop or truncate severs the whole
// stream — the client reconnects and the unacked tail replays.
func (s *Server) writeFrame(w http.ResponseWriter, sess *session, seq uint64, rb *replayBlock, replayed bool, started time.Time) error {
	f := wire.Frame{
		Type:    wire.FrameData,
		Seq:     seq,
		Tuples:  uint32(rb.tuples),
		Done:    rb.done,
		Replay:  replayed,
		DelayMS: rb.delayMS,
		Payload: rb.payload,
	}
	return s.serveBlock(w, sess, rb, s.faults.decide(sess.id), replayed, true, started, func(dst io.Writer) error {
		return wire.WriteFrame(dst, f)
	})
}

// writeErrorFrame terminates the stream with an in-band error. The
// session state is untouched: whatever was committed stays replayable.
func (s *Server) writeErrorFrame(w http.ResponseWriter, sess *session, cause error) {
	s.logf("session %s: push stream error: %v", sess.id, cause)
	f := wire.Frame{Type: wire.FrameError, Payload: []byte(cause.Error())}
	if err := wire.WriteFrame(w, f); err != nil {
		s.logf("session %s: write error frame: %v", sess.id, err)
		return
	}
	w.(http.Flusher).Flush()
}

// handleCredit serves POST /sessions/{id}/credit: the client's
// cumulative ack plus its current window and block-size grant.
func (s *Server) handleCredit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	ps := sess.push.Load()
	if ps == nil {
		httpError(w, http.StatusConflict, "session has no push stream")
		return
	}
	acked, err := pushQuery(r, "acked", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	window64, err := pushQuery(r, "window", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	size64, err := pushQuery(r, "size", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if size64 > uint64(s.cfg.MaxBlockSize) {
		httpError(w, http.StatusBadRequest, "size %d exceeds maximum %d", size64, s.cfg.MaxBlockSize)
		return
	}
	window := int(window64)
	if window > s.cfg.PushMaxWindow {
		window = s.cfg.PushMaxWindow
	}
	if !sess.grant(ps, acked, window, int(size64)) {
		httpError(w, http.StatusConflict, "acked %d is ahead of production", acked)
		return
	}
	sess.touch()
	s.metrics.pushCreditGrants.Inc()
	w.WriteHeader(http.StatusNoContent)
}
