package service

import (
	"bytes"
	"sync"
	"sync/atomic"

	"wsopt/internal/blockcache"
)

// replayBlock is one committed block's encoded bytes. Its payload is
// backed either by a pooled encode buffer (uncached blocks) or by a
// retained immutable cache entry (cache hits), and the backing is never
// recycled while anyone could still write those bytes — so replays
// serve the exact committed bytes.
//
// refs counts the holders of the backing: the writer that produced or
// replays the block, the session's retained tail, and the replication
// log (which holds the payload until the shipped record is evicted).
// releaseReplay drops one reference and only pools the buffer (or
// releases the cache entry) when the last holder is gone.
type replayBlock struct {
	buf     *bytes.Buffer     // pooled encode buffer (nil for cache hits)
	entry   *blockcache.Entry // retained cache entry (nil for pooled blocks)
	payload []byte
	tuples  int
	done    bool
	delayMS float64
	refs    atomic.Int32
}

// newReplayBlock wraps a freshly encoded buffer with the producing
// writer's reference already counted.
func newReplayBlock(buf *bytes.Buffer, tuples int, done bool, delayMS float64) *replayBlock {
	rb := &replayBlock{buf: buf, payload: buf.Bytes(), tuples: tuples, done: done, delayMS: delayMS}
	rb.refs.Store(1)
	return rb
}

// newCachedReplay wraps a cache entry; ownership of the caller's
// retained reference transfers to the replayBlock, which releases it
// from releaseReplay when the last holder is gone.
func newCachedReplay(ent *blockcache.Entry, delayMS float64) *replayBlock {
	rb := &replayBlock{entry: ent, payload: ent.Bytes(), tuples: ent.Tuples(), done: ent.Done(), delayMS: delayMS}
	rb.refs.Store(1)
	return rb
}

// retain adds a reference for one more holder.
func (rb *replayBlock) retain() { rb.refs.Add(1) }

// blockBufPool pools the per-block encode buffers. Ownership rule: a
// buffer obtained for a block either travels into the committed
// replayBlock (released later via releaseReplay) or is returned to the
// pool on the spot when production aborts before commit.
var blockBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// testReplayRelease, when non-nil (set only by tests, before traffic),
// observes every replay-buffer release.
var testReplayRelease func(rb *replayBlock)

// releaseReplay drops one reference to rb's backing and recycles it when
// the last reference is gone: a pooled encode buffer goes back to the
// pool, a cache entry gets its retained reference released. Holders
// release in any order — only the final release recycles the backing.
func releaseReplay(rb *replayBlock) {
	if rb == nil {
		return
	}
	if rb.refs.Add(-1) > 0 {
		return
	}
	// Only the releaser that took the last reference gets here; the
	// atomic Add orders it after every other holder's release.
	if rb.buf == nil && rb.entry == nil {
		return
	}
	if testReplayRelease != nil {
		testReplayRelease(rb)
	}
	if ent := rb.entry; ent != nil {
		rb.entry, rb.payload = nil, nil
		ent.Release()
		return
	}
	buf := rb.buf
	rb.buf, rb.payload = nil, nil
	buf.Reset()
	blockBufPool.Put(buf)
}

// tail is a session's one store of committed-but-unacked blocks, shared
// by both transports: blocks holds seqs (acked, last], oldest first, one
// reference each. Pull is a credit window of one — committing block N+1
// acks N — so a pulling session retains exactly its last block for a
// same-seq retry. Push acks through credit grants and a reconnect's
// `from`, and retains up to its window.
//
// mu is the tail's own small lock, so /credit releases acked blocks
// without waiting on a producer that holds sess.mu through scan, encode
// or a priced delay. Lock order: sess.mu before tail.mu, never the
// reverse. mu also guards the session's pushState and is its credit
// condition's lock.
type tail struct {
	mu     sync.Mutex
	blocks []*replayBlock
	// last is the newest committed seq; it equals sess.lastSeq, readable
	// without the session lock.
	last uint64
	// closed flips when the session is deleted or expires; the tail is
	// released then and takes no further blocks.
	closed bool
}

// ackedLocked is the cumulative ack: every seq up to it is released.
func (t *tail) ackedLocked() uint64 { return t.last - uint64(len(t.blocks)) }

// appendLocked appends block seq, taking a reference of its own; under
// pull it then acks seq-1, releasing the superseded block. It reports
// false, taking nothing, when the session has closed. Caller holds t.mu.
func (t *tail) appendLocked(seq uint64, rb *replayBlock, pull bool) bool {
	if t.closed {
		return false
	}
	rb.retain()
	t.blocks = append(t.blocks, rb)
	t.last = seq
	if pull {
		t.ackLocked(seq - 1)
	}
	return true
}

// ackLocked releases every retained block with seq <= acked. Acks are
// cumulative: one at or below the current ack is a no-op.
func (t *tail) ackLocked(acked uint64) {
	cur := t.ackedLocked()
	if acked <= cur {
		return
	}
	n := min(int(acked-cur), len(t.blocks))
	for i := 0; i < n; i++ {
		releaseReplay(t.blocks[i])
		t.blocks[i] = nil
	}
	t.blocks = append(t.blocks[:0], t.blocks[n:]...)
}

// fromLocked returns the retained blocks with seq >= from, each with a
// reference for the caller's writes; from must be past the ack. Caller
// holds t.mu.
func (t *tail) fromLocked(from uint64) []*replayBlock {
	acked := t.ackedLocked()
	if from > t.last {
		return nil
	}
	out := append([]*replayBlock(nil), t.blocks[from-acked-1:]...)
	for _, rb := range out {
		rb.retain()
	}
	return out
}

// get returns block seq with a reference for the caller's write, or nil
// when it is no longer retained.
func (t *tail) get(seq uint64) *replayBlock {
	t.mu.Lock()
	defer t.mu.Unlock()
	acked := t.ackedLocked()
	if seq <= acked || seq > t.last {
		return nil
	}
	rb := t.blocks[seq-acked-1]
	rb.retain()
	return rb
}

// close releases every retained block and refuses later commits.
func (t *tail) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.ackLocked(t.last)
}
