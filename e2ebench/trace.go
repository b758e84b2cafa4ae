package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsopt/internal/core"
)

// spanHeader carries "<trace>-<span>" (hex) from a traced caller to the
// tier it calls, so the callee's handler span is parented by the request
// span that caused it.
const spanHeader = "X-E2ebench-Span"

// Trace-event process lanes.
const (
	pidClient  = 1
	pidGateway = 2
	pidBackend = 10 // + backend index
)

// maxKeptSpans bounds the spans retained for the trace file; aggregates
// are computed from every span regardless.
const maxKeptSpans = 60000

// tracer records spans from the benchmark's own wrappers around each
// tier: the client RoundTripper and body reader, the handler and
// ResponseWriter wrappers of the service and gateway, the gateway's
// outbound RoundTripper, and the controller wrapper. Spans stay in
// memory; writeChrome writes them out once the run ends.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	live sync.Map // span id → *span, so a callee can credit its caller's child coverage

	mu      sync.Mutex
	kept    []keptSpan
	dropped int
	byName  map[string]*spanAgg
}

type keptSpan struct {
	name                 string
	pid                  int
	trace, id, parent    uint64
	startNs, durNs, self int64
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	durs    []float64 // ns
	total   int64     // ns
	writeNs int64     // ns inside ResponseWriter Write/Flush (handler spans)
	bytes   int64     // response body bytes (request spans)
}

type span struct {
	t          *tracer
	name       string
	pid        int
	trace, id  uint64
	parent     uint64
	parentSpan *span
	start      time.Time
	child      atomic.Int64 // ns covered by child spans
	write      atomic.Int64 // ns, see spanAgg
	bytes      atomic.Int64
	ended      atomic.Bool
}

type spanKey struct{}

func newTracer() *tracer {
	return &tracer{base: time.Now(), byName: make(map[string]*spanAgg)}
}

// start opens a span. A nil parent with trace 0 records an unparented
// root; a nil parent with a trace continues that trace.
func (t *tracer) start(name string, pid int, parent *span, trace, parentID uint64) *span {
	id := t.ids.Add(1)
	if parent != nil {
		trace, parentID = parent.trace, parent.id
	}
	if trace == 0 {
		trace = id
	}
	s := &span{t: t, name: name, pid: pid, trace: trace, id: id, parent: parentID, parentSpan: parent, start: time.Now()}
	t.live.Store(id, s)
	return s
}

// end closes the span once and returns its duration.
func (s *span) end() time.Duration {
	if !s.ended.CompareAndSwap(false, true) {
		return 0
	}
	d := time.Since(s.start)
	t := s.t
	t.live.Delete(s.id)
	if s.parentSpan != nil {
		s.parentSpan.child.Add(int64(d))
	}
	self := int64(d) - s.child.Load()
	if self < 0 {
		self = 0
	}
	t.mu.Lock()
	a := t.byName[s.name]
	if a == nil {
		a = &spanAgg{}
		t.byName[s.name] = a
	}
	a.durs = append(a.durs, float64(d))
	a.total += int64(d)
	a.writeNs += s.write.Load()
	a.bytes += s.bytes.Load()
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, keptSpan{
			name: s.name, pid: s.pid, trace: s.trace, id: s.id, parent: s.parent,
			startNs: int64(s.start.Sub(t.base)), durNs: int64(d), self: self,
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return d
}

func (s *span) header() string {
	return strconv.FormatUint(s.trace, 16) + "-" + strconv.FormatUint(s.id, 16)
}

// fromHeader resolves a propagated span header to its live span (nil if
// it already ended) plus the trace and parent ids.
func (t *tracer) fromHeader(h string) (*span, uint64, uint64) {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return nil, 0, 0
	}
	trace, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	if err1 != nil || err2 != nil {
		return nil, 0, 0
	}
	if v, ok := t.live.Load(id); ok {
		return v.(*span), trace, id
	}
	return nil, trace, id
}

// reset drops every span recorded so far (the warm-up's), so aggregates
// cover the timed window only.
func (t *tracer) reset() {
	t.mu.Lock()
	t.kept, t.dropped = nil, 0
	t.byName = make(map[string]*spanAgg)
	t.mu.Unlock()
}

// agg returns a copy of one name's aggregate (zero when never recorded).
func (t *tracer) agg(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.byName[name]; a != nil {
		c := *a
		c.durs = append([]float64(nil), a.durs...)
		return c
	}
	return spanAgg{}
}

// route names a protocol endpoint from its method and path.
func route(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/next"):
		return "next"
	case strings.HasSuffix(path, "/stream"):
		return "stream"
	case strings.HasSuffix(path, "/credit"):
		return "credit"
	case strings.HasSuffix(path, "/block"):
		return "ingest"
	case strings.HasSuffix(path, "/replication/feed"):
		return "feed"
	case strings.HasSuffix(path, "/sessions") && method == http.MethodPost:
		return "create"
	case strings.Contains(path, "/sessions/") && method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(path, "/ingest") && method == http.MethodPost:
		return "ingest_create"
	case strings.Contains(path, "/ingest/") && method == http.MethodDelete:
		return "ingest_delete"
	}
	return "other"
}

// queryTrace is the client-side budget of one query: the critical-path
// components the layer-budget closure adds up against wall time.
type queryTrace struct {
	root  *span
	mu    sync.Mutex
	ivs   [][2]int64 // critical-path component intervals, ns since tracer base
	open  int64
	close int64
	wait  int64
	step  int64
	bytes int64
}

func (q *queryTrace) add(kind string, from time.Time, d time.Duration) {
	s := int64(from.Sub(q.root.t.base))
	q.mu.Lock()
	q.ivs = append(q.ivs, [2]int64{s, s + int64(d)})
	switch kind {
	case "open":
		q.open += int64(d)
	case "close":
		q.close += int64(d)
	case "wait":
		q.wait += int64(d)
	case "step":
		q.step += int64(d)
	}
	q.mu.Unlock()
}

// covered returns the union length of the component intervals clipped
// to the query's own interval [lo, hi]: time a component spent outside
// its query, or overlapping another component, is not covered.
func (q *queryTrace) covered(lo, hi int64) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	sort.Slice(q.ivs, func(i, j int) bool { return q.ivs[i][0] < q.ivs[j][0] })
	var total, curS, curE int64 // offsets from the tracer base are positive
	for _, iv := range q.ivs {
		iv[0], iv[1] = max(iv[0], lo), min(iv[1], hi)
		if iv[1] <= iv[0] {
			continue
		}
		if iv[0] > curE {
			total += curE - curS
			curS, curE = iv[0], iv[1]
			continue
		}
		if iv[1] > curE {
			curE = iv[1]
		}
	}
	return total + curE - curS
}

// clientRT is one client's traced RoundTripper. A client runs one query
// at a time, so requests are attributed to the query set in cur. That
// matters for the push transport, which opens its stream and posts
// credits with context.Background rather than the caller's context
// (internal/client/stream.go), so req.Context() cannot carry the span.
type clientRT struct {
	base http.RoundTripper
	t    *tracer
	cur  atomic.Pointer[queryTrace]
}

func (c *clientRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt := route(req.Method, req.URL.Path)
	q := c.cur.Load()
	var parent *span
	// Credits are posted by the grant-loop goroutine, off the query's
	// critical path: record them unparented.
	if q != nil && rt != "credit" {
		parent = q.root
	}
	sp := c.t.start("client."+rt, pidClient, parent, 0, 0)
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, sp.header())
	t0 := time.Now()
	resp, err := c.base.RoundTrip(r2)
	hdr := time.Since(t0)
	data := q != nil && (rt == "next" || rt == "stream")
	if data {
		q.add("wait", t0, hdr)
	}
	finish := func() {
		d := sp.end()
		if q == nil || parent == nil {
			return
		}
		switch rt {
		case "create":
			q.add("open", sp.start, d)
		case "delete":
			q.add("close", sp.start, d)
		}
	}
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, sp: sp, q: q, data: data, finish: finish}
	return resp, nil
}

// timedBody times each Read of a response body as wait (blocked on body
// bytes) and ends the request span at Close.
type timedBody struct {
	rc     io.ReadCloser
	sp     *span
	q      *queryTrace
	data   bool
	finish func()
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.rc.Read(p)
	d := time.Since(t0)
	b.sp.bytes.Add(int64(n))
	if b.data {
		b.q.add("wait", t0, d)
		b.q.mu.Lock()
		b.q.bytes += int64(n)
		b.q.mu.Unlock()
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(b.finish)
	return err
}

// outboundRT is the gateway's traced RoundTripper (gateway.Config.HTTP):
// it parents each backend request from the gateway handler span in
// req.Context(). Requests the gateway issues outside a handler — the
// replication puller's feed polls and best-effort backend deletes —
// carry no span and are recorded unparented.
type outboundRT struct {
	base http.RoundTripper
	t    *tracer
}

func (o *outboundRT) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(*span)
	sp := o.t.start("gateway.backend."+route(req.Method, req.URL.Path), pidGateway, parent, 0, 0)
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, sp.header())
	resp, err := o.base.RoundTrip(r2)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, sp: sp, finish: func() { sp.end() }}
	return resp, nil
}

// traceHandler wraps a tier's handler: one span per request, parented by
// the caller's propagated span, put into r.Context() so the tier's own
// outbound requests can parent from it; Write/Flush time is recorded by
// the ResponseWriter wrapper.
func (t *tracer) traceHandler(tier string, pid int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, trace, parentID := t.fromHeader(r.Header.Get(spanHeader))
		sp := t.start(tier+"."+route(r.Method, r.URL.Path), pid, parent, trace, parentID)
		tw := &timedWriter{ResponseWriter: w, sp: sp}
		h.ServeHTTP(tw, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		sp.end()
	})
}

// timedWriter records time spent inside Write and Flush. It keeps the
// Flusher the push stream handler needs and unwraps for
// http.ResponseController.
type timedWriter struct {
	http.ResponseWriter
	sp *span
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.ResponseWriter.Write(p)
	d := int64(time.Since(t0))
	w.sp.write.Add(d)
	w.sp.child.Add(d)
	return n, err
}

func (w *timedWriter) Flush() {
	t0 := time.Now()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	d := int64(time.Since(t0))
	w.sp.write.Add(d)
	w.sp.child.Add(d)
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// stepCtl wraps a query's controller to time the control step
// (Size + Observe) and record the commanded block size of each block.
type stepCtl struct {
	inner  core.Controller
	q      *queryTrace
	sizeNs int64
	last   int
	steps  *[]float64 // ns per step
	sizes  *[]float64 // commanded tuples per block
}

func (c *stepCtl) Size() int {
	t0 := time.Now()
	n := c.inner.Size()
	d := time.Since(t0)
	c.q.add("step", t0, d)
	c.sizeNs += int64(d)
	c.last = n
	return n
}

func (c *stepCtl) Observe(y float64) {
	t0 := time.Now()
	c.inner.Observe(y)
	d := time.Since(t0)
	c.q.add("step", t0, d)
	*c.steps = append(*c.steps, float64(c.sizeNs+int64(d)))
	*c.sizes = append(*c.sizes, float64(c.last))
	c.sizeNs = 0
}

func (c *stepCtl) Name() string { return c.inner.Name() }

// writeChrome writes the retained spans as Chrome trace-event JSON
// (complete "X" events, microseconds), which Perfetto opens.
func (t *tracer) writeChrome(path string, names map[int]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	kept, dropped := t.kept, t.dropped
	t.mu.Unlock()
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":%d},\"traceEvents\":[\n", dropped)
	first := true
	for pid, name := range names {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		meta, _ := json.Marshal(map[string]any{"name": "process_name", "ph": "M", "pid": pid, "args": map[string]string{"name": name}})
		w.Write(meta)
	}
	for _, s := range kept {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"trace":%d,"span":%d,"parent":%d,"self_us":%.3f}}`,
			s.name, s.pid, s.trace, float64(s.startNs)/1e3, float64(s.durNs)/1e3, s.trace, s.id, s.parent, float64(s.self)/1e3)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
