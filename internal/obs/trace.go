// Package obs is the engine's telemetry subsystem: query-lifecycle
// traces (span trees kept in a bounded ring), lock-free log-bucketed
// latency histograms with a Prometheus text exposition, the scan
// stage-timing recorder the executor fills per shard, and per-tenant
// cost accounting — every query is priced as a QueryCost vector, the
// bill is attributed to its tenant (Accountant), and a decay-weighted
// registry ranks the heaviest query fingerprints (ProfileRegistry).
// The accountant's decayed per-tenant costs are what the scheduler's
// fair admission consumes, so "fair" means fair by resources used.
//
// The package sits below every other internal package (it imports only
// the standard library) so the scheduler, executor, and HTTP layer can
// all depend on it without cycles. Every entry point is nil-safe: a nil
// *Tracer, *Trace, *QueryMetrics, or *ScanTrace turns the corresponding
// call into a no-op, which keeps call sites branch-free and makes
// "telemetry off" cost one pointer test.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a query's lifecycle. Start is absolute
// (UnixNano) rather than trace-relative because coalescing shares one
// scan span across every trace in a batch — the same *Span is attached
// to traces with different start times, so offsets must be computed by
// the reader.
type Span struct {
	Name     string         `json:"name"`
	Start    int64          `json:"startUnixNs"`
	Dur      int64          `json:"durNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*Span        `json:"children,omitempty"`
}

// Trace is the span tree of one submitted query. Spans are appended by
// the HTTP layer (compile, cache lookup) and the scheduler (admission
// wait, scan, finalize); Finish freezes the duration and decides
// retention. All methods are nil-safe.
type Trace struct {
	id      string
	start   time.Time
	sampled bool
	tracer  *Tracer

	mu    sync.Mutex
	user  string
	spans []*Span
	done  bool
	errS  string
	durNS int64
}

// SetUser stamps the tenant the query belongs to (set by the scheduler
// once the session is resolved, so /api/traces/recent can filter by
// tenant). A trace is one request's, so it has one tenant.
func (t *Trace) SetUser(user string) {
	if t == nil || user == "" {
		return
	}
	t.mu.Lock()
	t.user = user
	t.mu.Unlock()
}

// ID returns the trace/request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Sampled reports whether this trace won the probabilistic sample (it
// is still retained on Finish(err != nil) even when false).
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// AddSpan records a top-level span with an explicit start and duration.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, attrs map[string]any) {
	if t == nil {
		return
	}
	t.Attach(&Span{Name: name, Start: start.UnixNano(), Dur: dur.Nanoseconds(), Attrs: attrs})
}

// Attach adds an externally built span (possibly shared with other
// traces of the same batch — the span must not be mutated afterwards).
func (t *Trace) Attach(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Finish freezes the trace duration and hands it to the tracer's ring
// when retained (sampled, or err != nil — errors and timeouts are
// always kept). Only the first call wins; the scheduler finishes traces
// at result delivery and the HTTP layer finishes again on its own
// error/success paths, so idempotence is load-bearing.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.durNS = time.Since(t.start).Nanoseconds()
	if err != nil {
		t.errS = err.Error()
	}
	keep := t.sampled || err != nil
	t.mu.Unlock()
	if keep && t.tracer != nil {
		t.tracer.retain(t)
	}
}

// TraceSnapshot is the JSON form served by /api/trace/{id}.
type TraceSnapshot struct {
	ID          string  `json:"id"`
	User        string  `json:"user,omitempty"`
	StartUnixNs int64   `json:"startUnixNs"`
	DurNs       int64   `json:"durNs"`
	Error       string  `json:"error,omitempty"`
	Sampled     bool    `json:"sampled"`
	Spans       []*Span `json:"spans"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		ID:          t.id,
		User:        t.user,
		StartUnixNs: t.start.UnixNano(),
		DurNs:       t.durNS,
		Error:       t.errS,
		Sampled:     t.sampled,
		Spans:       append([]*Span(nil), t.spans...),
	}
}

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// SampleRate is the probability a non-error query's trace is
	// retained. Errors and timeouts are always retained.
	SampleRate float64
	// RingSize bounds how many finished traces are kept (default 256).
	RingSize int
}

// Tracer issues traces and keeps the most recent retained ones in a
// fixed-size ring indexed by ID. A nil *Tracer issues nil traces.
type Tracer struct {
	opts TracerOptions

	mu   sync.Mutex
	ring []*Trace
	next int
	byID map[string]*Trace
}

// NewTracer builds a tracer. A SampleRate of 0 still issues traces (so
// error traces are retained deterministically); callers that want
// tracing fully off should keep the tracer nil instead.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = 256
	}
	return &Tracer{
		opts: opts,
		ring: make([]*Trace, 0, opts.RingSize),
		byID: make(map[string]*Trace, opts.RingSize),
	}
}

// Start issues a trace. requestID, when non-empty, becomes the trace ID
// (the caller-supplied X-Request-Id); otherwise a fresh ID is
// generated. Nil-safe: a nil tracer returns a nil trace.
func (tr *Tracer) Start(requestID string) *Trace {
	if tr == nil {
		return nil
	}
	id := sanitizeID(requestID)
	if id == "" {
		id = NewRequestID()
	}
	return &Trace{
		id:      id,
		start:   time.Now(),
		sampled: tr.opts.SampleRate > 0 && rand.Float64() < tr.opts.SampleRate,
		tracer:  tr,
	}
}

// retain stores a finished trace, evicting the oldest past RingSize.
func (tr *Tracer) retain(t *Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.ring) < tr.opts.RingSize {
		tr.ring = append(tr.ring, t)
	} else {
		old := tr.ring[tr.next]
		if tr.byID[old.id] == old {
			delete(tr.byID, old.id)
		}
		tr.ring[tr.next] = t
		tr.next = (tr.next + 1) % tr.opts.RingSize
	}
	tr.byID[t.id] = t
}

// Get returns the snapshot of a retained trace by ID. Only finished
// traces are visible; in-flight ones are not yet in the ring.
func (tr *Tracer) Get(id string) (TraceSnapshot, bool) {
	if tr == nil {
		return TraceSnapshot{}, false
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return TraceSnapshot{}, false
	}
	return t.snapshot(), true
}

// Recent returns snapshots of up to n most recently retained traces,
// newest first.
func (tr *Tracer) Recent(n int) []TraceSnapshot {
	return tr.RecentFiltered(n, nil)
}

// RecentFiltered returns up to n most recent retained traces whose
// snapshot satisfies keep (nil keep = all), newest first. The whole
// ring is walked so a filter still finds older matches past n
// non-matching newer traces.
func (tr *Tracer) RecentFiltered(n int, keep func(TraceSnapshot) bool) []TraceSnapshot {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	traces := make([]*Trace, 0, len(tr.ring))
	for i := 0; i < len(tr.ring); i++ {
		// Walk backwards from the insertion cursor: newest first.
		idx := (tr.next - 1 - i + 2*len(tr.ring)) % len(tr.ring)
		if len(tr.ring) < tr.opts.RingSize {
			// Ring not yet full: entries live at [0, len) in append order.
			idx = len(tr.ring) - 1 - i
		}
		traces = append(traces, tr.ring[idx])
	}
	tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, min(n, len(traces)))
	for _, t := range traces {
		if len(out) >= n {
			break
		}
		s := t.snapshot()
		if keep == nil || keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Request-ID generation: a per-process random prefix plus an atomic
// counter. Cheap enough for every request (no crypto/rand syscall on
// the query path) while still unique across restarts.
var (
	idPrefix = rand.Uint32()
	idSeq    atomic.Uint64
)

// NewRequestID returns a fresh correlation ID. Exported so the HTTP
// layer can stamp responses (timeouts included) even when tracing is
// disabled and no *Trace exists.
func NewRequestID() string {
	return fmt.Sprintf("%08x-%08x", idPrefix, uint32(idSeq.Add(1)))
}

// RequestID returns the sanitized caller-supplied ID, or a fresh one
// when it is empty or junk — the HTTP layer's ID source when tracing is
// disabled and Tracer.Start never runs.
func RequestID(clientID string) string {
	if id := sanitizeID(clientID); id != "" {
		return id
	}
	return NewRequestID()
}

// sanitizeID bounds and cleans a caller-supplied request ID so header
// junk cannot bloat the ring index or break log lines.
func sanitizeID(id string) string {
	const maxLen = 64
	if len(id) > maxLen {
		id = id[:maxLen]
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c > 0x7e { // reject spaces and control/non-ASCII bytes
			return ""
		}
	}
	return id
}

type ctxKey struct{}

// NewContext returns ctx carrying the trace (nil trace: ctx unchanged).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace carried by NewContext, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
