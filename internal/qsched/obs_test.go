package qsched

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"sdwp/internal/obs"
)

// TestTraceLifecycleSpans submits one traced query and checks the span
// tree GET /api/trace/{id} would serve: compile, admissionWait, scan
// (with the executor's per-shard stage breakdown as children), finalize
// — and that the stages account for the trace's end-to-end duration.
func TestTraceLifecycleSpans(t *testing.T) {
	ds := testDataset(t)
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s := New(ds.Cube, Options{MaxInFlight: 1})
	defer s.Close()

	tr := tracer.Start("trace-me")
	ctx := obs.NewContext(context.Background(), tr)
	if _, err := s.SubmitCtx(ctx, cityQuery(0), nil, "alice"); err != nil {
		t.Fatal(err)
	}
	snap, ok := tracer.Get("trace-me")
	if !ok {
		t.Fatal("trace not retained after delivery")
	}
	if snap.Error != "" {
		t.Fatalf("unexpected trace error %q", snap.Error)
	}

	byName := map[string]*obs.Span{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	for _, want := range []string{"compile", "admissionWait", "scan", "finalize"} {
		if byName[want] == nil {
			t.Fatalf("span %q missing (have %v)", want, names(snap.Spans))
		}
	}
	scan := byName["scan"]
	shardScans := 0
	for _, c := range scan.Children {
		if c.Name == "shardScan" {
			shardScans++
			for _, attr := range []string{"shard", "facts", "filterMaskNs", "groupDecodeNs", "accumulateNs"} {
				if _, ok := c.Attrs[attr]; !ok {
					t.Errorf("shardScan span missing attr %q: %v", attr, c.Attrs)
				}
			}
		}
	}
	if shardScans != 1 {
		t.Fatalf("unsharded scan has %d shardScan children, want 1", shardScans)
	}

	// The lifecycle stages are contiguous (submit → compile → queue →
	// scan → finalize → delivery), so their durations must sum to
	// approximately the whole trace — nothing big unaccounted for.
	var sum int64
	for _, sp := range snap.Spans {
		sum += sp.Dur
	}
	if snap.DurNs <= 0 {
		t.Fatalf("trace duration %d", snap.DurNs)
	}
	if sum < snap.DurNs/2 || sum > snap.DurNs+int64(time.Millisecond) {
		t.Errorf("stage durations sum to %dns, trace end-to-end is %dns", sum, snap.DurNs)
	}
}

func names(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTraceTimeoutRetained checks the admission-timeout path: a query
// dropped past its deadline must finish its trace with the error and be
// retained even at sample rate 0 (errors always keep their traces).
func TestTraceTimeoutRetained(t *testing.T) {
	ds := testDataset(t)
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 0})
	const timeout = 20 * time.Millisecond
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1, Timeout: timeout})
	defer s.Close()
	defer ge.open()
	stalled := stallSlot(t, s, ge, "bob")

	tr := tracer.Start("late-query")
	ctx := obs.NewContext(context.Background(), tr)
	done := make(chan error, 1)
	go func() {
		_, err := s.SubmitCtx(ctx, cityQuery(1), nil, "alice")
		done <- err
	}()
	waitFor(t, "query to queue", func() bool { return s.Stats().QueueDepth == 1 })
	time.Sleep(timeout + time.Millisecond) // its deadline passes behind the stalled scan
	ge.open()
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if err := <-stalled; err != nil {
		t.Fatalf("stalling query: %v", err)
	}
	snap, ok := tracer.Get("late-query")
	if !ok {
		t.Fatal("timed-out trace not retained at sample rate 0")
	}
	if snap.Error == "" {
		t.Fatal("timed-out trace has no error")
	}
	found := false
	for _, sp := range snap.Spans {
		if sp.Name == "admissionWait" {
			if v, _ := sp.Attrs["timedOut"].(bool); v {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no admissionWait span with timedOut=true: %v", snap.Spans)
	}
}

// TestQueryMetricsRecorded checks the scheduler feeds every stage
// histogram: end-to-end by tenant, queue wait, scan, merge.
func TestQueryMetricsRecorded(t *testing.T) {
	ds := testDataset(t)
	m := obs.NewQueryMetrics(obs.NewRegistry())
	s := New(ds.Cube, Options{Metrics: m})
	defer s.Close()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := s.Submit(cityQuery(i), nil, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.EndToEnd.With("alice").Count(); got != n {
		t.Errorf("end-to-end observations = %d, want %d", got, n)
	}
	if got := m.QueueWait.Count(); got == 0 {
		t.Error("no queue-wait observations")
	}
	if got := m.Scan.Count(); got == 0 {
		t.Error("no scan observations")
	}
	if got := m.Merge.Count(); got == 0 {
		t.Error("no merge observations")
	}
}

// TestSlowQueryLog checks the structured slow-query record: with the
// threshold at 1ns every query is slow, and the record must carry the
// trace ID and stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	ds := testDataset(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	s := New(ds.Cube, Options{SlowQuery: time.Nanosecond, Logger: logger})
	defer s.Close()

	tr := tracer.Start("slow-one")
	ctx := obs.NewContext(context.Background(), tr)
	if _, err := s.SubmitCtx(ctx, cityQuery(2), nil, "carol"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "traceId=slow-one", "user=carol", "fact=Sales", "queueWait=", "scan=", "total="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q\n---\n%s", want, out)
		}
	}

	// Under the threshold: silence.
	buf.Reset()
	s2 := New(ds.Cube, Options{SlowQuery: time.Hour, Logger: logger})
	defer s2.Close()
	if _, err := s2.Submit(cityQuery(3), nil, "carol"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("fast query logged as slow: %s", buf.String())
	}
}

// TestStatsUptimeSnapshot checks the snapshot metadata on Stats: a
// parseable RFC3339Nano timestamp and an uptime that advances.
func TestStatsUptimeSnapshot(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{})
	defer s.Close()
	st1 := s.Stats()
	if _, err := time.Parse(time.RFC3339Nano, st1.SnapshotAt); err != nil {
		t.Fatalf("SnapshotAt %q: %v", st1.SnapshotAt, err)
	}
	if st1.UptimeSeconds < 0 {
		t.Fatalf("UptimeSeconds = %g", st1.UptimeSeconds)
	}
	time.Sleep(10 * time.Millisecond)
	st2 := s.Stats()
	if st2.UptimeSeconds <= st1.UptimeSeconds {
		t.Fatalf("uptime did not advance: %g then %g", st1.UptimeSeconds, st2.UptimeSeconds)
	}
}
