package qsched

import (
	"errors"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdwp/internal/cube"
)

// panicExec panics in every scan while armed, after the gated wait of
// its gatedExec (so a test can hold the first scan and queue more).
type panicExec struct {
	*gatedExec
	armed atomic.Bool
}

func (p *panicExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	p.entered <- struct{}{}
	<-p.release
	if p.armed.Load() {
		panic("injected scan fault")
	}
	return p.Cube.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// TestScanPanicFailsOneBatch pins the fault contract of the scan slot: an
// executor panic fails every query of its batch with ErrInternal — a
// held lone query, then a coalesced batch of queued queries, two of them
// identical — instead of ending the process; the slot is given
// back, the next Submit succeeds, and no goroutine outlives Close.
func TestScanPanicFailsOneBatch(t *testing.T) {
	ds := testDataset(t)
	baseline := runtime.NumGoroutine()
	pe := &panicExec{gatedExec: newGatedExec(ds.Cube)}
	pe.armed.Store(true)
	s := New(pe, Options{MaxInFlight: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Close()
	defer pe.open()

	stalled := stallSlot(t, s, pe.gatedExec, "alice")
	// Queued behind the held scan: three lone queries, two of them equal
	// (two requests), and a batch of two.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, i := range []int{1, 2, 2} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(cityQuery(i), nil, "bob")
			errs <- err
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.SubmitBatch([]cube.Query{cityQuery(3), cityQuery(4)}, nil, "carol")
		errs <- err
	}()
	waitFor(t, "the queries to queue", func() bool { return s.Stats().QueueDepth == 5 })
	pe.open()
	if err := <-stalled; !errors.Is(err, ErrInternal) {
		t.Errorf("held query: err = %v, want ErrInternal", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrInternal) {
			t.Errorf("queued query: err = %v, want ErrInternal", err)
		}
	}
	waitFor(t, "the slot to free", func() bool { st := s.Stats(); return st.InFlight == 0 && st.QueueDepth == 0 })

	pe.armed.Store(false)
	res, err := s.Submit(cityQuery(5), nil, "alice")
	if err != nil {
		t.Fatalf("query after the panics: %v", err)
	}
	want, err := ds.Cube.ExecuteBatch([]cube.Query{cityQuery(5)}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want[0].Rows) || res.MatchedFacts != want[0].MatchedFacts {
		t.Errorf("query after the panics: %d rows / %d matched, want %d / %d",
			len(res.Rows), res.MatchedFacts, len(want[0].Rows), want[0].MatchedFacts)
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Close, %d before the scheduler", n, baseline)
	}
}
