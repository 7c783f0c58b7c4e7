package qsched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdwp/internal/cube"
)

// TestLoneQueriesDispatchOnArrival pins dispatch on arrival: on an idle
// two-slot scheduler two lone queries each start their own scan at once —
// neither is held back for company — and Stats.InFlight counts both
// stalled scans.
func TestLoneQueriesDispatchOnArrival(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 2})
	defer s.Close()
	defer ge.open()

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := s.Submit(cityQuery(i), nil, fmt.Sprintf("user%d", i))
			errs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-ge.entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 2 lone queries started a scan", i)
		}
	}
	if st := s.Stats(); st.Batches != 2 || st.InFlight != 2 || st.QueueDepth != 0 {
		t.Errorf("batches %d, in flight %d, queued %d; want 2 separate scans in flight and none queued",
			st.Batches, st.InFlight, st.QueueDepth)
	}
	ge.open()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both slots to free", func() bool { return s.Stats().InFlight == 0 })
}

// propExec is the property test's executor: every scan waits for a
// release token, and the executor records the most scans it ever ran at
// once.
type propExec struct {
	*cube.Cube
	release   chan struct{}
	cur, peak atomic.Int64
}

func (p *propExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	n := p.cur.Add(1)
	defer p.cur.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	<-p.release
	return p.Cube.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// TestDispatchOnArrivalProperty drives random Submit / SubmitBatchCtx /
// context-cancellation / Close traffic against an executor released at
// random moments, and checks the runner invariants: the executor never
// runs more than MaxInFlight scans and Stats never counts more in flight,
// a non-empty queue always has every slot busy, every waiter is answered,
// and no goroutine outlives Close.
func TestDispatchOnArrivalProperty(t *testing.T) {
	ds := testDataset(t)
	rounds := int64(20)
	if testing.Short() {
		rounds = 5
	}
	for seed := int64(1); seed <= rounds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dispatchPropertyRound(t, ds.Cube, seed)
		})
	}
}

func dispatchPropertyRound(t *testing.T, c *cube.Cube, seed int64) {
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	maxIn := 1 + rng.Intn(3)
	opts := Options{MaxInFlight: maxIn, MaxBatch: 1 + rng.Intn(4)}
	if rng.Intn(2) == 0 {
		opts.Timeout = time.Duration(1+rng.Intn(3)) * time.Millisecond
	}
	pe := &propExec{Cube: c, release: make(chan struct{})}
	s := New(pe, opts)

	fail := make(chan string, 1)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Background: the releaser lets scans through one at a time at random
	// intervals, and the checker snapshots Stats (queue depth and in-flight
	// count come from one lock hold) as fast as it can.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func(rng *rand.Rand) {
		defer bg.Done()
		for {
			select {
			case pe.release <- struct{}{}:
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			case <-stop:
				return
			}
		}
	}(rand.New(rand.NewSource(seed + 1000)))
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.InFlight > maxIn {
				report("Stats.InFlight %d > MaxInFlight %d", st.InFlight, maxIn)
			}
			if st.QueueDepth > 0 && st.InFlight != maxIn {
				report("%d queued with only %d of %d slots busy", st.QueueDepth, st.InFlight, maxIn)
			}
			runtime.Gosched()
		}
	}()

	var ops sync.WaitGroup
	for w := 0; w < 6; w++ {
		ops.Add(1)
		go func(user string, rng *rand.Rand) {
			defer ops.Done()
			for k := 0; k < 12; k++ {
				if err := propOp(s, rng, user); err != nil {
					report("%s: %v", user, err)
					return
				}
			}
		}(fmt.Sprintf("user%d", w%3), rand.New(rand.NewSource(seed*100+int64(w))))
	}
	closed := make(chan struct{})
	closeAfter := time.Duration(rng.Intn(20000)) * time.Microsecond
	go func() {
		time.Sleep(closeAfter)
		s.Close()
		close(closed)
	}()

	done := make(chan struct{})
	go func() {
		ops.Wait()
		<-closed
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a waiter was never answered, or Close hung")
	}
	close(stop)
	bg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if p := pe.peak.Load(); p > int64(maxIn) {
		t.Errorf("executor ran %d scans at once, MaxInFlight %d", p, maxIn)
	}
	if st := s.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("after Close: %d in flight, %d queued", st.InFlight, st.QueueDepth)
	}
	waitFor(t, "goroutines to return to baseline after Close", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// propOp makes one random scheduler call — a single or batch submit, with
// or without a context that expires or is canceled mid-wait — and returns
// an error only when the call broke its contract.
func propOp(s *Scheduler, rng *rand.Rand, user string) error {
	ctx := context.Background()
	switch rng.Intn(4) {
	case 0:
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500))*time.Microsecond)
		defer cancel()
	case 1:
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer time.AfterFunc(time.Duration(rng.Intn(500))*time.Microsecond, cancel).Stop()
		defer cancel()
	}
	if rng.Intn(2) == 0 {
		res, err := s.SubmitCtx(ctx, cityQuery(rng.Intn(6)), nil, user)
		return checkOutcome(err, res != nil)
	}
	qs := make([]cube.Query, 1+rng.Intn(4))
	for i := range qs {
		qs[i] = cityQuery(rng.Intn(6))
	}
	res, err := s.SubmitBatchCtx(ctx, qs, nil, user)
	return checkOutcome(err, len(res) == len(qs))
}

// checkOutcome accepts a delivered answer or one of the errors the
// scheduler may legitimately return under cancellation, deadlines and
// shutdown.
func checkOutcome(err error, answered bool) error {
	switch {
	case err == nil && !answered:
		return errors.New("no answer and no error")
	case err == nil, errors.Is(err, ErrClosed), errors.Is(err, ErrTimeout),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return nil
	}
	return err
}
