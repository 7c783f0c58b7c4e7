package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// phaseResult is what the load generator observed during one phase.
type phaseResult struct {
	window    time.Duration
	elapsed   time.Duration // open loop: start of the phase to its last completion
	attempted int
	failed    int
	completed int       // operations that succeeded inside the window
	lat       []float64 // ms, one per successful operation
	// latAt places each latency in the window: a closed loop's operation
	// where it completed, an open loop's where it was due.
	latAt []time.Duration
	// sliceCPU is the server's CPU seconds at the slices+1 boundaries of
	// the window's equal slices.
	sliceCPU  []float64
	stepLat   [numStepKinds][]float64
	lagMs     []float64 // open loop: how late each operation was handed out
	status429 int
	status504 int
	status5xx int
	respBytes int64
	facts     int64 // summed over every response's cost vector
	cells     int64
	samples   []sample
	firstErr  error
	genCPU    float64 // seconds of CPU this process used during the phase
}

func (r *phaseResult) merge(o *phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.completed += o.completed
	r.lat = append(r.lat, o.lat...)
	for k := range r.stepLat {
		r.stepLat[k] = append(r.stepLat[k], o.stepLat[k]...)
	}
	r.status429 += o.status429
	r.status504 += o.status504
	r.status5xx += o.status5xx
	r.respBytes += o.respBytes
	r.facts += o.facts
	r.cells += o.cells
	r.samples = append(r.samples, o.samples...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// loadgen drives one plan at one server. The request stream continues
// across phases, so the timed window is not a replay of the warm-up.
type loadgen struct {
	w        workload
	p        plan
	sessions []*sess
	targets  []*httpTarget // one per connection
	rngs     []*rand.Rand  // closed loop: one per client; open loop: rngs[0]
	arrivals *rand.Rand
	// Every oracleEvery-th operation of a phase (of each client, in a
	// closed loop) is kept for the oracle.
	oracleEvery int
}

func newLoadgen(w workload, p plan, sessions []*sess, targets []*httpTarget, seed int64, oracleEvery int) *loadgen {
	g := &loadgen{w: w, p: p, sessions: sessions, targets: targets, oracleEvery: oracleEvery,
		arrivals: rand.New(rand.NewSource(streamSeed(seed, -1)))}
	for c := range targets {
		g.rngs = append(g.rngs, rand.New(rand.NewSource(streamSeed(seed, c))))
	}
	return g
}

// prefill runs the plan's prefill operations, spread over every connection.
func (g *loadgen) prefill() error {
	queue := make(chan op, len(g.p.prefill))
	for _, o := range g.p.prefill {
		queue <- o
	}
	close(queue)
	errs := make([]error, len(g.targets))
	var wg sync.WaitGroup
	for c := range g.targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for o := range queue {
				if err := runSteps(g.targets[c], sessionFor(g.sessions, o), o.steps); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// phase offers load for d and returns once every operation it started has
// ended.
func (g *loadgen) phase(d time.Duration) phaseResult {
	cpu0 := selfCPU()
	var res phaseResult
	if g.w.rate > 0 {
		res = g.openLoop(d)
	} else {
		res = g.closedLoop(d)
	}
	res.window = d
	res.genCPU = selfCPU() - cpu0
	return res
}

// closedLoop: each client sends its next operation when the previous one
// has completed, until the window closes. An operation still in flight
// then is neither counted nor timed.
func (g *loadgen) closedLoop(d time.Duration) phaseResult {
	parts := make([]phaseResult, len(g.targets))
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range g.targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				o := g.p.next(g.rngs[c], c)
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				g.run(&parts[c], g.targets[c], o, sent, end, i%g.oracleEvery == g.oracleEvery-1)
			}
		}(c)
	}
	wg.Wait()
	var res phaseResult
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// openLoop: operations are due at instants fixed from the seed before the
// phase starts, whatever the server does, and are timed from the instant
// they were due. A dispatcher hands each one out when due; the connections
// take them in order.
func (g *loadgen) openLoop(d time.Duration) phaseResult {
	n := int(g.w.rate * d.Seconds())
	ops := make([]op, n)
	for i, due := range arrivals(g.arrivals, n, g.w.rate) {
		ops[i] = g.p.next(g.rngs[0], 0)
		ops[i].due = due
	}
	parts := make([]phaseResult, len(g.targets))
	queue := make(chan int, n) // every operation fits: the dispatcher never blocks
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := range g.targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				g.run(&parts[c], g.targets[c], ops[i], start.Add(ops[i].due), end, i%g.oracleEvery == g.oracleEvery-1)
			}
		}(c)
	}
	lag := make([]float64, n)
	for i := range ops {
		dueAt := start.Add(ops[i].due)
		sleepUntil(dueAt)
		lag[i] = float64(time.Since(dueAt)) / float64(time.Millisecond)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res := phaseResult{lagMs: lag, elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. time.Sleep
// would do, but an otherwise idle Go process wakes through epoll_wait,
// whose timeout counts whole milliseconds: arrivals would run up to 1 ms
// late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}

// run performs one operation and records it. Latency runs from origin (the
// send instant in a closed loop, the due instant in an open one) to the
// last byte of the last response.
func (g *loadgen) run(res *phaseResult, t *httpTarget, o op, origin, end time.Time, keep bool) {
	s := sessionFor(g.sessions, o)
	var smp sample
	if keep {
		smp = sample{o: o, bodies: make([][]byte, len(o.steps))}
	}
	var opErr error
	for i, st := range o.steps {
		t0 := time.Now()
		rep, err := t.step(s, st)
		res.stepLat[st.kind] = append(res.stepLat[st.kind], ms(time.Since(t0)))
		res.respBytes += int64(len(rep.body))
		switch {
		case rep.status == 429:
			res.status429++
		case rep.status == 504:
			res.status504++
		case rep.status >= 500:
			res.status5xx++
		}
		if err != nil {
			opErr = err
			break
		}
		if st.kind == stepQuery || st.kind == stepBatch {
			f, c := scanCosts(rep.body)
			res.facts += f
			res.cells += c
			if keep {
				smp.bodies[i] = append([]byte(nil), rep.body...)
			}
		}
	}
	done := time.Now()
	if !done.Before(end) && g.w.rate == 0 {
		return
	}
	res.attempted++
	if opErr != nil {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = opErr
		}
		return
	}
	if done.Before(end) {
		res.completed++
	}
	res.lat = append(res.lat, ms(done.Sub(origin)))
	if keep {
		res.samples = append(res.samples, smp)
	}
}

var costKey = []byte(`"cost":{`)

// scanCosts sums factsScanned and cellsTouched over every cost vector in a
// response without decoding the rows around them: a drill-down response is
// 100 KB and the generator must stay cheap.
func scanCosts(body []byte) (facts, cells int64) {
	for {
		i := bytes.Index(body, costKey)
		if i < 0 {
			return
		}
		body = body[i+len(costKey)-1:]
		end := bytes.IndexByte(body, '}')
		if end < 0 {
			return
		}
		var c struct {
			FactsScanned int64 `json:"factsScanned"`
			CellsTouched int64 `json:"cellsTouched"`
		}
		if json.Unmarshal(body[:end+1], &c) == nil {
			facts += c.FactsScanned
			cells += c.CellsTouched
		}
		body = body[end:]
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is the user+system CPU time this process has used, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
