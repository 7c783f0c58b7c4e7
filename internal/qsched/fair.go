package qsched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"sdwp/internal/obs"
)

// This file is the scheduler's cost-driven resource manager: per-tenant
// weighted fair shares debited by attributed scan cost (deficit-weighted
// batch assembly), and the overload-control path that sheds over-share
// tenants with a retry hint before requests ever reach the 504 admission
// deadline.
//
// The fairness model: each tenant carries a decaying account of the scan
// cost attributed to its completed queries (usage), plus a provisional
// debit for queries already assembled into an in-flight scan (pending —
// an EWMA estimate of the tenant's per-query cost, reversed and replaced
// by the measured cost when the scan completes, so several batches
// assembled before any completion cannot over-admit one tenant). Batch
// assembly always admits the tenant with the lowest (usage + pending) /
// weight. Round-robin equalized admission *counts*; this equalizes
// admitted *cost*: a tenant whose queries each scan the whole table gets
// one slot for every N a cheap-query tenant gets, so both converge to
// equal attributed scan CPU per unit weight. The scheme is work-
// conserving — an over-share tenant still takes every slot no one else
// wants — so fairness costs no throughput.
//
// Cost units: when Options.Costs is wired (every engine), usage is the
// attributed scan CPU in nanoseconds (obs.QueryCost.CPUNs, the batch's
// measured CPU split proportionally to facts scanned). Without an
// accountant the scheduler falls back to facts scanned as the cost unit.
// Either way the unit is consistent per scheduler, and fairness only
// depends on ratios.
//
// Dedup note: waiters merged onto an identical queued request ride for
// free — the request's cost is charged to the tenant that enqueued it
// first. The cost accountant still splits the attributed cost across all
// waiting tenants (conservation); the fair-share ledger deliberately
// charges the instigator, since dedup'd joiners consumed no extra scan.

// DefaultFairShareHalfLife is the decay half-life of the per-tenant usage
// window when Options.FairShareHalfLife is unset: a tenant idle this long
// counts half as heavy, so a burst five half-lives old is forgiven and a
// returning tenant is not punished for yesterday's scans.
const DefaultFairShareHalfLife = 10 * time.Second

const (
	// minDebit floors the per-query cost estimate so a brand-new tenant
	// (estimate not yet learned) still accumulates pending debt during
	// assembly — without it every estimate-zero tenant would tie at score
	// zero forever and assembly would degenerate to FIFO.
	minDebit = 1
	// estimateAlpha is the EWMA weight of the newest measured per-query
	// cost in a tenant's estimate.
	estimateAlpha = 0.3
	// ewmaAlpha smooths the admission-wait and drain-rate signals the
	// overload controller sheds on.
	ewmaAlpha = 0.2
	// maxShedTenants bounds the per-tenant shed-counter map (and therefore
	// the sdwp_shed_total label cardinality): past this many distinct shed
	// tenants, new ones collapse into obs.OtherTenant.
	maxShedTenants = 64
	// minRetryAfter / maxRetryAfter clamp the Retry-After hint: never tell
	// a client "0" (it would hammer right back), never more than a minute
	// (the queue state a minute out is unknowable).
	minRetryAfter = time.Second
	maxRetryAfter = 60 * time.Second
)

// ErrOverloaded is the base error of queries shed by the overload
// controller: the queue is past Options.MaxQueueDepth (or admission waits
// are past Options.TargetQueueWait) and the tenant is at or over its fair
// share. Callers match it with errors.Is; the concrete *OverloadError
// (errors.As) carries the Retry-After hint. The web layer maps it to
// HTTP 429.
var ErrOverloaded = errors.New("qsched: scheduler overloaded, query shed")

// Shed reasons (OverloadError.Reason, the reason label of
// sdwp_shed_total).
const (
	// ShedQueueDepth: the admission queue was at or past
	// Options.MaxQueueDepth.
	ShedQueueDepth = "queue_depth"
	// ShedQueueWait: the smoothed admission wait was past
	// Options.TargetQueueWait.
	ShedQueueWait = "queue_wait"
)

// OverloadError is the structured form of a shed: why, how deep the queue
// was, and when the client should retry (computed from the observed drain
// rate, clamped to [1s, 60s]).
type OverloadError struct {
	// Reason is ShedQueueDepth or ShedQueueWait.
	Reason string
	// QueueDepth is the admission-queue depth at the shed decision.
	QueueDepth int
	// RetryAfter estimates when the backlog will have drained: queue depth
	// over the smoothed admission rate. The web layer serves it as the
	// Retry-After header (whole seconds, rounded up).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v (%s: depth %d, retry after %s)",
		ErrOverloaded, e.Reason, e.QueueDepth, e.RetryAfter.Round(time.Second))
}

// Unwrap makes errors.Is(err, ErrOverloaded) work on the structured form.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// tenant is one userKey's scheduling state: its queued requests and its
// fair-share ledger. All fields are guarded by Scheduler.mu.
type tenant struct {
	// weight is the tenant's configured share (Options.TenantWeights,
	// default 1): usage is normalized by it, so weight 2 sustains twice
	// the attributed scan cost of weight 1 before losing priority.
	weight float64
	// usage is the decayed attributed cost of completed queries (CPU ns,
	// or facts scanned without an accountant — see the file comment).
	usage float64
	// lastDecay is when usage was last decayed (decay is applied lazily).
	lastDecay time.Time
	// pending is the provisional debit of assembled-but-unfinished
	// queries: estimate is added at assembly and reversed at completion,
	// when the measured cost is charged into usage instead.
	pending float64
	// estimate is the EWMA per-query cost, the provisional debit unit.
	estimate float64
	// fifo is the tenant's admitted requests in arrival order.
	fifo []*request
}

// tenantLocked returns (creating if needed) the user's scheduling state.
// Callers hold s.mu.
func (s *Scheduler) tenantLocked(user string, now time.Time) *tenant {
	t := s.tenants[user]
	if t == nil {
		w := s.opts.TenantWeights[user]
		if w <= 0 {
			w = 1
		}
		t = &tenant{weight: w, estimate: minDebit, lastDecay: now}
		s.tenants[user] = t
	}
	return t
}

// halfLife returns the usage-decay half-life.
func (s *Scheduler) halfLife() time.Duration {
	if s.opts.FairShareHalfLife > 0 {
		return s.opts.FairShareHalfLife
	}
	return DefaultFairShareHalfLife
}

// decayTenantLocked applies the lazy exponential decay to a tenant's
// usage window. Callers hold s.mu.
func (s *Scheduler) decayTenantLocked(t *tenant, now time.Time) {
	dt := now.Sub(t.lastDecay)
	if dt <= 0 {
		return
	}
	t.usage *= math.Exp2(-dt.Seconds() / s.halfLife().Seconds())
	t.lastDecay = now
}

// scoreLocked is the tenant's normalized fair-share position: decayed
// usage plus provisional debits, per unit weight. Assembly admits the
// minimum; the overload controller sheds tenants at or above the mean.
// Callers hold s.mu.
func (s *Scheduler) scoreLocked(t *tenant, now time.Time) float64 {
	s.decayTenantLocked(t, now)
	return (t.usage + t.pending) / t.weight
}

// costUnits extracts the fair-share charge from one executed result:
// attributed scan CPU when the accountant wired the split, facts scanned
// otherwise (see the file comment on units).
func (s *Scheduler) costUnits(c obs.QueryCost) float64 {
	if s.opts.Costs != nil {
		return float64(c.CPUNs)
	}
	return float64(c.FactsScanned + 1)
}

// settleBatchLocked reverses the batch's provisional debits and charges
// the measured per-query cost into each owning tenant's decayed usage
// window, updating the per-query estimates. Callers hold s.mu.
func (s *Scheduler) settleBatchLocked(batch []*request, costs []obs.QueryCost, now time.Time) {
	for i, r := range batch {
		t := s.tenants[r.user]
		if t == nil {
			continue
		}
		t.pending -= r.debit
		if t.pending < 0 {
			t.pending = 0
		}
		if costs == nil {
			continue // scan failed: the debit is reversed, nothing is charged
		}
		actual := s.costUnits(costs[i])
		s.decayTenantLocked(t, now)
		t.usage += actual
		t.estimate = (1-estimateAlpha)*t.estimate + estimateAlpha*actual
		if t.estimate < minDebit {
			t.estimate = minDebit
		}
	}
	s.pruneTenantsLocked(now)
}

// pruneTenantsLocked drops tenants that are idle (no queued work, no
// in-flight debit) and whose decayed usage has faded to noise, bounding
// the tenant map under userKey churn. Callers hold s.mu.
func (s *Scheduler) pruneTenantsLocked(now time.Time) {
	if len(s.tenants) <= maxShedTenants {
		return
	}
	for user, t := range s.tenants {
		if len(t.fifo) == 0 && t.pending == 0 {
			s.decayTenantLocked(t, now)
			if t.usage < 1 {
				delete(s.tenants, user)
			}
		}
	}
}

// pickTenantLocked returns the active tenant with the lowest fair-share
// score — ties break by arrival order (s.active), which preserves exact
// round-robin behavior when every tenant's cost profile is identical.
// Callers hold s.mu; s.active must be non-empty.
func (s *Scheduler) pickTenantLocked(now time.Time) (idx int, user string) {
	best := math.Inf(1)
	for i, u := range s.active {
		if sc := s.scoreLocked(s.tenants[u], now); sc < best {
			best, idx, user = sc, i, u
		}
	}
	return idx, user
}

// --- overload control ---

// breachLocked reports whether an overload threshold is currently
// breached, and which. Callers hold s.mu.
func (s *Scheduler) breachLocked() (string, bool) {
	if d := s.opts.MaxQueueDepth; d > 0 && s.queued >= d {
		return ShedQueueDepth, true
	}
	if w := s.opts.TargetQueueWait; w > 0 && s.waitEWMA > float64(w) {
		return ShedQueueWait, true
	}
	return "", false
}

// overShareLocked reports whether the tenant is at or above the mean
// fair-share score — the shed eligibility test. Under-share tenants are
// never shed (they are owed capacity); at breach with a single tenant, or
// with every tenant equal, the flooding tenants are exactly the ones at
// the mean. Callers hold s.mu.
func (s *Scheduler) overShareLocked(user string, now time.Time) bool {
	if len(s.tenants) == 0 {
		return true // breach with no ledger at all: everyone is the flood
	}
	var sum float64
	for _, t := range s.tenants {
		sum += s.scoreLocked(t, now)
	}
	mean := sum / float64(len(s.tenants))
	t := s.tenants[user]
	if t == nil {
		return mean == 0 // an unseen tenant has score 0: over-share only if everyone is
	}
	return s.scoreLocked(t, now) >= mean
}

// retryAfterLocked estimates when the backlog will have drained: queue
// depth over the smoothed admission rate, clamped to [minRetryAfter,
// maxRetryAfter]. Callers hold s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	drain := s.drainEWMA
	if drain < 0.1 {
		drain = 0.1 // cold start / stalled queue: clamp below, not divide by zero
	}
	ra := time.Duration(float64(s.queued) / drain * float64(time.Second))
	if ra < minRetryAfter {
		ra = minRetryAfter
	}
	if ra > maxRetryAfter {
		ra = maxRetryAfter
	}
	return ra
}

// maybeShed is the admission-time overload gate: when an overload
// threshold is breached and the tenant is at or over its fair share, the
// query is refused with *OverloadError instead of joining the queue it
// would only time out of. Runs before compilation — shed traffic costs
// one mutex hold, nothing else. Returns nil to admit.
func (s *Scheduler) maybeShed(user string) error {
	if s.opts.MaxQueueDepth <= 0 && s.opts.TargetQueueWait <= 0 {
		return nil
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	reason, breached := s.breachLocked()
	if !breached || !s.overShareLocked(user, now) {
		return nil
	}
	s.recordShedLocked(user, reason, now)
	return &OverloadError{Reason: reason, QueueDepth: s.queued, RetryAfter: s.retryAfterLocked()}
}

// recordShedLocked counts one shed (per tenant and reason, collapsing
// past maxShedTenants into obs.OtherTenant) and bumps the decaying
// shed-rate window. Callers hold s.mu.
func (s *Scheduler) recordShedLocked(user, reason string, now time.Time) {
	s.shedTotal++
	byReason := s.shedCounts[user]
	if byReason == nil {
		if len(s.shedCounts) >= maxShedTenants {
			user = obs.OtherTenant
			byReason = s.shedCounts[user]
		}
		if byReason == nil {
			byReason = map[string]int64{}
			s.shedCounts[user] = byReason
		}
	}
	byReason[reason]++
	s.decayShedLocked(now)
	s.shedRecent++
}

// decayShedLocked ages the shed-rate window (same half-life as the fair
// shares). Callers hold s.mu.
func (s *Scheduler) decayShedLocked(now time.Time) {
	dt := now.Sub(s.shedDecayAt)
	if dt <= 0 {
		return
	}
	s.shedRecent *= math.Exp2(-dt.Seconds() / s.halfLife().Seconds())
	s.shedDecayAt = now
}

// shedRateLocked converts the decaying shed window into sheds/second: a
// steady shed rate r settles the window at r·H/ln2, so rate = window·
// ln2/H. Callers hold s.mu.
func (s *Scheduler) shedRateLocked(now time.Time) float64 {
	s.decayShedLocked(now)
	return s.shedRecent * math.Ln2 / s.halfLife().Seconds()
}

// TenantShare is one tenant's fair-share position in Stats: its weight,
// decayed attributed usage, in-flight provisional debit, queued requests,
// and its fraction of the total normalized usage (0 when idle).
type TenantShare struct {
	Tenant string `json:"tenant"`
	// Weight is the configured share (Options.TenantWeights, default 1).
	Weight float64 `json:"weight"`
	// UsageCost is the decayed attributed cost window (CPU ns with an
	// accountant, facts scanned without).
	UsageCost float64 `json:"usageCost"`
	// PendingCost is the provisional debit of assembled-but-unfinished
	// queries.
	PendingCost float64 `json:"pendingCost"`
	// Queued is the tenant's admission-queue depth right now.
	Queued int `json:"queued"`
	// Share is the tenant's fraction of the summed normalized usage —
	// ~equal across backlogged tenants of equal weight when fair admission
	// is doing its job.
	Share float64 `json:"share"`
}

// fairSharesLocked snapshots every tenant's ledger, heaviest share first.
// Callers hold s.mu.
func (s *Scheduler) fairSharesLocked(now time.Time) []TenantShare {
	if len(s.tenants) == 0 {
		return nil
	}
	out := make([]TenantShare, 0, len(s.tenants))
	var total float64
	for user, t := range s.tenants {
		sc := s.scoreLocked(t, now)
		total += sc
		out = append(out, TenantShare{
			Tenant: user, Weight: t.weight,
			UsageCost: t.usage, PendingCost: t.pending,
			Queued: len(t.fifo), Share: sc,
		})
	}
	for i := range out {
		if total > 0 {
			out[i].Share /= total
		} else {
			out[i].Share = 0
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}
