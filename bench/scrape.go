package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// serverStats is the part of GET /api/stats the per-layer metrics use. All
// fields are cumulative counters.
type serverStats struct {
	CacheHits        int64 `json:"cacheHits"`
	CacheMisses      int64 `json:"cacheMisses"`
	CacheEvictions   int64 `json:"cacheEvictions"`
	Shared           int64 `json:"shared"`
	Executed         int64 `json:"executed"`
	FactScans        int64 `json:"factScans"`
	TimedOut         int64 `json:"timedOut"`
	ShedTotal        int64 `json:"shedTotal"`
	FilterSets       int64 `json:"filterSets"`
	FilterMasks      int64 `json:"filterMasks"`
	FilterPredicates int64 `json:"filterPredicates"`
	PredicateMasks   int64 `json:"predicateMasks"`
	GroupKeySets     int64 `json:"groupKeySets"`
	GroupKeyCols     int64 `json:"groupKeyCols"`
}

// scrape is one reading of the server's own counters.
type scrape struct {
	stats serverStats
	// queueWait is the sdwp_query_queue_wait_seconds histogram summed over
	// tenants: upper bound in seconds -> cumulative count.
	queueWait map[float64]float64
}

const queueWaitBucket = "sdwp_query_queue_wait_seconds_bucket{"

func scrapeServer(client *http.Client, base string) (scrape, error) {
	sc := scrape{queueWait: map[float64]float64{}}
	resp, err := client.Get(base + "/api/stats")
	if err != nil {
		return sc, err
	}
	err = json.NewDecoder(resp.Body).Decode(&sc.stats)
	resp.Body.Close()
	if err != nil {
		return sc, fmt.Errorf("decode /api/stats: %w", err)
	}
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		labels, ok := strings.CutPrefix(lines.Text(), queueWaitBucket)
		if !ok {
			continue
		}
		// labels is `user="u00",le="0.001024"} 17`.
		_, rest, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64) // "+Inf" parses
		n, err2 := strconv.ParseFloat(count, 64)
		if err1 != nil || err2 != nil {
			return sc, fmt.Errorf("unexpected /metrics line %q", lines.Text())
		}
		sc.queueWait[bound] += n
	}
	return sc, lines.Err()
}

// histP50Ms is the median, in ms, of the observations a cumulative
// histogram gained between two scrapes, interpolated on the log scale its
// power-of-two buckets use. 0 when it gained none.
func histP50Ms(before, after map[float64]float64) float64 {
	bounds := make([]float64, 0, len(after))
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	prevCum := 0.0
	for i, b := range bounds {
		cum := after[b] - before[b]
		if cum >= total/2 {
			if i == 0 {
				return b * 1e3 // below the first bound (or a lone +Inf bucket)
			}
			lo := bounds[i-1]
			if math.IsInf(b, 1) {
				return lo * 1e3
			}
			frac := (total/2 - prevCum) / (cum - prevCum)
			return lo * math.Pow(b/lo, frac) * 1e3
		}
		prevCum = cum
	}
	return 0
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
