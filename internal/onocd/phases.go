package onocd

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// PhaseBreakdown splits a run's engine work into its serving phases, scraped
// from the daemon's /metrics page: cold solves (the compiled pipeline ran),
// warm hits (the memo cache answered) and coalesced solves (a miss
// joined an in-flight solve). The load harness and the tracked benchmark report both
// record it, so BENCH_cold_sweep.json shows where a serving run's time went.
type PhaseBreakdown struct {
	// ColdSolves and ColdSolveSeconds come from the
	// onocd_cold_solve_duration_seconds histogram; ColdSolveMeanMS is their
	// ratio (0 when no solve ran cold).
	ColdSolves       uint64  `json:"cold_solves"`
	ColdSolveSeconds float64 `json:"cold_solve_seconds"`
	ColdSolveMeanMS  float64 `json:"cold_solve_mean_ms"`
	// CacheHits counts warm answers; CoalescedSolves counts evaluations that
	// joined another request's in-flight solve.
	CacheHits       uint64 `json:"cache_hits"`
	CoalescedSolves uint64 `json:"coalesced_solves"`
}

// ScrapePhases reads the daemon's /metrics page and extracts the phase
// breakdown. It parses only the handful of unlabeled series it needs; the
// strict-format contract of the page itself is enforced by the daemon's own
// tests.
func ScrapePhases(ctx context.Context, hc *http.Client, base string) (PhaseBreakdown, error) {
	var pb PhaseBreakdown
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(base, "/")+"/metrics", nil)
	if err != nil {
		return pb, err
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return pb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return pb, fmt.Errorf("onocd: /metrics returned %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch name {
		case "onocd_cold_solve_duration_seconds_count":
			pb.ColdSolves = uint64(v)
		case "onocd_cold_solve_duration_seconds_sum":
			pb.ColdSolveSeconds = v
		case "onocd_cache_hits_total":
			pb.CacheHits = uint64(v)
		case "onocd_cache_shared_solves_total":
			pb.CoalescedSolves = uint64(v)
		}
	}
	if err := sc.Err(); err != nil {
		return pb, err
	}
	if pb.ColdSolves > 0 {
		pb.ColdSolveMeanMS = pb.ColdSolveSeconds / float64(pb.ColdSolves) * 1e3
	}
	return pb, nil
}
