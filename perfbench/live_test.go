package main

import (
	"testing"

	"repro/internal/cdnlog"
)

// The parallel replay behind the live-ingest ledger check must count
// exactly what one aggregator fed the first n records in source order
// counts, wherever n cuts a (day, country) unit.
func TestHumanCountMatchesSerialReplay(t *testing.T) {
	env, _, err := startLive(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	s := cdnlog.NewSampler(env.w, 5)

	serial := func(n int64) int64 {
		agg := cdnlog.NewAggregator(env.w.RoutingDB(), env.w.Registry, botThreshold)
		var seen int64
		for i := 0; i < streamDays && seen < n; i++ {
			for _, cc := range streamCountries {
				s.EachDayRecord(cc, streamFrom.AddDays(i), streamPerOrg, func(rec cdnlog.Record) bool {
					if seen >= n {
						return false
					}
					seen++
					agg.Add(rec)
					return true
				})
			}
		}
		var human int64
		for _, st := range agg.Stats() {
			human += st.Requests
		}
		return human
	}
	for _, n := range []int64{0, 1, 777, 123_457, 400_000} {
		if got, want := humanCount(env, s, n), serial(n); got != want {
			t.Errorf("n=%d: parallel replay counts %d humans, serial %d", n, got, want)
		}
	}
}
