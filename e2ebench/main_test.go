package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmokeEveryWorkload runs each workload very briefly, untraced and
// traced, and checks the run is correct and reports exactly the metric
// names and units BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			rep, err := run(context.Background(), options{
				workload: cw.Name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", cw.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", cw.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			got := make(map[string]string, len(rep.Metrics))
			for _, m := range rep.Metrics {
				got[m.Name] = m.Unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", cw.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported with unit %q (present=%v), declared %q", cw.Name, trace, m.Name, unit, ok, m.Unit)
				}
			}
		}
	}
}

// TestGateTripsOnWrongChecksum proves the correctness gate is live: with
// the expected checksum perturbed, the run must be reported incorrect.
func TestGateTripsOnWrongChecksum(t *testing.T) {
	for _, w := range workloads {
		rep, err := run(context.Background(), options{
			workload: w.name, seed: 7, seconds: 0.5, out: t.TempDir(), corrupt: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Correct || rep.Failed < 1 || len(rep.Notes) == 0 {
			t.Errorf("%s: wrong expected checksum not caught: correct=%v failed=%d notes=%v", w.name, rep.Correct, rep.Failed, rep.Notes)
		}
	}
}

// TestBlockQuantileSliceMedian checks that a burst of slow blocks in one
// slice does not move the block-time quantile, and that a block that
// completes after the window counts in its last slice.
func TestBlockQuantileSliceMedian(t *testing.T) {
	ph := &phase{dur: 3 * blockSlice}
	for k := 0; k < 3; k++ {
		for i := 0; i < 100; i++ {
			ms := 1.0
			if k == 1 {
				ms = 50 // the burst
			}
			ph.blockMs = append(ph.blockMs, ms)
			ph.blockAt = append(ph.blockAt, time.Duration(k)*blockSlice+time.Duration(i)*time.Millisecond)
		}
	}
	if got := ph.blockQuantile(0.95); got != 1 {
		t.Errorf("p95 with a burst in one of three slices = %v, want 1", got)
	}
	// Past the deadline: 200 slow blocks land in the last slice, which
	// then has a slow median, as does the burst slice.
	for i := 0; i < 200; i++ {
		ph.blockMs = append(ph.blockMs, 50)
		ph.blockAt = append(ph.blockAt, ph.dur+time.Duration(i)*time.Millisecond)
	}
	if got := ph.blockQuantile(0.50); got != 50 {
		t.Errorf("p50 with late blocks counted in the last slice = %v, want 50", got)
	}
}
