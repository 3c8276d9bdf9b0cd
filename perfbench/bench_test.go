package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"fastppv/internal/sparse"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
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
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 3, seconds: 0.6, trace: trace,
		nodes: 400, hubs: 40, setupReps: 2, audit: 6, workDir: t.TempDir(),
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at a tiny size in
// both modes and checks the report against BENCHMARK.json: every declared
// metric is present with its declared unit, and nothing else is.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(known)
	sort.Strings(names)
	if len(known) != len(names) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, known)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep, err := run(tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			for m, unit := range want {
				got, ok := rep.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", name, trace, m, got.Unit, unit)
				}
			}
			for m := range rep.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", name, trace, m)
				}
			}
			if !trace {
				for m, v := range rep.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestAuditCatchesAlteredAnswer alters one score of every served answer by
// far less than any reported precision and requires the run to fail.
func TestAuditCatchesAlteredAnswer(t *testing.T) {
	for _, name := range []string{"zipf-serve", "cluster-2shard"} {
		cfg := tinyConfig(t, name, false)
		cfg.setupReps = 1
		cfg.tamper = func(a *queryAnswer) {
			if len(a.Results) > 0 {
				a.Results[len(a.Results)-1].Score *= 1 + 1e-9
			}
		}
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Correct || rep.Failed < int64(cfg.audit) {
			t.Errorf("%s: altered answers passed the audit: correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
		if got := rep.Metrics["ok_frac"].Value; got >= 1 {
			t.Errorf("%s: ok_frac %v with failed audits", name, got)
		}
	}
}

// TestGuaranteeCheck covers the guarantee check on its own: an estimate
// above the exact PPV, or a bound below the exact L1 gap, fails.
func TestGuaranteeCheck(t *testing.T) {
	exact := sparse.Vector{0: 0.5, 1: 0.3, 2: 0.2}
	est := sparse.Vector{0: 0.4, 1: 0.3}
	if err := checkGuarantee(0, est, 0.3, exact); err != nil {
		t.Fatalf("valid estimate rejected: %v", err)
	}
	if err := checkGuarantee(0, sparse.Vector{0: 0.6}, 0.4, exact); err == nil {
		t.Error("estimate above the exact PPV accepted")
	}
	if err := checkGuarantee(0, est, 0.25, exact); err == nil {
		t.Error("bound below the exact L1 gap accepted")
	}
}
