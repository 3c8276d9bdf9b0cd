// Command perfbench is the repository benchmark: it builds a FastPPV serving
// stack from a seeded synthetic graph, drives one of four workloads against
// it over loopback HTTP, audits the answers against exact PPV, and prints
// one JSON object with the run's metrics as the last line of its output.
//
//	perfbench --workload zipf-serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with a span recorder around the index store and reports
// per-layer metrics instead. README.md lists every metric, its unit and the
// end-to-end metric each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	nodes     int
	hubs      int
	setupReps int
	audit     int
	workDir   string
	// tamper, when non-nil, alters every served answer before the audit
	// checks it; the self-test uses it to show the audit catches a wrong
	// answer.
	tamper func(*queryAnswer)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// The sizes every run uses: the graph, its hub count, the set-ups per run
// (setup_s is their median) and the audited sources.
const (
	benchNodes     = 20000
	benchHubs      = 2000
	benchSetupReps = 3
	benchAudit     = 48
)

func main() {
	cfg := runConfig{nodes: benchNodes, hubs: benchHubs, setupReps: benchSetupReps, audit: benchAudit}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured part of the run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.workDir, "work", "", "directory for index and log files (default: the OS temp dir)")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation and builds its report.
func run(cfg runConfig) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("bad --seconds %v", cfg.seconds)
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, w: w, dir: dir, rec: newRecorder()}
	defer b.close()
	if cfg.trace {
		return b.runTraced()
	}
	return b.runEndToEnd()
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
