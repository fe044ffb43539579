// Command perfbench is the repository's end-to-end benchmark. It assembles
// an in-process node the way cmd/glimmerd does (tenant registry, durable
// group-commit WAL, governed TLS edge), drives it with real dealer-mode
// Glimmer devices through the public client calls, releases every round
// through seal → signed partial → merge, checks each released aggregate
// against the generator's plaintext reference, and prints the metrics as
// one JSON object on the last line of standard output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload gateway_fanin --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	gateway_fanin  closed loop over two long-lived TLS gateway connections,
//	               128-contribution frames from 128 different devices
//	gateway_paced  the same frames on a fixed schedule (pacedFramesPerSecond)
//	device_churn   two session slots; each session dials, takes a ticket
//	               grant, submits one contribution and closes
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs a traced window
// between two untraced reference windows of a quarter of its length each,
// and prints the per-layer metrics; the spans are written under the work
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	workdir   string
	cohort    int // devices per gateway round
	setupReps int // setups per run; setup_s is their median
}

var nodeSeq atomic.Int64

// nodeDir returns a fresh state directory under the work directory.
func (o options) nodeDir() string {
	return filepath.Join(o.workdir, fmt.Sprintf("node-%d-%d", os.Getpid(), nodeSeq.Add(1)))
}

// windowSeconds is the timed length of every window a run measures.
func (o options) windowSeconds() float64 {
	s := o.seconds.Seconds()
	if o.trace {
		s *= 1.5 // the untraced reference window, then the traced one
	}
	return s
}

// rig is a workload set up against its node, ready to run timed windows.
type rig interface {
	window(d time.Duration) (*windowStats, error)
	close()
}

var workloads = []string{"gateway_fanin", "gateway_paced", "device_churn"}

// setup builds the node and inputs of the options' workload.
func setup(o options, tr *tracer) (rig, error) {
	if o.workload == "device_churn" {
		return setupChurn(o, tr)
	}
	return setupGateway(o, tr)
}

// report is everything one run measured.
type report struct {
	setupSeconds []float64
	measured     *windowStats
	reference    []*windowStats // traced runs: the untraced windows
	spans        []span         // traced runs: the traced window's spans
	setupSpans   []span         // traced runs: the last setup's spans
	ticketsLive  int64          // traced runs: ticket-table length at the end
}

// runWorkload sets the workload up setupReps times (keeping the last) and
// runs its windows.
func runWorkload(o options) (*report, error) {
	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &report{}
	var r rig
	var err error
	for i := 0; i < o.setupReps; i++ {
		if r != nil {
			r.close()
		}
		if tr != nil {
			tr.reset()
			tr.on.Store(i == o.setupReps-1)
		}
		t0 := time.Now()
		if r, err = setup(o, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.setupSeconds = append(rep.setupSeconds, time.Since(t0).Seconds())
	}
	defer r.close()
	if tr == nil {
		rep.measured, err = r.window(o.seconds)
		return rep, err
	}
	// The untraced reference is split around the traced window, so
	// warm-up and drift weigh on both sides of the overhead comparison.
	tr.on.Store(false)
	rep.setupSpans = tr.take()
	ref, err := r.window(o.seconds / 4)
	if err != nil {
		return rep, err
	}
	rep.reference = append(rep.reference, ref)
	tr.on.Store(true)
	rep.measured, err = r.window(o.seconds)
	tr.on.Store(false)
	rep.spans = tr.take()
	rep.ticketsLive = tr.granted.Load() - tr.evicted.Load()
	if err != nil {
		return rep, err
	}
	ref, err = r.window(o.seconds / 4)
	rep.reference = append(rep.reference, ref)
	return rep, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "gateway_fanin, gateway_paced or device_churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench-state", "directory for WAL state and span files")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace != 0
	o.cohort = defaultCohort
	o.setupReps = 3
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %v\n", workloads)
		os.Exit(2)
	}

	rep, err := runWorkload(o)
	res := result{Metrics: map[string]metric{}}
	if rep != nil {
		for _, w := range append([]*windowStats{rep.measured}, rep.reference...) {
			if w != nil {
				res.Attempted += w.attempted
				res.Failed += w.fail.total()
				printFailures(w)
			}
		}
	}
	res.Correct = err == nil && res.Failed == 0 && rep.measured.rounds > 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res.Correct {
		if o.trace {
			res.Metrics = layerMetrics(rep)
			path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.txt", o.workload, o.seed))
			if err := writeSpans(path, rep.spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		} else {
			res.Metrics = endToEndMetrics(rep)
		}
	}
	prov, _ := json.Marshal(provenance(o, o.workdir))
	fmt.Printf("provenance %s\n", prov)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printFailures writes each failure reason and its count to stderr.
func printFailures(w *windowStats) {
	w.fail.mu.Lock()
	defer w.fail.mu.Unlock()
	reasons := make([]string, 0, len(w.fail.reasons))
	for r := range w.fail.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failed %d: %s\n", w.fail.reasons[r], r)
	}
}
