package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"glimmers/internal/glimmer"
)

// shortOptions is a one-second run of a quarter-size cohort.
func shortOptions(t *testing.T, workload string, seed int64, trace bool) options {
	return options{
		workload:  workload,
		seed:      seed,
		seconds:   time.Second,
		trace:     trace,
		workdir:   t.TempDir(),
		cohort:    256,
		setupReps: 1,
	}
}

// The residual is the tracer's own bookkeeping around the ingest call, less
// any overlap between journal records staged concurrently for a frame. A
// preempted bookkeeping step can make one frame's residual large, so the
// tolerance is on the mean and on all but the worst hundredth of frames.
const (
	meanResidualTolerance  = 0.01 // of the mean round trip
	frameResidualTolerance = 0.05 // of the frame's round trip, for 99% of frames
)

// TestTraceReconciles runs a short traced gateway_fanin window and checks
// that every frame's spans link up, that its gaas, service and durable
// self-times plus the residual equal the client round trip to the
// nanosecond, and that the residual stays within the tolerances above.
func TestTraceReconciles(t *testing.T) {
	rep, err := runWorkload(shortOptions(t, "gateway_fanin", 7, true))
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.measured.fail.total(); n != 0 {
		t.Fatalf("%d failed operations", n)
	}
	frames, unlinked := frameTraces(rep.spans)
	if unlinked != 0 || len(frames) == 0 {
		t.Fatalf("%d frames linked, %d submit spans without an ingest span", len(frames), unlinked)
	}
	var rtt, residual int64
	outliers := 0
	for _, f := range frames {
		if f.gaasSelf <= 0 || f.serviceSelf <= 0 || f.walSelf <= 0 {
			t.Fatalf("frame %d: self times gaas=%d service=%d durable=%d ns, want all positive",
				f.key, f.gaasSelf, f.serviceSelf, f.walSelf)
		}
		if sum := f.gaasSelf + f.serviceSelf + f.walSelf + f.residual(); sum != f.rtt {
			t.Fatalf("frame %d: self times plus residual = %d ns, round trip %d ns", f.key, sum, f.rtt)
		}
		if math.Abs(float64(f.residual())) > frameResidualTolerance*float64(f.rtt) {
			outliers++
		}
		rtt += f.rtt
		residual += f.residual()
	}
	t.Logf("%d frames, mean round trip %.1f us, mean residual %.3f us, %d frames past %.0f%%", len(frames),
		float64(rtt)/float64(len(frames))/1e3, float64(residual)/float64(len(frames))/1e3,
		outliers, 100*frameResidualTolerance)
	if math.Abs(float64(residual)) > meanResidualTolerance*float64(rtt) {
		t.Errorf("mean residual is %.2f%% of the mean round trip, want at most %.0f%%",
			100*float64(residual)/float64(rtt), 100*meanResidualTolerance)
	}
	if outliers*100 > len(frames) {
		t.Errorf("%d of %d frames have a residual past %.0f%% of their round trip",
			outliers, len(frames), 100*frameResidualTolerance)
	}

	if grants := grantTraces(rep.setupSpans); len(grants) != 256 {
		t.Errorf("linked %d setup grants, want one per device (256)", len(grants))
	}
	m := layerMetrics(rep)
	overhead, ok := m["trace.overhead_frac"]
	if !ok || math.IsNaN(overhead.Value) || math.IsInf(overhead.Value, 0) {
		t.Fatalf("trace.overhead_frac = %+v, want a finite value", overhead)
	}
	t.Logf("trace overhead %.3f", overhead.Value)
}

// TestMetricsMatchBenchmarkFile checks that a traced and an untraced run
// print exactly the metrics BENCHMARK.json declares, with its units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(shortOptions(t, "device_churn", 3, true))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var wantNames []string
		for _, w := range want {
			wantNames = append(wantNames, w.Name)
			if g, ok := got[w.Name]; ok && g.Unit != w.Unit {
				t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, w.Name, g.Unit, w.Unit)
			}
		}
		sort.Strings(wantNames)
		if !slices.Equal(names, wantNames) {
			t.Errorf("%s metrics printed:\n%v\nBENCHMARK.json:\n%v", kind, names, wantNames)
		}
	}
	check("per-layer", layerMetrics(rep), bench.PerLayer)
	check("end-to-end", endToEndMetrics(rep), bench.EndToEnd)
}

// TestSeedDeterminism checks that the same seed gives byte-identical frames
// and reference sums, and another seed different ones. The ticket ID and
// MAC of each contribution are drawn by the node and the enclaves, not the
// seed, so they are zeroed before comparing.
func TestSeedDeterminism(t *testing.T) {
	a, refsA := generatedInputs(t, 1)
	b, refsB := generatedInputs(t, 1)
	c, refsC := generatedInputs(t, 2)
	if a != b || !slices.EqualFunc(refsA, refsB, slices.Equal) {
		t.Error("the same seed generated different frames or reference sums")
	}
	if a == c || slices.EqualFunc(refsA, refsC, slices.Equal) {
		t.Error("different seeds generated the same frames or reference sums")
	}
}

// generatedInputs sets up a gateway rig and digests its frames with the
// node-chosen fields zeroed, returning the digest and the reference sums.
func generatedInputs(t *testing.T, seed int64) ([32]byte, [][]uint64) {
	rig, err := setupGateway(shortOptions(t, "gateway_fanin", seed, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	h := sha256.New()
	for _, frames := range rig.frames {
		for _, frame := range frames {
			for _, raw := range frame {
				tc, err := glimmer.DecodeTicketedContribution(raw)
				if err != nil {
					t.Fatal(err)
				}
				tc.TicketID, tc.MAC = 0, nil
				h.Write(glimmer.EncodeTicketedContribution(tc))
			}
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, append([][]uint64(nil), rig.refs[:]...)
}
