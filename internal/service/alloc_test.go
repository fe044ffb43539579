package service

import (
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/race"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// allocRaws fabricates n encoded contributions with distinct vectors
// (distinct digests) for round, optionally signed.
func allocRaws(t testing.TB, n, dim int, round uint64, key *xcrypto.SigningKey) [][]byte {
	t.Helper()
	raws := make([][]byte, n)
	for i := range raws {
		sc := glimmer.SignedContribution{
			ServiceName: "alloc.example",
			Round:       round,
			Measurement: tee.Measurement{1},
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range sc.Blinded {
			sc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + uint64(j))
		}
		if key != nil {
			sig, err := key.Sign(sc.SignedBytes())
			if err != nil {
				t.Fatal(err)
			}
			sc.Signature = sig
		}
		raws[i] = glimmer.EncodeSignedContribution(sc)
	}
	return raws
}

// TestDedupInsertAllocFree pins the tentpole contract on the service
// layer: with a pre-sized cohort and signature verification out of the
// way (nil Verify — the pre-authenticated mode), the steady-state
// decode→dedup→accumulate path performs zero heap allocations per
// contribution.
func TestDedupInsertAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const runs = 300
	raws := allocRaws(t, runs+50, 64, 7, nil)
	p := NewPipeline(PipelineConfig{
		ServiceName:    "alloc.example",
		Dim:            64,
		Round:          7,
		Workers:        1,
		Shards:         1,
		ExpectedCohort: len(raws),
	})
	// Warm the scratch pool and the first map buckets.
	if err := p.Add(raws[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		i++
		if err := p.Add(raws[i]); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("decode+dedup insert: %.1f allocs/op, want 0", got)
	}
	if p.Count() != i+1 {
		t.Fatalf("count = %d, want %d", p.Count(), i+1)
	}
}

// TestNilVerifySkipsSignatureCheck locks in the pre-authenticated mode's
// semantics: unsigned contributions are accepted, every other policy check
// still applies.
func TestNilVerifySkipsSignatureCheck(t *testing.T) {
	raws := allocRaws(t, 2, 8, 3, nil)
	p := NewPipeline(PipelineConfig{ServiceName: "alloc.example", Dim: 8, Round: 3, Workers: 1, Shards: 1})
	if err := p.Add(raws[0]); err != nil {
		t.Fatalf("unsigned contribution refused in nil-Verify mode: %v", err)
	}
	if err := p.Add(raws[0]); err != ErrDuplicate {
		t.Fatalf("duplicate err = %v, want ErrDuplicate", err)
	}
	wrongRound := allocRaws(t, 1, 8, 4, nil)
	if err := p.Add(wrongRound[0]); err != ErrWrongRound {
		t.Fatalf("wrong-round err = %v, want ErrWrongRound", err)
	}
	wrongDim := allocRaws(t, 1, 9, 3, nil)
	if err := p.Add(wrongDim[0]); err != ErrWrongDim {
		t.Fatalf("wrong-dim err = %v, want ErrWrongDim", err)
	}
}

// TestVerifyStillEnforcedWithKey guards against the nil-Verify escape
// hatch weakening the signed path: with a key set, a bogus signature is
// still refused.
func TestVerifyStillEnforcedWithKey(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	good := allocRaws(t, 1, 8, 3, key)
	bad := allocRaws(t, 1, 8, 3, nil) // unsigned
	p := NewPipeline(PipelineConfig{ServiceName: "alloc.example", Verify: key.Public(), Dim: 8, Round: 3, Workers: 1, Shards: 1})
	if err := p.Add(good[0]); err != nil {
		t.Fatalf("valid signed contribution refused: %v", err)
	}
	if err := p.Add(bad[0]); err != ErrBadSignature {
		t.Fatalf("unsigned err = %v, want ErrBadSignature", err)
	}
}

// TestPooledScratchNotAliasedAcrossConcurrentAddBatch is the -race guard
// for the scratch pool: many goroutines push overlapping batches through a
// pooled-worker pipeline, and the sealed aggregate must equal the exact
// element-wise sum of every distinct contribution. A scratch recycled
// while another worker still reads it would corrupt the sum (and trip the
// race detector).
func TestPooledScratchNotAliasedAcrossConcurrentAddBatch(t *testing.T) {
	const (
		dim       = 32
		perCaller = 64
		callers   = 6
		round     = uint64(5)
	)
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	all := allocRaws(t, callers*perCaller, dim, round, key)
	want := fixed.NewVector(dim)
	for _, raw := range all {
		sc, err := glimmer.DecodeSignedContribution(raw)
		if err != nil {
			t.Fatal(err)
		}
		want.AddInPlace(sc.Blinded)
	}
	p := NewPipeline(PipelineConfig{
		ServiceName:    "alloc.example",
		Verify:         key.Public(),
		Dim:            dim,
		Round:          round,
		Workers:        4,
		ExpectedCohort: len(all),
	})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		batch := all[c*perCaller : (c+1)*perCaller]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, err := range p.AddBatch(batch) {
				if err != nil {
					t.Errorf("AddBatch: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Count() != len(all) {
		t.Fatalf("count = %d, want %d", p.Count(), len(all))
	}
	got := p.Sum()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v (scratch aliasing?)", i, got[i], want[i])
		}
	}
}

// TestReleaseAllocsFlat pins the release path's allocation count to the
// round's shape, not its size: Pipeline.PartialSeal and Merge.Absorb must
// allocate no more often at 4096 digests than at 256. Each stage builds
// its digest block once at its exact size; a per-digest map or a buffer
// grown by doubling would add allocations with the cohort.
func TestReleaseAllocsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const runs = 20
	measure := func(n int) (seal, absorb float64) {
		raws := allocRaws(t, 2*n, 4, 7, nil)
		nodes := [2]NodeSeal{newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2)}
		var seals [2][]byte
		var pipes [2]*Pipeline
		for w := range pipes {
			pipes[w] = NewPipeline(PipelineConfig{
				ServiceName: "alloc.example", Dim: 4, Round: 7, Workers: 1, Shards: 4,
			})
			pipes[w].Vet(tee.Measurement{1})
			for _, raw := range raws[w*n : (w+1)*n] {
				if err := pipes[w].Add(raw); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if seals[w], err = pipes[w].PartialSeal(nodes[w]); err != nil {
				t.Fatal(err)
			}
		}
		seal = testing.AllocsPerRun(runs, func() {
			if _, err := pipes[0].PartialSeal(nodes[0]); err != nil {
				t.Fatal(err)
			}
		})
		// Each run absorbs the second partial into its own merge, so the
		// disjointness walk over the first one is inside the measurement.
		merges := make([]*Merge, runs+1)
		for i := range merges {
			merges[i] = NewMerge(MergeConfig{
				ServiceName: "alloc.example", Dim: 4, Round: 7, Expect: []uint32{1, 2},
				Nodes: map[uint32]MergeNode{1: nodes[0].mergeNode(), 2: nodes[1].mergeNode()},
			})
			if err := merges[i].Absorb(seals[0]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		absorb = testing.AllocsPerRun(runs, func() {
			if err := merges[i].Absorb(seals[1]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		return seal, absorb
	}
	seal256, absorb256 := measure(256)
	seal4096, absorb4096 := measure(4096)
	t.Logf("PartialSeal %.0f → %.0f allocs, Absorb %.0f → %.0f allocs (256 → 4096 digests)",
		seal256, seal4096, absorb256, absorb4096)
	if seal4096 > seal256 {
		t.Errorf("PartialSeal: %.0f allocs at 4096 digests, %.0f at 256", seal4096, seal256)
	}
	if absorb4096 > absorb256 {
		t.Errorf("Merge.Absorb: %.0f allocs at 4096 digests, %.0f at 256", absorb4096, absorb256)
	}
}
