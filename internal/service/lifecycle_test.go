package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// lifecycleRound drives one round of a RoundManager through the release
// lifecycle the benchmark runs: ticketed contributions in batches, Seal,
// ExportPartialSeal, a one-node merge, Close and Forget.
func lifecycleRound(t testing.TB, m *RoundManager, node NodeSeal, round uint64, raws [][]byte, batch int) {
	t.Helper()
	for b := 0; b < len(raws); b += batch {
		if n, errs := m.IngestBatch(raws[b : b+batch]); n != batch {
			t.Fatalf("round %d batch %d: %d accepted, errs %v", round, b/batch, n, errs)
		}
	}
	if err := m.Seal(round); err != nil {
		t.Fatal(err)
	}
	raw, err := m.ExportPartialSeal(round, node)
	if err != nil {
		t.Fatal(err)
	}
	merge := NewMerge(MergeConfig{
		ServiceName: m.cfg.ServiceName, Dim: m.cfg.Dim, Round: round,
		Expect: []uint32{node.NodeID},
		Nodes:  map[uint32]MergeNode{node.NodeID: node.mergeNode()},
	})
	if err := merge.Absorb(raw); err != nil {
		t.Fatal(err)
	}
	if !merge.Complete() || merge.Result().Count != uint64(len(raws)) {
		t.Fatalf("round %d: merge %+v", round, merge.Result())
	}
	m.Close(round)
	m.Forget(round)
}

// TestRoundLifecycleAllocBytes bounds the heap bytes one contribution
// costs across a whole steady-state round: ingest, seal, export, merge,
// forget. A round that regrows its dedup maps from empty, builds its
// export list fresh, or has its merge copy a coverage block it will never
// read again pays for each per contribution. Measured on a 2-vCPU Xeon
// (dim 64, 1024 contributions, 2 shards, go1.24): 326 B/contrib when every
// round grew its own maps and copied its coverage three times, 77 B with
// recycled dedup sets, pooled export scratch and a merge that keeps no
// completed coverage. What remains is the seal buffer (40 B), the
// per-batch error slices of RoundManager.IngestBatch (16 B), the node
// key's encoding and signature, and the round's fixed-size vectors. The
// bound sits below 77 + 32, so bringing back any one of the three copies
// fails it.
func TestRoundLifecycleAllocBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const (
		dim      = 64
		cohort   = 1024
		batch    = 128
		warm     = 2
		measured = 9
		bound    = 100 // B/contrib, median round
	)
	tbl := NewTicketTable(TicketConfig{})
	tk := testTicket{id: 11, key: xcrypto.SessionKey{7, 7}, first: 1, last: 1 << 20}
	tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
	m := NewRoundManager(PipelineConfig{
		ServiceName: "lifecycle.example", Dim: dim, Tickets: tbl, Workers: 1,
	})
	node := newNodeSeal(t, 1, 1)
	rounds := make([][][]byte, warm+measured)
	for r := range rounds {
		rounds[r] = make([][]byte, cohort)
		for i := range rounds[r] {
			rounds[r][i] = ticketedRaw("lifecycle.example", uint64(r+1), dim, i, tk)
		}
	}
	for r := 0; r < warm; r++ {
		lifecycleRound(t, m, node, uint64(r+1), rounds[r], batch)
	}
	// The median round is the figure: sync.Pool keeps per-P caches, so a
	// round that runs on another P than the one that released the last
	// round's sets occasionally misses them and grows fresh maps. A
	// regression costs every round, not the odd one.
	perRound := make([]float64, measured)
	var before, after runtime.MemStats
	for r := range perRound {
		runtime.ReadMemStats(&before)
		lifecycleRound(t, m, node, uint64(warm+r+1), rounds[warm+r], batch)
		runtime.ReadMemStats(&after)
		perRound[r] = float64(after.TotalAlloc-before.TotalAlloc) / cohort
	}
	t.Logf("round lifecycle B/contrib per round: %.1f", perRound)
	slices.Sort(perRound)
	if median := perRound[measured/2]; median > bound {
		t.Errorf("round lifecycle allocates %.1f B/contrib (median round), bound %d", median, bound)
	}
}

// exportRound is exportRoundInto with a fresh list, for tests that
// compare against a live round.
func (p *Pipeline) exportRound() RoundState {
	rs, err := p.exportRoundInto(nil)
	if err != nil {
		panic(err)
	}
	return rs
}

// digestSet is the dedup digest of each signed contribution in raws.
func digestSet(raws [][]byte) map[[32]byte]bool {
	set := make(map[[32]byte]bool, len(raws))
	for _, raw := range raws {
		set[sha256.Sum256(raw)] = true
	}
	return set
}

// TestRetiredRoundRace races the three ways a round leaves its manager
// (Forget, the tenant's cap eviction, the shared budget's eviction)
// against AddBatchErrs and PartialSeal on a held *Pipeline, and against
// registry snapshots, while the rounds created next fill the recycled
// dedup sets with their own digests. Nothing may panic, and no seal or
// snapshot may carry a digest its round did not accept: a read of a set
// another round now owns would show that round's digests. Once retired,
// the held pipeline refuses to export.
func TestRetiredRoundRace(t *testing.T) {
	const (
		dim     = 2
		cycles  = 8
		pre     = 8  // victim contributions ingested before the race
		hammer  = 32 // victim contributions added during it
		filler  = 64 // contributions of each round that takes over
		batchSz = 32
	)
	for _, how := range []string{"forget", "cap", "budget"} {
		t.Run(how, func(t *testing.T) {
			budget := 64
			if how == "budget" {
				budget = 2
			}
			r := NewRegistry(budget)
			cfgA := TenantConfig{Name: "a.example", Dim: dim, Workers: 2, Shards: 2}
			if how == "cap" {
				cfgA.MaxRounds, cfgA.EvictAtCap = 2, true
			}
			ta, err := r.AddTenant(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.AddTenant(TenantConfig{Name: "b.example", Dim: dim, Workers: 2, Shards: 2}); err != nil {
				t.Fatal(err)
			}
			var (
				knownMu sync.Mutex
				known   = map[string]map[[32]byte]bool{}
				salt    = 0
			)
			contributions := func(tenant string, round uint64, n int) [][]byte {
				raws := make([][]byte, n)
				for i := range raws {
					salt++
					raws[i] = tenantContribution(t, nil, tenant, round, dim, salt)
				}
				knownMu.Lock()
				key := fmt.Sprintf("%s/%d", tenant, round)
				if known[key] == nil {
					known[key] = map[[32]byte]bool{}
				}
				for d := range digestSet(raws) {
					known[key][d] = true
				}
				knownMu.Unlock()
				return raws
			}
			ingest := func(raws [][]byte) {
				if n, errs := r.IngestBatch(raws); n != len(raws) {
					t.Errorf("ingest: %d of %d accepted: %v", n, len(raws), errs)
				}
			}
			// checkDigests fails if a digest is not one the round was fed.
			checkDigests := func(what, tenant string, round uint64, digests [][32]byte) {
				knownMu.Lock()
				defer knownMu.Unlock()
				set := known[fmt.Sprintf("%s/%d", tenant, round)]
				for _, d := range digests {
					if !set[d] {
						t.Errorf("%s %s/%d carries digest %x it never accepted", what, tenant, round, d[:8])
						return
					}
				}
			}
			roundA, roundB := uint64(1), uint64(1)
			var sealedFirst atomic.Int32
			if how == "cap" {
				// A full round the victim loses every eviction to.
				ingest(contributions("a.example", 1000, filler))
			}
			if how == "budget" {
				ingest(contributions("b.example", roundB, filler))
				roundB++
			}
			for c := 0; c < cycles; c++ {
				victimRound := roundA
				roundA++
				victimRaws := contributions("a.example", victimRound, pre+hammer)
				ingest(victimRaws[:pre])
				victim, ok := ta.Manager().Lookup(victimRound)
				if !ok {
					t.Fatal("victim round not created")
				}
				node := newNodeSeal(t, 1, 1)
				// The rounds created after the victim leaves, built before the
				// race so the known digests are fixed while it runs.
				nextA := contributions("a.example", 1000+uint64(c+1), filler)
				nextB := contributions("b.example", roundB, filler)
				roundB++

				var wg sync.WaitGroup
				stop, retiring, retired := make(chan struct{}), make(chan struct{}), make(chan struct{})
				// until reports whether a held-pipeline loop should go on:
				// until it sees the release, and never past the retirer.
				until := func(err error) bool {
					if errors.Is(err, ErrRoundReleased) {
						return false
					}
					select {
					case <-retired:
						return false
					default:
						return true
					}
				}
				wg.Add(4)
				go func() { // adder
					defer wg.Done()
					errs := make([]error, batchSz)
					for b := pre; b < len(victimRaws); b += batchSz {
						victim.AddBatchErrs(victimRaws[b:b+batchSz], errs)
						for _, err := range errs {
							if err != nil && !errors.Is(err, ErrRoundSealed) && !errors.Is(err, ErrRoundClosed) {
								t.Errorf("victim AddBatchErrs: %v", err)
							}
						}
					}
				}()
				go func() { // exports of the held pipeline
					defer wg.Done()
					for {
						rs, err := victim.exportRoundInto(nil)
						if !until(err) {
							return
						}
						if err != nil {
							t.Errorf("victim export: %v", err)
							return
						}
						checkDigests("export of", "a.example", victimRound, rs.Digests)
						runtime.Gosched()
					}
				}()
				go func() { // sealer, racing the retirement
					defer wg.Done()
					// Sealing first makes the victim unevictable, so the
					// sealer joins once the retirer is under way.
					<-retiring
					for {
						raw, err := victim.PartialSeal(node)
						if !until(err) {
							return
						}
						if err != nil {
							t.Errorf("victim PartialSeal: %v", err)
							return
						}
						seal, err := wire.DecodePartialSeal(raw)
						if err != nil {
							t.Errorf("victim seal does not decode: %v", err)
							return
						}
						digests := make([][32]byte, seal.DigestCount())
						for i := range digests {
							digests[i] = seal.DigestAt(i)
						}
						checkDigests("seal of", "a.example", victimRound, digests)
						runtime.Gosched()
					}
				}()
				go func() { // retirer, then the rounds that take over
					defer wg.Done()
					defer close(retired)
					close(retiring)
					switch how {
					case "forget":
						ta.Manager().Forget(victimRound)
						ingest(nextA)
					case "cap":
						ingest(nextA)
					case "budget":
						ingest(nextB)
					}
					if _, ok := ta.Manager().Lookup(victimRound); ok {
						// Sealed before the eviction picked a round, so not
						// evictable; retire it explicitly.
						sealedFirst.Add(1)
						ta.Manager().Forget(victimRound)
					}
				}()
				snapDone := make(chan struct{})
				go func() { // snapshots throughout
					defer close(snapDone)
					for {
						for _, ts := range r.ExportState().Tenants {
							for _, rs := range ts.Rounds {
								checkDigests("snapshot of", ts.Name, rs.Round, rs.Digests)
							}
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				wg.Wait()
				close(stop)
				<-snapDone
				if _, err := victim.PartialSeal(node); !errors.Is(err, ErrRoundReleased) {
					t.Fatalf("cycle %d: retired round exported (err %v)", c, err)
				}
				if _, err := victim.exportRoundInto(nil); !errors.Is(err, ErrRoundReleased) {
					t.Fatalf("cycle %d: retired round snapshotted (err %v)", c, err)
				}
			}
			t.Logf("%s: %d of %d victims sealed before the retirer reached them", how, sealedFirst.Load(), cycles)
		})
	}
}

// TestRecycledDedupSetStartsEmpty pins what a recycled set carries over:
// nothing. A round that starts on the previous round's set accepts a
// digest that round held and still refuses a duplicate within itself. A
// round that needs a presized set never gets a smaller recycled one.
func TestRecycledDedupSetStartsEmpty(t *testing.T) {
	raws := allocRaws(t, 4, 4, 5, nil)
	m := NewRoundManager(PipelineConfig{ServiceName: "alloc.example", Dim: 4, Workers: 1, Shards: 1})
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		p := m.Round(5)
		for _, raw := range raws {
			if err := p.Add(raw); err != nil {
				t.Fatalf("try %d: %v", try, err)
			}
		}
		if err := p.Add(raws[0]); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("try %d: duplicate got %v", try, err)
		}
		released := p.shards[0].seen
		m.Forget(5)
		if p.shards[0].seen != nil {
			t.Fatal("forgotten round still holds its dedup set")
		}
		next := m.Round(5)
		reused = next.shards[0].seen == released
		if err := next.Add(raws[0]); err != nil {
			t.Fatalf("try %d: fresh round refused a digest only the previous round held: %v", try, err)
		}
		if err := next.Add(raws[0]); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("try %d: fresh round's duplicate got %v", try, err)
		}
		m.Forget(5)
	}
	// sync.Pool drops items at random under the race detector.
	if !reused && !race.Enabled {
		t.Fatal("no round started on a recycled dedup set")
	}

	// A set released after holding 4 digests cannot serve a round that
	// expects 4096 per shard: it would grow under ExpectedCohort's promise.
	small := m.Round(6)
	for _, raw := range allocRaws(t, 4, 4, 6, nil) {
		if err := small.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	m.Forget(6)
	big := NewPipeline(PipelineConfig{ServiceName: "alloc.example", Dim: 4, Round: 7, Workers: 1, Shards: 2, ExpectedCohort: 8192})
	for i, sh := range big.shards {
		if sh.seen.high < 4096 {
			t.Fatalf("shard %d of a presized round got a set that holds %d", i, sh.seen.high)
		}
	}
}

// TestCompletedMergeDropsCoverage: a completed merge keeps no digest
// block, and every later seal — a replay, an overlapping seal from an
// absorbed node, a surplus node — is refused with the sentinel it got
// while the blocks were kept, leaving Result untouched but for the
// refusal count.
func TestCompletedMergeDropsCoverage(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const dim, round = 3, uint64(4)
	raws := make([][]byte, 6)
	for i := range raws {
		raws[i] = signedVector(t, key, "svc", round, randomVector(rng, dim))
	}
	nodes := [3]NodeSeal{newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2), newNodeSeal(t, 3, 2)}
	seal := func(n NodeSeal, raws [][]byte) []byte {
		raw, err := partialPipeline(t, key, "svc", round, dim, raws).PartialSeal(n)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	sealA, sealB := seal(nodes[0], raws[:3]), seal(nodes[1], raws[3:])
	overlapB := seal(nodes[1], raws[2:4]) // re-claims one of A's
	overlapC := seal(nodes[2], raws[:1])

	hub := &MergeHub{AllowTOFU: true}
	expect := NewMerge(MergeConfig{
		ServiceName: "svc", Dim: dim, Round: round, Expect: []uint32{1, 2},
		Nodes: map[uint32]MergeNode{1: nodes[0].mergeNode(), 2: nodes[1].mergeNode()},
	})
	absorbHub := func(raw []byte) error { _, err := hub.MergePartialSeal(raw); return err }
	for name, c := range map[string]struct {
		absorb func([]byte) error
		merge  func() *Merge
		late   error // the surplus node's refusal
	}{
		"expect": {expect.Absorb, func() *Merge { return expect }, ErrSealUnknownNode},
		"hub": {absorbHub, func() *Merge {
			m, _ := hub.Lookup("svc", round)
			return m
		}, ErrMergeComplete},
	} {
		if err := c.absorb(sealA); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.merge().covered) != 1 {
			t.Fatalf("%s: incomplete merge keeps %d blocks, want 1", name, len(c.merge().covered))
		}
		if err := c.absorb(sealB); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := c.merge()
		if !m.Complete() || m.covered != nil {
			t.Fatalf("%s: complete=%v, covered=%d blocks", name, m.Complete(), len(m.covered))
		}
		want := m.Result()
		for _, r := range []struct {
			raw  []byte
			want error
		}{{sealA, ErrSealReplay}, {overlapB, ErrSealReplay}, {overlapC, c.late}} {
			if err := c.absorb(r.raw); !errors.Is(err, r.want) {
				t.Fatalf("%s: after completion got %v, want %v", name, err, r.want)
			}
			want.Refused++
			if got := m.Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: refusal changed the result: %+v, want %+v", name, got, want)
			}
		}
	}
}

// countingJournal records the batch plan's accepted digests and rejection
// totals; every other hook is unexpected here.
type countingJournal struct {
	Journal
	accepted [][32]byte
	rejected int
}

func (j *countingJournal) BatchAccepted(_ string, _ uint64, digests [][32]byte, _ fixed.Vector) {
	j.accepted = append(j.accepted, digests...)
}

func (j *countingJournal) Rejected(_ string, _ uint64, _ RejectLevel, n int) { j.rejected += n }

// TestBatchResolvesTicketsOnce: a frame naming several distinct tickets —
// valid, unknown, expired, out of window — resolves all of them under one
// clock read, and lands every item exactly as N batches of one do: the
// same error slots, rejected counter, sum and journaled digests.
func TestBatchResolvesTicketsOnce(t *testing.T) {
	const dim, round = 8, uint64(5)
	var reads atomic.Int64
	tbl := NewTicketTable(TicketConfig{Now: func() int64 { reads.Add(1); return 1000 }})
	good := testTicket{id: 1, key: xcrypto.SessionKey{0x11}, first: 1, last: 100}
	exact := testTicket{id: 2, key: xcrypto.SessionKey{0x22}, first: round, last: round}
	expired := testTicket{id: 3, key: xcrypto.SessionKey{0x33}, first: 1, last: 100}
	narrow := testTicket{id: 4, key: xcrypto.SessionKey{0x44}, first: 1, last: 2}
	ghost := testTicket{id: 5, key: xcrypto.SessionKey{0x55}, first: 1, last: 100}
	tbl.Install(good.id, good.key, good.first, good.last, 2000)
	tbl.Install(exact.id, exact.key, exact.first, exact.last, 1000) // expires at the clock, still valid
	tbl.Install(expired.id, expired.key, expired.first, expired.last, 999)
	tbl.Install(narrow.id, narrow.key, narrow.first, narrow.last, 2000)
	raw := func(salt int, tk testTicket) []byte { return ticketedRaw("batch.example", round, dim, salt, tk) }
	frame := [][]byte{
		raw(1, good), raw(2, ghost), raw(3, expired), raw(4, exact),
		raw(5, narrow), raw(6, good), raw(7, expired), raw(8, ghost),
		raw(1, good), // duplicate of the first
		raw(9, exact), raw(10, narrow),
	}
	want := []error{
		nil, ErrUnknownTicket, ErrTicketExpired, nil,
		ErrTicketWindow, nil, ErrTicketExpired, ErrUnknownTicket,
		ErrDuplicate, nil, ErrTicketWindow,
	}
	whole, single := batchPipeline(dim, round, 1, tbl), batchPipeline(dim, round, 1, tbl)
	wholeJ, singleJ := &countingJournal{}, &countingJournal{}
	whole.journal, single.journal = wholeJ, singleJ

	reads.Store(0)
	errs := make([]error, len(frame))
	whole.AddBatchErrs(frame, errs)
	if n := reads.Load(); n != 1 {
		t.Errorf("one frame read the clock %d times, want 1", n)
	}
	for i := range frame {
		var one [1]error
		single.AddBatchErrs(frame[i:i+1], one[:])
		if errs[i] != one[0] || errs[i] != want[i] {
			t.Errorf("item %d: frame %v, batch of one %v, want %v", i, errs[i], one[0], want[i])
		}
	}
	if whole.Rejected() != single.Rejected() || whole.Count() != single.Count() {
		t.Errorf("rejected %d/%d, count %d/%d (frame/singles)",
			whole.Rejected(), single.Rejected(), whole.Count(), single.Count())
	}
	if !slices.Equal(whole.Sum(), single.Sum()) {
		t.Error("frame and batches of one sum differently")
	}
	if !reflect.DeepEqual(wholeJ.accepted, singleJ.accepted) || wholeJ.rejected != singleJ.rejected {
		t.Errorf("journal: frame %d accepted/%d rejected, singles %d/%d",
			len(wholeJ.accepted), wholeJ.rejected, len(singleJ.accepted), singleJ.rejected)
	}
}
