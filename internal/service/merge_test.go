package service

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The sorted-walk disjointness check against a digest map: Merge keeps
// each absorbed partial's digest block and merge-walks a new seal against
// them, so these tests hold it to the map-based merge it replaced.

const (
	modelDim   = 3
	modelRound = uint64(12)
	maxParts   = 5
)

// modelPart is one node's share of a split cohort: its dedup coverage
// (ascending, no duplicates — a node dedups its own shard) and counters.
type modelPart struct {
	digests  [][32]byte
	sum      []uint64
	rejected uint64
}

// mergeModel is the reference merge: a digest → owner map, scanned in
// the seal's digest order, with the same accounting as Merge.Result.
type mergeModel struct {
	seen map[[32]byte]uint32
	res  wire.MergeResult
}

func newMergeModel(parts int) *mergeModel {
	return &mergeModel{
		seen: make(map[[32]byte]uint32),
		res: wire.MergeResult{
			Service: "svc", Round: modelRound, Expect: uint32(parts),
			Sum: make([]uint64, modelDim),
		},
	}
}

func (m *mergeModel) absorb(node uint32, p modelPart) error {
	for _, d := range p.digests {
		if owner, dup := m.seen[d]; dup {
			m.res.Refused++
			return fmt.Errorf("%w: node %d re-claims a contribution node %d covers",
				ErrSealOverlap, node, owner)
		}
	}
	for _, d := range p.digests {
		m.seen[d] = node
	}
	for i, v := range p.sum {
		m.res.Sum[i] += v
	}
	m.res.Merged++
	m.res.Count += uint64(len(p.digests))
	m.res.Rejected += p.rejected
	return nil
}

// modelKeys are the nodes' signing keys, shared by every case.
var modelKeys = func() []*xcrypto.SigningKey {
	keys := make([]*xcrypto.SigningKey, maxParts)
	for i := range keys {
		k, err := xcrypto.NewSigningKey()
		if err != nil {
			panic(err)
		}
		keys[i] = k
	}
	return keys
}()

func modelNode(w int) NodeSeal {
	return NodeSeal{NodeID: uint32(w), Measurement: tee.Measurement{0x60, byte(w)}, Key: modelKeys[w]}
}

// sealParts signs one partial seal per part, node w sealing part w.
func sealParts(t testing.TB, parts []modelPart) [][]byte {
	t.Helper()
	seals := make([][]byte, len(parts))
	for w, p := range parts {
		n := modelNode(w)
		der, err := n.Key.Public().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		digests := make([]byte, 0, len(p.digests)*wire.SealDigestLen)
		for _, d := range p.digests {
			digests = append(digests, d[:]...)
		}
		seals[w], err = wire.SealPartial(wire.PartialSeal{
			Service: "svc", Round: modelRound, NodeID: n.NodeID, ShardCount: uint32(len(parts)),
			Measurement: n.Measurement[:], NodeKey: der,
			Count: uint64(len(p.digests)), Rejected: p.rejected, Sum: p.sum,
			Digests: digests,
		}, n.Key.Sign)
		if err != nil {
			t.Fatal(err)
		}
	}
	return seals
}

// checkMergeOrder absorbs the seals in order into a Merge and into the
// model, demanding the same error (sentinel and text, so the same owner
// node), the same Result after every step, and a Result untouched by
// every refusal apart from its refused counter.
func checkMergeOrder(t testing.TB, parts []modelPart, seals [][]byte, order []int) {
	t.Helper()
	cfg := MergeConfig{ServiceName: "svc", Dim: modelDim, Round: modelRound, Nodes: map[uint32]MergeNode{}}
	for w := range parts {
		n := modelNode(w)
		cfg.Expect = append(cfg.Expect, n.NodeID)
		cfg.Nodes[n.NodeID] = MergeNode{Verify: n.Key.Public(), Measurement: n.Measurement}
	}
	merge, model := NewMerge(cfg), newMergeModel(len(parts))
	for _, w := range order {
		before := merge.Result()
		err := merge.Absorb(seals[w])
		want := model.absorb(uint32(w), parts[w])
		if (err == nil) != (want == nil) || (err != nil && (!errors.Is(err, ErrSealOverlap) || err.Error() != want.Error())) {
			t.Fatalf("order %v, node %d: got %v, model %v", order, w, err, want)
		}
		got := merge.Result()
		if !bytes.Equal(wire.EncodeMergeResult(got), wire.EncodeMergeResult(model.res)) {
			t.Fatalf("order %v, node %d: result %+v, model %+v", order, w, got, model.res)
		}
		if err != nil {
			before.Refused, got.Refused = 0, 0
			if !bytes.Equal(wire.EncodeMergeResult(before), wire.EncodeMergeResult(got)) {
				t.Fatalf("order %v, node %d: refusal disturbed the merge", order, w)
			}
		}
	}
	if want := model.res.Merged == uint32(len(parts)); merge.Complete() != want {
		t.Fatalf("order %v: Complete() = %v, model %v", order, merge.Complete(), want)
	}
}

// normalize sorts and dedups every part's coverage.
func normalize(parts []modelPart) {
	for w := range parts {
		d := parts[w].digests
		slices.SortFunc(d, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
		parts[w].digests = slices.Compact(d)
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestMergeMatchesMapModel splits random cohorts K ≤ 5 ways, injects
// overlaps (single contributions claimed twice, digests sharing their
// first 8 bytes, a whole partial duplicated), and absorbs every order.
func TestMergeMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for k := 1; k <= maxParts; k++ {
		perms := permutations(k)
		for _, overlap := range []float64{0, 0.05, 0.4} {
			t.Run(fmt.Sprintf("k%d_overlap%.2f", k, overlap), func(t *testing.T) {
				parts := make([]modelPart, k)
				for w := range parts {
					parts[w] = modelPart{sum: []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}, rejected: uint64(w)}
				}
				cohort := rng.Intn(60)
				for i := 0; i < cohort; i++ {
					var d [32]byte
					rng.Read(d[:])
					if i%4 == 0 {
						// Shared 8-byte prefix: ordering falls to the tail.
						copy(d[:8], "glimmers")
					}
					w := rng.Intn(k)
					parts[w].digests = append(parts[w].digests, d)
					if k > 1 && rng.Float64() < overlap {
						other := (w + 1 + rng.Intn(k-1)) % k
						parts[other].digests = append(parts[other].digests, d)
					}
				}
				if k > 2 && overlap > 0.1 {
					parts[k-1].digests = append([][32]byte(nil), parts[0].digests...)
				}
				normalize(parts)
				seals := sealParts(t, parts)
				for _, order := range perms {
					checkMergeOrder(t, parts, seals, order)
				}
			})
		}
	}
}

// FuzzMergeOverlap decodes partition and overlap ops from the input and
// holds the sorted-walk Merge to the map model on them. Layout: byte 0
// picks K; the next K-1 bytes shuffle the absorb order; each following
// pair places one digest (first byte: owner, and in its top bit whether
// to duplicate it into another part; second: the digest's seed, whose
// top bit makes the digest share an 8-byte prefix with others).
func FuzzMergeOverlap(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 0x00, 1, 0x01, 2, 0x02, 3})
	f.Add([]byte{4, 3, 1, 0, 2, 0x80, 7, 0x81, 0x87, 0x02, 0x85, 0x13, 0x90, 0x04, 9})
	f.Add([]byte{2, 2, 1, 0x00, 0x81, 0x01, 0x82, 0x02, 0x83, 0x90, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%maxParts
		data = data[1:]
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		for i := k - 1; i > 0 && len(data) > 0; i-- {
			j := int(data[0]) % (i + 1)
			order[i], order[j] = order[j], order[i]
			data = data[1:]
		}
		parts := make([]modelPart, k)
		for w := range parts {
			parts[w] = modelPart{sum: []uint64{uint64(w), uint64(w) << 32, ^uint64(w)}, rejected: uint64(w)}
		}
		for i := 0; i+1 < len(data) && i < 2*64; i += 2 {
			place, seed := data[i], data[i+1]
			d := sha256.Sum256([]byte{seed & 0x7F})
			if seed&0x80 != 0 {
				copy(d[:8], "glimmers")
			}
			w := int(place&0x7F) % k
			parts[w].digests = append(parts[w].digests, d)
			if place&0x80 != 0 && k > 1 {
				other := (w + 1 + int(place>>4&0x7)%(k-1)) % k
				parts[other].digests = append(parts[other].digests, d)
			}
		}
		normalize(parts)
		checkMergeOrder(t, parts, sealParts(t, parts), order)
	})
}
