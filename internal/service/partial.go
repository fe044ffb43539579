package service

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Partial-seal export and merge: the service-layer half of the fleet.
//
// A round sharded across nodes produces one partial aggregate per node.
// Export (Pipeline.PartialSeal) seals the local cohort and emits a signed
// wire.PartialSeal carrying the blinded partial sum, the accept/reject
// accounting, and the full dedup-digest coverage. Merge (the coordinator
// side) folds partials back into the round's exact sum — and because the
// seals carry their digests, the coordinator can demand *disjoint cohort
// coverage*: no contribution may appear in two partials, so the merged
// sum is exactly the single-node sum of the union cohort, and the
// zero-sum dealer masks cancel the moment the union covers the full
// cohort. The coordinator verifies signatures and disjointness but never
// sees an unblinded value, so it stays outside the trust boundary — the
// same minimize-the-trusted-core move the paper makes for the service
// itself.
//
// A round's digest coverage travels as one sorted flat block, and no step
// rebuilds it. Export sorts the digest list in pooled scratch, and
// wire.SealPartial signs and encodes the seal in one buffer, the only
// allocation sized by the cohort. The coordinator verifies the signature
// over the field block as received (PartialSeal.SignedHash: the canonical
// codec makes it the re-encoded preimage). DecodePartialSeal hands it the
// digest block as a view, already proven strictly ascending; the merge
// copies a block only while it still waits for partials, and proves a new
// seal disjoint from the kept blocks by merge-walking the sorted lists,
// with no digest map. A completed merge drops its coverage: every later
// seal is refused as a replay or as surplus before any walk, so a
// coordinator keeps no per-contribution memory for a finished round.

// Merge refusal sentinels. Each names the check that turned a seal away;
// a refused seal never perturbs the merge (all-or-nothing absorption).
var (
	// ErrSealMismatch: the seal names a different service/round/dimension
	// or a shard count that disagrees with the merge.
	ErrSealMismatch = errors.New("service: partial seal does not match this merge")
	// ErrSealUnknownNode: the sealing node is not in the merge's expected
	// set.
	ErrSealUnknownNode = errors.New("service: partial seal from unexpected node")
	// ErrSealReplay: this node's partial was already absorbed.
	ErrSealReplay = errors.New("service: partial seal replayed")
	// ErrSealIdentity: the seal's key or measurement contradicts the
	// node's registered (or TOFU-pinned) identity.
	ErrSealIdentity = errors.New("service: partial seal identity mismatch")
	// ErrSealSignature: the signature does not verify.
	ErrSealSignature = errors.New("service: partial seal signature invalid")
	// ErrSealOverlap: the seal claims a contribution another partial
	// already covers — double-counting, refused wholesale.
	ErrSealOverlap = errors.New("service: partial seal overlaps an absorbed partial")
	// ErrMergeComplete: the merge already has every partial it expects.
	ErrMergeComplete = errors.New("service: merge already complete")
)

// NodeSeal is a node's sealing identity: its ring ID, how many partials
// it believes the round splits into, and the enclave measurement + key
// it signs with.
type NodeSeal struct {
	NodeID      uint32
	ShardCount  uint32
	Measurement tee.Measurement
	Key         *xcrypto.SigningKey
}

// PartialSeal seals the round (idempotent; a closed round exports its
// immutable aggregate) and returns the node's signed partial seal. The
// export walks the same path durable snapshots use, so the digests are
// the exact dedup coverage and the sum is the merged shard total. A round
// that has left its manager (Forget, eviction) has recycled its coverage
// and fails with ErrRoundReleased.
func (p *Pipeline) PartialSeal(n NodeSeal) ([]byte, error) {
	if n.Key == nil {
		return nil, errors.New("service: partial seal needs a node signing key")
	}
	if err := p.Seal(); err != nil && !errors.Is(err, ErrRoundClosed) {
		return nil, err
	}
	sc := sealScratchPool.Get().(*sealScratch)
	defer sealScratchPool.Put(sc)
	rs, err := p.exportRoundInto(sc.list)
	if err != nil {
		return nil, fmt.Errorf("service: partial seal: %w", err)
	}
	sc.list = rs.Digests
	digests := slices.Grow(sc.flat[:0], len(rs.Digests)*wire.SealDigestLen)
	for i := range rs.Digests {
		digests = append(digests, rs.Digests[i][:]...)
	}
	sc.flat = digests
	der, err := n.Key.Public().Marshal()
	if err != nil {
		return nil, fmt.Errorf("service: partial seal: %w", err)
	}
	// SealPartial copies every field into the seal buffer, so the scratch
	// can go back to the pool once it returns.
	raw, err := wire.SealPartial(wire.PartialSeal{
		Service:     p.cfg.ServiceName,
		Round:       p.cfg.Round,
		NodeID:      n.NodeID,
		ShardCount:  n.ShardCount,
		Measurement: n.Measurement[:],
		NodeKey:     der,
		Count:       rs.Count,
		Rejected:    rs.Rejected,
		Sum:         glimmer.VectorToBits(rs.Sum),
		Digests:     digests,
	}, n.Key.Sign)
	if err != nil {
		return nil, fmt.Errorf("service: partial seal: %w", err)
	}
	return raw, nil
}

// sealScratch is PartialSeal's export scratch: the sorted digest list and
// the flat block built from it. Both are copied into the signed seal
// buffer, so they recycle across rounds instead of growing per export.
type sealScratch struct {
	list [][32]byte
	flat []byte
}

var sealScratchPool = sync.Pool{New: func() any { return new(sealScratch) }}

// ExportPartialSeal seals the given round and exports its partial seal.
// An unknown round is an error — exporting an empty partial for a round
// the node never opened would let a confused node vote down a merge.
func (m *RoundManager) ExportPartialSeal(round uint64, n NodeSeal) ([]byte, error) {
	p, ok := m.Lookup(round)
	if !ok {
		return nil, fmt.Errorf("service: export partial seal: unknown round %d", round)
	}
	return p.PartialSeal(n)
}

// MergeNode is one node's registered identity on the coordinator: the
// verify key its seals must carry and the enclave measurement it must
// report.
type MergeNode struct {
	Verify      *xcrypto.VerifyKey
	Measurement tee.Measurement
}

// MergeConfig fixes one round-merge's expectations.
type MergeConfig struct {
	// ServiceName, Dim, Round identify the round being merged. Dim 0
	// adopts the first accepted seal's dimension (hub/dynamic mode).
	ServiceName string
	Dim         int
	Round       uint64
	// Expect lists the node IDs whose partials complete the merge. Nil
	// switches to dynamic mode: the first valid seal's ShardCount sets
	// how many partials are needed and any node may contribute one.
	Expect []uint32
	// Nodes maps node IDs to registered identities. A seal from a node
	// with no entry is refused unless AllowTOFU is set, in which case the
	// first seal pins the node's key + measurement and later seals must
	// match the pin.
	Nodes map[uint32]MergeNode
	// AllowTOFU enables trust-on-first-use pinning for unregistered
	// nodes — the deployment mode where node keys are generated per
	// process and no out-of-band registry exists (pins have exactly the
	// known-hosts semantics the edge already uses).
	AllowTOFU bool
	// Pins, when set, is a pin store shared across merges (the hub wires
	// one in), so a node identity pinned in one round constrains every
	// later round. Nil gives the merge a private store.
	Pins *NodePins
}

// NodePins is a trust-on-first-use store of node identities: the first
// seal a node ID ever presents pins its verify-key fingerprint and
// measurement, and every later seal under that ID — in any round sharing
// the store — must match the pin.
type NodePins struct {
	mu   sync.Mutex
	pins map[uint32]mergePin
}

func (np *NodePins) get(node uint32) (mergePin, bool) {
	np.mu.Lock()
	defer np.mu.Unlock()
	p, ok := np.pins[node]
	return p, ok
}

// pin records a node's identity if it has none yet.
func (np *NodePins) pin(node uint32, p mergePin) {
	np.mu.Lock()
	defer np.mu.Unlock()
	if np.pins == nil {
		np.pins = make(map[uint32]mergePin)
	}
	if _, ok := np.pins[node]; !ok {
		np.pins[node] = p
	}
}

// Merge folds one round's partial seals into its exact sum. Absorption
// is all-or-nothing: every check passes before any state changes, so a
// refused seal — forged, replayed, overlapping, stale — leaves the merge
// exactly as it was.
type Merge struct {
	cfg MergeConfig

	pins *NodePins

	mu         sync.Mutex
	shardCount uint32 // partials needed; 0 until known (dynamic mode)
	expect     map[uint32]bool
	absorbed   map[uint32]bool
	covered    []coverage // absorbed partials' non-empty digest blocks; nil once complete
	sum        fixed.Vector
	count      uint64
	rejected   uint64
	refused    uint64
}

// coverage is one absorbed partial's digest block — strictly ascending,
// as DecodePartialSeal proved — and the node that claimed it.
type coverage struct {
	node    uint32
	digests []byte
}

type mergePin struct {
	key         [32]byte // verify-key fingerprint
	measurement tee.Measurement
}

// NewMerge starts a merge for one round.
func NewMerge(cfg MergeConfig) *Merge {
	m := &Merge{
		cfg:      cfg,
		pins:     cfg.Pins,
		absorbed: make(map[uint32]bool),
	}
	if m.pins == nil {
		m.pins = &NodePins{}
	}
	if len(cfg.Expect) > 0 {
		m.shardCount = uint32(len(cfg.Expect))
		m.expect = make(map[uint32]bool, len(cfg.Expect))
		for _, n := range cfg.Expect {
			m.expect[n] = true
		}
	}
	if cfg.Dim > 0 {
		m.sum = fixed.NewVector(cfg.Dim)
	}
	return m
}

// Absorb validates and folds one encoded partial seal. On refusal the
// merge is untouched and the refused counter is bumped.
func (m *Merge) Absorb(raw []byte) error {
	seal, err := wire.DecodePartialSeal(raw)
	if err != nil {
		m.mu.Lock()
		m.refused++
		m.mu.Unlock()
		return err
	}
	return m.absorbSeal(seal)
}

// absorbSeal takes a seal fresh from DecodePartialSeal: the checks rely
// on its canonical digest order and its received field block, and its
// digest block is a view of the caller's buffer. The block is copied only
// while the merge stays incomplete. Once the merge completes it drops
// every kept block, because every later seal is refused (ErrSealReplay or
// ErrMergeComplete) before the overlap walk would read them.
func (m *Merge) absorbSeal(seal wire.PartialSeal) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	carried, err := m.checkSeal(seal)
	if err != nil {
		m.refused++
		return err
	}
	// All checks passed — commit atomically.
	if m.sum == nil {
		m.sum = fixed.NewVector(len(seal.Sum))
	}
	if m.shardCount == 0 {
		m.shardCount = seal.ShardCount
	}
	var meas tee.Measurement
	copy(meas[:], seal.Measurement)
	m.pins.pin(seal.NodeID, mergePin{key: carried.Fingerprint(), measurement: meas})
	fixed.AccumulateInto(m.sum, seal.Sum)
	m.absorbed[seal.NodeID] = true
	m.count += seal.Count
	m.rejected += seal.Rejected
	switch {
	case m.completeLocked():
		m.covered = nil
	case len(seal.Digests) > 0:
		m.covered = append(m.covered, coverage{node: seal.NodeID, digests: bytes.Clone(seal.Digests)})
	}
	return nil
}

// checkSeal runs every refusal check without mutating anything and
// returns the node key the seal carries, parsed once for the commit's
// pin. Caller holds m.mu.
func (m *Merge) checkSeal(seal wire.PartialSeal) (*xcrypto.VerifyKey, error) {
	if seal.Service != m.cfg.ServiceName || seal.Round != m.cfg.Round {
		return nil, fmt.Errorf("%w: seal is for %s/%d, merge is %s/%d",
			ErrSealMismatch, seal.Service, seal.Round, m.cfg.ServiceName, m.cfg.Round)
	}
	if m.cfg.Dim > 0 && len(seal.Sum) != m.cfg.Dim {
		return nil, fmt.Errorf("%w: seal sum has %d lanes, merge wants %d",
			ErrSealMismatch, len(seal.Sum), m.cfg.Dim)
	}
	if m.sum != nil && len(seal.Sum) != len(m.sum) {
		return nil, fmt.Errorf("%w: seal sum has %d lanes, merge holds %d",
			ErrSealMismatch, len(seal.Sum), len(m.sum))
	}
	if seal.ShardCount == 0 {
		return nil, fmt.Errorf("%w: zero shard count", ErrSealMismatch)
	}
	if m.shardCount != 0 && seal.ShardCount != m.shardCount {
		// A stale seal from before a re-home names the old split; it must
		// be re-exported, not merged.
		return nil, fmt.Errorf("%w: seal splits the round %d ways, merge expects %d",
			ErrSealMismatch, seal.ShardCount, m.shardCount)
	}
	if m.expect != nil && !m.expect[seal.NodeID] {
		return nil, fmt.Errorf("%w: node %d", ErrSealUnknownNode, seal.NodeID)
	}
	if m.absorbed[seal.NodeID] {
		return nil, fmt.Errorf("%w: node %d already merged", ErrSealReplay, seal.NodeID)
	}
	if m.completeLocked() {
		return nil, ErrMergeComplete
	}

	// Identity: registered key + measurement, or a TOFU pin.
	carried, err := xcrypto.ParseVerifyKey(seal.NodeKey)
	if err != nil {
		return nil, fmt.Errorf("%w: unparseable node key: %v", ErrSealIdentity, err)
	}
	var meas tee.Measurement
	copy(meas[:], seal.Measurement)
	verify := carried
	if reg, ok := m.cfg.Nodes[seal.NodeID]; ok {
		if reg.Verify != nil {
			if carried.Fingerprint() != reg.Verify.Fingerprint() {
				return nil, fmt.Errorf("%w: node %d key does not match registration", ErrSealIdentity, seal.NodeID)
			}
			verify = reg.Verify
		}
		if meas != reg.Measurement {
			return nil, fmt.Errorf("%w: node %d measurement does not match registration", ErrSealIdentity, seal.NodeID)
		}
	} else if pin, ok := m.pins.get(seal.NodeID); ok {
		if carried.Fingerprint() != pin.key || meas != pin.measurement {
			return nil, fmt.Errorf("%w: node %d contradicts its first-use pin", ErrSealIdentity, seal.NodeID)
		}
	} else if !m.cfg.AllowTOFU {
		return nil, fmt.Errorf("%w: node %d has no registered identity", ErrSealIdentity, seal.NodeID)
	}

	if !verify.VerifyHash(seal.SignedHash(), seal.Signature) {
		return nil, fmt.Errorf("%w: node %d", ErrSealSignature, seal.NodeID)
	}

	// Disjoint coverage: every digest must be new to the merge. Checked
	// in full before commit so an overlapping seal changes nothing. The
	// seal's block and each absorbed block are strictly ascending, so one
	// merge-walk per absorbed block finds the seal's first shared digest;
	// the lowest across blocks names its owner.
	first, owner := len(seal.Digests), uint32(0)
	for _, c := range m.covered {
		if i := firstShared(seal.Digests[:first], c.digests); i < first {
			first, owner = i, c.node
		}
	}
	if first < len(seal.Digests) {
		return nil, fmt.Errorf("%w: node %d re-claims a contribution node %d covers",
			ErrSealOverlap, seal.NodeID, owner)
	}
	return carried, nil
}

// firstShared merge-walks two strictly ascending digest blocks and
// returns the byte offset in a of the first digest b also holds, or
// len(a) if they are disjoint.
func firstShared(a, b []byte) int {
	const n = wire.SealDigestLen
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := bytes.Compare(a[i:i+n], b[j:j+n]); {
		case c < 0:
			i += n
		case c > 0:
			j += n
		default:
			return i
		}
	}
	return len(a)
}

// Complete reports whether every expected partial has been absorbed.
func (m *Merge) Complete() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completeLocked()
}

func (m *Merge) completeLocked() bool {
	return m.shardCount != 0 && uint32(len(m.absorbed)) >= m.shardCount
}

// Sum returns the merged sum so far (the round's exact blinded sum once
// Complete). The returned vector is a copy.
func (m *Merge) Sum() fixed.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sum == nil {
		return nil
	}
	return m.sum.Clone()
}

// Result snapshots the merge as a wire.MergeResult.
func (m *Merge) Result() wire.MergeResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := wire.MergeResult{
		Service:  m.cfg.ServiceName,
		Round:    m.cfg.Round,
		Expect:   m.shardCount,
		Merged:   uint32(len(m.absorbed)),
		Count:    m.count,
		Rejected: m.rejected,
		Refused:  m.refused,
	}
	if m.sum != nil {
		r.Sum = glimmer.VectorToBits(m.sum)
	}
	return r
}

// MergeHub runs merges for many (service, round) pairs — the coordinator
// process's top-level state. Merges are created on first contact in
// dynamic mode (TOFU unless the hub carries registered identities), which
// is what a coordinator that doesn't know the fleet's tenant list ahead
// of time needs.
type MergeHub struct {
	// Nodes and AllowTOFU seed every merge's identity expectations.
	Nodes     map[uint32]MergeNode
	AllowTOFU bool

	pins   NodePins // shared across every merge: pins span rounds
	mu     sync.Mutex
	merges map[mergeKey]*Merge
}

type mergeKey struct {
	service string
	round   uint64
}

// Lookup returns the merge for (service, round) if one exists.
func (h *MergeHub) Lookup(service string, round uint64) (*Merge, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.merges[mergeKey{service, round}]
	return m, ok
}

// Merges returns every live merge keyed by service name and round.
func (h *MergeHub) Merges() map[string][]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]uint64, len(h.merges))
	for k := range h.merges {
		out[k.service] = append(out[k.service], k.round)
	}
	return out
}

// MergePartialSeal absorbs one encoded seal into the matching merge
// (created on first contact) and returns the merge's encoded
// wire.MergeResult — the fleet-merge reply body. On refusal the error is
// returned and the merge (with its bumped refusal counter) is unchanged;
// the caller must not retain seal past the call.
func (h *MergeHub) MergePartialSeal(seal []byte) ([]byte, error) {
	dec, err := wire.DecodePartialSeal(seal)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.merges == nil {
		h.merges = make(map[mergeKey]*Merge)
	}
	key := mergeKey{dec.Service, dec.Round}
	m, ok := h.merges[key]
	if !ok {
		m = NewMerge(MergeConfig{
			ServiceName: dec.Service,
			Round:       dec.Round,
			Nodes:       h.Nodes,
			AllowTOFU:   h.AllowTOFU,
			Pins:        &h.pins,
		})
		h.merges[key] = m
	}
	h.mu.Unlock()
	if err := m.absorbSeal(dec); err != nil {
		return nil, err
	}
	return wire.EncodeMergeResult(m.Result()), nil
}
