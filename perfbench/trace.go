package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// Tracing records spans around the public calls into each layer, from the
// benchmark's own code: client calls on the load side, and two
// pass-through wrappers on the node side — one around the registry handed
// to gaas.ServerConfig as Ingestor/TicketGranter, one around the durable
// store attached as the registry's journal. Spans are kept in memory and
// written out when the run ends.
//
// Spans are linked to the request that caused them by bytes visible at
// every boundary: a frame by the MAC tags of its contributions (the
// ticketed path's dedup digest is the MAC, so journal records carry them
// too), a grant by a hash of the request bytes and then by the ticket ID
// it minted, a release by its round number.

type spanKind uint8

const (
	kSubmit   spanKind = iota // client SubmitBatch round trip; link: frame key
	kHold                     // the ingest wrapper's whole call, tracer bookkeeping included; link: frame key
	kIngest                   // Ingestor.IngestBatch; link: frame key; aux: items
	kStage                    // async journal record; link: frame key for BatchAccepted
	kEvict                    // TicketEvicted journal record
	kBarrier                  // RoundSealed, RoundClosed, TicketGranted; link: round or ticket ID
	kGrantRPC                 // client RequestTicket round trip; link: request hash
	kGrant                    // TicketGranter.GrantTicket; link: request hash; aux: ticket ID
	kDial                     // client DialContext
	kSession                  // one device_churn session, dial to frame reply
	kSeal                     // RoundManager.Seal; link: round
	kExport                   // RoundManager.ExportPartialSeal; link: round
	kMerge                    // Merge.Absorb; link: round
	numKinds
)

var kindNames = [numKinds]string{
	"submit", "hold", "ingest", "stage", "evict", "barrier", "grant_rpc", "grant",
	"dial", "session", "seal", "export", "merge",
}

// spanChunk is the number of spans per storage block.
const spanChunk = 4096

type span struct {
	kind       spanKind
	link, aux  uint64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer collects spans while on. A nil tracer records nothing.
type tracer struct {
	on atomic.Bool
	// chunks hold the spans in fixed-size blocks, so recording never
	// copies the spans already kept — a growing slice would stall the
	// recording call, and the round trip it sits in, on every doubling.
	mu     sync.Mutex
	chunks [][]span
	// frames maps the first eight bytes of a contribution's MAC to the key
	// of the frame that carries it.
	fmu    sync.RWMutex
	frames map[uint64]uint64
	// granted and evicted count ticket-table journal records whether or
	// not spans are being recorded; their difference is the table length.
	granted, evicted atomic.Int64
}

func newTracer() *tracer {
	return &tracer{frames: make(map[uint64]uint64)}
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) record(k spanKind, link, aux uint64, start, end int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == cap(t.chunks[n-1]) {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, span{kind: k, link: link, aux: aux, start: start, end: end})
	t.mu.Unlock()
}

// noteFrame registers the MAC tags of a frame's items under its key.
func (t *tracer) noteFrame(key uint64, items [][]byte) {
	if t == nil {
		return
	}
	t.fmu.Lock()
	for _, it := range items {
		t.frames[macKey(it)] = key
	}
	t.fmu.Unlock()
}

func (t *tracer) frameOf(mac uint64) uint64 {
	t.fmu.RLock()
	defer t.fmu.RUnlock()
	return t.frames[mac]
}

// reset drops every recorded span and zeroes the ticket counts, for a
// fresh node.
func (t *tracer) reset() {
	t.take()
	t.granted.Store(0)
	t.evicted.Store(0)
}

// take returns the spans recorded so far and starts a new list.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	t.chunks = nil
	return out
}

// macKey is the first eight bytes of an encoded ticketed contribution's
// MAC, which is the last field of the encoding.
func macKey(raw []byte) uint64 {
	if len(raw) < 32 {
		return 0
	}
	return binary.BigEndian.Uint64(raw[len(raw)-32:])
}

// requestKey links a ticket request across the wire.
func requestKey(req []byte) uint64 {
	h := fnv.New64a()
	h.Write(req)
	return h.Sum64()
}

// writeSpans writes the spans as text, one per line:
// kind link aux start_ns end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "%s %d %d %d %d\n", kindNames[s.kind], s.link, s.aux, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedIngest is the pass-through wrapper handed to gaas.ServerConfig in
// traced runs. It implements gaas.TicketGranter too, so the edge still
// serves ticket grants.
type tracedIngest struct {
	reg *service.Registry
	tr  *tracer
}

func (w *tracedIngest) IngestBatch(raws [][]byte) (int, []error) {
	if !w.tr.enabled() || len(raws) == 0 {
		return w.reg.IngestBatch(raws)
	}
	enter := clock()
	link := w.tr.frameOf(macKey(raws[0]))
	start := clock()
	n, errs := w.reg.IngestBatch(raws)
	end := clock()
	w.tr.record(kIngest, link, uint64(len(raws)), start, end)
	w.tr.record(kHold, link, 0, enter, clock())
	return n, errs
}

func (w *tracedIngest) GrantTicket(req []byte) ([]byte, error) {
	if !w.tr.enabled() {
		return w.reg.GrantTicket(req)
	}
	start := clock()
	grant, err := w.reg.GrantTicket(req)
	end := clock()
	var id uint64
	if err == nil {
		if g, derr := wire.DecodeTicketGrant(grant); derr == nil {
			id = g.ID
		}
	}
	w.tr.record(kGrant, requestKey(req), id, start, end)
	return grant, err
}

// tracedJournal is the pass-through wrapper attached with
// Registry.SetJournal in traced runs.
type tracedJournal struct {
	inner service.Journal
	tr    *tracer
}

// timed runs f and records it as one span of kind k.
func (j *tracedJournal) timed(k spanKind, link uint64, f func()) {
	if !j.tr.enabled() {
		f()
		return
	}
	start := clock()
	f()
	j.tr.record(k, link, 0, start, clock())
}

func (j *tracedJournal) RoundCreated(tenant string, round uint64) {
	j.timed(kStage, 0, func() { j.inner.RoundCreated(tenant, round) })
}

func (j *tracedJournal) RoundSealed(tenant string, round uint64) {
	j.timed(kBarrier, round, func() { j.inner.RoundSealed(tenant, round) })
}

func (j *tracedJournal) RoundClosed(tenant string, round uint64) {
	j.timed(kBarrier, round, func() { j.inner.RoundClosed(tenant, round) })
}

func (j *tracedJournal) RoundForgotten(tenant string, round uint64) {
	j.timed(kStage, 0, func() { j.inner.RoundForgotten(tenant, round) })
}

func (j *tracedJournal) Accepted(tenant string, round uint64, digest [32]byte, blinded fixed.Vector) {
	link := uint64(0)
	if j.tr.enabled() {
		link = j.tr.frameOf(binary.BigEndian.Uint64(digest[:8]))
	}
	j.timed(kStage, link, func() { j.inner.Accepted(tenant, round, digest, blinded) })
}

func (j *tracedJournal) BatchAccepted(tenant string, round uint64, digests [][32]byte, delta fixed.Vector) {
	link := uint64(0)
	if j.tr.enabled() && len(digests) > 0 {
		link = j.tr.frameOf(binary.BigEndian.Uint64(digests[0][:8]))
	}
	j.timed(kStage, link, func() { j.inner.BatchAccepted(tenant, round, digests, delta) })
}

func (j *tracedJournal) DropoutCorrected(tenant string, round uint64, mask fixed.Vector) {
	j.timed(kStage, 0, func() { j.inner.DropoutCorrected(tenant, round, mask) })
}

func (j *tracedJournal) Rejected(tenant string, round uint64, level service.RejectLevel, n int) {
	j.timed(kStage, 0, func() { j.inner.Rejected(tenant, round, level, n) })
}

func (j *tracedJournal) TicketGranted(tenant string, tk service.TicketState) {
	j.tr.granted.Add(1)
	j.timed(kBarrier, tk.ID, func() { j.inner.TicketGranted(tenant, tk) })
}

func (j *tracedJournal) TicketEvicted(tenant string, id uint64) {
	j.tr.evicted.Add(1)
	j.timed(kEvict, id, func() { j.inner.TicketEvicted(tenant, id) })
}

// frameTrace is one frame's round trip split into layer self-times. A
// span's self time is its duration minus the union of its children's
// intervals: the gaas layer owns the round trip outside the ingest
// wrapper's hold on the frame, the service layer the ingest call outside
// the journal records staged for the frame, and the durable layer those
// records.
type frameTrace struct {
	key                                        uint64
	start, rtt, gaasSelf, serviceSelf, walSelf int64
	items                                      int
}

// residual is the part of the round trip no layer's self time covers: the
// tracer's own bookkeeping around the ingest call, less any overlap
// between journal records staged concurrently for the frame.
func (f frameTrace) residual() int64 { return f.rtt - f.gaasSelf - f.serviceSelf - f.walSelf }

// interval is a half-open [start, end) time range.
type interval struct{ start, end int64 }

// unionWithin returns the length of the union of ivs clipped to [lo, hi).
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// containing returns the index of the span among candidates (indices into
// spans) whose interval contains [start, end], or -1.
func containing(spans []span, candidates []int, start, end int64) int {
	for _, i := range candidates {
		if spans[i].start <= start && end <= spans[i].end {
			return i
		}
	}
	return -1
}

// inside returns the index of the span among candidates whose interval
// lies within [start, end], or -1.
func inside(spans []span, candidates []int, start, end int64) int {
	for _, i := range candidates {
		if start <= spans[i].start && spans[i].end <= end {
			return i
		}
	}
	return -1
}

// frameTraces links submit, hold, ingest and journal spans of the same
// frame and splits each linked round trip into layer self-times. Frames are
// sent again after their round is released, so a key names several sends;
// each child is matched to the parent whose interval contains it. unlinked
// counts submit spans without a contained hold and ingest span.
func frameTraces(spans []span) (frames []frameTrace, unlinked int) {
	ingestByKey := map[uint64][]int{}
	holdByKey := map[uint64][]int{}
	for i, s := range spans {
		switch {
		case s.link == 0:
		case s.kind == kIngest:
			ingestByKey[s.link] = append(ingestByKey[s.link], i)
		case s.kind == kHold:
			holdByKey[s.link] = append(holdByKey[s.link], i)
		}
	}
	children := map[int][]interval{}
	walSum := map[int]int64{}
	for _, s := range spans {
		if s.kind != kStage || s.link == 0 {
			continue
		}
		if p := containing(spans, ingestByKey[s.link], s.start, s.end); p >= 0 {
			children[p] = append(children[p], interval{s.start, s.end})
			walSum[p] += s.dur()
		}
	}
	for _, s := range spans {
		if s.kind != kSubmit {
			continue
		}
		h := inside(spans, holdByKey[s.link], s.start, s.end)
		if h < 0 {
			unlinked++
			continue
		}
		p := inside(spans, ingestByKey[s.link], spans[h].start, spans[h].end)
		if p < 0 {
			unlinked++
			continue
		}
		in := spans[p]
		frames = append(frames, frameTrace{
			key:         s.link,
			start:       s.start,
			rtt:         s.dur(),
			gaasSelf:    s.dur() - spans[h].dur(),
			serviceSelf: in.dur() - unionWithin(children[p], in.start, in.end),
			walSelf:     walSum[p],
			items:       int(in.aux),
		})
	}
	return frames, unlinked
}

// grantTrace is one ticket grant's round trip split like a frame's: the
// client RequestTicket span, the node's GrantTicket span, and the
// TicketGranted barrier it journaled.
type grantTrace struct {
	start, rtt, gaasSelf, serviceSelf int64
}

// grantTraces links RequestTicket spans to GrantTicket spans by request
// hash, and GrantTicket spans to their TicketGranted barrier by ticket ID.
func grantTraces(spans []span) (grants []grantTrace) {
	grantByReq := map[uint64][]int{}
	barrierByID := map[uint64][]int{}
	for i, s := range spans {
		switch s.kind {
		case kGrant:
			grantByReq[s.link] = append(grantByReq[s.link], i)
		case kBarrier:
			barrierByID[s.link] = append(barrierByID[s.link], i)
		}
	}
	for _, s := range spans {
		if s.kind != kGrantRPC {
			continue
		}
		p := inside(spans, grantByReq[s.link], s.start, s.end)
		if p < 0 {
			continue
		}
		g := spans[p]
		var kids []interval
		for _, b := range barrierByID[g.aux] {
			kids = append(kids, interval{spans[b].start, spans[b].end})
		}
		grants = append(grants, grantTrace{
			start:       s.start,
			rtt:         s.dur(),
			gaasSelf:    s.dur() - g.dur(),
			serviceSelf: g.dur() - unionWithin(kids, g.start, g.end),
		})
	}
	return grants
}
