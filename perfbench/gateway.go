package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/wire"
)

// The gateway workloads: gateways long-lived TLS connections, each relaying
// half of a cohort in gatewayFrameItems-item frames. Every item comes from
// a different device, so a frame names as many tickets as it carries
// items — the only shape real dealer-mode devices can produce, since an
// enclave spends its mask for a round on its one contribution.
//
// Device enclave work costs tens of microseconds per contribution, so
// frames for gatewayRounds rounds are generated during setup and replayed:
// once a round is released and forgotten, its frames are sent again into a
// fresh instance of the same round number.
const (
	gateways          = 2    // client connections and submitting goroutines: nproc on the 2-vCPU Xeon it was sized on
	gatewayFrameItems = 128  // contributions per frame
	gatewayRounds     = 8    // distinct rounds generated in setup
	defaultCohort     = 1024 // devices per gateway round

	// pacedFramesPerSecond is gateway_paced's fixed schedule, summed over
	// both connections: a little under half of gateway_fanin's capacity on
	// a 2-vCPU Xeon (170-230k contrib/s), so a slow spell on a shared
	// host still leaves it below saturation.
	pacedFramesPerSecond = 640
)

// gatewayRig is a node, its provisioned cohort, the gateways' connections
// and the pre-generated frames.
type gatewayRig struct {
	o       options
	node    *node
	devices []*glimmer.Device
	clients [gateways]*gaas.Client
	// frames[g][i] is gateway g's i-th frame of a cycle through every
	// generated round; framesPerRound of them per round.
	frames         [gateways][][][]byte
	framesPerRound int
	batchBytes     []int           // per cycle position, same for both gateways' frames
	tickets        [gateways][]int // distinct tickets named by each frame
	refs           [gatewayRounds][]uint64

	// pos[g] counts gateway g's frames sent, across windows.
	pos [gateways]int

	mu       sync.Mutex
	cond     *sync.Cond
	released [gatewayRounds]int // instances of each round released so far
	replies  [gatewayRounds]int // frames of the current instance answered
	aborted  error
}

// setupGateway provisions the cohort with masks for every generated round,
// dials the gateways, relays each device's ticket request through its
// gateway, and generates the frames.
func setupGateway(o options, tr *tracer) (*gatewayRig, error) {
	if o.cohort%(gateways*gatewayFrameItems) != 0 {
		return nil, fmt.Errorf("cohort %d is not a multiple of %d", o.cohort, gateways*gatewayFrameItems)
	}
	n, err := openNode(o.nodeDir(), tr)
	if err != nil {
		return nil, err
	}
	rig := &gatewayRig{o: o, node: n, framesPerRound: o.cohort / gateways / gatewayFrameItems}
	rig.cond = sync.NewCond(&rig.mu)
	ready := false
	defer func() {
		if !ready {
			rig.close()
		}
	}()
	rounds := make([]uint64, gatewayRounds)
	for i := range rounds {
		rounds[i] = uint64(i + 1)
	}
	if rig.devices, err = n.provisionCohort(o.seed, o.cohort, rounds, gateways); err != nil {
		return nil, err
	}
	for g := range rig.clients {
		t0 := clock()
		c, err := gaas.DialContext(context.Background(), n.addr(), dialConfig())
		if err != nil {
			return nil, fmt.Errorf("gateway %d: %w", g, err)
		}
		tr.record(kDial, uint64(g), 0, t0, clock())
		rig.clients[g] = c
	}
	errs := make([]error, gateways)
	var wg sync.WaitGroup
	for g := range rig.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = rig.generate(g, tr)
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, r := range rounds {
		rig.refs[i] = referenceSum(o.seed, r, o.cohort)
	}
	rig.batchBytes = make([]int, len(rig.frames[0]))
	for i, f := range rig.frames[0] {
		rig.batchBytes[i] = wire.EncodedBatchSize(f)
	}
	for g, frames := range rig.frames {
		for _, f := range frames {
			ids := map[uint64]bool{}
			for _, raw := range f {
				tc, err := glimmer.DecodeTicketedContribution(raw)
				if err != nil {
					return nil, err
				}
				ids[tc.TicketID] = true
			}
			rig.tickets[g] = append(rig.tickets[g], len(ids))
		}
	}
	ready = true
	return rig, nil
}

// generate relays gateway g's devices' ticket requests (one window covering
// every generated round) and seals their contributions into frames.
func (rig *gatewayRig) generate(g int, tr *tracer) error {
	half := rig.o.cohort / gateways
	devs := rig.devices[g*half : (g+1)*half]
	c := rig.clients[g]
	for i, dev := range devs {
		req, err := dev.TicketRequest(1, gatewayRounds)
		if err != nil {
			return fmt.Errorf("device %d ticket request: %w", g*half+i, err)
		}
		t0 := clock()
		grant, err := c.RequestTicket(req)
		if err != nil {
			return fmt.Errorf("device %d ticket grant: %w", g*half+i, err)
		}
		tr.record(kGrantRPC, requestKey(req), 0, t0, clock())
		if err := dev.InstallTicket(grant); err != nil {
			return fmt.Errorf("device %d ticket install: %w", g*half+i, err)
		}
	}
	for r := 1; r <= gatewayRounds; r++ {
		for f := 0; f < rig.framesPerRound; f++ {
			items := make([][]byte, gatewayFrameItems)
			for k := range items {
				d := f*gatewayFrameItems + k
				raw, err := sealContribution(devs[d], rig.o.seed, uint64(r), g*half+d)
				if err != nil {
					return err
				}
				items[k] = raw
			}
			rig.frames[g] = append(rig.frames[g], items)
			tr.noteFrame(rig.frameKey(g, len(rig.frames[g])-1), items)
		}
	}
	return nil
}

// frameKey names a generated frame in trace spans.
func (rig *gatewayRig) frameKey(g, i int) uint64 {
	return uint64(1 + g*rig.framesPerRound*gatewayRounds + i)
}

// releaseJob asks the releaser to release a completed round; lastReply
// is when its last frame was answered.
type releaseJob struct {
	round     uint64
	lastReply int64
}

// window runs both gateways for d (on a schedule when paced), then drains
// every round in flight and checks each release.
func (rig *gatewayRig) window(d time.Duration) (*windowStats, error) {
	w := beginWindow(rig.node, d)
	// Each round slot has at most one unreleased instance, so the buffer
	// never fills.
	releases := make(chan releaseJob, gatewayRounds)
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		for job := range releases {
			rig.releaseOne(job, w)
		}
	}()

	var wg sync.WaitGroup
	start := rig.pos
	for g := range rig.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rig.send(g, w, start[g], -1, releases)
		}(g)
	}
	w.sleepUntilDeadline()
	wg.Wait()
	// Drain: each gateway stopped at a round boundary; bring both to the
	// same one so every round in flight completes.
	target := slices.Max(rig.pos[:])
	for g := range rig.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rig.send(g, w, start[g], target, releases)
		}(g)
	}
	wg.Wait()
	close(releases)
	relWG.Wait()
	w.settle()
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return w, rig.aborted
}

// send runs gateway g's frame loop. With until < 0 it runs until the
// window's deadline, finishing the round it is in; otherwise it sends until
// pos reaches until, unpaced and outside the window's rates.
func (rig *gatewayRig) send(g int, w *windowStats, startPos, until int, releases chan<- releaseJob) {
	fpr := rig.framesPerRound
	cycle := fpr * gatewayRounds
	interval := int64(0)
	if rig.o.workload == "gateway_paced" {
		interval = int64(time.Second) * gateways / pacedFramesPerSecond
	}
	c := rig.clients[g]
	prevReply := clock()
	for {
		pos := rig.pos[g]
		if until >= 0 {
			if pos >= until {
				return
			}
		} else if pos%fpr == 0 && clock() >= w.deadline {
			return
		}
		slot := (pos / fpr) % gatewayRounds
		if pos%fpr == 0 && !rig.waitReleased(slot, pos/cycle) {
			return
		}
		items := rig.frames[g][pos%cycle]
		sent := clock()
		from, lag := sent, sent-prevReply
		if interval > 0 && until < 0 {
			due := w.start + int64(pos-startPos)*interval + int64(g)*interval/gateways
			if wait := due - sent; wait > 0 {
				time.Sleep(time.Duration(wait))
				sent = clock()
			}
			from, lag = due, max(sent-due, 0)
		}
		acc, rej, err := c.SubmitBatch(items)
		reply := clock()
		prevReply = reply
		rig.pos[g]++
		w.noteFrame(len(items), rig.tickets[g][pos%cycle], rig.batchBytes[pos%cycle], acc, rej, err, from, reply, lag)
		if err != nil && !errors.Is(err, gaas.ErrShed) {
			rig.abort(fmt.Errorf("gateway %d: %w", g, err))
			return
		}
		rig.tr().record(kSubmit, rig.frameKey(g, pos%cycle), 0, from, reply)
		rig.noteReply(slot, reply, releases)
	}
}

func (rig *gatewayRig) tr() *tracer { return rig.node.tr }

// waitReleased blocks until instance cycle of a round slot may start: every
// earlier instance released. It returns false once the window is aborted.
func (rig *gatewayRig) waitReleased(slot, cycle int) bool {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	for rig.released[slot] < cycle && rig.aborted == nil {
		rig.cond.Wait()
	}
	return rig.aborted == nil
}

func (rig *gatewayRig) abort(err error) {
	rig.mu.Lock()
	if rig.aborted == nil {
		rig.aborted = err
	}
	rig.cond.Broadcast()
	rig.mu.Unlock()
}

// noteReply counts an answered frame; the frame that completes a round
// instance queues its release.
func (rig *gatewayRig) noteReply(slot int, at int64, releases chan<- releaseJob) {
	rig.mu.Lock()
	rig.replies[slot]++
	done := rig.replies[slot] == gateways*rig.framesPerRound
	if done {
		rig.replies[slot] = 0
	}
	rig.mu.Unlock()
	if done {
		releases <- releaseJob{round: uint64(slot + 1), lastReply: at}
	}
}

// releaseOne releases a completed round instance and checks it against the
// generator's reference sum.
func (rig *gatewayRig) releaseOne(job releaseJob, w *windowStats) {
	slot := int(job.round - 1)
	res, merged, err := rig.node.release(job.round)
	if err == nil {
		err = checkRelease(res, rig.refs[slot], rig.o.cohort)
	}
	w.noteRelease(job.lastReply, merged, err)
	rig.mu.Lock()
	rig.released[slot]++
	rig.cond.Broadcast()
	rig.mu.Unlock()
}

// checkRelease is the exactness check: the merged sum must equal the
// plaintext reference lane for lane, over the whole cohort, with nothing
// refused.
func checkRelease(res wire.MergeResult, ref []uint64, cohort int) error {
	switch {
	case res.Count != uint64(cohort):
		return fmt.Errorf("round %d released %d contributions, want %d", res.Round, res.Count, cohort)
	case res.Rejected != 0:
		return fmt.Errorf("round %d refused %d contributions", res.Round, res.Rejected)
	case !slices.Equal(res.Sum, ref):
		return fmt.Errorf("round %d released a sum that differs from the reference", res.Round)
	}
	return nil
}

func (rig *gatewayRig) close() {
	for _, c := range rig.clients {
		if c != nil {
			c.Close()
		}
	}
	destroyAll(rig.devices)
	rig.node.close()
}
