package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// The device_churn workload: churnSlots session slots, each running one
// device session after another — a new TCP+TLS connection, a ticket grant,
// one frame of one contribution, then close. Setup fills the ticket table
// to its cap, so every timed grant evicts a ticket. Rounds hold churnCohort
// devices each, so the zero-sum masks cancel within every release.
const (
	churnSlots  = 2  // concurrent sessions: nproc on the 2-vCPU Xeon it was sized on
	churnCohort = 16 // devices per round
	// churnMaxRate is the session rate the provisioned masks cover, about
	// twice the rate on a 2-vCPU Xeon (700-850/s). Each session spends one
	// single-use mask, so masks for every session a window can run are
	// provisioned in setup; a window that would outrun them fails.
	churnMaxRate = 1500
)

type churnRig struct {
	o        options
	node     *node
	devices  []*glimmer.Device
	devMu    [churnCohort]sync.Mutex
	maxRound uint64
	// fillSecond is the wall-clock second of the last table-fill grant.
	// Tickets expire by the second and eviction breaks expiry ties by
	// ticket ID, so timed grants start in a later second: a fresh session
	// ticket then never ties with the fill tickets being evicted.
	fillSecond int64

	claimMu sync.Mutex
	next    int // next session index, across windows

	mu      sync.Mutex
	replied map[uint64]int // sessions answered per round
	aborted error
}

func setupChurn(o options, tr *tracer) (*churnRig, error) {
	n, err := openNode(o.nodeDir(), tr)
	if err != nil {
		return nil, err
	}
	rig := &churnRig{o: o, node: n, replied: map[uint64]int{}}
	ready := false
	defer func() {
		if !ready {
			rig.close()
		}
	}()
	if err := rig.fillTickets(); err != nil {
		return nil, err
	}
	sessions := int(churnMaxRate * o.windowSeconds())
	rig.maxRound = uint64((sessions + churnCohort - 1) / churnCohort)
	rounds := make([]uint64, rig.maxRound)
	for i := range rounds {
		rounds[i] = uint64(i + 1)
	}
	if rig.devices, err = n.provisionCohort(o.seed, churnCohort, rounds, churnSlots); err != nil {
		return nil, err
	}
	ready = true
	return rig, nil
}

// fillTickets grants service.DefaultMaxTickets tickets to one filler
// device's requests through the registry, fillWorkers at a time. This is
// setup, not load: concurrent grants let the WAL's group commit share their
// barriers, so setup time tracks the grant work rather than thousands of
// back-to-back fsyncs.
func (rig *churnRig) fillTickets() error {
	filler, err := rig.node.provisionCohort(rig.o.seed, 1, []uint64{0}, 1)
	if err != nil {
		return err
	}
	defer destroyAll(filler)
	reqs := make([][]byte, service.DefaultMaxTickets)
	for i := range reqs {
		if reqs[i], err = filler[0].TicketRequest(1, 1); err != nil {
			return fmt.Errorf("filler ticket request: %w", err)
		}
	}
	const fillWorkers = 16
	errs := make([]error, fillWorkers)
	var wg sync.WaitGroup
	for f := 0; f < fillWorkers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := f; i < len(reqs); i += fillWorkers {
				if _, err := rig.node.registry.GrantTicket(reqs[i]); err != nil {
					errs[f] = fmt.Errorf("fill grant: %w", err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	rig.fillSecond = time.Now().Unix()
	return errors.Join(errs...)
}

// window runs the session slots for d, then drains to the end of the round
// in flight so every round is released and checked.
func (rig *churnRig) window(d time.Duration) (*windowStats, error) {
	for time.Now().Unix() <= rig.fillSecond {
		time.Sleep(10 * time.Millisecond)
	}
	w := beginWindow(rig.node, d)
	first := rig.next
	// Rounds complete in order and at most a few are in flight, but the
	// releaser may fall behind briefly; size for a second of rounds.
	releases := make(chan releaseJob, churnMaxRate/churnCohort)
	var relWG sync.WaitGroup
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		for job := range releases {
			res, merged, err := rig.node.release(job.round)
			if err == nil {
				err = checkRelease(res, referenceSum(rig.o.seed, job.round, churnCohort), churnCohort)
			}
			w.noteRelease(job.lastReply, merged, err)
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < churnSlots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevEnd := clock()
			for {
				k, ok := rig.claim(w)
				if !ok {
					return
				}
				end, err := rig.session(k, w, prevEnd, releases)
				if err != nil {
					rig.abort(err)
					return
				}
				prevEnd = end
			}
		}()
	}
	w.sleepUntilDeadline()
	wg.Wait()
	close(releases)
	relWG.Wait()
	w.settle()
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if sessions := rig.next - first; rig.aborted == nil && w.rounds*churnCohort != sessions {
		// Each release already matched its round's count to the cohort.
		w.fail.add(fmt.Sprintf("released %d rounds of %d for %d sessions", w.rounds, churnCohort, sessions), 1)
	}
	return w, rig.aborted
}

// claim hands out the next session index. Past the deadline it keeps
// handing them out until the round in flight is complete.
func (rig *churnRig) claim(w *windowStats) (int, bool) {
	rig.claimMu.Lock()
	defer rig.claimMu.Unlock()
	rig.mu.Lock()
	aborted := rig.aborted != nil
	rig.mu.Unlock()
	if aborted || (rig.next%churnCohort == 0 && clock() >= w.deadline) {
		return 0, false
	}
	if uint64(rig.next/churnCohort+1) > rig.maxRound {
		rig.mu.Lock()
		if rig.aborted == nil {
			rig.aborted = fmt.Errorf("device_churn ran out of provisioned masks after %d sessions; raise churnMaxRate", rig.next)
		}
		rig.mu.Unlock()
		return 0, false
	}
	k := rig.next
	rig.next++
	return k, true
}

func (rig *churnRig) abort(err error) {
	rig.mu.Lock()
	if rig.aborted == nil {
		rig.aborted = err
	}
	rig.mu.Unlock()
}

// session runs session k: device k%churnCohort contributes to round
// k/churnCohort+1 over a connection of its own. prevEnd is when the slot's
// previous session ended. It returns when this one ended.
func (rig *churnRig) session(k int, w *windowStats, prevEnd int64, releases chan<- releaseJob) (int64, error) {
	round := uint64(k/churnCohort + 1)
	d := k % churnCohort
	dev := rig.devices[d]
	rig.devMu[d].Lock()
	defer rig.devMu[d].Unlock()
	tr := rig.node.tr

	req, err := dev.TicketRequest(round, round)
	if err != nil {
		return 0, fmt.Errorf("session %d ticket request: %w", k, err)
	}
	dialStart := clock()
	c, err := gaas.DialContext(context.Background(), rig.node.addr(), dialConfig())
	dialEnd := clock()
	w.noteAttempt()
	if err != nil {
		w.fail.add(fmt.Sprintf("dial failed: %v", err), 1)
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	defer c.Close()
	grant, err := c.RequestTicket(req)
	grantEnd := clock()
	w.noteAttempt()
	if err != nil {
		w.fail.add(fmt.Sprintf("grant failed: %v", err), 1)
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	if err := dev.InstallTicket(grant); err != nil {
		return 0, fmt.Errorf("session %d ticket install: %w", k, err)
	}
	raw, err := sealContribution(dev, rig.o.seed, round, d)
	if err != nil {
		return 0, err
	}
	items := [][]byte{raw}
	key := uint64(k + 1)
	tr.noteFrame(key, items)
	sent := clock()
	acc, rej, err := c.SubmitBatch(items)
	reply := clock()
	w.noteFrame(1, 1, wire.EncodedBatchSize(items), acc, rej, err, sent, reply, dialStart-prevEnd)
	if err != nil {
		return 0, fmt.Errorf("session %d: %w", k, err)
	}
	w.noteSession(dialStart, reply)
	tr.record(kDial, key, 0, dialStart, dialEnd)
	tr.record(kGrantRPC, requestKey(req), 0, dialEnd, grantEnd)
	tr.record(kSubmit, key, 0, sent, reply)
	tr.record(kSession, key, 0, dialStart, reply)

	rig.mu.Lock()
	rig.replied[round]++
	done := rig.replied[round] == churnCohort
	if done {
		delete(rig.replied, round)
	}
	rig.mu.Unlock()
	if done {
		releases <- releaseJob{round: round, lastReply: reply}
	}
	return reply, nil
}

func (rig *churnRig) close() {
	destroyAll(rig.devices)
	rig.node.close()
}
