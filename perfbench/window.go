package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/gaas"
)

// sliceLen splits a window into slices. The end-to-end throughput, CPU and
// median-latency metrics are medians over slices, so a burst of
// interference from outside the process moves a few slices, not the
// result.
const sliceLen = time.Second

// event is one completed operation: its completion time, its latency and
// the contributions it carried.
type event struct{ at, dur, n int64 }

// windowStats collects one timed window. Rates and latencies count only
// operations that completed before the deadline; attempts and failures
// count every operation, including the drain that completes the rounds in
// flight at the deadline so each can be released and checked.
type windowStats struct {
	node     *node
	start    int64
	deadline int64

	mu       sync.Mutex
	frames   []event // SubmitBatch replies: latency from send or due time, contributions accepted
	releases []event // releases: at the round's last reply, latency to the merge
	sessions []event // device sessions: dial to reply
	lag      []int64 // how late the generator sent each frame
	items    int64   // items in frames replied before the deadline
	tickets  int64   // distinct tickets named by those frames
	batchB   int64   // batch body bytes of those frames

	attempted int64
	fail      failures
	rounds    int // rounds released and checked

	sampler   *sampler
	rt0, rt1  runtimeSample
	wal0      durable.Stats
	wal1      durable.Stats
	edge0     gaas.EdgeStats
	edge1     gaas.EdgeStats
	rejected0 int64
}

// beginWindow collects the garbage setup left behind, snapshots the
// counters a window reports as deltas and starts the sampler.
func beginWindow(n *node, d time.Duration) *windowStats {
	runtime.GC()
	w := &windowStats{node: n}
	w.rejected0 = n.rejectedOnServer()
	w.wal0 = n.store.Stats()
	w.edge0 = n.server.Stats()
	w.rt0 = readRuntime()
	w.start = clock()
	w.deadline = w.start + int64(d)
	w.sampler = startSampler(w.start)
	return w
}

// sleepUntilDeadline blocks until the deadline, then snapshots the counters.
func (w *windowStats) sleepUntilDeadline() {
	if d := w.deadline - clock(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	w.sampler.finish()
	w.rt1 = readRuntime()
	w.wal1 = w.node.store.Stats()
	w.edge1 = w.node.server.Stats()
}

// settle records what the node itself refused once the drain is over.
func (w *windowStats) settle() {
	w.fail.add("refused at routing or round admission", w.node.rejectedOnServer()-w.rejected0)
	w.edge1 = w.node.server.Stats()
	refused := (w.edge1.RefusedMaxConns - w.edge0.RefusedMaxConns) + (w.edge1.RefusedPerIP - w.edge0.RefusedPerIP)
	w.fail.add("connection refused by the edge", refused)
}

// inWindow reports whether an operation completing at t counts toward the
// window's rates.
func (w *windowStats) inWindow(t int64) bool { return t <= w.deadline }

// seconds is the window's measured length.
func (w *windowStats) seconds() float64 {
	b := w.sampler.bounds
	return float64(b[len(b)-1].at-b[0].at) / 1e9
}

// contribs counts the contributions accepted inside the window.
func (w *windowStats) contribs() int64 {
	var n int64
	for _, f := range w.frames {
		n += f.n
	}
	return n
}

// noteFrame records one SubmitBatch round trip: latency is timed from
// from (the send, or the due time of a paced frame), and lag is how late
// the generator sent it.
func (w *windowStats) noteFrame(items, tickets, batchBytes int, accepted, rejected int, err error, from, reply, lag int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted += int64(items)
	switch {
	case err != nil:
		w.fail.add(fmt.Sprintf("submit failed: %v", err), int64(items))
	case rejected > 0:
		w.fail.add("contributions refused by the node", int64(rejected))
	}
	if !w.inWindow(reply) || err != nil {
		return
	}
	w.frames = append(w.frames, event{at: reply, dur: reply - from, n: int64(accepted)})
	w.items += int64(items)
	w.tickets += int64(tickets)
	w.batchB += int64(batchBytes)
	w.lag = append(w.lag, lag)
}

// noteAttempt counts one dial or grant.
func (w *windowStats) noteAttempt() {
	w.mu.Lock()
	w.attempted++
	w.mu.Unlock()
}

// noteSession records one completed device session: dialed at start,
// answered at end.
func (w *windowStats) noteSession(start, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.inWindow(end) {
		return
	}
	w.sessions = append(w.sessions, event{at: end, dur: end - start, n: 1})
}

// noteRelease records one checked release; lastReply is when the round's
// last frame was answered, merged when its merge completed.
func (w *windowStats) noteRelease(lastReply, merged int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rounds++
	w.attempted++
	if err != nil {
		w.fail.add(err.Error(), 1)
		return
	}
	if w.inWindow(lastReply) {
		w.releases = append(w.releases, event{at: lastReply, dur: merged - lastReply, n: 1})
	}
}

// slice is one sliceLen part of a window.
type slice struct {
	start, end int64
	cpu        time.Duration
	contribs   int64
	submit     []float64 // ms
	release    []float64 // ms
}

// slices splits the window's events at the sampler's boundaries.
func (w *windowStats) slices() []slice {
	b := w.sampler.bounds
	out := make([]slice, len(b)-1)
	for i := range out {
		out[i] = slice{start: b[i].at, end: b[i+1].at, cpu: b[i+1].cpu - b[i].cpu}
	}
	find := func(at int64) *slice {
		for i := range out {
			if at < out[i].end {
				return &out[i]
			}
		}
		return &out[len(out)-1]
	}
	for _, f := range w.frames {
		s := find(f.at)
		s.contribs += f.n
		s.submit = append(s.submit, float64(f.dur)/1e6)
	}
	for _, r := range w.releases {
		s := find(r.at)
		s.release = append(s.release, float64(r.dur)/1e6)
	}
	return out
}

// sampler reads the heap every few milliseconds and the process CPU time
// at every slice boundary.
type sampler struct {
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
	bounds []bound
}

type bound struct {
	at  int64
	cpu time.Duration
}

func startSampler(start int64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.bounds = append(s.bounds, bound{at: start, cpu: cpuTime()})
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	readHeap := func() {
		metrics.Read(heap)
		s.peak = max(s.peak, heap[0].Value.Uint64())
	}
	readHeap()
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		next := start + int64(sliceLen)
		for {
			select {
			case <-s.stop:
				readHeap()
				last := bound{at: clock(), cpu: cpuTime()}
				if n := len(s.bounds); n > 1 && last.at-s.bounds[n-1].at < int64(sliceLen/2) {
					// Fold a sliver after the last boundary into the slice
					// before it rather than rating it on its own.
					s.bounds[n-1] = last
				} else {
					s.bounds = append(s.bounds, last)
				}
				return
			case <-t.C:
				readHeap()
				if now := clock(); now >= next {
					s.bounds = append(s.bounds, bound{at: now, cpu: cpuTime()})
					next += int64(sliceLen)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, closing the last slice.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}
