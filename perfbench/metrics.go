package main

import "time"

// endToEndMetrics are measured untraced. They are the costs that stay
// steady on a shared machine: wall-clock throughput and latency swing with
// the host's load between minutes, and are reported per layer instead.
func endToEndMetrics(rep *report) map[string]metric {
	w := rep.measured
	_, cpu, _, _ := sliceMedians(w)
	return map[string]metric{
		"cpu_us_per_contrib":      {cpu, "us"},
		"alloc_bytes_per_contrib": {float64(w.rt1.allocBytes-w.rt0.allocBytes) / float64(max(w.contribs(), 1)), "B"},
		"peak_heap_mb":            {float64(w.sampler.peak) / 1e6, "MB"},
		"setup_s":                 {median(rep.setupSeconds), "s"},
	}
}

// sliceMedians returns, over the slices of the given windows, the medians
// of throughput, CPU per contribution and each slice's median submit and
// release latency.
func sliceMedians(ws ...*windowStats) (rate, cpu, submit, release float64) {
	var rates, cpus, submits, releases []float64
	for _, w := range ws {
		for _, s := range w.slices() {
			if s.contribs == 0 {
				continue
			}
			rates = append(rates, float64(s.contribs)/(float64(s.end-s.start)/1e9))
			cpus = append(cpus, float64(s.cpu.Nanoseconds())/1e3/float64(s.contribs))
			submits = append(submits, median(s.submit))
			if len(s.release) > 0 {
				releases = append(releases, median(s.release))
			}
		}
	}
	return median(rates), median(cpus), median(submits), median(releases)
}

// layerMetrics break the traced window down by layer.
func layerMetrics(rep *report) map[string]metric {
	w := rep.measured
	sec := w.seconds()
	contribs := float64(max(w.contribs(), 1))
	// Requests are counted when they started inside the window; their
	// children may end after it.
	spans := windowSpans(rep.spans, w)
	allFrames, _ := frameTraces(rep.spans)
	var frames []frameTrace
	for _, f := range allFrames {
		if f.start <= w.deadline {
			frames = append(frames, f)
		}
	}
	var gaasSelf []float64
	var serviceSelf, residual float64
	var frameItems int
	for _, f := range frames {
		gaasSelf = append(gaasSelf, float64(f.gaasSelf)/1e3)
		serviceSelf += float64(f.serviceSelf)
		residual += float64(f.residual()) / 1e3
		frameItems += f.items
	}
	if len(frames) > 0 {
		residual /= float64(len(frames))
	}

	// Dials and grants happen in setup on the gateway workloads; fall
	// back to the last setup's spans there.
	dialSpans := ofKind(spans, kDial)
	if len(dialSpans) == 0 {
		dialSpans = ofKind(rep.setupSpans, kDial)
	}
	grantSpans := spans
	grants := grantTraces(rep.spans)
	if len(ofKind(spans, kGrant)) == 0 {
		grantSpans = rep.setupSpans
		grants = grantTraces(rep.setupSpans)
	}
	var grantGaas, grantService, grantRTT []float64
	for _, g := range grants {
		if g.start > w.deadline {
			continue
		}
		grantGaas = append(grantGaas, float64(g.gaasSelf)/1e3)
		grantService = append(grantService, float64(g.serviceSelf)/1e3)
		grantRTT = append(grantRTT, float64(g.rtt)/1e6)
	}
	evictions := float64(len(ofKind(grantSpans, kEvict))) / float64(max(len(ofKind(grantSpans, kGrant)), 1))

	var stageNS []float64
	for _, s := range ofKind(spans, kStage) {
		if s.link != 0 {
			stageNS = append(stageNS, float64(s.dur()))
		}
	}
	barrier := durationsMS(ofKind(spans, kBarrier))

	// Client throughput and medians come from the untraced reference
	// windows; the p99s pool every window of the run for samples.
	rate, _, submitP50, releaseP50 := sliceMedians(rep.reference...)
	var sessions, submit, release []float64
	for _, win := range append([]*windowStats{w}, rep.reference...) {
		for _, s := range win.sessions {
			sessions = append(sessions, float64(s.dur)/1e6)
		}
		for _, f := range win.frames {
			submit = append(submit, float64(f.dur)/1e6)
		}
		for _, r := range win.releases {
			release = append(release, float64(r.dur)/1e6)
		}
	}
	if len(sessions) == 0 {
		// A gateway's session is its long-lived connection, dialed in setup.
		sessions = durationsMS(dialSpans)
	}

	walRecords := float64(w.wal1.Records - w.wal0.Records)
	walWrites := float64(max(w.wal1.Writes-w.wal0.Writes, 1))
	edgeShed := w.edge1.ShedBatches - w.edge0.ShedBatches
	refused := (w.edge1.RefusedMaxConns - w.edge0.RefusedMaxConns) + (w.edge1.RefusedPerIP - w.edge0.RefusedPerIP)
	gcCPU := (w.rt1.gcCPU - w.rt0.gcCPU) / max(w.rt1.totalCPU-w.rt0.totalCPU, 1e-9)

	// Slice medians on both sides keep each window's start-up and drain
	// out of the overhead comparison.
	traced, _, _, _ := sliceMedians(w)
	untraced := rate

	m := map[string]metric{
		"gaas.submit_self_us_p50":     {percentile(gaasSelf, 0.50), "us"},
		"gaas.dial_ms_p50":            {percentile(durationsMS(dialSpans), 0.50), "ms"},
		"gaas.grant_self_us_p50":      {percentile(grantGaas, 0.50), "us"},
		"gaas.shed_batches":           {float64(edgeShed), "count"},
		"gaas.refused_conns":          {float64(refused), "count"},
		"gaas.wire_bytes_per_contrib": {float64(w.batchB+8*int64(len(w.frames))) / float64(max(w.items, 1)), "B"},

		"service.ingest_ns_per_contrib": {serviceSelf / float64(max(frameItems, 1)), "ns"},
		"service.tickets_per_frame":     {float64(w.tickets) / float64(max(len(w.frames), 1)), "count"},
		"service.items_per_frame":       {float64(w.items) / float64(max(len(w.frames), 1)), "count"},
		"service.grant_us_p50":          {percentile(grantService, 0.50), "us"},
		"service.tickets_live":          {float64(rep.ticketsLive), "count"},
		"service.evictions_per_grant":   {evictions, "ratio"},
		"service.seal_ms_p50":           {percentile(durationsMS(ofKind(spans, kSeal)), 0.50), "ms"},
		"service.partial_export_ms_p50": {percentile(durationsMS(ofKind(spans, kExport)), 0.50), "ms"},
		"service.merge_ms_p50":          {percentile(durationsMS(ofKind(spans, kMerge)), 0.50), "ms"},

		"durable.stage_ns_per_record":   {mean(stageNS), "ns"},
		"durable.barrier_ms_p50":        {percentile(barrier, 0.50), "ms"},
		"durable.barrier_ms_p99":        {percentile(barrier, 0.99), "ms"},
		"durable.records_per_write":     {walRecords / walWrites, "ratio"},
		"durable.syncs_per_s":           {float64(w.wal1.Syncs-w.wal0.Syncs) / sec, "1/s"},
		"durable.wal_bytes_per_contrib": {float64(w.wal1.BytesWritten-w.wal0.BytesWritten) / contribs, "B"},
		"durable.staged_peak_kb":        {float64(w.wal1.StagedPeak) / 1e3, "KB"},

		"runtime.allocs_per_contrib": {float64(w.rt1.allocObjects-w.rt0.allocObjects) / contribs, "count"},
		"runtime.gc_cpu_frac":        {gcCPU, "ratio"},

		"gen.lag_ms_p99": {percentile(nsTo(w.lag, time.Millisecond), 0.99), "ms"},

		"trace.residual_us_per_frame": {residual, "us"},
		"trace.overhead_frac":         {1 - traced/untraced, "ratio"},

		"client.contrib_per_s":  {rate, "1/s"},
		"client.submit_p50_ms":  {submitP50, "ms"},
		"client.release_p50_ms": {releaseP50, "ms"},
		"client.session_p50_ms": {percentile(sessions, 0.50), "ms"},
		"client.session_p99_ms": {percentile(sessions, 0.99), "ms"},
		"client.grant_p50_ms":   {percentile(grantRTT, 0.50), "ms"},
		"client.grant_p99_ms":   {percentile(grantRTT, 0.99), "ms"},
		"client.submit_p99_ms":  {percentile(submit, 0.99), "ms"},
		"client.release_p99_ms": {percentile(release, 0.99), "ms"},
		"client.failed_frac":    {float64(w.fail.total()) / float64(max(w.attempted, 1)), "ratio"},
	}
	return m
}

// windowSpans keeps the spans that started inside the window's timed part,
// before the drain.
func windowSpans(spans []span, w *windowStats) []span {
	var out []span
	for _, s := range spans {
		if s.start >= w.start && s.start <= w.deadline {
			out = append(out, s)
		}
	}
	return out
}

func ofKind(spans []span, k spanKind) []span {
	var out []span
	for _, s := range spans {
		if s.kind == k {
			out = append(out, s)
		}
	}
	return out
}

func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
