package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mats"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/tune"
)

// pending is a traced request whose children are completed once the
// layer tour has measured the calls the daemon made inside it.
type pending struct {
	root       int64
	sent, end  time.Time
	queue, run [2]time.Time // job timestamps (zero for session steps)
	runID      int64
	wall       float64 // session step: server step time
	key        string  // matrix fingerprint (admit-fleet) or "fv1"
	miss       bool    // first request of its matrix in the run
	admitted   bool    // answered 202 (else a certificate 422)
}

// traceJob records a traced one-shot request: the client span and, from
// the job's own timestamps, its queue wait and run.
func (h *harness) traceJob(sent, end time.Time, v service.JobView, key string, miss bool) {
	p := pending{sent: sent, end: end, key: key, miss: miss, admitted: true,
		queue: [2]time.Time{v.Created, v.Started}, run: [2]time.Time{v.Started, v.Finished}}
	p.root = h.tr.add("bench.request", 0, sent, end)
	h.tr.add("service.queue_wait", p.root, v.Created, v.Started)
	p.runID = h.tr.add("service.run", p.root, v.Started, v.Finished)
	h.pendMu.Lock()
	h.pending = append(h.pending, p)
	h.pendMu.Unlock()
}

// traceStep records a traced session step; its children are placed once
// decode and encode times are known.
func (h *harness) traceStep(sent, end time.Time, wall float64) {
	p := pending{sent: sent, end: end, wall: wall, key: "fv1", admitted: true}
	p.root = h.tr.add("bench.request", 0, sent, end)
	h.pendMu.Lock()
	h.pending = append(h.pending, p)
	h.pendMu.Unlock()
}

// layerTimes are the tour's measurements for one matrix.
type layerTimes struct {
	parse, fingerprint, certify, tune, planBuild, spectral, solve float64
}

// graft completes the traced request trees with the tour's measurements:
// the calls a daemon makes inside a span become its children, so each
// layer's self time is its span minus what the layers below it took.
func (h *harness) graft(lt map[string]layerTimes, decode, encode, coreStep, hop float64) {
	d := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for i := range h.pending {
		p := &h.pending[i]
		t := lt[p.key]
		switch {
		case p.wall > 0: // session step
			enc := p.end.Add(-d(encode))
			h.tr.add("service.decode", p.root, p.sent, p.sent.Add(d(decode)))
			h.tr.add("service.encode", p.root, enc, p.end)
			p.queue = [2]time.Time{p.sent, p.sent} // steps run inline: no queue
			p.runID = h.tr.add("service.step", p.root, enc.Add(-d(p.wall)), enc)
			h.tr.add("core.step", p.runID, enc.Add(-d(p.wall)), enc.Add(-d(p.wall)).Add(d(coreStep)))
		default:
			at := p.sent
			if hop > 0 {
				h.tr.add("fleet.hop", p.root, at, at.Add(d(hop)))
				at = at.Add(d(hop))
			}
			inline := p.key != "fv1"
			add := func(parent int64, name string, s float64) {
				h.tr.add(name, parent, at, at.Add(d(s)))
				at = at.Add(d(s))
			}
			add(p.root, "service.decode", decode)
			if inline {
				// Admission in the node's POST handler, before the job
				// exists; the certificate is cached after the first request.
				add(p.root, "sparse.parse_mm", t.parse)
				add(p.root, "service.fingerprint", t.fingerprint)
				if p.miss {
					add(p.root, "certify.certify", t.certify)
				}
			}
			if !p.admitted {
				continue
			}
			at = p.run[0]
			if inline {
				// The worker resolves the inline matrix again.
				add(p.runID, "sparse.parse_mm", t.parse)
				add(p.runID, "service.fingerprint", t.fingerprint)
			}
			if p.miss && t.tune > 0 {
				add(p.runID, "tune.tune", t.tune)
				add(p.runID, "core.plan_build", t.planBuild)
				add(p.runID, "core.check_convergence", t.spectral)
			}
			add(p.runID, "core.solve", t.solve)
		}
	}
}

// selfMedians returns each layer's median self time over the pending
// requests keep selects.
func (h *harness) selfMedians(keep func(pending) bool) map[string]float64 {
	roots := map[int64]bool{}
	for _, p := range h.pending {
		if keep(p) {
			roots[p.root] = true
		}
	}
	per := map[string][]float64{}
	n := 0
	for _, self := range h.tr.selfTimes(roots) {
		n++
		for layer, s := range self {
			per[layer] = append(per[layer], s)
		}
	}
	out := map[string]float64{}
	for layer, xs := range per {
		for len(xs) < n {
			xs = append(xs, 0) // the layer was absent from some trees
		}
		out[layer] = median(xs)
	}
	return out
}

// reportSelf sets the self-time metrics of the layers on every workload's
// request path and notes the full breakdown.
func (h *harness) reportSelf(label string, self map[string]float64) {
	for _, l := range []string{"bench", "service", "core"} {
		h.setLayer(l+".self_s", "s", self[l])
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	parts := make([]string, 0, len(layers))
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.3gms", l, 1e3*self[l]))
	}
	h.notef("self time per %s request (median): %s", label, strings.Join(parts, ", "))
}

// timeN runs fn n times inside spans named name and returns the median
// duration in seconds.
func (h *harness) timeN(name string, n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = h.tr.timed(name, 0, fn)
	}
	return median(xs)
}

// coreRun is one in-process solve measurement.
type coreRun struct {
	start                       time.Time
	seconds, allocs, allocBytes float64
	iterations, sweeps, checks  int
}

// solveCounted runs one solve with a fresh metrics sink attached — as the
// service attaches its own — and counts iterations, block sweeps, exact
// residual checks and heap allocations.
func solveCounted(plan *core.Plan, b []float64, opt core.Options, step *core.Session) (coreRun, core.Result, error) {
	reg := metrics.NewRegistry()
	opt.Metrics = core.NewSolveMetrics(reg, 1<<16)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var res core.Result
	var err error
	if step != nil {
		res, err = step.Step(b, opt)
	} else {
		res, err = core.SolveWithPlan(plan, b, opt)
	}
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	var sweeps uint64
	for _, e := range core.EngineNames {
		sweeps += reg.Counter("core_block_sweeps_total", "", "engine", e).Value()
	}
	return coreRun{
		start:      start,
		seconds:    sec,
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		iterations: res.GlobalIterations,
		sweeps:     int(sweeps),
		checks:     len(opt.Metrics.ResidualHistory()),
	}, res, err
}

// kernelCounts derives, per solve, the flops and bytes of the block sweeps
// from the matrix, the partition, local_iters and the iteration count, split
// into stencil-interior rows (matrix-free) and boundary rows (packed CSR).
// They are computed, not measured. Per global iteration each row gathers
// its off-block entries once and sweeps its in-block entries k times:
// 2 flops per entry touched plus 4 for the damped update; an entry costs
// 8 bytes of x, plus 12 bytes of value and index on CSR rows; a row costs
// 24 bytes per sweep (x, D⁻¹, new x) and 24 per iteration (b, load, store).
func kernelCounts(plan *core.Plan, k, iters int) sweepCounts {
	a := plan.Matrix()
	part := plan.Partition()
	var interior []bool
	if si := plan.StencilInfo(); si != nil {
		interior = si.Interior
	}
	var c sweepCounts
	for blk := 0; blk < part.NumBlocks(); blk++ {
		lo, hi := part.Bounds(blk)
		for i := lo; i < hi; i++ {
			var in, off float64
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				switch col := a.ColIdx[p]; {
				case col == i:
				case col >= lo && col < hi:
					in++
				default:
					off++
				}
			}
			class, entry := 1, 20.0 // boundary row on packed CSR
			if interior != nil && interior[i] {
				class, entry = 0, 8
			}
			c.rows[class]++
			c.flops[class] += float64(iters) * (2*off + float64(k)*(2*in+4))
			c.bytes[class] += float64(iters) * (entry*off + float64(k)*(entry*in+24) + 24)
		}
	}
	return c
}

// sweepCounts are the computed per-solve sweep counts by row class:
// index 0 stencil-interior rows, 1 boundary rows.
type sweepCounts struct {
	rows, flops, bytes [2]float64
}

// cacheCounts sums the cache counters of every node's /statsz.
type cacheCounts struct {
	planHit, planMiss, tuneHit, tuneMiss, certHit, certMiss float64
}

func (h *harness) nodeStats(f *fleetProcs) (cacheCounts, error) {
	var c cacheCounts
	for _, n := range f.nodes {
		var st service.Stats
		if err := statsz(h.client, n.url, &st); err != nil {
			return c, fmt.Errorf("%s: %w", n.name, err)
		}
		c.planHit += float64(st.PlanCache.Hits)
		c.planMiss += float64(st.PlanCache.Misses)
		c.tuneHit += float64(st.TuneCache.Hits)
		c.tuneMiss += float64(st.TuneCache.Searches)
		c.certHit += float64(st.CertCache.Hits + st.CertCache.Coalesced)
		c.certMiss += float64(st.CertCache.Checks)
	}
	return c, nil
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

func (h *harness) reportCaches(c cacheCounts) {
	h.setLayer("service.plan_hit_ratio", "ratio", ratio(c.planHit, c.planMiss))
	h.setLayer("service.tune_hit_ratio", "ratio", ratio(c.tuneHit, c.tuneMiss))
	h.setLayer("service.cert_hit_ratio", "ratio", ratio(c.certHit, c.certMiss))
}

// hopProbe measures the gateway hop on finished jobs: the same status
// read through the gateway and straight from the node, alternated; the hop
// is the difference of the medians. owner maps a job's node to the ring
// owner check behind fleet.affinity_ratio.
func (h *harness) hopProbe(gw string, jobs []string, nodes map[string]string) float64 {
	var via, direct []float64
	for i := 0; i < 60; i++ {
		id := jobs[i%len(jobs)]
		name, local, _ := strings.Cut(id, "~")
		t0 := time.Now()
		if _, err := job(h.client, gw, id); err != nil {
			continue
		}
		t1 := time.Now()
		if _, err := job(h.client, nodes[name], local); err != nil {
			continue
		}
		via = append(via, t1.Sub(t0).Seconds())
		direct = append(direct, time.Since(t1).Seconds())
	}
	return median(via) - median(direct)
}

// ringOwner builds a ring with the fleet's members, as the gateway does.
func ringOwner(names []string) func(string) string {
	r := fleet.NewRing(fleet.DefaultReplicas)
	for _, n := range names {
		r.Add(n)
	}
	return func(key string) string {
		o, _ := r.Owner(key)
		return o
	}
}

// traceFV1 finishes a traced fv1 run: cache ratios and the gateway hop
// from the live daemon, then the layer tour on fv1 in this process with
// the daemon stopped.
func (h *harness) traceFV1(f *fleetProcs, sys *fv1, sessions bool) error {
	cc, err := h.nodeStats(f)
	if err != nil {
		return err
	}
	h.reportCaches(cc)

	// Gateway hop and affinity on a few fv1 solves routed through a
	// gateway put in front of the same node.
	gw, err := startGateway(h.cfg.binDir, h.client, f.nodes)
	if err != nil {
		return err
	}
	owner := ringOwner([]string{f.nodes[0].name})
	var jobs []string
	var owned int
	var lastView service.JobView
	rng := rand.New(rand.NewSource(h.cfg.seed + 7))
	for i := 0; i < 4; i++ {
		s, err := submit(h.client, gw.url, solveBody(solverSeed(rng), false))
		if err != nil {
			gw.stop()
			return fmt.Errorf("hop probe: %w", err)
		}
		if lastView, err = await(h.client, gw.url, s.JobID); err == nil {
			err = checkJob(lastView, nil, fv1Tolerance, false)
		}
		if err != nil {
			gw.stop()
			return fmt.Errorf("hop probe: %w", err)
		}
		jobs = append(jobs, s.JobID)
		if s.Node == owner(s.Fingerprint) {
			owned++
		}
	}
	hop := h.hopProbe(gw.url, jobs, map[string]string{f.nodes[0].name: f.nodes[0].url})
	var gs struct {
		Shed uint64 `json:"shed"`
	}
	err = statsz(h.client, gw.url, &gs)
	gw.stop()
	if err != nil {
		return err
	}
	h.setLayer("fleet.hop_s", "s", hop)
	h.setLayer("fleet.affinity_ratio", "ratio", float64(owned)/float64(len(jobs)))
	h.setLayer("fleet.shed", "count", float64(gs.Shed))
	f.stop()

	// The layer tour, on a quiet machine.
	a, b := sys.a, sys.b
	h.setLayer("mats.generate_s", "s", h.timeN("mats.generate", 3, func() { _, _ = mats.Generate("fv1") }))
	h.setLayer("service.fingerprint_s", "s", h.timeN("service.fingerprint", 5, func() { _ = service.Fingerprint(a) }))
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		return err
	}
	h.setLayer("sparse.parse_mm_s", "s", h.timeN("sparse.parse_mm", 3, func() {
		_, _ = sparse.ReadMatrixMarket(bytes.NewReader(mm.Bytes()))
	}))
	h.setLayer("certify.certify_s", "s", h.timeN("certify.certify", 1, func() {
		_, err = certify.Certify(a, certify.Options{Seed: 1})
	}))
	if err != nil {
		return fmt.Errorf("certify fv1: %w", err)
	}
	h.setLayer("certify.diverges", "count", 0)
	var tr tune.Result
	h.setLayer("tune.tune_s", "s", h.timeN("tune.tune", 1, func() { tr, err = tune.Tune(a, b, tune.Config{Seed: 1}) }))
	if err != nil {
		return fmt.Errorf("tune fv1: %w", err)
	}
	h.setLayer("tune.probe_solves", "count", float64(tr.ProbeSolves))

	kernel, _ := core.ParseKernel(lastView.Result.Kernel)
	rule, _ := core.ParseRule(lastView.Result.Method)
	var plan *core.Plan
	h.setLayer("core.plan_build_s", "s", h.timeN("core.plan_build", 3, func() {
		plan, err = core.NewPlanWithConfig(a, fv1BlockSize, false, core.PlanConfig{Kernel: kernel})
	}))
	if err != nil {
		return err
	}
	h.setLayer("core.check_convergence_s", "s", h.timeN("core.check_convergence", 1, func() {
		_, err = core.CheckConvergence(a, 32, 1)
	}))
	if err != nil {
		return err
	}
	opt := core.Options{BlockSize: fv1BlockSize, LocalIters: fv1LocalIters, MaxGlobalIters: fv1MaxIters,
		Tolerance: fv1Tolerance, Method: rule, Beta: lastView.Result.Beta, Precision: lastView.Result.Precision}
	cache := service.NewPlanCache(service.CacheConfig{AnalyzeSpectrum: true})
	key := service.KeyForKernel(a, opt, kernel)
	if _, _, err := cache.GetOrBuild(a, key); err != nil {
		return err
	}
	h.setLayer("service.plan_s", "s", h.timeN("service.plan", 20, func() { _, _, _ = cache.GetOrBuild(a, key) }))

	// One-shot solves as the daemon runs them, each with a fresh seed.
	var runs []coreRun
	for i := 0; i < 8; i++ {
		o := opt
		o.Seed = solverSeed(rng)
		cr, res, err := solveCounted(plan, b, o, nil)
		if err != nil || !res.Converged {
			return fmt.Errorf("in-process fv1 solve: converged=%v err=%v", res.Converged, err)
		}
		h.tr.add("core.solve", 0, cr.start, cr.start.Add(time.Duration(cr.seconds*float64(time.Second))))
		runs = append(runs, cr)
	}
	// Session steps over a drifting right-hand side; the cold first step
	// is left out of the median.
	_, rhs := sessionBodies(sys, rng)
	sess := core.NewSession(plan)
	var steps []float64
	so := opt
	so.Seed = solverSeed(rng)
	for k := 0; k < 13; k++ {
		cr, res, err := solveCounted(plan, rhs[pingPong(k, len(rhs))], so, sess)
		if err != nil || !res.Converged {
			return fmt.Errorf("in-process fv1 session step: converged=%v err=%v", res.Converged, err)
		}
		if k > 0 {
			steps = append(steps, cr.seconds)
			if sessions {
				runs = append(runs, cr)
			}
		}
	}
	if sessions {
		runs = runs[8:] // the step workload reports step counts
	}
	h.reportCore(runs, plan, fv1LocalIters, steps)

	// Codec: the workload's own request and answer bodies.
	var reqBody, respBody []byte
	if sessions {
		reqBody, _ = json.Marshal(service.StepRequest{RHS: rhs[1], IncludeSolution: true})
		respBody, _ = json.Marshal(service.StepResult{Step: 2, Converged: true, WarmStart: true, X: b, Residual: fv1Tolerance / 2})
	} else {
		reqBody = solveBody(1, false)
		respBody, _ = json.Marshal(lastView)
	}
	dec, enc := h.codec(reqBody, respBody, sessions)

	var reqs []service.SolveRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, service.SolveRequest{Matrix: "fv1", BlockSize: fv1BlockSize, LocalIters: fv1LocalIters,
			MaxGlobalIters: fv1MaxIters, Tolerance: fv1Tolerance, Seed: int64(i + 1)})
	}
	sub, err := h.submitProbe(reqs, true)
	if err != nil {
		return err
	}
	h.setLayer("service.submit_s", "s", sub)

	core1 := median(h.tr.durations("core.solve"))
	h.graft(map[string]layerTimes{"fv1": {solve: core1}}, dec, enc, median(steps), 0)
	h.reportRun(func(p pending) bool { return true })
	h.reportSelf("traced", h.selfMedians(func(pending) bool { return true }))
	return nil
}

// reportCore sets the core metrics from in-process solves.
func (h *harness) reportCore(runs []coreRun, plan *core.Plan, k int, steps []float64) {
	pick := func(f func(coreRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	h.setLayer("core.solve_s", "s", median(h.tr.durations("core.solve")))
	h.setLayer("core.step_s", "s", median(steps))
	iters := pick(func(r coreRun) float64 { return float64(r.iterations) })
	h.setLayer("core.iterations", "count", iters)
	h.setLayer("core.block_sweeps", "count", pick(func(r coreRun) float64 { return float64(r.sweeps) }))
	h.setLayer("core.residual_checks", "count", pick(func(r coreRun) float64 { return float64(r.checks) }))
	h.setLayer("core.allocs_per_solve", "count", pick(func(r coreRun) float64 { return r.allocs }))
	h.setLayer("core.alloc_bytes_per_solve", "B", pick(func(r coreRun) float64 { return r.allocBytes }))
	if plan != nil {
		c := kernelCounts(plan, k, int(iters))
		h.setLayer("core.sweep_flops", "flop", c.flops[0]+c.flops[1])
		h.setLayer("core.sweep_bytes", "B", c.bytes[0]+c.bytes[1])
		h.setLayer("core.boundary_sweep_flops", "flop", c.flops[1])
		h.setLayer("core.boundary_sweep_bytes", "B", c.bytes[1])
		h.setLayer("core.boundary_row_fraction", "ratio", c.rows[1]/(c.rows[0]+c.rows[1]))
		h.notef("computed (not measured) sweep counts per solve, n=%d nnz=%d, %.0f iterations, k=%d: interior rows %.0f: %.4g flops %.4g bytes; boundary rows %.0f: %.4g flops %.4g bytes",
			plan.Matrix().Rows, plan.Matrix().NNZ(), iters, k, c.rows[0], c.flops[0], c.bytes[0], c.rows[1], c.flops[1], c.bytes[1])
	}
}

// codec times the service's JSON decode of the request body and encode of
// the answer, in the service's own shape (indented, via an Encoder).
func (h *harness) codec(reqBody, respBody []byte, sessions bool) (dec, enc float64) {
	var answer any
	if sessions {
		var sr service.StepResult
		_ = json.Unmarshal(respBody, &sr) // the harness produced the body
		answer = sr
	} else {
		var jv service.JobView
		_ = json.Unmarshal(respBody, &jv) // a body the daemon sent
		answer = jv
	}
	dec = h.timeN("service.decode", 9, func() {
		if sessions {
			var r service.StepRequest
			_ = json.Unmarshal(reqBody, &r)
		} else {
			var r service.SolveRequest
			_ = json.Unmarshal(reqBody, &r)
		}
	})
	var out bytes.Buffer
	enc = h.timeN("service.encode", 9, func() {
		out.Reset()
		e := json.NewEncoder(&out)
		e.SetIndent("", "  ")
		_ = e.Encode(answer) // writes to a buffer
	})
	h.setLayer("service.decode_s", "s", dec)
	h.setLayer("service.encode_s", "s", enc)
	h.setLayer("service.bytes_in", "B", float64(len(reqBody)))
	h.setLayer("service.bytes_out", "B", float64(out.Len()))
	return dec, enc
}

// submitProbe times service.Service.Submit in process on the workload's
// requests: validation, matrix resolution, admission and the enqueue. Each
// job is waited for, untimed, before the next submission; skipFirst leaves
// out the first, which pays for generating a named matrix.
func (h *harness) submitProbe(reqs []service.SolveRequest, skipFirst bool) (float64, error) {
	svc := service.New(service.Config{Workers: 1, Cache: service.CacheConfig{AnalyzeSpectrum: true}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx) // every job has finished by now
	}()
	var xs []float64
	for i, req := range reqs {
		start := time.Now()
		j, err := svc.Submit(req)
		d := time.Since(start)
		if err != nil {
			var ce *service.CertificateError
			if !errors.As(err, &ce) {
				return 0, fmt.Errorf("in-process submit: %w", err)
			}
		} else {
			<-j.Done()
		}
		if i > 0 || !skipFirst {
			h.tr.add("service.submit", 0, start, start.Add(d))
			xs = append(xs, d.Seconds())
		}
	}
	return median(xs), nil
}

// reportRun sets the queue-wait, run, overhead and load-generator metrics
// from the traced window. The service overhead is the job's run (a
// session's step) minus the core, tune and plan calls grafted inside it;
// it goes negative when the in-process calls ran slower than the daemon's.
func (h *harness) reportRun(keep func(pending) bool) {
	var lat, queue, run, over []float64
	for _, p := range h.pending {
		if !keep(p) || p.runID == 0 {
			continue
		}
		lat = append(lat, p.end.Sub(p.sent).Seconds())
		queue = append(queue, p.queue[1].Sub(p.queue[0]).Seconds())
		run = append(run, h.tr.dur(p.runID))
		over = append(over, h.tr.dur(p.runID)-h.tr.childTime(p.runID))
	}
	h.setLayer("service.queue_wait_s", "s", median(queue))
	h.setLayer("service.run_s", "s", median(run))
	h.setLayer("service.overhead_s", "s", median(over))

	r := h.rec
	r.mu.Lock()
	h.setLayer("bench.late_p90_s", "s", quantile(r.late, 0.9))
	traceOver := median(r.latTraced) - median(r.lat)
	p50 := median(append(append([]float64(nil), r.lat...), r.latTraced...))
	r.mu.Unlock()
	h.setLayer("bench.trace_overhead_s", "s", traceOver)
	h.setLayer("bench.latency_p50_s", "s", p50)
	h.notef("accounting over %d traced requests: latency %.4gs = queue %.4gs + run %.4gs (service overhead %.4gs + layers below) + %.4gs client, HTTP and polling; tracing overhead %.3gs",
		len(lat), median(lat), median(queue), median(run), median(over), median(lat)-median(queue)-median(run), traceOver)
}
