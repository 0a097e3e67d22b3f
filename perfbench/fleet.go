package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/tune"
	"repro/internal/vecmath"
)

// The admit-fleet workload's shape.
const (
	// admitMinN and admitMaxN bound the corpus dimensions.
	admitMinN, admitMaxN = 200, 1200
	// admitRecent is how many recently seen matrices repeats cycle over.
	admitRecent = 8
	// admitMaxIters and admitTolerance are the solve budget and target.
	admitMaxIters  = 1000
	admitTolerance = 1e-6
	// tourMatrices and tourDoomed are how many fresh matrices of each
	// class the traced run replays through the layers in process.
	tourMatrices, tourDoomed = 5, 2
)

// operator is one corpus matrix with its payload.
type operator struct {
	entry  fleet.CorpusEntry
	doomed bool
	mmJSON json.RawMessage // the Matrix Market payload as a JSON string
}

// admitReq is one request of the schedule.
type admitReq struct {
	op   *operator
	miss bool // first request of this matrix in the run
}

// corpus hands out the request schedule, generating matrices as the
// clients need them. The mix is fixed — every sixth request doomed, every
// doomed and one in five convergent requests an unseen matrix — and fresh
// dimensions follow a golden-ratio sequence from a seeded start, so every
// seed sees the same spread of sizes in another order and the runs of
// different seeds stay comparable.
type corpus struct {
	mu     sync.Mutex
	i      int        // requests handed out
	offset int        // which of every six requests is doomed
	u      [2]float64 // low-discrepancy position per class: [convergent, doomed]
	used   [2]map[int]bool
	count  [2]int
	recent [2][]*operator
	fresh  []*operator // every fresh matrix, in schedule order
}

func newCorpus(rng *rand.Rand) *corpus {
	c := &corpus{offset: rng.Intn(6)}
	for class := range c.u {
		c.u[class] = rng.Float64()
		c.used[class] = map[int]bool{}
	}
	return c
}

// take returns a never-used matrix of the class, of dimension n when n > 0
// or of the class's next dimension otherwise. Callers hold c.mu.
func (c *corpus) take(doomed bool, n int) *operator {
	class := 0
	if doomed {
		class = 1
	}
	for n == 0 || c.used[class][n] {
		c.u[class] = math.Mod(c.u[class]+(math.Sqrt(5)-1)/2, 1)
		n = admitMinN + int(c.u[class]*float64(admitMaxN-admitMinN+1))
	}
	c.used[class][n] = true
	var e fleet.CorpusEntry
	if doomed {
		e = fleet.BuildDoomedCorpus(1, n, n)[0]
	} else {
		e = fleet.BuildCorpus(1, n, n)[0]
	}
	mm, _ := json.Marshal(e.MatrixMarket) // a string always marshals
	op := &operator{entry: e, doomed: doomed, mmJSON: mm}
	c.recent[class] = append(c.recent[class], op)
	if len(c.recent[class]) > admitRecent {
		c.recent[class] = c.recent[class][1:]
	}
	c.fresh = append(c.fresh, op)
	return op
}

// next returns the next request of the schedule.
func (c *corpus) next() admitReq {
	c.mu.Lock()
	defer c.mu.Unlock()
	doomed := (c.i+c.offset)%6 == 0
	c.i++
	class := 0
	if doomed {
		class = 1
	}
	k := c.count[class]
	c.count[class]++
	if doomed || k%5 == 0 || len(c.recent[class]) == 0 {
		return admitReq{op: c.take(doomed, 0), miss: true}
	}
	// Repeats cycle through the recent matrices, so which sizes repeat
	// does not depend on the seed either.
	r := c.recent[class]
	return admitReq{op: r[k%len(r)]}
}

func admitBody(op *operator, seed int64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"matrix_market":`)
	b.Write(op.mmJSON)
	fmt.Fprintf(&b, `,"tune":"auto","certify":"enforce","max_global_iters":%d,"tolerance":%g,"seed":%d}`,
		admitMaxIters, admitTolerance, seed)
	return b.Bytes()
}

// certRefusal is the 422 body of an admission refusal.
type certRefusal struct {
	Certificate struct {
		Verdict string `json:"verdict"`
	} `json:"certificate"`
}

// admitStats counts what the gateway did with the run's requests.
type admitStats struct {
	mu                        sync.Mutex
	accepted, owned, diverges int
	jobs                      []string // finished job IDs, for the hop probe
}

// runAdmitFleet is the admit-fleet workload: gateway in front of two
// one-worker nodes, closed-loop clients posting inline operators with
// tune=auto and certify=enforce and polling each accepted job to its end.
func runAdmitFleet(h *harness) error {
	rng := rand.New(rand.NewSource(h.cfg.seed))
	c := newCorpus(rng)
	// Every seed starts from the same mid-sized matrix, so set-up time does
	// not depend on the seed.
	firstOp := c.take(false, (admitMinN+admitMaxN)/2)
	firstBody := admitBody(firstOp, solverSeed(rng))
	first := func(f *fleetProcs) error {
		s, err := submit(h.client, f.front(), firstBody)
		if err != nil {
			return err
		}
		v, err := await(h.client, f.front(), s.JobID)
		if err != nil {
			return err
		}
		return checkAdmitted(v, firstOp, h.rec.tamper())
	}
	f, err := h.setUp(func() (*fleetProcs, error) {
		return startFleet(h.cfg.binDir, h.client, 2, 1, true)
	}, first)
	if err != nil {
		return err
	}
	defer f.stop()

	names := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		names[i] = nd.name
	}
	owner := ringOwner(names)
	var st admitStats
	seeds := make([]*rand.Rand, clients)
	for i := range seeds {
		seeds[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	deadline := time.Now().Add(time.Duration(h.cfg.seconds * float64(time.Second)))
	err = h.measure(f, func() {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				h.admitClient(f.front(), c, rng, owner, &st, deadline)
			}(seeds[i])
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}
	h.notef("%d requests: %d accepted (%d on their ring owner), %d certified divergent",
		c.i, st.accepted, st.owned, st.diverges)
	if !h.cfg.trace {
		return nil
	}

	cc, err := h.nodeStats(f)
	if err != nil {
		return err
	}
	h.reportCaches(cc)
	urls := map[string]string{}
	for _, nd := range f.nodes {
		urls[nd.name] = nd.url
	}
	if len(st.jobs) == 0 {
		return fmt.Errorf("no job finished")
	}
	hop := h.hopProbe(f.gateway.url, st.jobs, urls)
	var gs struct {
		Shed uint64 `json:"shed"`
	}
	if err := statsz(h.client, f.gateway.url, &gs); err != nil {
		return err
	}
	h.setLayer("fleet.hop_s", "s", hop)
	h.setLayer("fleet.affinity_ratio", "ratio", float64(st.owned)/math.Max(float64(st.accepted), 1))
	h.setLayer("fleet.shed", "count", float64(gs.Shed))
	h.setLayer("certify.diverges", "count", float64(st.diverges))
	f.stop()
	return h.tourAdmit(c.fresh[1:], hop) // the first matrix is the set-up's
}

// admitClient runs one closed-loop client until the deadline: a doomed
// matrix must be refused with a divergence certificate, any other accepted
// and solved. Each request is due once the previous answer was checked, so
// generating a fresh matrix counts as lateness of the load generator.
func (h *harness) admitClient(front string, c *corpus, rng *rand.Rand, owner func(string) string, st *admitStats, deadline time.Time) {
	due := time.Now()
	for traced := false; time.Now().Before(deadline); traced = h.cfg.trace && !traced {
		rq := c.next()
		body := admitBody(rq.op, solverSeed(rng))
		sent := time.Now()
		late := sent.Sub(due).Seconds()
		status, out, err := exchange(h.client, http.MethodPost, front+"/v1/solve", body)
		switch {
		case err != nil:
			h.rec.fail(failReason(err), late)
		case status == http.StatusUnprocessableEntity && rq.op.doomed:
			end := time.Now()
			var cr certRefusal
			if err := json.Unmarshal(out, &cr); err != nil || cr.Certificate.Verdict != "diverges" || h.rec.tamper() {
				h.rec.fail("422 without a diverges certificate", late)
				break
			}
			st.mu.Lock()
			st.diverges++
			st.mu.Unlock()
			h.rec.ok(end.Sub(sent).Seconds(), late, traced)
			if traced {
				root := h.tr.add("bench.request", 0, sent, end)
				h.pendMu.Lock()
				h.pending = append(h.pending, pending{root: root, sent: sent, end: end, key: rq.op.entry.Fingerprint, miss: rq.miss})
				h.pendMu.Unlock()
			}
		case status == http.StatusAccepted && rq.op.doomed:
			h.rec.fail("divergent matrix admitted", late)
		case status == http.StatusAccepted:
			var s submitted
			if err := json.Unmarshal(out, &s); err != nil || s.JobID == "" {
				h.rec.fail("bad 202 body", late)
				break
			}
			v, err := await(h.client, front, s.JobID)
			end := time.Now()
			if err == nil {
				err = checkAdmitted(v, rq.op, h.rec.tamper())
			}
			if err != nil {
				h.rec.fail(failReason(err), late)
				break
			}
			h.rec.ok(end.Sub(sent).Seconds(), late, traced)
			st.mu.Lock()
			st.accepted++
			if s.Node == owner(rq.op.entry.Fingerprint) {
				st.owned++
			}
			st.jobs = append(st.jobs, s.JobID)
			st.mu.Unlock()
			if traced {
				h.traceJob(sent, end, v, rq.op.entry.Fingerprint, rq.miss)
			}
		default:
			h.rec.fail(fmt.Sprintf("status %d", status), late)
		}
		due = time.Now()
	}
}

// checkAdmitted verifies a finished admit-fleet job: done, converged at
// the tolerance, and solved on the matrix that was sent.
func checkAdmitted(v service.JobView, op *operator, tamper bool) error {
	if v.State != "done" || v.Result == nil {
		return fmt.Errorf("job ended %s: %.80s", v.State, v.Error)
	}
	r := v.Result
	if tamper {
		return fmt.Errorf("harness-forced wrong answer")
	}
	if !r.Converged || !(r.Residual <= admitTolerance) {
		return fmt.Errorf("job not converged (residual %.3e)", r.Residual)
	}
	if r.Fingerprint != op.entry.Fingerprint {
		return fmt.Errorf("job solved matrix %s, sent %s", r.Fingerprint, op.entry.Fingerprint)
	}
	return nil
}

// tourAdmit replays the run's first fresh matrices through each layer's
// public functions, as a node admits and solves them.
func (h *harness) tourAdmit(fresh []*operator, hop float64) error {
	var conv, doomed []*operator
	for _, op := range fresh {
		switch {
		case op.doomed && len(doomed) < tourDoomed:
			doomed = append(doomed, op)
		case !op.doomed && len(conv) < tourMatrices:
			conv = append(conv, op)
		}
	}
	lt := map[string]layerTimes{}
	var (
		gen, parse, fps, certs, tunes, builds, plans []float64
		spectral                                     []float64
		probes                                       []float64
		runs                                         []coreRun
		firstPlan                                    *core.Plan
		firstK                                       int
		reqsIn                                       []service.SolveRequest
	)
	rng := rand.New(rand.NewSource(h.cfg.seed + 11))
	for _, op := range append(append([]*operator(nil), conv...), doomed...) {
		var t layerTimes
		n := op.entry.N
		gen = append(gen, h.tr.timed("mats.generate", 0, func() {
			if op.doomed {
				_ = mats.S1RMT3M1(n)
			} else {
				_ = mats.DiagDominant(n, 4, 1.5)
			}
		}))
		var a *sparse.CSR
		var err error
		t.parse = h.tr.timed("sparse.parse_mm", 0, func() { a, err = sparse.ReadMatrixMarket(strings.NewReader(op.entry.MatrixMarket)) })
		if err != nil {
			return err
		}
		var fp string
		t.fingerprint = h.tr.timed("service.fingerprint", 0, func() { fp = service.Fingerprint(a) })
		var cert certify.Certificate
		t.certify = h.tr.timed("certify.certify", 0, func() { cert, err = certify.Certify(a, certify.Options{Seed: 1}) })
		if err != nil {
			return err
		}
		parse, fps, certs = append(parse, t.parse), append(fps, t.fingerprint), append(certs, t.certify)
		if (cert.Verdict == certify.VerdictDiverges) != op.doomed {
			return fmt.Errorf("certificate of %s says %s", op.entry.Name, cert.Verdict)
		}
		reqsIn = append(reqsIn, service.SolveRequest{MatrixMarket: op.entry.MatrixMarket, Tune: "auto", Certify: "enforce",
			MaxGlobalIters: admitMaxIters, Tolerance: admitTolerance, Seed: 1})
		if op.doomed {
			lt[fp] = t
			continue
		}
		b := make([]float64, a.Rows)
		a.MulVec(b, vecmath.Ones(a.Cols))
		var tr tune.Result
		t.tune = h.tr.timed("tune.tune", 0, func() { tr, err = tune.Tune(a, b, tune.Config{Seed: 1}) })
		if err != nil {
			return err
		}
		tunes, probes = append(tunes, t.tune), append(probes, float64(tr.ProbeSolves))
		opt := core.Options{BlockSize: tr.BlockSize, LocalIters: tr.LocalIters, Omega: tr.Omega, Method: tr.Method,
			Beta: tr.Beta, MaxGlobalIters: admitMaxIters, Tolerance: admitTolerance, Seed: solverSeed(rng)}
		var plan *core.Plan
		t.planBuild = h.tr.timed("core.plan_build", 0, func() { plan, err = core.NewPlan(a, opt.BlockSize, false) })
		if err != nil {
			return err
		}
		builds = append(builds, t.planBuild)
		// The plan cache's spectral pre-flight report, as solverd computes
		// it on every plan miss.
		t.spectral = h.tr.timed("core.check_convergence", 0, func() { _, err = core.CheckConvergence(a, 32, 1) })
		if err != nil {
			return err
		}
		spectral = append(spectral, t.spectral)
		cache := service.NewPlanCache(service.CacheConfig{AnalyzeSpectrum: true})
		plans = append(plans, h.tr.timed("service.plan", 0, func() { _, _, err = cache.GetOrBuild(a, service.KeyFor(a, opt)) }))
		if err != nil {
			return err
		}
		cr, res, err := solveCounted(plan, b, opt, nil)
		if err != nil || !res.Converged {
			return fmt.Errorf("in-process solve of %s: converged=%v err=%v", op.entry.Name, res.Converged, err)
		}
		h.tr.add("core.solve", 0, cr.start, cr.start.Add(time.Duration(cr.seconds*float64(time.Second))))
		t.solve = cr.seconds
		runs = append(runs, cr)
		if firstPlan == nil {
			firstPlan, firstK = plan, opt.LocalIters
		}
		lt[fp] = t
	}
	h.setLayer("mats.generate_s", "s", median(gen))
	h.setLayer("sparse.parse_mm_s", "s", median(parse))
	h.setLayer("service.fingerprint_s", "s", median(fps))
	h.setLayer("certify.certify_s", "s", median(certs))
	h.setLayer("tune.tune_s", "s", median(tunes))
	h.setLayer("tune.probe_solves", "count", median(probes))
	h.setLayer("core.plan_build_s", "s", median(builds))
	h.setLayer("core.check_convergence_s", "s", median(spectral))
	h.setLayer("service.plan_s", "s", median(plans))

	// Session steps on the first matrix, for the step counters.
	var steps []float64
	if firstPlan != nil {
		a := firstPlan.Matrix()
		rhs := driftRHS(a, rng, 8)
		sess := core.NewSession(firstPlan)
		opt := core.Options{BlockSize: firstPlan.BlockSize(), LocalIters: firstK, MaxGlobalIters: admitMaxIters,
			Tolerance: admitTolerance, Seed: solverSeed(rng)}
		for k := range rhs {
			cr, _, err := solveCounted(firstPlan, rhs[k], opt, sess)
			if err != nil {
				return err
			}
			if k > 0 {
				steps = append(steps, cr.seconds)
			}
		}
	}
	h.reportCore(runs, firstPlan, firstK, steps)

	body := admitBody(conv[0], 1)
	resp, _ := json.Marshal(service.JobView{ID: "job-000001", State: "done", Result: &service.JobResult{Converged: true}}) // plain struct
	dec, enc := h.codec(body, resp, false)

	sub, err := h.submitProbe(reqsIn, false)
	if err != nil {
		return err
	}
	h.setLayer("service.submit_s", "s", sub)

	h.graft(lt, dec, enc, 0, hop)
	h.reportRun(func(p pending) bool { _, ok := lt[p.key]; return ok && p.miss })
	h.reportSelf("miss", h.selfMedians(func(p pending) bool { _, ok := lt[p.key]; return ok && p.miss && p.admitted }))
	hits := h.selfMedians(func(p pending) bool { _, ok := lt[p.key]; return ok && !p.miss && p.admitted })
	keys := make([]string, 0, len(hits))
	for k := range hits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.3gms", k, 1e3*hits[k]))
	}
	h.notef("self time per hit request (median): %s", strings.Join(parts, ", "))
	return nil
}

// driftRHS builds count right-hand sides b = A·x* with x* = 1 + 0.01·sin(·)
// drifting slowly from one to the next.
func driftRHS(a *sparse.CSR, rng *rand.Rand, count int) [][]float64 {
	n := a.Rows
	f := 1 + rng.Float64()*3
	phase := rng.Float64() * 2 * math.Pi
	out := make([][]float64, count)
	x := make([]float64, n)
	for k := range out {
		for i := range x {
			x[i] = 1 + 0.01*math.Sin(2*math.Pi*f*float64(i)/float64(n)+phase+0.02*float64(k))
		}
		out[k] = make([]float64, n)
		a.MulVec(out[k], x)
	}
	return out
}
