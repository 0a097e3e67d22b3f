package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// The fv1 workloads' request parameters: the paper's block size, four
// local sweeps, and a tolerance every request must reach.
const (
	fv1BlockSize  = 448
	fv1LocalIters = 4
	fv1MaxIters   = 500
	fv1Tolerance  = 1e-8

	// sessionRHS is the number of distinct right-hand sides pregenerated
	// per session; steps walk them back and forth, so consecutive steps
	// always differ by one small drift.
	sessionRHS = 48
)

// fv1 is the harness's own copy of the system, for checking answers.
type fv1 struct {
	a *sparse.CSR
	b []float64 // A·1, the service's default right-hand side
}

func loadFV1() (*fv1, error) {
	tm, err := mats.Generate("fv1")
	if err != nil {
		return nil, err
	}
	b := make([]float64, tm.A.Rows)
	tm.A.MulVec(b, vecmath.Ones(tm.A.Cols))
	return &fv1{a: tm.A, b: b}, nil
}

// residual is ‖b − Ax‖₂ computed by the harness.
func residual(a *sparse.CSR, b, x []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var s float64
	for i := range ax {
		d := b[i] - ax[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// checkX recomputes the residual of a returned iterate. The slack covers
// rounding differences between the harness's and the solver's summation.
func checkX(a *sparse.CSR, b, x []float64, tol float64) error {
	if len(x) != a.Rows {
		return fmt.Errorf("solution has %d entries, want %d", len(x), a.Rows)
	}
	if r := residual(a, b, x); !(r <= tol*(1+1e-6)) {
		return fmt.Errorf("recomputed residual %.3e above tolerance %.1e", r, tol)
	}
	return nil
}

// checkJob verifies a finished one-shot job: done, converged, residual at
// or under the tolerance, and — when the solution was requested — the
// harness's own residual of the returned x.
func checkJob(v service.JobView, sys *fv1, tol float64, tamper bool) error {
	if v.State != "done" || v.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	r := *v.Result
	if tamper {
		r.Residual = 2 * tol
	}
	if !r.Converged || !(r.Residual <= tol) {
		return fmt.Errorf("job %s not converged (residual %.3e)", v.ID, r.Residual)
	}
	if sys != nil && r.X != nil {
		return checkX(sys.a, sys.b, r.X, tol)
	}
	return nil
}

func solveBody(seed int64, withX bool) []byte {
	body, _ := json.Marshal(service.SolveRequest{ // a plain struct always marshals
		Matrix:          "fv1",
		BlockSize:       fv1BlockSize,
		LocalIters:      fv1LocalIters,
		MaxGlobalIters:  fv1MaxIters,
		Tolerance:       fv1Tolerance,
		Seed:            seed,
		IncludeSolution: withX,
	})
	return body
}

// solverSeed draws a non-zero solver seed.
func solverSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<40) + 1 }

// runSolveFV1 is the solve-fv1 workload: one solverd with two workers and
// closed-loop clients posting one-shot fv1 solves and polling each job to
// its end.
func runSolveFV1(h *harness) error {
	sys, err := loadFV1()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(h.cfg.seed))
	warm := solveBody(solverSeed(rng), true)
	first := func(f *fleetProcs) error {
		s, err := submit(h.client, f.front(), warm)
		if err != nil {
			return err
		}
		v, err := await(h.client, f.front(), s.JobID)
		if err != nil {
			return err
		}
		h.noteJob(v)
		return checkJob(v, sys, fv1Tolerance, h.rec.tamper())
	}
	f, err := h.setUp(func() (*fleetProcs, error) {
		return startFleet(h.cfg.binDir, h.client, 1, 2, false)
	}, first)
	if err != nil {
		return err
	}
	defer f.stop()

	post := f.front()
	if h.cfg.submitDelay > 0 {
		p, err := newDelayProxy(post, h.cfg.submitDelay)
		if err != nil {
			return err
		}
		defer p.close()
		post = p.url
	}
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
				h.solveClient(post, f.front(), rng, deadline)
			}(seeds[i])
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}
	if h.cfg.trace {
		return h.traceFV1(f, sys, false)
	}
	return nil
}

// solveClient runs one closed-loop client until the deadline: each request
// is due the moment the previous answer arrived, so checking it counts as
// lateness of the load generator.
func (h *harness) solveClient(post, poll string, rng *rand.Rand, deadline time.Time) {
	due := time.Now()
	for traced := false; time.Now().Before(deadline); traced = h.cfg.trace && !traced {
		body := solveBody(solverSeed(rng), false)
		sent := time.Now()
		late := sent.Sub(due).Seconds()
		s, err := submit(h.client, post, body)
		if err != nil {
			h.rec.fail("submit", late)
			due = time.Now()
			continue
		}
		v, err := await(h.client, poll, s.JobID)
		end := time.Now()
		if err == nil {
			err = checkJob(v, nil, fv1Tolerance, h.rec.tamper())
		}
		if err != nil {
			h.rec.fail(failReason(err), late)
		} else {
			h.rec.ok(end.Sub(sent).Seconds(), late, traced)
			if traced {
				h.traceJob(sent, end, v, "fv1", false)
			}
		}
		due = end
	}
}

// failReason buckets an error for the failure breakdown.
func failReason(err error) string {
	var ue interface{ Timeout() bool }
	if errors.As(err, &ue) && ue.Timeout() {
		return "timeout"
	}
	msg := err.Error()
	if len(msg) > 60 {
		msg = msg[:60]
	}
	return msg
}

// noteJob keeps the resolved configuration of the first answer for the
// report, so a changed service default is visible.
func (h *harness) noteJob(v service.JobView) {
	if r := v.Result; r != nil && len(h.notes) == 0 {
		h.notef("service resolved kernel=%s precision=%s method=%s beta=%g, %d global iterations, %d blocks",
			r.Kernel, r.Precision, r.Method, r.Beta, r.GlobalIterations, r.NumBlocks)
	}
}

// sessionBodies builds one session's pregenerated step bodies over a
// drifting right-hand side.
func sessionBodies(sys *fv1, rng *rand.Rand) ([][]byte, [][]float64) {
	rhs := driftRHS(sys.a, rng, sessionRHS)
	bodies := make([][]byte, len(rhs))
	for k, b := range rhs {
		bodies[k], _ = json.Marshal(service.StepRequest{RHS: b, IncludeSolution: true}) // plain struct
	}
	return bodies, rhs
}

// pingPong maps step s onto 0,1,…,m−1,m−2,…,1,0,1,… so consecutive steps
// use neighbouring right-hand sides.
func pingPong(s, m int) int {
	p := 2 * (m - 1)
	s %= p
	if s < m {
		return s
	}
	return p - s
}

// session is one client's solve session on the daemon.
type session struct {
	id     string
	bodies [][]byte
	rhs    [][]float64
	step   int
}

// createSession opens a session with the fv1 parameters.
func createSession(c *http.Client, base string, seed int64) (string, error) {
	body, _ := json.Marshal(service.SessionRequest{ // plain struct
		Matrix:         "fv1",
		BlockSize:      fv1BlockSize,
		LocalIters:     fv1LocalIters,
		MaxGlobalIters: fv1MaxIters,
		Tolerance:      fv1Tolerance,
		Seed:           seed,
	})
	status, out, err := exchange(c, http.MethodPost, base+"/v1/sessions", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/sessions: status %d: %.200s", status, out)
	}
	var v service.SessionView
	if err := json.Unmarshal(out, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// stepOnce posts the session's next right-hand side and checks the answer,
// returning the send and receive times and the step's server wall time.
func (h *harness) stepOnce(base string, s *session, sys *fv1) (sent, end time.Time, wall float64, err error) {
	k := pingPong(s.step, len(s.bodies))
	sent = time.Now()
	status, out, err := exchange(h.client, http.MethodPost, base+"/v1/sessions/"+s.id+"/step", s.bodies[k])
	end = time.Now()
	if err != nil {
		return sent, end, 0, err
	}
	if status != http.StatusOK {
		return sent, end, 0, fmt.Errorf("step: status %d: %.200s", status, out)
	}
	var r service.StepResult
	if err := json.Unmarshal(out, &r); err != nil {
		return sent, end, 0, fmt.Errorf("step: %w", err)
	}
	if h.rec.tamper() && len(r.X) > 0 {
		r.X[0] += 1
	}
	s.step++
	switch {
	case !r.Converged || !(r.Residual <= fv1Tolerance):
		err = fmt.Errorf("step %d not converged (residual %.3e)", r.Step, r.Residual)
	case r.Step > 1 && !r.WarmStart:
		err = fmt.Errorf("step %d did not warm-start", r.Step)
	default:
		err = checkX(sys.a, s.rhs[k], r.X, fv1Tolerance)
	}
	return sent, end, r.WallTime, err
}

// runSessionFV1 is the session-fv1 workload: one solverd with two workers,
// closed-loop clients each stepping its own session through a slowly
// drifting right-hand side, every answer carrying its solution.
func runSessionFV1(h *harness) error {
	sys, err := loadFV1()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(h.cfg.seed))
	sess := make([]*session, clients)
	for i := range sess {
		bodies, rhs := sessionBodies(sys, rng)
		sess[i] = &session{bodies: bodies, rhs: rhs}
	}
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = solverSeed(rng)
	}
	open := func(f *fleetProcs, i int) error {
		id, err := createSession(h.client, f.front(), seeds[i])
		if err != nil {
			return err
		}
		sess[i].id, sess[i].step = id, 0
		_, _, _, err = h.stepOnce(f.front(), sess[i], sys)
		return err
	}
	f, err := h.setUp(func() (*fleetProcs, error) {
		return startFleet(h.cfg.binDir, h.client, 1, 2, false)
	}, func(f *fleetProcs) error { return open(f, 0) })
	if err != nil {
		return err
	}
	defer f.stop()
	// The other sessions' cold first steps are warm-up, not measured.
	for i := 1; i < clients; i++ {
		if err := open(f, i); err != nil {
			return err
		}
	}

	deadline := time.Now().Add(time.Duration(h.cfg.seconds * float64(time.Second)))
	err = h.measure(f, func() {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(s *session) {
				defer wg.Done()
				h.sessionClient(f.front(), s, sys, deadline)
			}(sess[i])
		}
		wg.Wait()
	})
	if err != nil {
		return err
	}
	if h.cfg.trace {
		return h.traceFV1(f, sys, true)
	}
	return nil
}

func (h *harness) sessionClient(base string, s *session, sys *fv1, deadline time.Time) {
	due := time.Now()
	for traced := false; time.Now().Before(deadline); traced = h.cfg.trace && !traced {
		sent, end, wall, err := h.stepOnce(base, s, sys)
		late := sent.Sub(due).Seconds()
		if err != nil {
			h.rec.fail(failReason(err), late)
		} else {
			h.rec.ok(end.Sub(sent).Seconds(), late, traced)
			if traced {
				h.traceStep(sent, end, wall)
			}
		}
		due = end
	}
}
