package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{{Start: at(10), End: at(30)}, {Start: at(20), End: at(40)}, {Start: at(90), End: at(120)}}
	if got := covered(parent, kids); got != 40*time.Millisecond {
		t.Fatalf("covered = %v, want 40ms", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := tr.add("bench.request", 0, ms(0), ms(100))
	run := tr.add("service.run", root, ms(10), ms(90))
	tr.add("core.solve", run, ms(20), ms(80))
	self := tr.selfTimes(map[int64]bool{root: true})[0]
	for layer, want := range map[string]float64{"bench": 0.020, "service": 0.020, "core": 0.060} {
		if math.Abs(self[layer]-want) > 1e-9 {
			t.Errorf("%s self = %v, want %v", layer, self[layer], want)
		}
	}
}

func TestPingPongStepsToNeighbours(t *testing.T) {
	prev := pingPong(0, 4)
	for s := 1; s < 20; s++ {
		k := pingPong(s, 4)
		if k < 0 || k > 3 || (k-prev != 1 && prev-k != 1) {
			t.Fatalf("step %d: %d follows %d", s, k, prev)
		}
		prev = k
	}
}

// buildDaemons builds solverd and gateway from the enclosing repository.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/solverd", "./cmd/gateway")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building daemons: %v\n%s", err, out)
	}
	return dir
}

// bounds reads the end-to-end metrics' bounds from BENCHMARK.json.
func bounds(t *testing.T) []bound {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var out []bound
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			continue // set-up is not what the seeded delay touches
		}
		out = append(out, bound{name: m.Name, lowerBetter: m.Better == "lower", share: m.Bound})
	}
	return out
}

// runOnce runs the benchmark once and returns its metrics, including the
// figures that are only in the readable report.
func runOnce(t *testing.T, cfg config) map[string]float64 {
	t.Helper()
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d: %d of %d requests failed", cfg.workload, cfg.seed, res.Failed, res.Attempted)
	}
	out := map[string]float64{}
	for k, m := range res.Metrics {
		out[k] = m.Value
	}
	for k, m := range res.extra {
		out[k] = m.Value
	}
	return out
}

// TestSeededDelayFlaggedOnSolveOnly checks the benchmark's sensitivity and
// specificity: a proxy in the harness holding every solve-fv1 submission
// for a fifth of that workload's median latency must be flagged by the
// comparison, while reruns of the other workloads must not be. Base and
// candidate runs alternate in pairs on the same seed, so slow drift of the
// machine hits both sides alike. Ten pairs let the comparison's nine-in-ten
// rule tolerate one pair that the machine's noise turns round.
func TestSeededDelayFlaggedOnSolveOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons for about ten minutes")
	}
	bin := buildDaemons(t)
	bs := bounds(t)
	const pairs = 10
	for _, wl := range []string{"solve-fv1", "session-fv1", "admit-fleet"} {
		base := config{workload: wl, binDir: bin, seconds: 8, setups: 1}
		cand := base
		if wl == "solve-fv1" {
			base.seed = 100
			p50 := runOnce(t, base)["latency_median_s"]
			cand.submitDelay = time.Duration(0.2 * p50 * float64(time.Second))
		}
		before, after := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < pairs; i++ {
			base.seed, cand.seed = int64(101+i), int64(101+i)
			var b, c map[string]float64
			if i%2 == 0 {
				b, c = runOnce(t, base), runOnce(t, cand)
			} else {
				c, b = runOnce(t, cand), runOnce(t, base)
			}
			for k := range b {
				before[k] = append(before[k], b[k])
				after[k] = append(after[k], c[k])
			}
		}
		got := flagged(bs, before, after)
		switch {
		case wl == "solve-fv1" && len(got) == 0:
			t.Errorf("%s: a %v delay per request was not flagged", wl, cand.submitDelay)
		case wl != "solve-fv1" && len(got) > 0:
			t.Errorf("%s: unchanged program flagged on %v", wl, got)
		default:
			t.Logf("%s: flagged %v", wl, got)
			continue
		}
		for _, b := range bs {
			t.Logf("%s %s: base %.4g candidate %.4g", wl, b.name, before[b.name], after[b.name])
		}
	}
}

// TestForcedWrongAnswerRaisesFailRatio checks that the correctness checks
// count a wrong answer as a failure and mark the run incorrect.
func TestForcedWrongAnswerRaisesFailRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons")
	}
	bin := buildDaemons(t)
	for _, wl := range []string{"solve-fv1", "session-fv1", "admit-fleet"} {
		res, err := run(config{workload: wl, seed: 1, seconds: 3, setups: 1, binDir: bin, corruptEvery: 4}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: forced wrong answers gave failed=%d correct=%v", wl, res.Failed, res.Correct)
		}
	}
}
