package main

import (
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"time"
)

// recorder collects the outcome of every request of the measured window.
// Failed requests carry no latency: they count against fail_ratio instead.
type recorder struct {
	mu        sync.Mutex
	lat       []float64 // untraced successful requests, seconds
	latTraced []float64 // traced successful requests (traced runs only)
	late      []float64 // how late each request was sent, seconds
	attempted int
	failed    int
	reasons   map[string]int

	corruptEvery int
	checks       int
}

func newRecorder(corruptEvery int) *recorder {
	return &recorder{reasons: map[string]int{}, corruptEvery: corruptEvery}
}

// ok records a correct answer.
func (r *recorder) ok(lat, late float64, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if traced {
		r.latTraced = append(r.latTraced, lat)
	} else {
		r.lat = append(r.lat, lat)
	}
	r.late = append(r.late, late)
}

// fail records a failed request under a short reason.
func (r *recorder) fail(reason string, late float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.reasons[reason]++
	r.late = append(r.late, late)
}

// tamper reports whether the harness should corrupt the answer it is about
// to check (every corruptEvery-th check; never when corruptEvery is 0).
func (r *recorder) tamper() bool {
	if r.corruptEvery <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks++
	return r.checks%r.corruptEvery == 0
}

// delayProxy is a loopback reverse proxy that holds every POST for delay
// before forwarding it to target: a seeded slowdown that lives in the
// harness, not in the program.
type delayProxy struct {
	url  string
	srv  *http.Server
	done chan struct{} // closed once Serve returned
}

func newDelayProxy(target string, delay time.Duration) (*delayProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				time.Sleep(delay)
			}
			rp.ServeHTTP(w, r)
		}),
	}
	p := &delayProxy{url: "http://" + ln.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = srv.Serve(ln) // ErrServerClosed once close is called
	}()
	return p, nil
}

// close stops the proxy and waits for its server to return.
func (p *delayProxy) close() {
	_ = p.srv.Close() // closing the listener cannot fail in a way that matters here
	<-p.done
}
